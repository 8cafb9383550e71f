"""Symbolic Pauli algebra, stabilizer codes, and gate-construction checks.

Pauli words are stored as X/Z bit masks with an explicit phase, so products
and commutation stay sign-exact.  On top of that sit: correctability checks
in the Pauli basis and in the damping basis (letters I, A, B, A-dagger),
measurement-induced stabilizer updates, cat-state parity-measurement
verification, the conjugation hierarchy of gates, and dense verification of
the measurement-plus-fixup gate constructions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .qop_core import (CNOT, DEFAULT_TOL, I2, SX, SY, SZ, apply_local, check_int,
                       check_positive, dagger, kron_all, pauli_product_basis)

_LETTER = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def _parity(mask):
    return bin(mask).count("1") & 1


def _parities(v):
    """Parity of the set bits of each nonnegative int64 entry; a xor fold,
    so it runs on numpy versions without np.bitwise_count."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def _reversed_bits(mask, n):
    """mask with bit q moved to bit n - 1 - q, qubit q's bit in an index."""
    return int(f"{mask:0{n}b}"[::-1], 2)


@dataclass(frozen=True)
class PauliWord:
    """phase * product over qubits of X^x Z^z (X left of Z on each qubit)."""

    n: int
    x: int = 0
    z: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self):
        check_int("n", self.n, 1)
        for name, mask in (("x", self.x), ("z", self.z)):
            if not (isinstance(mask, numbers.Integral) and mask >= 0
                    and not mask >> self.n):
                raise ValueError(f"{name} mask must be an integer in "
                                 f"0..2^n - 1 for n={self.n}, "
                                 f"got {name}={mask!r}")
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be one of +1, -1, +i, -i")

    @classmethod
    def from_string(cls, text):
        if not isinstance(text, str):
            raise ValueError(f"a Pauli word must be a string, got {text!r}")
        s = text.strip()
        phase = 1 + 0j
        for prefix, val in (("-i", -1j), ("+i", 1j), ("i", 1j),
                            ("-", -1 + 0j), ("+", 1 + 0j)):
            if s.startswith(prefix):
                phase = val
                s = s[len(prefix):]
                break
        x = z = 0
        for q, c in enumerate(s):
            if c == "X":
                x |= 1 << q
            elif c == "Z":
                z |= 1 << q
            elif c == "Y":
                x |= 1 << q
                z |= 1 << q
                phase *= 1j
            elif c != "I":
                raise ValueError(f"bad Pauli letter {c!r}")
        return cls(len(s), x, z, phase)

    def display(self):
        """(sign, letters) with Y letters shown and the sign adjusted."""
        letters = []
        sign = self.phase
        for q in range(self.n):
            xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
            if xb and zb:
                letters.append("Y")
                sign *= -1j  # XZ = -iY
            elif xb:
                letters.append("X")
            elif zb:
                letters.append("Z")
            else:
                letters.append("I")
        return sign, "".join(letters)

    def __str__(self):
        sign, letters = self.display()
        prefix = {1 + 0j: "", -1 + 0j: "-", 1j: "i", -1j: "-i"}[sign]
        return prefix + letters

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        sign = -1 if _parity(self.z & other.x) else 1
        return PauliWord(self.n, self.x ^ other.x, self.z ^ other.z,
                         self.phase * other.phase * sign)

    def dagger(self):
        sign = -1 if _parity(self.x & self.z) else 1
        return PauliWord(self.n, self.x, self.z,
                         self.phase.conjugate() * sign)

    def commutes(self, other):
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return (_parity(self.x & other.z) ^ _parity(self.z & other.x)) == 0

    @property
    def is_hermitian(self):
        sign = self.phase.conjugate() * (-1 if _parity(self.x & self.z) else 1)
        return sign == self.phase

    def apply(self, vec):
        """The word applied to a state vector, or to each column of a matrix."""
        vec = np.asarray(vec, dtype=complex)
        n = self.n
        idx = np.arange(1 << n)
        xperm, zperm = _reversed_bits(self.x, n), _reversed_bits(self.z, n)
        out = np.zeros_like(vec)
        scale = self.phase * (1 - 2 * _parities(idx & zperm))
        out[idx ^ xperm] = scale.reshape((-1,) + (1,) * (vec.ndim - 1)) * vec
        return out

    def matrix(self):
        return self.apply(np.eye(1 << self.n))


def identity_word(n):
    return PauliWord(n)


def single_qubit_word(n, q, letter):
    check_int("n", n, 1)
    check_int("q", q, 0)
    if q >= n:
        raise ValueError(f"qubit q must be below n={n}, got q={q!r}")
    if letter not in _LETTER:
        raise ValueError(f"letter must be one of I, X, Y, Z, got {letter!r}")
    s = ["I"] * n
    s[q] = letter
    return PauliWord.from_string("".join(s))


# ---------------------------------------------------------------------------
# stabilizer codes


@dataclass
class StabilizerCode:
    n: int
    generators: list
    logical_x: list = field(default_factory=list)
    logical_z: list = field(default_factory=list)

    @property
    def k(self):
        return self.n - len(self.generators)

    @classmethod
    def from_strings(cls, generators, logical_x=(), logical_z=()):
        if not generators:
            raise ValueError("generators must hold at least one word "
                             "(the qubit count is read from them)")
        to = PauliWord.from_string
        words = [to(g) for g in generators]
        code = cls(words[0].n, words,
                   [to(g) for g in logical_x], [to(g) for g in logical_z])
        return code.validate()

    def validate(self):
        for g in self.generators:
            if g.n != self.n or not g.is_hermitian:
                raise ValueError(f"bad generator {g}")
        packed = [(g.x << self.n) | g.z for g in self.generators]
        if len(_echelon(packed)) != len(packed):
            raise ValueError("generators are not independent")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise ValueError(f"generators {a} and {b} anticommute")
        kx, kz = len(self.logical_x), len(self.logical_z)
        if kx != kz or kx not in (0, self.k):
            raise ValueError(f"logical_x and logical_z must both hold 0 or "
                             f"k = {self.k} words, got {kx} and {kz}")
        norm = []
        for word in self.logical_x + self.logical_z:
            if not all(word.commutes(g) for g in self.generators):
                raise ValueError(f"logical {word} moves the code space")
            sign, _ = word.display()
            if sign == -1:
                word = PauliWord(word.n, word.x, word.z, -word.phase)
            elif sign in (1j, -1j):
                raise ValueError(f"logical {word} is not hermitian")
            norm.append(word)
        self.logical_x, self.logical_z = norm[:kx], norm[kx:]
        for i, xi in enumerate(self.logical_x):
            for j, zj in enumerate(self.logical_z):
                if xi.commutes(zj) != (i != j):
                    raise ValueError("logical pairing broken")
        return self

    def stabilizer_group(self):
        """All 2^(n-k) signed products of the generators."""
        group = [identity_word(self.n)]
        for g in self.generators:
            group += [w * g for w in group]
        return group

    def to_json(self):
        return json.dumps({
            "n": self.n,
            "generators": [str(g) for g in self.generators],
            "logical_x": [str(g) for g in self.logical_x],
            "logical_z": [str(g) for g in self.logical_z],
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls.from_strings(d["generators"], d.get("logical_x", ()),
                                d.get("logical_z", ()))


# the parity check holds 2^(3a) amplitudes for a subset of a qubits, whatever n
_PARITY_SUBSET = 7


def codewords(code, tol=DEFAULT_TOL):
    """Basis |b>_L: joint +1 states of the generators with logical-Z
    eigenvalues (-1)^(b_i); phases pinned at the largest amplitude."""
    check_positive("tol", tol)
    dim = 1 << code.n
    out = []
    for bits in itertools.product((0, 1), repeat=code.k):
        vec = None
        for start in range(dim):
            v = np.zeros(dim, dtype=complex)
            v[start] = 1.0
            for g in code.generators:
                v = (v + g.apply(v)) / 2
            for b, zbar in zip(bits, code.logical_z):
                v = (v + (-1) ** b * zbar.apply(v)) / 2
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                vec = v / norm
                break
        if vec is None:
            raise ValueError("empty codeword projection")
        pin = vec[np.argmax(np.abs(vec))]
        vec = vec * (abs(pin) / pin)
        out.append(vec)
    for a, b in itertools.combinations(out, 2):
        if abs(np.vdot(a, b)) > tol:
            raise ValueError("codewords not orthogonal")
    return out


# ---------------------------------------------------------------------------
# fixtures


def shor9():
    return StabilizerCode.from_strings(
        ["ZZIIIIIII", "ZIZIIIIII", "IIIZZIIII", "IIIZIZIII",
         "IIIIIIZZI", "IIIIIIZIZ", "XXXXXXIII", "XXXIIIXXX"],
        logical_x=["ZIIZIIZII"], logical_z=["XXXXXXXXX"])


def steane7():
    return StabilizerCode.from_strings(
        ["IIIZZZZ", "IZZIIZZ", "ZIZIZIZ", "IIIXXXX", "IXXIIXX", "XIXIXIX"],
        logical_x=["XXXXXXX"], logical_z=["ZZZZZZZ"])


def five_qubit():
    return StabilizerCode.from_strings(
        ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"],
        logical_x=["XXXXX"], logical_z=["ZZZZZ"])


def ad4():
    return StabilizerCode.from_strings(
        ["XXXX", "ZZII", "IIZZ"], logical_x=["XXII"], logical_z=["ZIZI"])


def ad7():
    return StabilizerCode.from_strings(
        ["XXXXXXX", "ZZZZIII", "ZZIIZZI", "ZIZIZIZ"],
        logical_x=["ZZIIIII", "IZZIIII", "IZIIZII"],
        logical_z=["IXXIXII", "XXIIXXI", "XXXXIII"])


# ---------------------------------------------------------------------------
# Pauli-basis correctability


@dataclass
class PauliCheck:
    correctable: bool
    degenerate: bool
    verdicts: dict
    violations: list


def _word_arrays(words):
    """x masks and z masks of Pauli words, as int64 arrays."""
    return (np.array([w.x for w in words], dtype=np.int64),
            np.array([w.z for w in words], dtype=np.int64))


def _check_masks(n):
    """Masks hold bit q for qubit q in an int64, so the bit-array checks
    stop at 63 qubits."""
    if n > 63:
        raise ValueError(f"bit-array checks hold at most 63 qubits, "
                         f"got n={n}")


def _echelon(vectors):
    """GF(2) vectors held as ints (a generator packs as (x << n) | z),
    reduced to (row, pivot) pairs: the pivot is its row's top bit and is
    clear in every other row, so a vector lies in their span when xoring
    in the row of each set pivot clears it."""
    rows = []
    for v in vectors:
        for row, bit in rows:
            if (v >> bit) & 1:
                v ^= row
        if v:
            top = v.bit_length() - 1
            rows = [(row ^ v if (row >> top) & 1 else row, bit)
                    for row, bit in rows] + [(v, top)]
    return rows


_KINDS = ("detected", "stabilizer", "logical")
_LOGICAL = _KINDS.index("logical")


def _quotient_kinds(code, x, z):
    """Index into _KINDS for each Pauli word (x, z): "detected" when it
    anticommutes with a generator, else "stabilizer" when the echelon rows
    reduce it to nothing (a group element up to sign), else "logical": an
    undetected word acting on the code space."""
    undetected = np.ones(np.shape(x), dtype=bool)
    for g in code.generators:
        undetected &= _parities((x & g.z) ^ (z & g.x)) == 0
    n, ux, uz = code.n, x[undetected], z[undetected]
    for row, bit in _echelon((g.x << n) | g.z for g in code.generators):
        hit = ((ux if bit >= n else uz) >> (bit % n)) & 1
        ux ^= hit * (row >> n)
        uz ^= hit * (row & ((1 << n) - 1))
    kinds = np.zeros(np.shape(x), dtype=np.int64)
    kinds[undetected] = np.where((ux | uz) == 0, 1, 2)
    return kinds


def pauli_correctable(code, errors):
    """Knill-Laflamme check over a Pauli error list: every quotient E^t F
    must be detected by anticommutation or lie inside the stabilizer."""
    if any(e.n != code.n for e in errors):
        raise ValueError("qubit counts differ")
    _check_masks(code.n)
    ex, ez = _word_arrays(errors)
    kinds = _quotient_kinds(code, ex[:, None] ^ ex, ez[:, None] ^ ez)
    verdicts, violations = {}, []
    degenerate = False
    for (i, j), index in np.ndenumerate(kinds):
        kind = _KINDS[index]
        if kind == "logical":
            kind = "violation"
            violations.append((i, j))
        elif kind == "stabilizer" and i != j:
            degenerate = True
        verdicts[i, j] = kind
    return PauliCheck(not violations, degenerate, verdicts, violations)


def _weight_masks(n, w):
    """int64 x and z masks of the weight-w words: qubit sets in combinations
    order, then letters 0, 1, 2 (X, Y, Z) in product order."""
    if w > n:
        return np.zeros((2, 0), dtype=np.int64)
    qubits = np.array(list(itertools.combinations(range(n), w)), dtype=np.int64)
    bits = np.int64(1) << qubits.reshape(len(qubits), 1, w)
    letters = np.array(list(itertools.product(range(3), repeat=w)))
    return (((letters < 2) * bits).sum(axis=2).ravel(),
            ((letters > 0) * bits).sum(axis=2).ravel())


def pauli_distance(code, max_weight=None):
    """Smallest weight of an undetected non-stabilizer word."""
    top = code.n if max_weight is None else max_weight
    check_int("max_weight", top, 1)
    _check_masks(code.n)
    for w in range(1, top + 1):
        if (_quotient_kinds(code, *_weight_masks(code.n, w)) == _LOGICAL).any():
            return w
    raise ValueError("no logical operator found up to the weight cap")


# ---------------------------------------------------------------------------
# damping-basis correctability


_AD_MATRIX = {
    "I": I2,
    "B": I2 - SZ,
    "A": SX @ (I2 - SZ),
    "Ad": (I2 - SZ) @ SX,
}

# letter codes: 2 * (has an X part) + (a Z term takes sign -1)
_AD_LETTERS = ("I", "B", "Ad", "A")


@dataclass(frozen=True)
class AdWord:
    """Tensor word over the damping letters I, A, A' (spelled "Ad") and B."""

    letters: tuple

    def __str__(self):
        return "".join(c if c != "Ad" else "A'" for c in self.letters)


def _ad_word(codes):
    return AdWord(tuple(_AD_LETTERS[c] for c in codes))


def _combinations(n, r):
    """itertools.combinations(range(n), r) as a (count, r) index array."""
    combos = list(itertools.combinations(range(n), r))
    return np.array(combos, dtype=np.intp).reshape(len(combos), r)


def _ad_codes(n, t):
    """Letter codes of ad_words(n, t), one row per word, in its order: by r
    A/A' letters and s B letters, then the A positions, the B positions
    among the other qubits and the A/A' kinds, each in itertools order.
    The array is built once per (n, t) and is read-only."""
    # checked before the cache: a list is unhashable, and 1.0 == 1 hashes alike
    check_int("n", n, 1)
    check_int("t", t, 0)
    return _build_ad_codes(int(n), int(t))


@functools.lru_cache(maxsize=16)
def _build_ad_codes(n, t):
    lower, raised, diag = (_AD_LETTERS.index(c) for c in ("A", "Ad", "B"))
    blocks = []
    # r + 2s <= 2t, and r + s <= n: larger r or s have no qubits to fill
    for r in range(0, min(2 * t, n) + 1):
        a_pos = _combinations(n, r)
        free = np.ones((len(a_pos), n), dtype=bool)
        free[np.arange(len(a_pos))[:, None], a_pos] = False
        others = np.nonzero(free)[1].reshape(len(a_pos), n - r)
        # itertools.product((lower, raised), repeat=r) with at most t of each
        up = (np.arange(1 << r)[:, None] >> np.arange(r - 1, -1, -1)) & 1
        ups = up.sum(axis=1)
        kinds = np.where(up[(ups <= t) & (r - ups <= t)] == 1, raised, lower)
        for s in range(0, min(t - (r + 1) // 2, n - r) + 1):
            b_pos = others[:, _combinations(n - r, s)]
            rows = np.zeros((len(a_pos), b_pos.shape[1], len(kinds), n), dtype=np.int8)
            np.put_along_axis(rows, a_pos[:, None, None, :], kinds[None, None], axis=3)
            np.put_along_axis(rows, b_pos[:, :, None, :], diag, axis=3)
            blocks.append(rows.reshape(-1, n))
    codes = np.concatenate(blocks)
    codes.flags.writeable = False
    return codes


def ad_words(n, t):
    """Every damping word relevant at order t.

    These are the quotients of two correctable error factors: total order
    r/2 + s <= t, with at most t plain and at most t raised letters (the
    raised ones belong to the left factor, the plain to the right, and
    each factor alone stays within order t/2).
    """
    return [_ad_word(row) for row in _ad_codes(n, t).tolist()]


def _ad_masks(codes):
    """Bit masks (bit q for qubit q) of each row of a letter-code array:
    x on the A and A' letters, support on every non-I letter, and ab on
    the A and B letters, where a Z term takes sign -1."""
    bits = np.int64(1) << np.arange(codes.shape[1], dtype=np.int64)
    return (((codes >> 1) * bits).sum(axis=1),
            ((codes != 0) * bits).sum(axis=1),
            ((codes & 1) * bits).sum(axis=1))


def _ad_terms(codes):
    """Pauli terms of every row of a letter-code array, flattened to
    (row, x, z, sign) in row order.  With A = X - XZ, A' = X + XZ and
    B = I - Z a term keeps its word's x mask, has Z on a subset of the
    word's non-I letters and sign -1 for each Z on an A or a B."""
    x, _, ab = _ad_masks(codes)
    row = np.arange(len(codes))
    z = np.zeros(len(codes), dtype=np.int64)
    for q in range(codes.shape[1]):
        # a term splits on each non-I letter: without, then with Z there
        split = codes[row, q] != 0
        row, z = np.repeat(row, 1 + split), np.repeat(z, 1 + split)
        z[np.cumsum(1 + split)[split] - 1] |= 1 << q
    return row, x[row], z, 1 - 2 * _parities(z & ab[row])


def _negation_sign(support, ab, word):
    """c with W * word = c * W for the damping word W with masks support and
    ab, or 0 when the product changes letters.  Only Z letters on non-I
    letters are absorbed, taking -1 on A and B."""
    if word.x or word.z & ~support:
        return 0
    return int(word.phase.real) * (-1) ** _parity(word.z & ab)


def _group_element(code, i):
    """Element i of stabilizer_group(): the product, in generator order, of
    the generators whose bits are set in i."""
    word = identity_word(code.n)
    for j, g in enumerate(code.generators):
        if (i >> j) & 1:
            word = word * g
    return word


def _first_negating(code, support, ab):
    """The first element of stabilizer_group() that negates the damping
    word with masks support and ab, or None.

    The indices whose element has no X part and no Z off the support form
    a GF(2) kernel K, spanned by the echelon rows whose pivots are index
    bits.  Its elements are +-Z^z, so an index in K negates exactly when it xors
    an odd number of negating rows; the rows are reduced, so the smallest
    such index is the smallest negating row.
    """
    r = len(code.generators)
    kernel = [row for row, bit in _echelon(
        (((g.x << code.n) | (g.z & ~support)) << r) | (1 << j)
        for j, g in enumerate(code.generators)) if bit < r]
    elements = {i: _group_element(code, i) for i in kernel}
    negating = [i for i, word in elements.items()
                if _negation_sign(support, ab, word) == -1]
    return elements[min(negating)] if negating else None


@dataclass
class AdReport:
    correctable: bool
    t: int
    checked: int
    rejections: list
    negated: list


def ad_correctable(code, t):
    """Damping-basis correctability at order t.

    A word passes when each of its Pauli terms anticommutes with a
    generator or lies in the stabilizer group, or -- the non-Pauli escape
    hatch -- when some stabilizer element negates the whole word by plain
    multiplication, which zeroes it on the code space.  Words and terms
    are checked as int64 bit masks, so codes of more than 63 qubits are
    refused.

    A failing word's negated pair names the first negating element in
    stabilizer_group() order, found without building the group.  The
    group indices whose element has no X part and no Z on an I letter
    form a GF(2) kernel K, and the negation sign is linear on K, so the
    negating indices are a coset of a hyperplane of K; its smallest member
    is the smallest negating row of K's reduced echelon basis.
    """
    codes = _ad_codes(code.n, t)   # rejects a bad n or t before any mask work
    _check_masks(code.n)
    row, x, z, _ = _ad_terms(codes)
    failing = np.unique(row[_quotient_kinds(code, x, z) == _LOGICAL])
    _, support, ab = _ad_masks(codes[failing])
    rejections, negated = [], []
    for i, s, a in zip(failing, support.tolist(), ab.tolist()):
        word = _ad_word(codes[i])
        element = _first_negating(code, s, a)
        if element is None:
            rejections.append(word)
        else:
            negated.append((word, element))
    return AdReport(not rejections, t, len(codes), rejections, negated)


_GATHER_ENTRIES = 1 << 16   # entries of one gathered stack in _ad_blocks, 1 MiB


def _ad_blocks(basis, codes):
    """basis^dagger W basis for the damping word W of each letter-code row.

    Every non-I letter has a single nonzero entry in _AD_MATRIX, so W sends
    basis index j to j ^ flip, times the product of those entries, when
    each non-I qubit of j holds its letter's input bit, and to zero
    otherwise.  So the blocks are one gather of basis^dagger at j ^ flip,
    over the j where some codeword is nonzero and with a j that misses the
    inputs reading a zero column appended to it, and one GEMM with basis[j].
    """
    dim, k = basis.shape
    masks = np.zeros((3, len(_AD_LETTERS)), dtype=np.int64)   # care, need, flip
    entry = np.ones(len(_AD_LETTERS))
    for c, letter in enumerate(_AD_LETTERS[1:], 1):
        (out, inp), = np.argwhere(_AD_MATRIX[letter])
        masks[:, c] = 1, inp, out ^ inp
        entry[c] = _AD_MATRIX[letter][out, inp].real
    bits = 1 << np.arange(codes.shape[1] - 1, -1, -1)   # qubit 0 is the top bit
    care, need, flip = np.take(masks, codes, axis=1) @ bits
    index = np.flatnonzero(np.abs(basis).max(axis=1))
    padded = np.concatenate([basis.T.conj(), np.zeros((k, 1))], axis=1)
    blocks = np.empty((len(codes), k, k), dtype=complex)
    step = max(1, _GATHER_ENTRIES // (k * len(index)))
    for w in range(0, len(codes), step):
        cut = slice(w, w + step)
        gather = np.where((index & care[cut, None]) == need[cut, None],
                          index ^ flip[cut, None], dim)
        stack = np.take(padded, gather, axis=1).reshape(-1, len(index))
        blocks[cut] = (stack @ basis[index]).reshape(k, -1, k).transpose(1, 0, 2)
    scale = np.ones(len(codes))
    for column in codes.T:
        scale *= np.take(entry, column)
    return blocks * scale[:, None, None]


def ad_dense_check(code, t):
    """Dense confirmation of the symbolic verdict: every relevant word W
    must act as a multiple of the identity between codewords.  Returns the
    worst off-diagonal-or-spread deviation."""
    codes = _ad_codes(code.n, t)
    basis = np.column_stack(codewords(code))
    blocks = _ad_blocks(basis, codes)
    dim_l = basis.shape[1]
    c = np.trace(blocks, axis1=1, axis2=2) / dim_l
    return float(np.abs(blocks - c[:, None, None] * np.eye(dim_l)).max())


# ---------------------------------------------------------------------------
# dense state helpers


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def controlled(u):
    """u on the wires after the first, when the first wire is 1."""
    dim = len(u)
    out = np.eye(2 * dim, dtype=complex)
    out[dim:, dim:] = u
    return out


def _generator(rng, seed):
    """rng, or a Generator seeded with seed when rng is None."""
    if not isinstance(rng, (np.random.Generator, type(None))):
        raise ValueError(f"need rng as a numpy Generator, got rng={rng!r}")
    return np.random.default_rng(seed) if rng is None else rng


def _random_inputs(dim, states, rng):
    """states random unit vectors of length dim, as columns."""
    v = rng.normal(size=(dim, states)) + 1j * rng.normal(size=(dim, states))
    return v / np.linalg.norm(v, axis=0)


def _relocates(out, ideal, weight, tol):
    """Whether out, (wire, record, ..., column), is c * ideal, (wire, 1, ...,
    column), within tol for each record and leading index, with |c|^2 =
    weight (a scalar, or one per record) within tol; a NaN refuses."""
    c = ((ideal.conj() * out).sum(axis=(0, -1))
         / (np.abs(ideal) ** 2).sum(axis=(0, -1)))
    residual = np.abs(out - c[None, ..., None] * ideal).max()
    return bool(residual <= tol and np.abs(np.abs(c) ** 2 - weight).max() <= tol)


def measure_operator(vec, w):
    """Branches of a hermitian-involution measurement on a dense state."""
    wv = w @ vec
    out = []
    for sign in (1, -1):
        proj = (vec + sign * wv) / 2
        p = float(np.vdot(proj, proj).real)
        out.append((p, proj / math.sqrt(p) if p > 1e-14 else proj))
    return out


# ---------------------------------------------------------------------------
# measurement-induced update


@dataclass
class MeasureUpdate:
    kind: str            # "update" or "commuting"
    generators: list
    fixup: object


def measure_update(generators, k_op, logicals=()):
    """Rewrite a stabilizer presentation of dense matrices after measuring k_op.

    The first generator anticommuting with k_op is replaced by k_op and
    doubles as the fix-up for the -1 outcome; every other anticommuting
    generator (and logical) absorbs it.  If nothing anticommutes the
    measurement is of a logical/stabilizer value and nothing changes.
    """
    k_op = np.asarray(k_op, dtype=complex)
    gens = [np.asarray(g, dtype=complex) for g in generators]
    logicals = [np.asarray(g, dtype=complex) for g in logicals]
    if k_op.ndim != 2 or k_op.shape[0] != k_op.shape[1]:
        raise ValueError(f"measured operator k_op must be a square matrix, "
                         f"got shape {k_op.shape}")
    for name, ops in (("generators", gens), ("logicals", logicals)):
        for g in ops:
            if g.shape != k_op.shape:
                raise ValueError(f"each of {name} must have k_op's shape "
                                 f"{k_op.shape}, got {g.shape}")
    # each test is negated so that a NaN entry fails it
    if not np.abs(k_op @ k_op - np.eye(len(k_op))).max() <= 1e-8:
        raise ValueError("measured operator k_op must square to identity")
    if not np.abs(k_op - dagger(k_op)).max() <= 1e-8:
        raise ValueError("measured operator k_op must be hermitian")

    def anticommuting(name, ops):
        out = []
        for g in ops:
            anti = np.abs(g @ k_op + k_op @ g).max()
            if not (anti <= 1e-8 or np.abs(g @ k_op - k_op @ g).max() <= 1e-8):
                raise ValueError(f"each of {name} must commute or anticommute "
                                 f"with k_op")
            out.append(anti <= 1e-8)
        return out

    anti = anticommuting("generators", gens)
    anti_logicals = anticommuting("logicals", logicals)
    if not any(anti):
        return MeasureUpdate("commuting", gens, None), logicals

    idx = anti.index(True)
    m1 = gens[idx]
    new_gens = [k_op if i == idx else (g @ m1 if a else g)
                for i, (g, a) in enumerate(zip(gens, anti))]
    new_logicals = [g @ m1 if a else g for g, a in zip(logicals, anti_logicals)]
    return MeasureUpdate("update", new_gens, m1), new_logicals


# ---------------------------------------------------------------------------
# cat-state parity measurement


def verify_parity_measurement(subset, n, letters=None, tol=1e-8):
    """Check the cat-ancilla circuit against the ideal parity measurement.

    Measures the product M of the given letters (default Z) over ``subset``,
    letters[j] on qubit subset[j], on n data qubits: a cat state of
    a = len(subset) ancillas controls the single-qubit operators, ancillas
    rotate back through Hadamards and are read out.  Every ancilla record r
    must apply 2^(-(a-1)/2) (I + (-1)^|r| M)/2 to the data, within tol
    entry by entry.  The circuit acts on the subset and the ancillas alone,
    so it runs once on the 2^a subset basis states: their outputs are each
    record's whole operator, and any other input is a combination of them.
    n only bounds the qubits of the subset.
    """
    check_int("n", n, 1)
    check_positive("tol", tol)
    if not (len(subset) and len(set(subset)) == len(subset) and all(
            isinstance(q, numbers.Integral) and 0 <= q < n for q in subset)):
        raise ValueError(f"subset must list distinct qubits in 0..{n - 1}, "
                         f"got {subset!r}")
    a = len(subset)
    if letters is None:
        letters = "Z" * a
    if len(letters) != a or not set(letters) <= set(_LETTER):
        raise ValueError(f"letters must give one of I, X, Y, Z for each of "
                         f"the {a} subset qubits, got {letters!r}")
    if a > _PARITY_SUBSET:
        raise ValueError(f"parity check capped at {_PARITY_SUBSET} subset "
                         f"qubits, got subset={subset!r}")
    psi = np.eye(1 << a)   # the subset basis, in subset order
    state = np.kron(psi, np.eye(1 << a, 1))   # ancillas at |0>
    # cat ancilla
    state = apply_local(HADAMARD, state, (a,))
    for j in range(1, a):
        state = apply_local(CNOT, state, (a, a + j))
    # phase kickback through controlled letters
    for j, c in enumerate(letters):
        state = apply_local(controlled(_LETTER[c]), state, (a + j, j))
    for j in range(a):
        state = apply_local(HADAMARD, state, (a + j,))
    sign = 1 - 2 * _parities(np.arange(1 << a))
    m = kron_all(*(_LETTER[c] for c in letters))
    ideal = (psi[:, None] + sign[:, None] * m[:, None]) / 2
    out = state.reshape(1 << a, 1 << a, -1) * math.sqrt(1 << (a - 1))
    return bool(np.abs(out - ideal).max() <= tol)


# ---------------------------------------------------------------------------
# gate hierarchy


@functools.cache
def _pauli_table(n):
    """The 4^n n-qubit Pauli words P, conjugated, so that
    einsum("pij,ij->p", table, u) gives every tr(P^dagger u); read-only."""
    table = np.conj(pauli_product_basis(n)) * math.sqrt(1 << n)
    table.flags.writeable = False
    return table


def hierarchy_level(u, k_max=4):
    """Smallest k with u in the conjugation hierarchy level k, or None.

    Level 1 holds the Pauli words themselves, up to phase: a unitary u is
    one exactly when |tr(P^dagger u)| reaches 2^n for some word P.  Level k
    holds the gates whose conjugates of the single-qubit X and Z generators
    all sit in level k-1.  Membership is tested on those generators
    (products stay inside because level 2 is a group).
    """
    check_int("k_max", k_max, 1)
    u = np.asarray(u, dtype=complex)
    dim = len(u)
    # a NaN entry fails this comparison, so a NaN matrix is rejected
    if not np.abs(u @ dagger(u) - np.eye(dim)).max() <= 1e-8:
        raise ValueError("gate must be unitary")
    n = dim.bit_length() - 1
    if 1 << n != dim or n > 3:
        raise ValueError("supported on 1..3 qubits")

    paulis = _pauli_table(n)
    gens = [single_qubit_word(n, q, c).matrix() for q in range(n) for c in "XZ"]
    memo = {}

    def in_level(mat, k):
        key = (np.round(mat, 9).tobytes(), k)
        if key not in memo:
            if k == 1:
                overlap = np.abs(np.einsum("pij,ij->p", paulis, mat)).max()
                memo[key] = overlap >= dim - 1e-7
            else:
                memo[key] = all(in_level(mat @ g @ dagger(mat), k - 1)
                                for g in gens)
        return memo[key]

    for k in range(1, k_max + 1):
        if in_level(u, k):
            return k
    return None


# ---------------------------------------------------------------------------
# one-bit teleportation and gate constructions


def _start_state(n, kinds):
    """|0> on each "z" wire and |+> on each "x" wire."""
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    for q, kind in enumerate(kinds):
        if kind == "x":
            v = apply_local(HADAMARD, v, (q,))
    return v


def _teleport(u, kinds, ancillas, states, tol, rng):
    """Teleport inputs through each prepared ancilla u|start>, in one pass.

    Ancilla wires come first, input wires follow.  Per input wire, kind "x"
    is a CNOT from the ancilla onto the input and a computational readout;
    "z" is a CNOT from the input onto the ancilla and a +/- readout.  The
    u-conjugated Pauli fix-up of wire q acts controlled by readout wire q.
    On the 2^n basis states, then states random inputs, every readout
    record must give u up to a phase, with probability 2^-n.
    """
    n = len(kinds)
    dim = 1 << n
    psi = np.hstack([np.eye(dim), _random_inputs(dim, states, rng)])
    state = np.kron(np.transpose(ancillas), psi)
    for q, kind in enumerate(kinds):
        if kind == "x":
            state = apply_local(CNOT, state, (q, n + q))
        else:
            state = apply_local(CNOT, state, (n + q, q))
            state = apply_local(HADAMARD, state, (n + q,))
    for q, kind in enumerate(kinds):
        fixup = _conj(u, single_qubit_word(n, q, kind.upper()).matrix())
        state = apply_local(controlled(fixup), state, (n + q, *range(n)))
    out = state.reshape(dim, dim, len(ancillas), -1) * math.sqrt(dim)
    return _relocates(out, (u @ psi)[:, None, None], 1.0, tol)


def verify_teleport_identity(kind, states=100, tol=1e-10, rng=None):
    """Exact check of the one-wire relocation circuits.

    "z": ancilla |0> on wire 0, CNOT from the input wire onto it, input
    measured in the +/- basis, Z fix-up.  "x": ancilla |+>, CNOT from the
    ancilla onto the input, input measured directly, X fix-up.  "swap":
    the two-CNOT identity moving the input onto the |0> wire; record 1
    must not occur.  Each runs once, on both basis states and states
    random inputs, and every branch must relocate them exactly.
    """
    check_int("states", states, 1)
    check_positive("tol", tol)
    if kind not in ("z", "x", "swap"):
        raise ValueError(f"unknown kind {kind!r}")
    rng = _generator(rng, 0x7E1E)
    if kind != "swap":
        return _teleport(I2, kind, [_start_state(1, kind)], states, tol, rng)
    psi = np.hstack([np.eye(2), _random_inputs(2, states, rng)])
    state = np.vstack([psi, np.zeros_like(psi)])   # wire 0 starts at |0>
    state = apply_local(CNOT, state, (1, 0))
    state = apply_local(CNOT, state, (0, 1))
    return _relocates(state.reshape(2, 2, -1), psi[:, None], [1.0, 0.0], tol)


PHASE_S = np.diag([1, 1j]).astype(complex)
T_GATE = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
CP_GATE = np.diag([1, 1, 1, 1j]).astype(complex)
TOFFOLI = np.eye(8, dtype=complex)
TOFFOLI[6:, 6:] = np.array([[0, 1], [1, 0]])

W_T = T_GATE @ SX @ dagger(T_GATE)


def _conj(u, g):
    return u @ g @ dagger(u)


def _prepared_ancilla_branches(start, presentation, measured):
    """Both outcomes of the preparation measurement, fix-up applied."""
    update, _ = measure_update(presentation, measured)
    if update.kind != "update":
        raise ValueError("preparation measurement must anticommute")
    (p_plus, plus), (p_minus, minus) = measure_operator(start, measured)
    if min(p_plus, p_minus) < 1e-12:
        raise ValueError("preparation branch vanished")
    return [plus, update.fixup @ minus]


def verify_c3_construction(gate, states=100, tol=1e-10, rng=None):
    """Teleportation realization of the third-level gates.

    The special ancilla u|start> is produced by measuring the conjugated
    stabilizer on a joint +1 state of the presentation (never by applying
    the gate), with the measure_update fix-up; then the inputs are
    teleported through it with conjugated-Pauli fix-ups, and every
    measurement branch must induce the ideal gate.
    """
    check_int("states", states, 1)
    check_positive("tol", tol)
    rng = _generator(rng, 0xC3)
    if gate == "T":
        u, kinds, prep = T_GATE, "x", "z"
        presentation = [SZ.astype(complex)]
        measured = _conj(T_GATE, SX)
    elif gate == "CP":
        u, kinds, prep = CP_GATE, "xx", "zx"
        presentation = [np.kron(SZ, I2), _conj(CP_GATE, np.kron(I2, SX))]
        measured = _conj(CP_GATE, np.kron(SX, I2))
    elif gate == "Toffoli":
        u, kinds, prep = TOFFOLI, "xxz", "xxx"
        presentation = [_conj(TOFFOLI, single_qubit_word(3, 0, "X").matrix()),
                        _conj(TOFFOLI, single_qubit_word(3, 1, "X").matrix()),
                        single_qubit_word(3, 2, "X").matrix()]
        measured = _conj(TOFFOLI, single_qubit_word(3, 2, "Z").matrix())
    else:
        raise ValueError(f"unknown gate {gate!r}")
    n = len(kinds)
    ancillas = _prepared_ancilla_branches(_start_state(n, prep), presentation,
                                          measured)
    target = u @ _start_state(n, kinds)
    if not np.abs(np.abs(np.conj(ancillas) @ target) - 1).max() <= 1e-9:
        raise ValueError("ancilla preparation failed")
    return _teleport(u, kinds, ancillas, states, tol, rng)
