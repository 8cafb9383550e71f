"""Symbolic Pauli algebra, stabilizer codes, and gate-construction checks.

Pauli words are stored as X/Z bit masks with an explicit phase, so products
and commutation stay sign-exact.  On top of that sit: correctability checks
in the Pauli basis and in the damping basis (letters I, A, B, A-dagger),
measurement-induced stabilizer updates, cat-state parity-measurement
verification, the conjugation hierarchy of gates, and dense verification of
the measurement-plus-fixup gate constructions.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .qop_core import CNOT, I2, SX, SY, SZ, apply_local, dagger, z_signs

DEFAULT_TOL = 1e-9

_LETTER = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def _parity(mask):
    return bin(mask).count("1") & 1


def _bit_parities(z, n):
    """(-1)^(i.z) for all basis indices i."""
    return z_signs(n)[[q for q in range(n) if (z >> q) & 1]].prod(axis=0)


@dataclass(frozen=True)
class PauliWord:
    """phase * product over qubits of X^x Z^z (X left of Z on each qubit)."""

    n: int
    x: int = 0
    z: int = 0
    phase: complex = 1 + 0j

    def __post_init__(self):
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be one of +1, -1, +i, -i")

    @classmethod
    def from_string(cls, text):
        s = text.strip()
        phase = 1 + 0j
        for prefix, val in (("-i", -1j), ("+i", 1j), ("i", 1j),
                            ("-", -1 + 0j), ("+", 1 + 0j)):
            if s.startswith(prefix):
                phase = val
                s = s[len(prefix):]
                break
        x = z = 0
        for q, c in enumerate(s.upper()):
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
    def weight(self):
        return bin(self.x | self.z).count("1")

    @property
    def is_identity(self):
        return self.x == 0 and self.z == 0

    @property
    def is_hermitian(self):
        sign = self.phase.conjugate() * (-1 if _parity(self.x & self.z) else 1)
        return sign == self.phase

    def apply(self, vec):
        vec = np.asarray(vec, dtype=complex)
        n = self.n
        idx = np.arange(1 << n)
        xperm = 0
        for q in range(n):
            if (self.x >> q) & 1:
                xperm |= 1 << (n - 1 - q)
        out = np.zeros_like(vec)
        out[idx ^ xperm] = self.phase * _bit_parities(self.z, n) * vec
        return out

    def matrix(self):
        m = np.array([[self.phase]], dtype=complex)
        for q in range(self.n):
            xb, zb = (self.x >> q) & 1, (self.z >> q) & 1
            local = _LETTER["I"]
            if xb and zb:
                local = SX @ SZ
            elif xb:
                local = SX
            elif zb:
                local = SZ
            m = np.kron(m, local)
        return m


def commutes(p, q):
    return p.commutes(q)


def identity_word(n):
    return PauliWord(n)


def single_qubit_word(n, q, letter):
    s = ["I"] * n
    s[q] = letter
    return PauliWord.from_string("".join(s))


# ---------------------------------------------------------------------------
# GF(2) helpers for logical-operator completion


def _gf2_rank(rows):
    rows = list(rows)
    rank = 0
    for bit in range(max(rows).bit_length() if rows else 0):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def _in_span(vec, rows):
    return _gf2_rank(list(rows) + [vec]) == _gf2_rank(rows)


def _symp(n, a, b):
    ax, az = a >> n, a & ((1 << n) - 1)
    bx, bz = b >> n, b & ((1 << n) - 1)
    return _parity(ax & bz) ^ _parity(az & bx)


def _word_to_vec(w):
    return (w.x << w.n) | w.z


def _vec_to_word(n, v):
    w = PauliWord(n, v >> n, v & ((1 << n) - 1))
    sign, _ = w.display()
    if sign == -1:
        w = PauliWord(n, w.x, w.z, -w.phase)
    return w


def complete_logicals(n, generators):
    """Pair up the operators that commute with every generator but are not
    stabilizers themselves, giving k anticommuting logical pairs."""
    if n > 8:
        raise ValueError("dense kernel scan capped at 8 qubits")
    gen_vecs = [_word_to_vec(g) for g in generators]
    kernel = []
    span = list(gen_vecs)
    for v in range(1, 1 << (2 * n)):
        if all(_symp(n, v, g) == 0 for g in gen_vecs):
            if not _in_span(v, span):
                kernel.append(v)
                span.append(v)
    pairs = []
    rest = kernel
    while rest:
        a = rest[0]
        partner = next((b for b in rest[1:] if _symp(n, a, b)), None)
        if partner is None:
            raise ValueError("unpaired logical candidate")
        rest = [c ^ (_symp(n, c, partner) * a) ^ (_symp(n, c, a) * partner)
                for c in rest if c not in (a, partner)]
        pairs.append((_vec_to_word(n, a), _vec_to_word(n, partner)))
    return pairs


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
        to = PauliWord.from_string
        code = cls(len(generators[0].lstrip("+-i")),
                   [to(g) for g in generators],
                   [to(g) for g in logical_x], [to(g) for g in logical_z])
        return code.validate()

    def validate(self):
        for g in self.generators:
            if g.n != self.n or not g.is_hermitian:
                raise ValueError(f"bad generator {g}")
        vecs = [_word_to_vec(g) for g in self.generators]
        if _gf2_rank(vecs) != len(vecs):
            raise ValueError("generators are not independent")
        for a, b in itertools.combinations(self.generators, 2):
            if not a.commutes(b):
                raise ValueError(f"generators {a} and {b} anticommute")
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
        kx = len(self.logical_x)
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

    def group_signs(self):
        """(x, z) -> sign for every stabilizer element."""
        return {(w.x, w.z): w.phase.real for w in self.stabilizer_group()}

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


def code_projector(code, max_qubits=12):
    """Dense projector onto the joint +1 eigenspace of the generators."""
    if code.n > max_qubits:
        raise ValueError(f"projector capped at {max_qubits} qubits")
    dim = 1 << code.n
    p = np.eye(dim, dtype=complex)
    for g in code.generators:
        p = (p + g.matrix() @ p) / 2
    return p


def codewords(code, tol=DEFAULT_TOL):
    """Basis |b>_L: joint +1 states of the generators with logical-Z
    eigenvalues (-1)^(b_i); phases pinned at the largest amplitude."""
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
    gens = [PauliWord.from_string(s) for s in
            ["XXXXXXX", "ZZZZIII", "ZZIIZZI", "ZIZIZIZ"]]
    pairs = complete_logicals(7, gens)
    code = StabilizerCode(7, gens, [a for a, _ in pairs], [b for _, b in pairs])
    return code.validate()


# ---------------------------------------------------------------------------
# Pauli-basis correctability


@dataclass
class PauliCheck:
    correctable: bool
    degenerate: bool
    verdicts: dict
    violations: list


def pauli_correctable(code, errors):
    """Knill-Laflamme check over a Pauli error list: every quotient E^t F
    must be detected by anticommutation or lie inside the stabilizer."""
    signs = code.group_signs()
    verdicts, violations = {}, []
    degenerate = False
    for i, e in enumerate(errors):
        for j, f in enumerate(errors):
            q = e.dagger() * f
            if any(not q.commutes(g) for g in code.generators):
                verdicts[i, j] = "detected"
            elif (q.x, q.z) in signs:
                verdicts[i, j] = "stabilizer"
                if i != j:
                    degenerate = True
            else:
                verdicts[i, j] = "violation"
                violations.append((i, j))
    return PauliCheck(not violations, degenerate, verdicts, violations)


def weight_words(n, w):
    """All Pauli words of exact weight w (no phase prefix)."""
    out = []
    for qubits in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            s = ["I"] * n
            for q, c in zip(qubits, letters):
                s[q] = c
            out.append(PauliWord.from_string("".join(s)))
    return out


def pauli_distance(code, max_weight=None):
    """Smallest weight of an undetected non-stabilizer word."""
    signs = code.group_signs()
    top = code.n if max_weight is None else max_weight
    for w in range(1, top + 1):
        for word in weight_words(code.n, w):
            if all(word.commutes(g) for g in code.generators):
                if (word.x, word.z) not in signs:
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

# letter times Pauli letter -> (sign, does it stay the same letter)
_AD_TIMES_Z = {"I": None, "B": -1, "A": -1, "Ad": 1}


@dataclass(frozen=True)
class AdWord:
    """Tensor word over the damping letters; r counts raising/lowering
    factors, s counts the diagonal B factors."""

    letters: tuple

    @property
    def n(self):
        return len(self.letters)

    @property
    def r(self):
        return sum(1 for c in self.letters if c in ("A", "Ad"))

    @property
    def s(self):
        return sum(1 for c in self.letters if c == "B")

    def relevant(self, t):
        return self.r + 2 * self.s <= 2 * t

    def __str__(self):
        return "".join(c if c != "Ad" else "A'" for c in self.letters)

    def pauli_terms(self):
        """Expansion into signed Pauli words: A = X - XZ, A' = X + XZ,
        B = I - Z."""
        expansions = {
            "I": [((0, 0), 1)],
            "B": [((0, 0), 1), ((0, 1), -1)],
            "A": [((1, 0), 1), ((1, 1), -1)],
            "Ad": [((1, 0), 1), ((1, 1), 1)],
        }
        terms = [((0, 0), 1)]
        for q, letter in enumerate(self.letters):
            new = []
            for (x, z), sign in terms:
                for (xb, zb), s2 in expansions[letter]:
                    new.append(((x | (xb << q), z | (zb << q)), sign * s2))
            terms = new
        return [PauliWord(self.n, x, z, complex(sign))
                for (x, z), sign in terms]

    def times_stabilizer_sign(self, word):
        """Sign c with (self * word) = c * self, or None when the product
        changes letters.  Only Z letters can be absorbed."""
        sign, letters = word.display()
        if sign not in (1, -1):
            return None
        total = 1 if sign == 1 else -1
        for mine, theirs in zip(self.letters, letters):
            if theirs == "I":
                continue
            if theirs != "Z":
                return None
            got = _AD_TIMES_Z[mine]
            if got is None:
                return None
            total *= got
        return total

    def matrix(self):
        m = np.array([[1.0]], dtype=complex)
        for letter in self.letters:
            m = np.kron(m, _AD_MATRIX[letter])
        return m

    def apply(self, vec):
        """The word applied to a state vector, or to each column of a matrix."""
        out = np.asarray(vec, dtype=complex)
        for q, letter in enumerate(self.letters):
            if letter != "I":
                out = apply_local(_AD_MATRIX[letter], out, (q,))
        return out


def ad_words(n, t):
    """Every damping word relevant at order t.

    These are the quotients of two correctable error factors: total order
    r/2 + s <= t, with at most t plain and at most t raised letters (the
    raised ones belong to the left factor, the plain to the right, and
    each factor alone stays within order t/2).
    """
    out = []
    for r in range(0, 2 * t + 1):
        for s in range(0, t - (r + 1) // 2 + 1):
            if r + 2 * s > 2 * t:
                continue
            for a_pos in itertools.combinations(range(n), r):
                others = [q for q in range(n) if q not in a_pos]
                for b_pos in itertools.combinations(others, s):
                    for kinds in itertools.product(("A", "Ad"), repeat=r):
                        if kinds.count("A") > t or kinds.count("Ad") > t:
                            continue
                        letters = ["I"] * n
                        for q, kind in zip(a_pos, kinds):
                            letters[q] = kind
                        for q in b_pos:
                            letters[q] = "B"
                        out.append(AdWord(tuple(letters)))
    return out


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
    multiplication, which zeroes it on the code space.
    """
    signs = code.group_signs()
    group = code.stabilizer_group()
    rejections, negated = [], []
    words = ad_words(code.n, t)
    for word in words:
        ok = True
        for term in word.pauli_terms():
            if any(not term.commutes(g) for g in code.generators):
                continue
            if (term.x, term.z) in signs:
                continue
            ok = False
            break
        if not ok:
            for m in group:
                if m.is_identity:
                    continue
                if word.times_stabilizer_sign(m) == -1:
                    ok = True
                    negated.append((word, m))
                    break
        if not ok:
            rejections.append(word)
    return AdReport(not rejections, t, len(words), rejections, negated)


def ad_dense_check(code, t, tol=DEFAULT_TOL):
    """Dense confirmation of the symbolic verdict: every relevant word W
    must act as a multiple of the identity between codewords.  Returns the
    worst off-diagonal-or-spread deviation."""
    basis = np.column_stack(codewords(code))
    dim_l = basis.shape[1]
    worst = 0.0
    for word in ad_words(code.n, t):
        block = basis.conj().T @ word.apply(basis)
        c = np.trace(block) / dim_l
        worst = max(worst, float(np.abs(block - c * np.eye(dim_l)).max()))
    return worst


# ---------------------------------------------------------------------------
# dense state helpers


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def controlled(u):
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


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
    replaced: int


def measure_update(generators, k_op, logicals=None, tol=DEFAULT_TOL):
    """Rewrite a stabilizer presentation after measuring k_op.

    The first generator anticommuting with k_op is replaced by k_op and
    doubles as the fix-up for the -1 outcome; every other anticommuting
    generator (and logical) absorbs it.  If nothing anticommutes the
    measurement is of a logical/stabilizer value and nothing changes.
    """
    symbolic = isinstance(k_op, PauliWord)
    gens = list(generators)
    logicals = list(logicals) if logicals is not None else []

    if symbolic:
        def anticommutes(g):
            return not g.commutes(k_op)

        def absorb(g):
            return g * m1
    else:
        k_op = np.asarray(k_op, dtype=complex)
        if np.abs(k_op @ k_op - np.eye(len(k_op))).max() > 1e-8:
            raise ValueError("measured operator must square to identity")
        if np.abs(k_op - dagger(k_op)).max() > 1e-8:
            raise ValueError("measured operator must be hermitian")
        gens = [g.matrix() if isinstance(g, PauliWord)
                else np.asarray(g, dtype=complex) for g in gens]
        logicals = [g.matrix() if isinstance(g, PauliWord)
                    else np.asarray(g, dtype=complex) for g in logicals]

        def anticommutes(g):
            anti = np.abs(g @ k_op + k_op @ g).max()
            comm = np.abs(g @ k_op - k_op @ g).max()
            if anti > 1e-8 and comm > 1e-8:
                raise ValueError("generator neither commutes nor anticommutes")
            return anti <= 1e-8

        def absorb(g):
            return g @ m1

    anti = [i for i, g in enumerate(gens) if anticommutes(g)]
    if not anti:
        return MeasureUpdate("commuting", gens, None, -1), logicals

    idx = anti[0]
    m1 = gens[idx]
    new_gens = [k_op if i == idx else (absorb(g) if i in anti else g)
                for i, g in enumerate(gens)]
    new_logicals = [absorb(g) if anticommutes(g) else g for g in logicals]
    return MeasureUpdate("update", new_gens, m1, idx), new_logicals


def measure_update_code(code, k_op):
    """measure_update lifted to a StabilizerCode."""
    update, logs = measure_update(
        code.generators, k_op, code.logical_x + code.logical_z)
    if update.kind == "commuting":
        return update, code
    kx = len(code.logical_x)
    new = StabilizerCode(code.n, update.generators, logs[:kx], logs[kx:])
    return update, new


# ---------------------------------------------------------------------------
# cat-state parity measurement


def verify_parity_measurement(subset, n, letters=None, states=6, tol=1e-8,
                              rng=None, special_inputs=()):
    """Check the cat-ancilla circuit against the ideal parity measurement.

    Measures the product of the given letters (default Z) over ``subset``
    on n data qubits: a cat state of len(subset) ancillas controls the
    single-qubit operators, ancillas rotate back through Hadamards and are
    read out; the outcome parity must reproduce the ideal projective
    statistics and the data register must collapse exactly onto the ideal
    projection -- identically for every ancilla record of equal parity.
    """
    rng = np.random.default_rng(0xCA7) if rng is None else rng
    subset = sorted(subset)
    a = len(subset)
    if letters is None:
        letters = "Z" * a
    word = ["I"] * n
    for q, c in zip(subset, letters):
        word[q] = c
    m_full = PauliWord.from_string("".join(word)).matrix()

    total = n + a
    inputs = [v for v in special_inputs]
    for _ in range(states):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        inputs.append(v / np.linalg.norm(v))

    for psi in inputs:
        state = np.zeros(1 << total, dtype=complex)
        state.reshape(1 << n, 1 << a)[:, 0] = psi
        # cat ancilla
        state = apply_local(HADAMARD, state, (n,))
        for j in range(1, a):
            state = apply_local(CNOT, state, (n, n + j))
        # phase kickback through controlled letters
        for j, (q, c) in enumerate(zip(subset, letters)):
            state = apply_local(controlled(_LETTER[c]), state, (n + j, q))
        for j in range(a):
            state = apply_local(HADAMARD, state, (n + j,))

        grid = state.reshape(1 << n, 1 << a)
        ideal = {s: (psi + s * (m_full @ psi)) / 2 for s in (1, -1)}
        seen_prob = {1: 0.0, -1: 0.0}
        for rec in range(1 << a):
            branch = grid[:, rec]
            p = float(np.vdot(branch, branch).real)
            sign = -1 if _parity(rec) else 1
            seen_prob[sign] += p
            target = ideal[sign]
            pt = float(np.vdot(target, target).real)
            if p < 1e-12 and pt < 1e-12:
                continue
            if abs(p * (1 << (a - 1)) - pt) > tol:
                return False
            if np.linalg.norm(branch * math.sqrt(1 << (a - 1)) - target) > tol:
                return False
        for s in (1, -1):
            pt = float(np.vdot(ideal[s], ideal[s]).real)
            if abs(seen_prob[s] - pt) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# gate hierarchy


def _pauli_from_matrix(u, tol=DEFAULT_TOL):
    """Recover (word, phase) from a dense matrix, or None."""
    u = np.asarray(u)
    dim = len(u)
    n = dim.bit_length() - 1
    row0 = np.abs(u[:, 0])
    hits = np.flatnonzero(row0 > tol)
    if len(hits) != 1:
        return None
    xperm = int(hits[0])
    phase = u[xperm, 0]
    if abs(abs(phase) - 1) > tol:
        return None
    idx = np.arange(dim)
    vals = u[idx ^ xperm, idx]
    signs = vals / phase
    z = 0
    for b in range(n):
        s = signs[1 << b]
        if abs(s - 1) <= tol:
            pass
        elif abs(s + 1) <= tol:
            z |= 1 << (n - 1 - b)
        else:
            return None
    x = 0
    for b in range(n):
        if (xperm >> b) & 1:
            x |= 1 << (n - 1 - b)
    expect = phase * _bit_parities(z, n)
    if np.abs(vals - expect).max() > tol:
        return None
    off = u.copy()
    off[idx ^ xperm, idx] = 0.0
    if np.abs(off).max() > tol:
        return None
    return PauliWord(n, x, z), phase


def hierarchy_level(u, k_max=4, tol=DEFAULT_TOL):
    """Smallest k with u in the conjugation hierarchy level k, or None.

    Level 1 holds the Pauli words themselves; level k the gates whose
    conjugates of the single-qubit X and Z generators all sit in level
    k-1.  Membership is tested on those generators (products stay inside
    because level 2 is a group).
    """
    u = np.asarray(u, dtype=complex)
    dim = len(u)
    if np.abs(u @ dagger(u) - np.eye(dim)).max() > 1e-8:
        raise ValueError("gate must be unitary")
    n = dim.bit_length() - 1
    if 1 << n != dim or n > 3:
        raise ValueError("supported on 1..3 qubits")

    gens = []
    for q in range(n):
        for c in "XZ":
            gens.append(single_qubit_word(n, q, c).matrix())

    memo = {}

    def in_level(mat, k):
        key = (np.round(mat, 9).tobytes(), k)
        if key in memo:
            return memo[key]
        if k == 1:
            out = _pauli_from_matrix(mat, 1e-7) is not None
        else:
            out = True
            for g in gens:
                conj = mat @ g @ dagger(mat)
                if not in_level(conj, k - 1):
                    out = False
                    break
        memo[key] = out
        return out

    for k in range(1, k_max + 1):
        if in_level(u, k):
            return k
    return None


# ---------------------------------------------------------------------------
# one-bit teleportation and gate constructions


def _random_state(ndim, rng):
    v = rng.normal(size=ndim) + 1j * rng.normal(size=ndim)
    return v / np.linalg.norm(v)


def _states_equal(a, b, tol):
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def verify_teleport_identity(kind, states=100, tol=1e-10, rng=None):
    """Dense check of the one-wire relocation circuits.

    "z": ancilla |0> on wire 0, CNOT from the input wire onto it, input
    measured in the +/- basis, Z fix-up.  "x": ancilla |+>, CNOT from the
    ancilla onto the input, input measured directly, X fix-up.  "swap":
    the two-CNOT identity moving the input onto the |0> wire.  Every
    branch must relocate the state exactly.
    """
    rng = np.random.default_rng(0x7E1E) if rng is None else rng
    for _ in range(states):
        psi = _random_state(2, rng)
        if kind == "swap":
            state = np.kron(np.array([1, 0], dtype=complex), psi)
            state = apply_local(CNOT, state, (1, 0))
            state = apply_local(CNOT, state, (0, 1))
            grid = state.reshape(2, 2)
            if np.linalg.norm(grid[:, 1]) > tol:
                return False
            if not _states_equal(grid[:, 0], psi, tol):
                return False
            continue
        if kind == "z":
            state = np.kron(np.array([1, 0], dtype=complex), psi)
            state = apply_local(CNOT, state, (1, 0))
            state = apply_local(HADAMARD, state, (1,))
            fix = SZ
        elif kind == "x":
            state = np.kron(np.array([1, 1], dtype=complex) / math.sqrt(2), psi)
            state = apply_local(CNOT, state, (0, 1))
            fix = SX
        else:
            raise ValueError(f"unknown kind {kind!r}")
        for outcome in (0, 1):
            branch = apply_local(np.diag(np.eye(2)[outcome]), state, (1,))
            p = float(np.vdot(branch, branch).real)
            if abs(p - 0.5) > 1e-9:
                return False
            out = branch.reshape(2, 2)[:, outcome] / math.sqrt(p)
            if outcome == 1:
                out = fix @ out
            if not _states_equal(out, psi, tol):
                return False
    return True


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
    fix = update.fixup
    out = []
    for p, vec in measure_operator(start, measured):
        if p < 1e-12:
            raise ValueError("preparation branch vanished")
        out.append((p, vec))
    plus, minus = out
    return [plus[1], fix @ minus[1]]


def _teleport_construction(u, n, tele_kinds, prep_start, presentation,
                           measured, states, tol, rng):
    """Run the measurement-and-fixup realization of u against the ideal.

    Ancilla wires come first, input wires follow; teleportation kind per
    input wire is "x" (CNOT ancilla->input, computational readout) or "z"
    (CNOT input->ancilla, +/- readout).  The ancilla is prepared by
    measuring ``measured`` on ``prep_start`` (a joint +1 state of the
    ``presentation`` operators) with the measure_update fix-up; fix-ups on
    the teleport outcomes are the u-conjugated Paulis.
    """
    anc_dim = 1 << n
    ancilla_plain = _start_state(n, tele_kinds)
    ancillas = _prepared_ancilla_branches(prep_start, presentation, measured)
    target_anc = u @ ancilla_plain
    for prepared in ancillas:
        if not _states_equal(prepared, target_anc, 1e-9):
            raise ValueError("ancilla preparation failed")

    fixups = []
    for q, kind in enumerate(tele_kinds):
        base = single_qubit_word(n, q, "X" if kind == "x" else "Z").matrix()
        fixups.append(_conj(u, base))

    for prepared in ancillas:
        for _ in range(states):
            psi = _random_state(anc_dim, rng)
            ideal = u @ psi
            state = np.kron(prepared, psi)
            for q, kind in enumerate(tele_kinds):
                if kind == "x":
                    state = apply_local(CNOT, state, (q, n + q))
                else:
                    state = apply_local(CNOT, state, (n + q, q))
                    state = apply_local(HADAMARD, state, (n + q,))
            branches = [(1.0, state, ())]
            for q in range(n):
                nxt = []
                for prob, vec, rec in branches:
                    for outcome in (0, 1):
                        collapsed = apply_local(np.diag(np.eye(2)[outcome]),
                                                vec, (n + q,))
                        p = float(np.vdot(collapsed, collapsed).real)
                        if p < 1e-12:
                            continue
                        nxt.append((prob * p, collapsed / math.sqrt(p),
                                    rec + (outcome,)))
                branches = nxt
            for prob, vec, rec in branches:
                out = vec.reshape(anc_dim, anc_dim)[:, _rec_index(rec)]
                out = out / np.linalg.norm(out)
                for q, bit in enumerate(rec):
                    if bit:
                        out = fixups[q] @ out
                if not _states_equal(out, ideal, tol):
                    return False
    return True


def _start_state(n, tele_kinds):
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    for q, kind in enumerate(tele_kinds):
        if kind == "x":
            v = apply_local(HADAMARD, v, (q,))
    return v


def _rec_index(rec):
    idx = 0
    for bit in rec:
        idx = (idx << 1) | bit
    return idx


def _basis_state(n, bits):
    v = np.zeros(1 << n, dtype=complex)
    v[_rec_index(bits)] = 1.0
    return v


def verify_c3_construction(gate, states=100, tol=1e-10, rng=None):
    """Teleportation realization of the third-level gates.

    The special ancilla is produced by measuring the conjugated stabilizer
    (never by applying the gate), then the inputs are teleported through
    it with conjugated-Pauli fix-ups; every measurement branch must induce
    the ideal gate.
    """
    rng = np.random.default_rng(0xC3) if rng is None else rng
    if gate == "T":
        prep = _basis_state(1, (0,))
        presentation = [SZ.astype(complex)]
        measured = _conj(T_GATE, SX)
        return _teleport_construction(T_GATE, 1, ("x",), prep, presentation,
                                      measured, states, tol, rng)
    if gate == "CP":
        prep = apply_local(HADAMARD, _basis_state(2, (0, 0)), (1,))
        presentation = [np.kron(SZ, I2), _conj(CP_GATE, np.kron(I2, SX))]
        measured = _conj(CP_GATE, np.kron(SX, I2))
        return _teleport_construction(CP_GATE, 2, ("x", "x"), prep,
                                      presentation, measured, states, tol, rng)
    if gate == "Toffoli":
        prep = _basis_state(3, (0, 0, 0))
        for q in range(3):
            prep = apply_local(HADAMARD, prep, (q,))
        presentation = [_conj(TOFFOLI, single_qubit_word(3, 0, "X").matrix()),
                        _conj(TOFFOLI, single_qubit_word(3, 1, "X").matrix()),
                        single_qubit_word(3, 2, "X").matrix()]
        measured = _conj(TOFFOLI, single_qubit_word(3, 2, "Z").matrix())
        return _teleport_construction(TOFFOLI, 3, ("x", "x", "z"), prep,
                                      presentation, measured, states, tol, rng)
    raise ValueError(f"unknown gate {gate!r}")
