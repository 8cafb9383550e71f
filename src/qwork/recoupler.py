"""Pulse-schedule compilation for decoupling and selective recoupling.

Always-on ZZ couplings between spins are silenced (or steered onto one
chosen pair) by sandwiching evolution intervals with pi pulses.  The sign
pattern of each spin's Z across the intervals forms a +/-1 matrix whose
rows must be pairwise orthogonal wherever a coupling should vanish, so
schedules are read off rows of Hadamard matrices.  Compiled schedules are
checked against their targets in the toggling frame, exactly at every n.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .qop_core import check_int, check_positive, check_real, ising_diagonal

MAX_ORDER = 2048
MAX_EXACT_SUPPORT = 12   # verify_schedule bounds the deviation past this


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class HadamardMatrix:
    order: int
    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        e = _as_signs(self.entries)
        if e is None or e.shape != (self.order, self.order):
            raise ValueError("entries must be a +/-1 square matrix")
        object.__setattr__(self, "entries", e)
        if _first_unorthogonal(e):
            raise ValueError("rows are not orthogonal")


def _as_signs(entries):
    """entries as int64 when every value is +/-1 as given, else None: the
    check runs before the cast, which would round 1.5 to 1 and warn on NaN,
    and a bool is a flag, not a sign."""
    e = np.asarray(entries)
    if e.dtype.kind not in "iuf" or not np.all(np.abs(e) == 1):
        return None
    return e.astype(np.int64)


def _first_unorthogonal(e, pairs=()):
    """First 1-based rows (a, b), a < b, of the +/-1 matrix e that are not
    orthogonal, skipping the 1-based pairs, whose rows must be identical;
    None when there is none.  HadamardMatrix runs it once per built matrix,
    and SignMatrix on entries that carry no planner's certificate.  The
    float32 Gram product is one BLAS syrk and exact: each partial sum is an
    integer of size at most e.shape[1], below 2**24 (MAX_ORDER for every
    built order).  The diagonal and the two entries of each pair are that
    row length, so a nonzero count of n plus two per pair accepts, and only
    a refusal looks for the pair."""
    f = e.astype(np.float32 if e.shape[1] <= 2 ** 24 else float)
    g = f @ f.T
    if np.count_nonzero(g) == len(g) + 2 * len(pairs):
        return None
    bad = np.triu(g != 0, 1)
    for i, j in pairs:
        bad[i - 1, j - 1] = False
    hits = np.argwhere(bad)
    return (int(hits[0, 0]) + 1, int(hits[0, 1]) + 1) if len(hits) else None


def _paley(q):
    """Order q+1 matrix from quadratic residues mod a prime q = 3 mod 4."""
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError("need a prime q with q = 3 mod 4")
    chi = -np.ones(q, dtype=np.int64)
    chi[np.arange(1, q) ** 2 % q] = 1
    chi[0] = 0
    i = np.arange(q)
    h = np.ones((q + 1, q + 1), dtype=np.int64)
    h[1:, 0] = -1
    h[1:, 1:] = chi[(i[None, :] - i[:, None]) % q] + np.eye(q, dtype=np.int64)
    return h


def _build_recipes():
    """order -> recipe for the orders hadamard() builds up to MAX_ORDER:
    1 and 2, the other powers of two as Sylvester products 2 x order/2, and
    the Paley orders q+1 (q a prime = 3 mod 4) that are not powers of two."""
    recipes = {1: ("base",), 2: ("base",)}
    o = 4
    while o <= MAX_ORDER:
        recipes[o] = ("sylvester", 2, o // 2)
        o *= 2
    for q in range(3, MAX_ORDER):
        if q % 4 == 3 and _is_prime(q):
            recipes.setdefault(q + 1, ("paley", q))
    return recipes


_RECIPES = _build_recipes()
_ORDERS = sorted(_RECIPES)


def achievable_order(n):
    """Smallest order >= n that hadamard() builds: a power of two or a
    Paley order q+1."""
    check_int("n", n, 1)
    if n > MAX_ORDER:
        raise ValueError(f"order search capped at {MAX_ORDER}")
    return _ORDERS[bisect.bisect_left(_ORDERS, n)]


def hadamard(n_request):
    """Hadamard matrix of order achievable_order(n_request)."""
    order = achievable_order(n_request)
    recipe = _RECIPES[order]
    if recipe[0] == "sylvester":
        _, a, b = recipe
        return HadamardMatrix(order, np.kron(hadamard(a).entries,
                                             hadamard(b).entries),
                              f"sylvester({a},{b})")
    if recipe[0] == "paley":
        return HadamardMatrix(order, _paley(recipe[1]), f"paley({recipe[1]})")
    return HadamardMatrix(order, [[1]] if order == 1 else [[1, 1], [1, -1]],
                          f"base({order})")


def normalize(h):
    """Row/column negations making the first row and column all +."""
    e = h.entries * h.entries[:, :1]
    return HadamardMatrix(h.order, e * e[:1], f"normalized({h.provenance})")


@lru_cache(maxsize=64)
def _normalized_rows(order):
    """Read-only int8 entries of normalize(hadamard(order)), so each order
    is built and Gram-checked once per process; a plan takes rows of it by
    index and carries (order, index) to SignMatrix as its certificate,
    which needs no second Gram product.  Every row but the all-plus row 0
    is orthogonal to it and so sums to zero.  Callers pass an order from
    achievable_order.  The 64 tables kept hold every order a plan for
    n <= 257 uses (34 of them, 0.6 MiB); at worst they are the 64 largest
    orders up to MAX_ORDER, 160 MiB."""
    rows = normalize(hadamard(order)).entries.astype(np.int8)
    rows.setflags(write=False)
    return rows


# ---------------------------------------------------------------------------
# sign matrices


def _check_pairs(pairs, n):
    """Every 1-based pair must be integers 1 <= i < j <= n, no spin twice."""
    seen = set()
    for i, j in pairs:
        if not (isinstance(i, numbers.Integral) and isinstance(j, numbers.Integral)
                and 1 <= i < j <= n):
            raise ValueError(f"need 1 <= i < j <= {n}, got pair ({i},{j})")
        if seen & {i, j}:
            raise ValueError(f"pairs must be disjoint, got pair ({i},{j}) "
                             f"reusing a spin")
        seen |= {i, j}


_PLAIN_TARGETS = ("decouple", "zeeman-free-identity", "chain-decouple")
_ZERO_SUM_TARGETS = ("zeeman-free-identity", "recouple")   # each row must sum to zero


@dataclass(frozen=True)
class SignMatrix:
    """Per-spin, per-interval sign of Z.  Spin pair indices are 1-based.

    target is "decouple", "zeeman-free-identity" or "chain-decouple", or
    "recouple" with one or more pairs to recouple.  A planner's matrix is
    one int64 cast of rows of a checked table and carries the order and
    the row indices it took (_planned) as a certificate, which
    construction checks on the indices alone.  Entries given directly, by
    a caller or from JSON, get the full check, with the Gram product.  A
    later validate() checks the entries as they are then: the entries are
    writable, so it compares a plan's with its table's rows first.
    """

    entries: np.ndarray
    target: str
    pairs: tuple = ()
    _rows = None   # (order, index) from _planned; not a field

    def __post_init__(self):
        wanted = ("recouple",) if len(self.pairs) else _PLAIN_TARGETS
        if not (isinstance(self.target, str) and self.target in wanted):
            raise ValueError(f"need target in {', '.join(_PLAIN_TARGETS)}, or recouple with "
                             f"pairs, got target={self.target!r} with pairs={self.pairs!r}")
        if self._rows is None:
            e = _as_signs(self.entries)
            if e is None or e.ndim != 2:
                raise ValueError("entries must be a +/-1 matrix")
            object.__setattr__(self, "entries", e)
        _check_pairs(self.pairs, self.n)
        # a planner's entries are the rows it cast, so its certificate is
        # checked on the indices; one that fails gets the full check
        if not self._certified():
            self.validate()

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def m(self):
        return self.entries.shape[1]

    def _certified(self):
        """True when the certificate (order, index) from _planned passes
        every check of validate for entries that are rows index of the
        checked table _normalized_rows(order): the shape matches, the
        indices are distinct apart from each recoupled pair sharing one,
        so distinct rows are orthogonal by construction, and none is the
        all-plus row 0 where rows must sum to zero.  Pairs must already be
        in range.  It does not read the entries, which are writable:
        validate compares them with the table."""
        if self._rows is None:
            return False
        order, index = self._rows
        return (self.entries.shape == (len(index), order)
                and np.count_nonzero(np.bincount(index)) == self.n - len(self.pairs)
                and all(index[i - 1] == index[j - 1] for i, j in self.pairs)
                and not (self.target in _ZERO_SUM_TARGETS and not index.all()))

    def validate(self):
        """Check the entries as they are now: O(n m) when they still equal
        the certified rows of the table, else the full check (identical
        rows for each pair, the Gram product unless the target is
        chain-decouple, and the row sums), which names what fails."""
        e = self.entries
        _check_pairs(self.pairs, self.n)
        if self._certified():
            order, index = self._rows
            if np.array_equal(e, _normalized_rows(order)[index]):
                return self
        for i, j in self.pairs:
            if not np.array_equal(e[i - 1], e[j - 1]):
                raise ValueError(f"rows {i} and {j} must be identical")
        if self.target != "chain-decouple":
            bad = _first_unorthogonal(e, self.pairs)
            if bad:
                raise ValueError(f"rows {bad[0]},{bad[1]} not orthogonal")
        if self.target in _ZERO_SUM_TARGETS and np.any(e.sum(axis=1) != 0):
            raise ValueError("row sums must vanish")
        return self


def _planned(order, index, target, pairs=()):
    """SignMatrix of rows index (0-based, into 0..order-1) of the checked
    table _normalized_rows(order): one gather and one int64 cast, carrying
    (order, index) as the certificate construction checks."""
    index.setflags(write=False)
    sign = object.__new__(SignMatrix)
    object.__setattr__(sign, "_rows", (order, index))
    sign.__init__(_normalized_rows(order)[index].astype(np.int64), target, pairs)
    return sign


def plan_decouple(n, remove_zeeman=False):
    """Sign matrix silencing every pairwise coupling.

    Rows come from the normalized Hadamard matrix of order
    achievable_order(n), a power of two or a Paley order q+1; with
    remove_zeeman the all-plus first row is skipped (bumping the order when
    nothing would be left to skip) so each row also sums to zero.
    """
    check_int("n", n, 2)
    if remove_zeeman:
        return _planned(achievable_order(n + 1), np.arange(1, n + 1),
                        "zeeman-free-identity")
    return _planned(achievable_order(n), np.arange(n), "decouple")


def _assign_pairs(n, pairs):
    """Row index of each of the n spins: each 1-based pair shares the next
    unused row from 1 on, every other spin takes its own."""
    rows = itertools.count(1)
    taken = {}
    for i, j in pairs:
        taken[i - 1] = taken[j - 1] = next(rows)
    return np.array([taken[s] if s in taken else next(rows) for s in range(n)])


def plan_recouple(n, i, j, remove_zeeman=False):
    """Sign matrix keeping only the (i, j) coupling active (1-based pair).

    The recoupled spins share the second row of the normalized Hadamard
    matrix; everyone else takes distinct later rows, all of which sum to
    zero, so the static per-spin fields are refocused too.
    """
    return plan_recouple_parallel(n, [(i, j)], remove_zeeman)


def plan_recouple_parallel(n, pairs, remove_zeeman=False):
    """Recouple several disjoint 1-based pairs in one schedule."""
    check_int("n", n, 2)
    if not pairs:
        raise ValueError("pairs must name at least one pair to recouple "
                         "(plan_decouple plans none)")
    _check_pairs(pairs, n)
    # the all-plus row 0 is never assigned, but a pair shares one row, so
    # the n spins fit order n; remove_zeeman asks for an order above n
    order = achievable_order(n + 1 if remove_zeeman else n)
    return _planned(order, _assign_pairs(n, pairs), "recouple",
                    tuple(tuple(p) for p in pairs))


def plan_chain_decouple(n, k):
    """Periodic plan for a chain coupled only within distance < k: spin s
    reuses row s mod k, so the schedule length stays k-bar regardless of n."""
    check_int("n", n, 2)
    check_int("k", k, 2)
    if n > MAX_ORDER:
        raise ValueError(f"chain length n={n} exceeds MAX_ORDER={MAX_ORDER}")
    return _planned(achievable_order(k), np.arange(n) % k, "chain-decouple")


# ---------------------------------------------------------------------------
# pulse schedules


@dataclass
class PulseSchedule:
    """X pulses at interval boundaries 0..m around m equal intervals.

    boundaries[b] lists the 1-based spins pulsed at boundary b; target is
    "decouple", "zeeman-free-identity", "chain-decouple", or one or more
    "recouple(i,j)" joined by "&", with 1 <= i, j <= n distinct.
    Construction refuses any other target.
    """

    n: int
    intervals: int
    dt: float
    boundaries: list
    target: str

    def __post_init__(self):
        check_int("n", self.n, 1)
        check_int("intervals", self.intervals, 1)
        check_positive("dt", self.dt)
        if len(self.boundaries) != self.intervals + 1:
            raise ValueError(f"{self.intervals} intervals need {self.intervals + 1} "
                             f"boundaries, got {len(self.boundaries)}")
        for b, spins in enumerate(self.boundaries):
            for s in spins:
                if not (isinstance(s, numbers.Integral) and 1 <= s <= self.n):
                    raise ValueError(f"boundary {b} pulses spin {s!r}, not one of 1..{self.n}")
            if len(set(spins)) < len(spins):   # X X is no flip, not one
                raise ValueError(f"boundary {b} pulses spin {max(spins, key=spins.count)} twice")
        _target_pairs(self.target, self.n)   # a bad target is refused here

    @property
    def pulse_count(self):
        return sum(len(b) for b in self.boundaries)

    def to_json(self):
        return json.dumps({"n": self.n, "intervals": self.intervals,
                           "dt": self.dt,
                           "boundaries": [sorted(b) for b in self.boundaries],
                           "target": self.target})

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(d["n"], d["intervals"], d["dt"],
                   [list(b) for b in d["boundaries"]], d["target"])

    def to_text(self):
        lines = []
        for b, spins in enumerate(self.boundaries):
            label = " ".join(f"X{s}" for s in sorted(spins)) or "-"
            lines.append(f"boundary {b}: {label}")
        return "\n".join(lines)


def _target_string(sign):
    if sign.pairs:
        return "&".join(f"recouple({i},{j})" for i, j in sign.pairs)
    return sign.target


def _target_pairs(target, n):
    """The 1-based pairs (i, j), i < j, that a schedule target recouples:
    none for a plain target, one per "recouple(i,j)" joined by "&"."""
    if not isinstance(target, str):
        raise ValueError(f"need target as text, got target={target!r}")
    if target in _PLAIN_TARGETS:
        return []
    pairs = []
    for part in target.split("&"):
        named = part.startswith("recouple(") and part.endswith(")")
        try:   # int() and the unpacking refuse all but two integers
            i, j = sorted(int(x) for x in (part[len("recouple("):-1] if named else "").split(","))
        except ValueError:
            raise ValueError(f"unknown target {target!r}") from None
        if not 1 <= i < j <= n:
            raise ValueError(f"target {target!r} names a pair outside spins 1..{n}")
        pairs.append((i, j))
    return pairs


def emit_pulses(sign, interval_duration):
    """Pulse positions from the sign rows: an X wherever a row changes
    sign, plus one before the first interval for a leading minus and one
    after the last for a trailing minus."""
    e = sign.entries
    n, m = e.shape
    flips = np.diff(np.pad(e, ((0, 0), (1, 1)), constant_values=1), axis=1)
    boundaries = [(np.flatnonzero(col) + 1).tolist() for col in flips.T]
    return PulseSchedule(n, m, float(interval_duration), boundaries,
                         _target_string(sign))


def recouple_duration(g_ij, n_bar):
    """Interval length making the surviving coupling accumulate pi/4."""
    check_positive("g_ij", g_ij)
    check_real("n_bar", n_bar, 1)
    return math.pi / (4.0 * g_ij * n_bar)


# ---------------------------------------------------------------------------
# toggling-frame verification


@dataclass
class CouplingSystem:
    """ZZ couplings g (rad/s, symmetric) and optional per-spin frequencies
    omega (rad/s) entering as omega_i Z_i / 2."""

    g: np.ndarray
    omega: np.ndarray | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise ValueError("g must be square")
        if not (np.isfinite(self.g).all() and np.abs(self.g - self.g.T).max() <= 1e-12):
            raise ValueError("g must be finite and symmetric")
        if self.omega is not None:
            self.omega = np.asarray(self.omega, dtype=float)
            if not (self.omega.shape == (self.g.shape[0],)
                    and np.isfinite(self.omega).all()):
                raise ValueError("omega must hold one finite frequency per spin")

    @property
    def n(self):
        return self.g.shape[0]


@dataclass
class ScheduleCheck:
    """field_errors[i] and pair_errors[i, j] (i < j) are the phases left on
    Z_i and Z_i Z_j; exact is False when max_deviation is the bound."""

    max_deviation: float
    passed: bool
    target: str
    field_errors: np.ndarray
    pair_errors: np.ndarray
    odd_spins: tuple
    exact: bool


def _target_phases(schedule):
    """ZZ phases the target turns, pi/4 on each recoupled pair (i < j)."""
    phase = np.zeros((schedule.n, schedule.n))
    for i, j in _target_pairs(schedule.target, schedule.n):
        phase[i - 1, j - 1] += math.pi / 4.0
    return phase


def _exact_deviation(fields, pairs, odd, floor):
    """The deviation on the support's 2^k states, with the global phase of
    the trace overlap unless that falls under floor."""
    delta = ising_diagonal(fields, pairs)
    if odd.any():
        # T^dag U is X_c times a diagonal: 2x2 blocks on {x, x^c} whose
        # norm is sqrt(2 + |e^{i delta_{x^c}} + e^{-i delta_x}|)
        c = int(odd @ (1 << np.arange(len(odd) - 1, -1, -1)))
        partner = delta[np.arange(len(delta)) ^ c]
        return float(np.sqrt(2 + np.abs(np.exp(1j * partner) + np.exp(-1j * delta))).max())
    w = np.exp(-1j * delta)
    overlap = w.sum()
    if abs(overlap) > floor:
        w *= abs(overlap) / overlap
    return float(np.abs(w - 1).max())


def verify_schedule(schedule, system, tol=1e-10):
    """Operator-norm deviation from the target, up to global phase, in the
    toggling frame: with ideal X pulses and a diagonal Hamiltonian the net
    operator is exactly X on the odd-count spins times exp(-i dt [sum h_i
    S_i Z_i + sum_{i<j} g_ij (S S^T)_ij Z_i Z_j]), S the frame signs read
    from the pulses.  Exact on the support (odd spins and nonzero errors)
    up to MAX_EXACT_SUPPORT spins; past that min(2, 2 sum|error|), or 2
    with an odd count, a bound."""
    check_positive("tol", tol)
    n = schedule.n
    if system.n != n:
        raise ValueError("system size mismatch")
    g = np.triu(system.g, 1)
    h = np.zeros(n) if system.omega is None else 0.5 * system.omega
    with np.errstate(over="ignore"):   # an overflow is refused just below
        turned = schedule.dt * schedule.intervals * (np.abs(g).sum() + np.abs(h).sum())
    check_real("dt*intervals*(sum|g| + sum|omega|/2)", turned)
    flips = np.zeros((n, schedule.intervals + 1), dtype=np.int64)
    for b, spins in enumerate(schedule.boundaries):
        flips[np.asarray(spins, dtype=np.int64) - 1, b] = 1
    parity = np.cumsum(flips, axis=1) & 1   # pulses so far, mod 2
    f, odd = 1.0 - 2 * parity[:, :-1], parity[:, -1] == 1
    fields = schedule.dt * h * f.sum(axis=1)
    pairs = schedule.dt * g * (f @ f.T) - _target_phases(schedule)   # f @ f.T is exact
    supp = np.flatnonzero(odd | (fields != 0) | (pairs + pairs.T != 0).any(axis=1))
    exact = len(supp) <= MAX_EXACT_SUPPORT
    if exact:
        # a dense product's 1e-12 floor on the 2^n-state trace, on 2^k states
        dev = _exact_deviation(fields[supp], pairs[np.ix_(supp, supp)], odd[supp],
                               1e-12 * 2.0 ** (len(supp) - n))
    else:
        dev = 2.0 if odd.any() else min(2.0, 2 * (np.abs(fields).sum() + np.abs(pairs).sum()))
    return ScheduleCheck(dev, dev <= tol, schedule.target, fields, pairs,
                         tuple(int(s) + 1 for s in np.flatnonzero(odd)), exact)


def efficiency_c(n):
    """Schedule-length overhead n-bar / n as an exact rational."""
    return Fraction(achievable_order(n), n)
