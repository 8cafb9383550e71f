"""Pulse-schedule compilation for decoupling and selective recoupling.

Always-on ZZ couplings between spins are silenced (or steered onto one
chosen pair) by sandwiching evolution intervals with pi pulses.  The sign
pattern of each spin's Z across the intervals forms a +/-1 matrix whose
rows must be pairwise orthogonal wherever a coupling should vanish, so
schedules are read off rows of Hadamard matrices.  A dense simulator
checks compiled schedules against their targets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .qop_core import z_signs

MAX_ORDER = 2048


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
        e = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", e)
        if e.shape != (self.order, self.order) or not np.all(np.abs(e) == 1):
            raise ValueError("entries must be a +/-1 square matrix")
        if not np.array_equal(e @ e.T, self.order * np.eye(self.order,
                                                           dtype=np.int64)):
            raise ValueError("rows are not orthogonal")


def _sylvester(a, b):
    return np.kron(a, b)


def _paley(q):
    """Order q+1 matrix from quadratic residues mod a prime q = 3 mod 4."""
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError("need a prime q with q = 3 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    chi = [0] + [1 if x in residues else -1 for x in range(1, q)]
    n = q + 1
    h = np.ones((n, n), dtype=np.int64)
    for i in range(1, n):
        h[i, 0] = -1
        for j in range(1, n):
            h[i, j] = 1 if i == j else chi[(j - i) % q]
    return h


_H12_TEXT = [
    "++++++-+++++",
    "+++--++-+--+",
    "++++--++-+--",
    "+-+++-+-+-+-",
    "+--++++--+-+",
    "++--++++--+-",
    "-+++++------",
    "+-+--+---++-",
    "++-+------++",
    "+-+-+--+---+",
    "+--+-+-++---",
    "++--+---++--",
]


def stored_h12():
    rows = [[1 if c == "+" else -1 for c in line] for line in _H12_TEXT]
    return HadamardMatrix(12, np.array(rows, dtype=np.int64), "stored(h12)")


def _build_recipes():
    """order -> construction recipe, every achievable order up to the cap."""
    recipes = {1: ("base",), 2: ("base",)}
    o = 4
    while o <= MAX_ORDER:
        recipes[o] = ("sylvester", 2, o // 2)
        o *= 2
    for q in range(3, MAX_ORDER):
        if q % 4 == 3 and _is_prime(q) and q + 1 <= MAX_ORDER:
            recipes.setdefault(q + 1, ("paley", q))
    recipes.setdefault(12, ("stored",))
    changed = True
    while changed:
        changed = False
        known = sorted(recipes)
        for a in known:
            if a == 1:
                continue
            for b in known:
                if b == 1 or a * b > MAX_ORDER:
                    break
                if a * b not in recipes:
                    recipes[a * b] = ("sylvester", a, b)
                    changed = True
    return recipes


_RECIPES = _build_recipes()
_ORDERS = sorted(_RECIPES)


def _construct(order):
    recipe = _RECIPES[order]
    if recipe[0] == "base":
        return np.array([[1]] if order == 1 else [[1, 1], [1, -1]],
                        dtype=np.int64)
    if recipe[0] == "paley":
        return _paley(recipe[1])
    if recipe[0] == "stored":
        return stored_h12().entries
    _, a, b = recipe
    return _sylvester(_construct(a), _construct(b))


def _provenance(order):
    recipe = _RECIPES[order]
    if recipe[0] == "base":
        return f"base({order})"
    if recipe[0] == "paley":
        return f"paley({recipe[1]})"
    if recipe[0] == "stored":
        return "stored(h12)"
    return f"sylvester({recipe[1]},{recipe[2]})"


def achievable_order(n):
    """Smallest constructible order >= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_ORDER:
        raise ValueError(f"order search capped at {MAX_ORDER}")
    for o in _ORDERS:
        if o >= n:
            return o
    raise ValueError("unreachable")


def hadamard(n_request):
    order = achievable_order(n_request)
    return HadamardMatrix(order, _construct(order), _provenance(order))


def normalize(h):
    """Row/column negations making the first row and column all +."""
    e = h.entries.copy()
    for i in range(h.order):
        if e[i, 0] == -1:
            e[i] = -e[i]
    for j in range(h.order):
        if e[0, j] == -1:
            e[:, j] = -e[:, j]
    return HadamardMatrix(h.order, e, f"normalized({h.provenance})")


# ---------------------------------------------------------------------------
# sign matrices


@dataclass(frozen=True)
class SignMatrix:
    """Per-spin, per-interval sign of Z.  Spin pair indices are 1-based."""

    entries: np.ndarray
    target: str
    pairs: tuple = ()

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.int64)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2 or not np.all(np.abs(e) == 1):
            raise ValueError("entries must be a +/-1 matrix")
        self.validate()

    @property
    def n(self):
        return self.entries.shape[0]

    @property
    def m(self):
        return self.entries.shape[1]

    def validate(self):
        e = self.entries
        paired = set()
        for i, j in self.pairs:
            if not np.array_equal(e[i - 1], e[j - 1]):
                raise ValueError(f"rows {i} and {j} must be identical")
            paired |= {i - 1, j - 1}
        if self.target != "chain-decouple":
            gram = e @ e.T
            for a in range(self.n):
                for b in range(a + 1, self.n):
                    same_pair = any({a, b} == {i - 1, j - 1}
                                    for i, j in self.pairs)
                    if not same_pair and gram[a, b] != 0:
                        raise ValueError(f"rows {a + 1},{b + 1} not orthogonal")
        if self.target == "zeeman-free-identity" or self.pairs:
            if np.any(e.sum(axis=1) != 0):
                raise ValueError("row sums must vanish")
        return self


def plan_decouple(n, remove_zeeman=False):
    """Sign matrix silencing every pairwise coupling.

    Rows come from the normalized smallest-order Hadamard matrix; with
    remove_zeeman the all-plus first row is skipped (bumping the order when
    nothing would be left to skip) so each row also sums to zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if remove_zeeman:
        order = achievable_order(n)
        if order == n:
            order = achievable_order(n + 1)
        e = normalize(hadamard(order)).entries[1:n + 1]
        return SignMatrix(e, "zeeman-free-identity")
    e = normalize(hadamard(n)).entries[:n]
    return SignMatrix(e, "decouple")


def _assign_pairs(norm_entries, n, pairs):
    rows = np.zeros((n, norm_entries.shape[1]), dtype=np.int64)
    available = list(range(1, norm_entries.shape[0]))
    taken = {}
    for i, j in pairs:
        shared = available.pop(0)
        taken[i - 1] = shared
        taken[j - 1] = shared
    for s in range(n):
        if s not in taken:
            taken[s] = available.pop(0)
    for s in range(n):
        rows[s] = norm_entries[taken[s]]
    return rows


def plan_recouple(n, i, j, remove_zeeman=False):
    """Sign matrix keeping only the (i, j) coupling active (1-based pair).

    The recoupled spins share the second row of the normalized Hadamard
    matrix; everyone else takes distinct later rows, all of which sum to
    zero, so the static per-spin fields are refocused too.
    """
    return plan_recouple_parallel(n, [(i, j)], remove_zeeman)


def plan_recouple_parallel(n, pairs, remove_zeeman=False):
    """Recouple several disjoint 1-based pairs in one schedule."""
    seen = set()
    for i, j in pairs:
        if not 1 <= i < j <= n:
            raise ValueError(f"need 1 <= i < j <= n, got ({i},{j})")
        if seen & {i, j}:
            raise ValueError("pairs must be disjoint")
        seen |= {i, j}
    order = achievable_order(n)
    if remove_zeeman and order == n:
        order = achievable_order(n + 1)
    norm = normalize(hadamard(order)).entries
    while len(pairs) + (n - 2 * len(pairs)) > order - 1:
        order = achievable_order(order + 1)
        norm = normalize(hadamard(order)).entries
    rows = _assign_pairs(norm, n, pairs)
    return SignMatrix(rows, "recouple", tuple(tuple(p) for p in pairs))


def plan_chain_decouple(n, k):
    """Periodic plan for a chain coupled only within distance < k: spin s
    reuses row s mod k, so the schedule length stays k-bar regardless of n."""
    if k < 2 or n < 2:
        raise ValueError("need n, k >= 2")
    base = normalize(hadamard(k)).entries
    rows = np.array([base[s % k] for s in range(n)], dtype=np.int64)
    return SignMatrix(rows, "chain-decouple")


# ---------------------------------------------------------------------------
# pulse schedules


@dataclass
class PulseSchedule:
    """X pulses at interval boundaries 0..m around m equal intervals.

    boundaries[b] lists the 1-based spins pulsed at boundary b; target is
    "decouple", "zeeman-free-identity", "chain-decouple", or one or more
    "recouple(i,j)" joined by "&".
    """

    n: int
    intervals: int
    dt: float
    boundaries: list
    target: str

    def __post_init__(self):
        if len(self.boundaries) != self.intervals + 1:
            raise ValueError(f"{self.intervals} intervals need {self.intervals + 1} "
                             f"boundaries, got {len(self.boundaries)}")
        for b, s in ((b, s) for b, spins in enumerate(self.boundaries) for s in spins):
            if not 1 <= s <= self.n:
                raise ValueError(f"boundary {b} pulses spin {s!r}, outside 1..{self.n}")

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


def emit_pulses(sign, interval_duration):
    """Pulse positions from the sign rows: an X wherever a row changes
    sign, plus one before the first interval for a leading minus and one
    after the last for a trailing minus."""
    e = sign.entries
    n, m = e.shape
    boundaries = [[] for _ in range(m + 1)]
    for s in range(n):
        if e[s, 0] == -1:
            boundaries[0].append(s + 1)
        for b in range(1, m):
            if e[s, b - 1] != e[s, b]:
                boundaries[b].append(s + 1)
        if e[s, m - 1] == -1:
            boundaries[m].append(s + 1)
    return PulseSchedule(n, m, float(interval_duration),
                         [sorted(b) for b in boundaries], _target_string(sign))


def recouple_duration(g_ij, n_bar):
    """Interval length making the surviving coupling accumulate pi/4."""
    if not (math.isfinite(g_ij) and g_ij > 0):
        raise ValueError("need a positive finite coupling")
    if not n_bar >= 1:
        raise ValueError(f"n_bar must be at least 1, got {n_bar!r}")
    return math.pi / (4.0 * g_ij * n_bar)


# ---------------------------------------------------------------------------
# dense verification


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
        if np.abs(self.g - self.g.T).max() > 1e-12:
            raise ValueError("g must be symmetric")
        if self.omega is not None:
            self.omega = np.asarray(self.omega, dtype=float)
            if self.omega.shape != (self.g.shape[0],):
                raise ValueError("omega length mismatch")

    @property
    def n(self):
        return self.g.shape[0]


def _hamiltonian_diag(system):
    n = system.n
    z = z_signs(n)
    h = np.zeros(1 << n)
    for i in range(n):
        for j in range(i + 1, n):
            if system.g[i, j]:
                h += system.g[i, j] * z[i] * z[j]
    if system.omega is not None:
        for i in range(n):
            h += 0.5 * system.omega[i] * z[i]
    return h


@dataclass
class ScheduleCheck:
    max_deviation: float
    passed: bool
    target: str


def _target_unitary(schedule, system):
    n = schedule.n
    if schedule.target in ("decouple", "zeeman-free-identity",
                          "chain-decouple"):
        return np.eye(1 << n, dtype=complex)
    z = z_signs(n)
    phase = np.zeros(1 << n)
    for part in schedule.target.split("&"):
        if not part.startswith("recouple(") or not part.endswith(")"):
            raise ValueError(f"unknown target {schedule.target!r}")
        i, j = (int(x) for x in part[len("recouple("):-1].split(","))
        phase = phase + (math.pi / 4.0) * z[i - 1] * z[j - 1]
    return np.diag(np.exp(-1j * phase))


def verify_schedule(schedule, system, tol=1e-10):
    """Dense product of interval evolutions and pulses against the target
    unitary, up to global phase; reports the operator-norm deviation."""
    n = schedule.n
    if n > 8:
        raise ValueError("dense verification capped at 8 spins")
    if system.n != n:
        raise ValueError("system size mismatch")
    interval = np.exp(-1j * _hamiltonian_diag(system) * schedule.dt)
    idx = np.arange(1 << n)
    u = np.eye(1 << n, dtype=complex)
    for b in range(schedule.intervals + 1):
        if b:
            u = interval[:, None] * u
        # X on the listed 1-based spins flips their bits of the row index
        mask = 0
        for s in schedule.boundaries[b]:
            mask |= 1 << (n - s)
        u = u[idx ^ mask]
    target = _target_unitary(schedule, system)
    overlap = np.trace(target.conj().T @ u)
    if abs(overlap) > 1e-12:
        u = u * (abs(overlap) / overlap)
    dev = float(np.linalg.norm(u - target, 2))
    return ScheduleCheck(dev, dev <= tol, schedule.target)


def efficiency_c(n):
    """Schedule-length overhead n-bar / n as an exact rational."""
    return Fraction(achievable_order(n), n)
