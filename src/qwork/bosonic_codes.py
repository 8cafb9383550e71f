"""Codes that store logical states in multi-register excitation numbers.

A basis state here is a product of number states |n_1 ... n_m> over m
registers; a logical state is a weighted superposition of such products.
Losing s quanta multiplies every basis state by binomial factors in its
occupations, so correctability turns into combinatorics on the occupation
vectors: all logicals must share the same occupation moments up to order t
(no relative deformation), and basis states of different logicals must stay
far enough apart that losses cannot map one onto another.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qec_engine
from .qop_core import DEFAULT_TOL, check_int, check_positive, check_real


@dataclass(frozen=True)
class Qcs:
    """One multi-register number state, held as its occupation vector."""

    occupations: tuple

    def __post_init__(self):
        if not all(x >= 0 and float(x).is_integer() for x in self.occupations):
            raise ValueError(f"occupations must be non-negative integers, "
                             f"got {self.occupations!r}")
        object.__setattr__(self, "occupations", tuple(int(x) for x in self.occupations))

    @property
    def m(self):
        return len(self.occupations)

    @property
    def total(self):
        return sum(self.occupations)

    def scaled(self, factor):
        return Qcs(tuple(factor * x for x in self.occupations))

    def __iter__(self):
        return iter(self.occupations)

    def __getitem__(self, i):
        return self.occupations[i]


def as_qcs(x):
    return x if isinstance(x, Qcs) else Qcs(tuple(x))


def partitions(n, m):
    """Number of ways to spread n quanta over m ordered registers."""
    check_int("n", n, 0)
    check_int("m", m, 1)
    return math.comb(n + m - 1, m - 1)


def occupation_vectors(n, m):
    """All length-m occupation vectors summing to n, lexicographic."""
    check_int("n", n, 0)
    check_int("m", m, 1)
    if m == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        out.extend((first,) + rest for rest in occupation_vectors(n - first, m - 1))
    return out


def qcs_distance(u, v):
    """Half the entrywise occupation difference; losses move states by
    at most the number of lost quanta in this metric."""
    u, v = as_qcs(u), as_qcs(v)
    if u.m != v.m:
        raise ValueError("occupation vectors differ in length")
    return sum(abs(a - b) for a, b in zip(u, v)) / 2


@dataclass
class BosonicCode:
    """Weighted number-state superpositions forming the logical states.

    ``logicals`` is a list of lists of (Qcs, weight) pairs; weights are
    probabilities (squared amplitudes) and must sum to one per logical.
    Fractions keep the moment checks exact.
    """

    m: int
    t: int
    logicals: list

    def __post_init__(self):
        self.logicals = [[(as_qcs(q), mu) for q, mu in states]
                         for states in self.logicals]

    def validate(self, tol=DEFAULT_TOL):
        check_int("m", self.m, 1)
        check_int("t", self.t, 0)
        check_positive("tol", tol)
        if not self.logicals:
            raise ValueError("no logical states")
        for states in self.logicals:
            if not states:
                raise ValueError("empty logical state")
            seen = set()
            total = 0
            for q, mu in states:
                if q.m != self.m:
                    raise ValueError("occupation vector length != m")
                if q.occupations in seen:
                    raise ValueError(f"repeated basis state {q.occupations}")
                seen.add(q.occupations)
                check_positive("weights", mu)
                total += mu
            if abs(float(total) - 1.0) > tol:
                raise ValueError(f"weights sum to {float(total)}, not 1")
        return self

    @property
    def n_levels(self):
        return len(self.logicals)

    @property
    def n_total(self):
        """Common total quanta count, or None if the basis states differ."""
        totals = {q.total for states in self.logicals for q, _ in states}
        return totals.pop() if len(totals) == 1 else None

    @property
    def max_occupation(self):
        return max(x for states in self.logicals for q, _ in states for x in q)

    def distance(self):
        """Minimum distance between basis states of different logicals."""
        best = math.inf
        for a, b in itertools.combinations(self.logicals, 2):
            for (u, _), (v, _) in itertools.product(a, b):
                best = min(best, qcs_distance(u, v))
        return best

    def to_json(self):
        return json.dumps({
            "m": self.m,
            "t": self.t,
            "logicals": [[{"qcs": list(q.occupations), "mu": float(mu)}
                          for q, mu in states] for states in self.logicals],
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        logicals = [[(Qcs(tuple(e["qcs"])), e["mu"]) for e in states]
                    for states in data["logicals"]]
        return cls(int(data["m"]), int(data["t"]), logicals).validate()


# ---------------------------------------------------------------------------
# criteria


@dataclass
class NonDeformationReport:
    passed: bool
    uniform_total: bool
    totals: list
    moments: dict
    max_discrepancy: float


def check_nondeformation(code, t=None, tol=DEFAULT_TOL):
    """Moment matching between logicals for every order s = 1..t.

    Also requires every basis state to carry the same total quanta count
    (the order-0 condition): unequal totals decay at different rates and
    no recovery can undo that.
    """
    t = code.t if t is None else t
    check_int("t", t, 0)
    check_positive("tol", tol)
    totals = [sorted({q.total for q, _ in states}) for states in code.logicals]
    uniform = len({x for ts in totals for x in ts}) == 1

    moments = {}
    worst = 0.0
    for s in range(1, t + 1):
        for combo in itertools.combinations_with_replacement(range(code.m), s):
            vals = []
            for states in code.logicals:
                acc = 0
                for q, mu in states:
                    prod = mu
                    for j in combo:
                        prod = prod * q[j]
                    acc = acc + prod
                vals.append(acc)
            moments[combo] = [float(v) for v in vals]
            spread = max(moments[combo]) - min(moments[combo])
            worst = max(worst, spread)
    passed = uniform and worst <= tol
    return NonDeformationReport(passed, uniform, totals, moments, worst)


def check_orthogonality(code, t=None):
    """Basis states of different logicals must sit further than t apart,
    so states that lost up to t quanta can never collide."""
    t = code.t if t is None else t
    return code.distance() > t


# ---------------------------------------------------------------------------
# constructions


def _rotations(v):
    return [v[r:] + v[:r] for r in range(len(v))]


def cyclic_orbits(n, m):
    """Orbits of the n-quanta occupation vectors under register rotation.

    Each orbit is listed from its lexicographically smallest member;
    orbits come out sorted by that representative.
    """
    seen, orbits = set(), []
    for v in occupation_vectors(n, m):
        if v in seen:
            continue
        orbit = []
        for w in _rotations(v):
            if w not in orbit:
                orbit.append(w)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def construct_t1(n, m):
    """One-loss code: every rotation orbit of Q(n, m), occupations doubled.

    Rotation averaging makes all first moments equal to 2n/m, and doubling
    keeps distinct basis states at distance two or more.
    """
    check_int("n", n, 1)
    check_int("m", m, 2)
    logicals = []
    for orbit in cyclic_orbits(n, m):
        mu = Fraction(1, len(orbit))
        logicals.append([(Qcs(tuple(2 * x for x in w)), mu) for w in orbit])
    return BosonicCode(m, 1, logicals).validate()


def construct_t2(x):
    """Two-loss code from one full rotation orbit and its reversal, tripled.

    Lagged products of a sequence and of its reversal agree, which is
    exactly the second-moment matching; tripling keeps all distances > 2.
    """
    for v in x:
        check_int("x", v, 0)
    x = tuple(int(v) for v in x)
    m = len(x)
    if m <= 2:
        raise ValueError("need more than two registers")
    rots = _rotations(x)
    if len(set(rots)) < m:
        raise ValueError("rotation orbit of x is degenerate")
    rev = x[::-1]
    if rev in rots:
        raise ValueError("reversal lies in the rotation orbit; logicals collide")
    mu = Fraction(1, m)
    logicals = [
        [(Qcs(tuple(3 * v for v in w)), mu) for w in rots],
        [(Qcs(tuple(3 * v for v in w)), mu) for w in _rotations(rev)],
    ]
    return BosonicCode(m, 2, logicals).validate()


# ---------------------------------------------------------------------------
# fidelity


def code_fidelity(n_total, t, gamma):
    """Success probability when every loss of up to t quanta is repaired.

    Includes the no-loss term s = 0, so the small-gamma expansion reads
    1 - comb(n_total, t+1) * gamma^(t+1) + ...
    """
    check_int("n_total", n_total, 0)
    check_int("t", t, 0)
    check_real("gamma", gamma, 0, 1)
    # terms past s = n_total are zero, and would divide by zero at gamma = 1
    return sum(math.comb(n_total, s) * (1 - gamma) ** (n_total - s) * gamma ** s
               for s in range(min(t, n_total) + 1))


def leading_term(n_total, t):
    """Coefficient of the first uncorrected order gamma^(t+1)."""
    check_int("n_total", n_total, 0)
    check_int("t", t, 0)
    return math.comb(n_total, t + 1)


def loss_patterns(m, s):
    """All ways to distribute s lost quanta over m registers."""
    return occupation_vectors(s, m)


def loss_weight_identity(code, s):
    """Pattern-summed binomial weights per logical, next to comb(N_T, s).

    Summing mu_i * prod_j C(n_ij, k_j) over all patterns losing s quanta
    telescopes to C(N_T, s) whenever every basis state carries N_T quanta;
    returns (per-logical values, target).
    """
    check_int("s", s, 0)
    target = math.comb(code.n_total, s) if code.n_total is not None else None
    values = []
    for states in code.logicals:
        acc = 0
        for k in loss_patterns(code.m, s):
            for q, mu in states:
                prod = mu
                for j, kj in enumerate(k):
                    prod = prod * math.comb(q[j], kj)
                acc = acc + prod
        values.append(acc)
    return values, target


@dataclass
class ChannelCheck:
    gamma: float
    t: int
    numeric_fidelity: float
    formula_fidelity: float
    difference: float
    verdict: str
    report: object
    basis: np.ndarray   # (D, m) occupation vectors, lexicographic: the rows of report.unitaries

    @property
    def passed(self):
        return self.verdict == "exact" and self.difference <= 1e-6


def verify_by_channel(code, gamma, t=None, max_amplitudes=20000):
    """Run the generic correctability checker on the actual loss channel.

    Every loss pattern p of up to t quanta, none above the code's largest
    occupation, maps the number state |q> to the single state |q - p> times
    Π_j √(C(q_j, p_j)·(1-γ)^(q_j-p_j)·γ^p_j), or to zero unless q ≥ p
    (Chuang, Leung & Yamamoto, PRA 56, 1114, 1997).  So the checker runs on
    the D reachable vectors q - p (``basis``, at most ``max_amplitudes``),
    and the summed detection probabilities are compared with the closed-form
    fidelity.  For a valid code the verdict is "exact": each pattern shrinks
    the whole code space uniformly and distinct patterns land in orthogonal
    sectors.
    """
    t = code.t if t is None else t
    check_int("t", t, 0)
    check_int("max_amplitudes", max_amplitudes, 1)
    check_real("gamma", gamma, 0, 1)
    code.validate()
    if code.n_total is None:
        raise ValueError("basis-state totals differ; the formula does not apply")
    patterns = np.array([p for s in range(t + 1) for p in loss_patterns(code.m, s)
                         if max(p) <= code.max_occupation])
    owner, occ, amps = map(np.array, zip(*[(l, q.occupations, math.sqrt(float(mu)))
                                           for l, states in enumerate(code.logicals)
                                           for q, mu in states]))
    grid = occ.max(axis=0) + 1
    # (pattern, state) pairs with q >= p, pattern-major; p = 0 comes first
    # and reaches every state, so the first len(occ) pairs are the states
    lost = occ - patterns[:, None]
    which, state = np.nonzero((lost >= 0).all(axis=-1))
    flat, row = np.unique(np.ravel_multi_index(tuple(lost[which, state].T), grid),
                          return_inverse=True)
    if len(flat) > max_amplitudes:
        raise ValueError(f"reachable occupation vectors number {len(flat)}, "
                         f"cap is {max_amplitudes}")
    basis = np.stack(np.unravel_index(flat, grid), axis=-1)

    # per-register loss amplitudes, each (occupation, loss) pair once
    g, width = float(gamma), t + 1
    keys, pick = np.unique(occ[state] * width + patterns[which], return_inverse=True)
    try:
        rates = np.array([math.sqrt(math.comb(x, k)) * math.sqrt((1 - g) ** (x - k) * g ** k)
                          for x, k in (divmod(int(key), width) for key in keys)])
    except OverflowError:
        raise ValueError("occupations too large for a float binomial coefficient") from None
    factors, src = rates[pick.reshape(-1, code.m)], row[state]

    def gather(vec, pair):
        # pattern p on the code's own vectors, all the criteria apply it to;
        # factors go on register by register, so images round as the dense
        # product of per-register operators did
        out = np.zeros(len(basis), dtype=complex)
        out[row[pair]] = functools.reduce(np.multiply, factors[pair].T, vec[src[pair]])
        return out

    logicals = np.zeros((code.n_levels, len(basis)), dtype=complex)
    logicals[owner, row[:len(occ)]] = amps
    space = qec_engine.CodeSpace(len(basis), [v / np.linalg.norm(v) for v in logicals])
    report = qec_engine.check_approximate(space, [functools.partial(gather, pair=which == e)
                                                  for e in range(len(patterns))])
    numeric, formula = report.crude_bound, code_fidelity(code.n_total, t, gamma)
    return ChannelCheck(gamma, t, numeric, formula, abs(numeric - formula),
                        report.verdict, report, basis)


# ---------------------------------------------------------------------------
# existence and rate


def existence_min_NT(t, m, l_o):
    """Smallest admissible total quanta count for l_o + 1 logical states.

    Counting bound: the images of all logicals under every pattern of up
    to t losses must fit, mutually distinguishable, among the occupation
    vectors available at spacing t + 1.
    """
    check_int("t", t, 0)
    check_int("m", m, 1)
    check_int("l_o", l_o, 1)
    need = 1 + l_o + l_o * sum(partitions(s, m) for s in range(t + 1))
    nt = t + 1
    while partitions(nt // (t + 1), m) < need:
        nt += t + 1
    return nt


def rate(code):
    """Encoded bits per qubit-equivalent of register space."""
    n = code.max_occupation
    if n < 1:
        raise ValueError("code has max_occupation 0, so its rate is undefined")
    k = math.log2(code.n_levels)
    return k / (code.m * math.log2(n + 1))


def balance_weights(qcs_lists, t, tol=DEFAULT_TOL):
    """Solve for per-logical weights equalizing moments up to order t.

    Least squares on the linear system (normalization plus moment matching
    against the first logical); raises when no assignment fits or the best
    one needs negative weight.  Returns one weight array per logical.
    """
    check_int("t", t, 0)
    check_positive("tol", tol)
    lists = [[as_qcs(q) for q in states] for states in qcs_lists]
    m = lists[0][0].m
    sizes = [len(states) for states in lists]
    offs = np.concatenate(([0], np.cumsum(sizes)))
    nvar = offs[-1]

    rows, rhs = [], []
    for l in range(len(lists)):
        row = np.zeros(nvar)
        row[offs[l]:offs[l + 1]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for s in range(1, t + 1):
        for combo in itertools.combinations_with_replacement(range(m), s):
            def mono(q):
                prod = 1.0
                for j in combo:
                    prod *= q[j]
                return prod
            base = [mono(q) for q in lists[0]]
            for l in range(1, len(lists)):
                row = np.zeros(nvar)
                row[offs[0]:offs[1]] = base
                row[offs[l]:offs[l + 1]] = [-mono(q) for q in lists[l]]
                rows.append(row)
                rhs.append(0.0)

    a, b = np.array(rows), np.array(rhs)
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.abs(a @ w - b).max() > tol:
        raise ValueError("no weight assignment matches the moments")
    if w.min() < -tol:
        raise ValueError("moment matching requires negative weights")
    w = np.clip(w, 0.0, None)
    return [w[offs[l]:offs[l + 1]] for l in range(len(lists))]


# ---------------------------------------------------------------------------
# worked example codes


def _balanced(m, t, orbits):
    return BosonicCode(m, t, [
        [(Qcs(v), Fraction(1, len(orbit))) for v in orbit] for orbit in orbits
    ]).validate()


def example_codes():
    """Eleven worked loss codes, keyed ex1..ex11.

    ex1-ex3 are rotation-orbit one-loss codes, ex4 a two-loss orbit pair,
    ex5-ex6 hand-built one-loss codes, ex7-ex11 weighted codes for two to
    four losses.  ex10's five-plus-four states carry the weights of a
    product of second differences on a spacing-four grid; ex11's weights
    solve the order-four moment system on its ten basis states.
    """
    f = Fraction
    codes = {
        "ex1": _balanced(2, 1, [[(4, 0), (0, 4)], [(2, 2)]]),
        "ex2": _balanced(3, 1, [
            [(0, 0, 12), (12, 0, 0), (0, 12, 0)],
            [(0, 2, 10), (10, 0, 2), (2, 10, 0)],
            [(0, 4, 8), (8, 0, 4), (4, 8, 0)],
            [(0, 6, 6), (6, 0, 6), (6, 6, 0)],
            [(0, 8, 4), (4, 0, 8), (8, 4, 0)],
            [(0, 10, 2), (2, 0, 10), (10, 2, 0)],
            [(2, 2, 8), (8, 2, 2), (2, 8, 2)],
            [(2, 4, 6), (6, 2, 4), (4, 6, 2)],
            [(2, 6, 4), (6, 4, 2), (4, 2, 6)],
            [(4, 4, 4)],
        ]),
        "ex3": _balanced(3, 1, [
            [(6, 0, 0), (0, 6, 0), (0, 0, 6)],
            [(4, 2, 0), (2, 0, 4), (0, 4, 2)],
            [(2, 4, 0), (4, 0, 2), (0, 2, 4)],
            [(2, 2, 2)],
        ]),
        "ex4": _balanced(3, 2, [
            [(3, 0, 6), (0, 6, 3), (6, 3, 0)],
            [(0, 3, 6), (3, 6, 0), (6, 0, 3)],
        ]),
        "ex5": _balanced(4, 1, [
            [(0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3), (3, 2, 1, 0)],
            [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)],
        ]),
        "ex6": _balanced(2, 1, [
            [(7, 0), (1, 6)],
            [(5, 2), (3, 4)],
        ]),
        "ex7": BosonicCode(2, 2, [
            [((9, 0), f(1, 4)), ((3, 6), f(3, 4))],
            [((0, 9), f(1, 4)), ((6, 3), f(3, 4))],
        ]).validate(),
        "ex8": BosonicCode(3, 2, [
            [((0, 3, 6), f(1, 3)), ((3, 0, 6), f(1, 3)), ((3, 6, 0), f(1, 3))],
            [((3, 3, 3), f(2, 3)), ((0, 0, 9), f(2, 9)), ((0, 9, 0), f(1, 9))],
        ]).validate(),
        "ex9": BosonicCode(2, 3, [
            [((0, 16), f(1, 8)), ((16, 0), f(1, 8)), ((8, 8), f(3, 4))],
            [((4, 12), f(1, 2)), ((12, 4), f(1, 2))],
        ]).validate(),
        "ex10": BosonicCode(3, 3, [
            [((0, 0, 20), f(1, 8)), ((0, 8, 12), f(1, 8)),
             ((8, 0, 12), f(1, 8)), ((8, 8, 4), f(1, 8)),
             ((4, 4, 12), f(1, 2))],
            [((0, 4, 16), f(1, 4)), ((4, 0, 16), f(1, 4)),
             ((4, 8, 8), f(1, 4)), ((8, 4, 8), f(1, 4))],
        ]).validate(),
        "ex11": BosonicCode(2, 4, [
            [((0, 50), f(13, 216)), ((20, 30), f(31, 60)), ((30, 20), f(1, 9)),
             ((40, 10), f(5, 24)), ((45, 5), f(14, 135))],
            [((5, 45), f(1, 18)), ((10, 40), f(1, 6)), ((25, 25), f(11, 30)),
             ((35, 15), f(1, 3)), ((50, 0), f(7, 90))],
        ]).validate(),
    }
    return codes
