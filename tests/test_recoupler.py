import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwork import recoupler as rc
from qwork.qop_core import ising_diagonal


def rand_couplings(n, rng, lo=5.0, hi=60.0):
    g = rng.uniform(lo, hi, size=(n, n))
    g = (g + g.T) / 2
    np.fill_diagonal(g, 0.0)
    return g


# ------------------------------------------------------------- constructions

def test_small_orders():
    assert rc.hadamard(1).entries.tolist() == [[1]]
    assert rc.hadamard(2).entries.tolist() == [[1, 1], [1, -1]]
    assert rc.hadamard(4).order == 4


def test_order_nine_needs_twelve():
    h = rc.hadamard(9)
    assert h.order == 12
    assert h.provenance == "paley(11)"


def test_sylvester_product_rows_orthogonal():
    a = rc.hadamard(2).entries
    prod = np.kron(a, a)
    assert np.array_equal(prod @ prod.T, 4 * np.eye(4, dtype=np.int64))


def test_orthogonality_integer_exact_up_to_256():
    for n in range(1, 257):
        h = rc.hadamard(n)   # constructor asserts H H^T = order I exactly
        assert h.order >= n
        assert np.array_equal(h.entries @ h.entries.T,
                              h.order * np.eye(h.order, dtype=np.int64))


def _digest(labelled):
    h = hashlib.sha256()
    for label, entries in labelled:
        h.update(f"{label}:".encode())
        h.update(entries.astype("<i8").tobytes())
    return h.hexdigest()


# SHA-256 digests pinning every entry, order and provenance string of the
# constructions and plans below
PINNED = {
    "hadamard": "38a6ec79183edebf83a6095aa7302250cafc938730f04536f45555394c0d8b83",
    "decouple": "5917aeabd7cc808b50250494810a19b4c12c2e24ba614307ee6480141b77695f",
    "zeeman": "0fd079f29403b27b3eabd3ff3f3a207ee219cdcaff9712249c44acf8d57e0669",
    "recouple": "d607ca0b9fc0f9dfcf1f177d3620d029bc6f7ec018fd5af76831c9cbff9fa6ca",
    "chain": "1d404228c9ce815a4354d4d410d10b51279c525e30081d4143458318e813d101",
    "every planner": "a05bfcc8e611dcf07edd8b22062559407a8e322d04c8ed39ee55fc6b543d05f9",
}


def test_hadamard_orders_up_to_512_pinned():
    orders = sorted({rc.achievable_order(n) for n in range(1, 513)})
    mats = [rc.hadamard(o) for o in orders]
    assert _digest((f"{m.order}:{m.provenance}", m.entries)
                   for m in mats) == PINNED["hadamard"]


@pytest.mark.parametrize("name, plan", [
    ("decouple", rc.plan_decouple),
    ("zeeman", lambda n: rc.plan_decouple(n, remove_zeeman=True)),
    ("recouple", lambda n: rc.plan_recouple(n, 1, n)),
    ("chain", lambda n: rc.plan_chain_decouple(n, 2 + n % 7)),
])
def test_plans_up_to_256_pinned(name, plan):
    signs = ((n, plan(n).entries) for n in range(2, 257))
    assert _digest((f"{n}:{e.shape}", e) for n, e in signs) == PINNED[name]


def test_recipes_are_powers_of_two_and_paley_orders():
    assert len(rc._RECIPES) == 167
    for order, recipe in rc._RECIPES.items():
        power = order & (order - 1) == 0
        assert recipe[0] == ("base" if order <= 2 else
                             "sylvester" if power else "paley")


def test_one_flipped_entry_is_rejected():
    h = rc.hadamard(256).entries
    for r, c in ((0, 0), (97, 200), (255, 255)):
        bad = h.copy()
        bad[r, c] = -bad[r, c]
        with pytest.raises(ValueError, match="not orthogonal"):
            rc.HadamardMatrix(256, bad, "flipped")
        with pytest.raises(ValueError, match="not orthogonal"):
            rc.SignMatrix(bad, "decouple")


def test_invalid_matrix_rejected():
    bad = np.ones((4, 4), dtype=int)
    with pytest.raises(ValueError):
        rc.HadamardMatrix(4, bad, "nope")


@pytest.mark.parametrize("entries", [
    np.array([[1.5, 1.5], [1.5, -1.5]]),     # the int64 cast read [[1, 1], [1, -1]]
    np.array([[1.0, 1.0], [1.0, math.nan]]),  # the cast warned before any check
    np.array([[True, True], [True, True]]),    # a flag, not a sign
    np.array([[1, 1], [1, -1]], dtype=complex),
])
def test_sign_entries_are_checked_as_given(entries):
    with pytest.raises(ValueError, match=r"entries must be a \+/-1 square matrix"):
        rc.HadamardMatrix(2, entries, "given")
    with pytest.raises(ValueError, match=r"entries must be a \+/-1 matrix"):
        rc.SignMatrix(entries, "decouple")


def test_float_and_int8_signs_are_accepted_as_int64():
    for entries in (np.array([[1.0, 1.0], [1.0, -1.0]]), rc._normalized_rows(2)):
        assert rc.HadamardMatrix(2, entries, "given").entries.dtype == np.int64
        assert rc.SignMatrix(entries, "decouple").entries.dtype == np.int64


def test_longest_rows_with_dot_product_two_are_refused():
    # one agreement more than disagreements over MAX_ORDER columns: the
    # float32 Gram entry 2 must not round to 0
    e = np.ones((2, rc.MAX_ORDER), dtype=np.int64)
    e[1, :rc.MAX_ORDER // 2 - 1] = -1
    assert e[0] @ e[1] == 2
    with pytest.raises(ValueError, match="rows 1,2 not orthogonal"):
        rc.SignMatrix(e, "decouple")


def test_paley_requires_3_mod_4_prime():
    with pytest.raises(ValueError):
        rc._paley(5)
    with pytest.raises(ValueError):
        rc._paley(9)


# a textbook order-12 Hadamard matrix, not in normal form
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
    return rc.HadamardMatrix(12, np.array(rows, dtype=np.int64), "stored(h12)")


def test_stored_twelve_normalizes_by_seventh_row_and_column():
    s = stored_h12()
    nrm = rc.normalize(s)
    flips = s.entries != nrm.entries
    expected = np.zeros((12, 12), dtype=bool)
    expected[6, :] = True
    expected[:, 6] = True
    expected[6, 6] = False          # flipped twice
    assert np.array_equal(flips, expected)
    assert np.all(nrm.entries[0] == 1)
    assert np.all(nrm.entries[:, 0] == 1)


def test_normalize_idempotent_and_zero_row_sums():
    nrm = rc.normalize(rc.hadamard(12))
    again = rc.normalize(nrm)
    assert np.array_equal(nrm.entries, again.entries)
    assert np.all(nrm.entries[1:].sum(axis=1) == 0)


# --------------------------------------------------------------------- plans

def test_plan_decouple_shapes():
    assert rc.plan_decouple(2).entries.tolist() == [[1, 1], [1, -1]]
    assert rc.plan_decouple(4).entries.shape == (4, 4)
    assert rc.plan_decouple(9).entries.shape == (9, 12)


def test_plan_decouple_gram_identity():
    s = rc.plan_decouple(9)
    assert np.array_equal(s.entries @ s.entries.T,
                          12 * np.eye(9, dtype=np.int64))


def test_zeeman_free_plan_bumps_order():
    s = rc.plan_decouple(4, remove_zeeman=True)
    assert s.entries.shape == (4, 8)
    assert np.all(s.entries.sum(axis=1) == 0)
    # n=9 < 12 keeps order 12
    s9 = rc.plan_decouple(9, remove_zeeman=True)
    assert s9.entries.shape == (9, 12)


def test_plan_recouple_structure():
    s = rc.plan_recouple(9, 3, 4)
    assert s.entries.shape == (9, 12)
    assert np.array_equal(s.entries[2], s.entries[3])
    assert np.all(s.entries.sum(axis=1) == 0)
    gram = s.entries @ s.entries.T
    for a in range(9):
        for b in range(a + 1, 9):
            if (a, b) != (2, 3):
                assert gram[a, b] == 0


EQ_718 = ["++++---+-+--",
          "+-+++---+-+-",
          "+++--+--+--+",
          "+++--+--+--+",
          "+--+++---+-+",
          "++--++-+--+-",
          "+------+++++",
          "+-+--++--++-",
          "++-+--+---++"]


def test_recouple_rows_from_classic_twelve():
    # the deterministic assignment reproduces the textbook nine-spin
    # (3,4)-recoupling matrix when fed the stored order-12 seed
    norm = rc.normalize(stored_h12()).entries
    rows = norm[rc._assign_pairs(9, [(3, 4)])]
    got = ["".join("+" if x == 1 else "-" for x in r) for r in rows]
    assert got == EQ_718


def test_plan_recouple_rejects_bad_pairs():
    with pytest.raises(ValueError):
        rc.plan_recouple(5, 3, 3)
    with pytest.raises(ValueError):
        rc.plan_recouple(5, 0, 2)
    with pytest.raises(ValueError):
        rc.plan_recouple_parallel(6, [(1, 2), (2, 3)])
    # an empty list once planned a "recouple" target that verify_schedule
    # refuses
    with pytest.raises(ValueError, match="pairs"):
        rc.plan_recouple_parallel(4, [])


# -------------------------------------------------------------------- pulses

def test_two_spin_pulse_pattern():
    sched = rc.emit_pulses(rc.plan_decouple(2), 1e-3)
    assert sched.boundaries == [[], [2], [2]]
    assert sched.pulse_count == 2


def test_four_spin_simplified_pulses():
    sched = rc.emit_pulses(rc.plan_decouple(4), 1e-3)
    assert sched.boundaries == [[], [2, 4], [2, 3], [2, 4], [2, 3]]
    assert sched.pulse_count == 8


def pm_matrices(max_rows, max_cols, min_rows=1):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(1, max_cols).flatmap(
            lambda m: st.lists(st.lists(st.sampled_from((-1, 1)),
                                        min_size=m, max_size=m),
                               min_size=n, max_size=n))).map(np.array)


@settings(deadline=None, max_examples=80)
@given(pm_matrices(6, 10))
def test_emit_pulses_marks_every_sign_change(e):
    n, m = e.shape
    expected = [[] for _ in range(m + 1)]
    for s, row in enumerate(e.tolist(), start=1):
        padded = [1, *row, 1]
        for b in range(m + 1):
            if padded[b] != padded[b + 1]:
                expected[b].append(s)
    sched = rc.emit_pulses(rc.SignMatrix(e, "chain-decouple"), 1.0)
    assert sched.boundaries == expected


def test_all_plus_gives_no_pulses():
    sign = rc.SignMatrix(np.ones((2, 4), dtype=int), "chain-decouple")
    assert rc.emit_pulses(sign, 1.0).pulse_count == 0


def test_pulse_count_bound():
    for n in (2, 5, 9, 13):
        sign = rc.plan_decouple(n)
        sched = rc.emit_pulses(sign, 1e-3)
        assert sched.pulse_count <= n * sign.m


def test_schedule_json_round_trip():
    sched = rc.emit_pulses(rc.plan_recouple(5, 1, 3), 2e-4)
    back = rc.PulseSchedule.from_json(sched.to_json())
    assert back.n == sched.n and back.intervals == sched.intervals
    assert back.boundaries == sched.boundaries
    assert back.target == "recouple(1,3)"
    text = sched.to_text()
    assert len(text.splitlines()) == sched.intervals + 1


# -------------------------------------------------------------- verification

def test_decouple_verifies_at_random_durations():
    rng = np.random.default_rng(21)
    for n in (2, 4, 5, 8):
        system = rc.CouplingSystem(rand_couplings(n, rng))
        for dt in rng.uniform(1e-4, 1e-2, size=3):
            sched = rc.emit_pulses(rc.plan_decouple(n), dt)
            chk = rc.verify_schedule(sched, system)
            assert chk.passed and chk.max_deviation < 1e-10


def test_zeeman_free_identity_with_offsets():
    rng = np.random.default_rng(22)
    for n in (3, 4, 6):
        system = rc.CouplingSystem(rand_couplings(n, rng),
                                   omega=rng.uniform(100, 1000, size=n))
        sched = rc.emit_pulses(rc.plan_decouple(n, remove_zeeman=True), 3e-3)
        chk = rc.verify_schedule(sched, system)
        assert chk.passed and chk.max_deviation < 1e-10


def test_recouple_hits_zz_target():
    rng = np.random.default_rng(23)
    n = 5
    g = rand_couplings(n, rng)
    sign = rc.plan_recouple(n, 1, 3)
    dt = rc.recouple_duration(g[0, 2], sign.m)
    sched = rc.emit_pulses(sign, dt)
    system = rc.CouplingSystem(g, omega=rng.uniform(100, 1000, size=n))
    chk = rc.verify_schedule(sched, system)
    assert chk.passed and chk.max_deviation < 1e-10


def test_broken_schedule_fails_loudly():
    rng = np.random.default_rng(24)
    n = 5
    g = rand_couplings(n, rng)
    sign = rc.plan_recouple(n, 1, 3)
    sched = rc.emit_pulses(sign, rc.recouple_duration(g[0, 2], sign.m))
    for b in sched.boundaries:
        if b:
            b.pop()
            break
    chk = rc.verify_schedule(sched, rc.CouplingSystem(g))
    assert not chk.passed
    assert chk.max_deviation > 0.1


def test_parallel_disjoint_pairs():
    n = 6
    g = np.zeros((n, n))
    gval = 40.0
    for i, j in [(1, 2), (3, 4)]:
        g[i - 1, j - 1] = g[j - 1, i - 1] = gval
    g[0, 4] = g[4, 0] = 17.0
    g[1, 5] = g[5, 1] = 23.0
    sign = rc.plan_recouple_parallel(n, [(1, 2), (3, 4)])
    dt = rc.recouple_duration(gval, sign.m)
    chk = rc.verify_schedule(rc.emit_pulses(sign, dt), rc.CouplingSystem(g))
    assert chk.passed and chk.max_deviation < 1e-10


def test_nearest_neighbor_chain():
    rng = np.random.default_rng(25)
    n, k = 8, 2
    g = np.zeros((n, n))
    for i in range(n - 1):
        g[i, i + 1] = g[i + 1, i] = rng.uniform(10, 60)
    sign = rc.plan_chain_decouple(n, k)
    assert sign.entries.shape == (n, 2)
    chk = rc.verify_schedule(rc.emit_pulses(sign, 2e-3),
                             rc.CouplingSystem(g))
    assert chk.passed and chk.max_deviation < 1e-10


def _dense_deviation(schedule, system, pairs=()):
    """Reference: the dense product the toggling-frame check replaced.
    Every interval evolution and pulse is multiplied into a 2^n x 2^n
    unitary and compared with exp(-i pi/4 sum_pairs Z_i Z_j), up to the
    trace overlap's global phase, in the operator norm."""
    n = schedule.n
    fields = np.zeros(n) if system.omega is None else 0.5 * system.omega
    interval = np.exp(-1j * ising_diagonal(fields, system.g) * schedule.dt)
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
    phase = np.zeros((n, n))
    for i, j in pairs:
        phase[i - 1, j - 1] = math.pi / 4.0
    target = np.diag(np.exp(-1j * ising_diagonal(np.zeros(n), phase)))
    overlap = np.trace(target.conj().T @ u)
    if abs(overlap) > 1e-12:
        u = u * (abs(overlap) / overlap)
    return float(np.linalg.norm(u - target, 2))


def _mutated(schedule, kind):
    """A copy with one pulse dropped, an extra pulse pair (one spin toggled
    at two neighbouring boundaries, flipping its frame for one interval)
    or a 1% longer interval."""
    bounds = [list(b) for b in schedule.boundaries]
    dt = schedule.dt
    if kind == "drop":
        next(b for b in bounds if b).pop()
    elif kind == "pair":
        b = schedule.intervals // 2
        for k in (b, b + 1):
            bounds[k] = sorted(set(bounds[k]) ^ {1})
    elif kind == "dt":
        dt *= 1.01
    return rc.PulseSchedule(schedule.n, schedule.intervals, dt, bounds,
                            schedule.target)


def _schedule_cases():
    """(schedule, system, recoupled pairs) for n = 2..8, with and without
    offsets: decoupling, zeeman-free, one-pair recoupling and a k = 2
    chain plan on all-to-all couplings (which leaves errors), each also
    mutated."""
    rng = np.random.default_rng(26)
    for n in range(2, 9):
        g = rand_couplings(n, rng)
        for omega in (None, rng.uniform(100, 1000, size=n)):
            system = rc.CouplingSystem(g, omega)
            i, j = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
            sign = rc.plan_recouple(n, i, j)
            plans = [(rc.plan_decouple(n), 2.3e-3, ()),
                     (rc.plan_decouple(n, remove_zeeman=True), 2.3e-3, ()),
                     (sign, rc.recouple_duration(g[i - 1, j - 1], sign.m), ((i, j),)),
                     (rc.plan_chain_decouple(n, 2), 2.3e-3, ())]
            for plan, dt, pairs in plans:
                sched = rc.emit_pulses(plan, dt)
                for kind in ("none", "drop", "pair", "dt"):
                    yield _mutated(sched, kind), system, pairs


def test_toggling_frame_matches_dense_reference():
    checks = []
    for sched, system, pairs in _schedule_cases():
        chk = rc.verify_schedule(sched, system)
        assert chk.exact
        assert abs(chk.max_deviation - _dense_deviation(sched, system, pairs)) <= 1e-12
        checks.append(chk)
    # the cases hold both verdicts, and odd pulse counts
    assert {c.passed for c in checks} == {True, False}
    assert any(c.odd_spins for c in checks)


def test_bound_past_the_exact_support_dominates_the_exact_value(monkeypatch):
    exact = [rc.verify_schedule(s, sy) for s, sy, _ in _schedule_cases()]
    monkeypatch.setattr(rc, "MAX_EXACT_SUPPORT", 0)
    bounds = [rc.verify_schedule(s, sy) for s, sy, _ in _schedule_cases()]
    assert sum(not b.exact for b in bounds) > len(bounds) // 2
    for chk, bound in zip(exact, bounds):
        # only an empty support stays exact, and it deviates by nothing
        assert bound.max_deviation >= chk.max_deviation
        assert not bound.exact or bound.max_deviation == chk.max_deviation == 0.0


def test_error_coefficients_and_odd_spins_are_reported():
    sched = rc.emit_pulses(rc.plan_recouple(4, 1, 2), 1e-3)
    bounds = [sorted(set(b) ^ {3}) if k == 0 else b
              for k, b in enumerate(sched.boundaries)]
    sched = rc.PulseSchedule(4, sched.intervals, 1e-3, bounds, sched.target)
    system = rc.CouplingSystem(np.ones((4, 4)) - np.eye(4), omega=[2.0, 0, 0, 0])
    chk = rc.verify_schedule(sched, system)
    assert chk.odd_spins == (3,) and chk.exact and not chk.passed
    assert chk.max_deviation >= math.sqrt(2)
    # spin 1's row sums to zero; the (1, 2) pair turns 4 dt against pi/4
    assert chk.field_errors.tolist() == [0.0] * 4
    assert chk.pair_errors[0, 1] == pytest.approx(4e-3 - math.pi / 4, abs=1e-15)
    assert np.array_equal(chk.pair_errors, np.triu(chk.pair_errors, 1))


@pytest.mark.parametrize("n", [64, 256])
def test_full_size_plans_verify_exactly(n):
    rng = np.random.default_rng(n)
    g = rand_couplings(n, rng)
    g[n - 2, n - 1] = g[n - 1, n - 2] = 32.0   # a power of two keeps dt*g*m exact
    system = rc.CouplingSystem(g, omega=rng.uniform(100, 1000, size=n))
    sign = rc.plan_recouple(n, n - 1, n)
    for sched in (rc.emit_pulses(rc.plan_decouple(n), 2.3e-3),
                  rc.emit_pulses(rc.plan_decouple(n, remove_zeeman=True), 2.3e-3),
                  rc.emit_pulses(sign, rc.recouple_duration(32.0, sign.m))):
        # decoupling with offsets leaves the all-plus row's field, which
        # plan_decouple does not refocus; drop the offsets there
        sy = system if sched.target != "decouple" else rc.CouplingSystem(g)
        chk = rc.verify_schedule(sched, sy)
        assert chk.passed and chk.exact and chk.max_deviation == 0.0


def test_twenty_pairs_at_forty_spins_pass_through_the_bound():
    n = 40
    pairs = [(k, k + 1) for k in range(1, n, 2)]
    sign = rc.plan_recouple_parallel(n, pairs)
    # a 2^-40 timing error on every pair puts all 40 spins in the support
    dt = rc.recouple_duration(1.0, sign.m) * (1 + 2.0 ** -40)
    chk = rc.verify_schedule(rc.emit_pulses(sign, dt),
                             rc.CouplingSystem(np.ones((n, n)) - np.eye(n)))
    assert not chk.exact and chk.passed
    assert 0 < chk.max_deviation < 1e-10
    assert chk.max_deviation == pytest.approx(2 * 20 * math.pi / 4 * 2.0 ** -40)


@pytest.mark.parametrize("kind", ["drop", "pair"])
def test_broken_schedule_at_64_spins_fails(kind):
    rng = np.random.default_rng(64)
    system = rc.CouplingSystem(rand_couplings(64, rng))
    sched = _mutated(rc.emit_pulses(rc.plan_decouple(64), 1e-3), kind)
    chk = rc.verify_schedule(sched, system)
    assert not chk.passed and not chk.exact
    assert chk.max_deviation == 2.0


@pytest.mark.parametrize("g, omega, name", [
    (math.nan, None, "g"), (math.inf, None, "g"), (1.0, [0.0, math.nan, 1.0], "omega"),
], ids=["nan-g", "inf-g", "nan-omega"])
def test_coupling_system_must_be_finite(g, omega, name):
    # NaN couplings made verify_schedule raise LinAlgError
    couplings = np.full((3, 3), g)
    np.fill_diagonal(couplings, 0.0)
    with pytest.raises(ValueError, match=rf"{name} must (be|hold one) finite"):
        rc.CouplingSystem(couplings, omega)


@pytest.mark.parametrize("target", ["recouple(0,2)", "recouple(2,9)", "recouple(2,2)"])
def test_verification_rejects_a_target_pair_outside_the_spins(target):
    # a schedule file carries its target as text; a pair it cannot name
    # would otherwise wrap to another spin or index past the register
    sched = rc.emit_pulses(rc.plan_recouple(4, 1, 2), 1e-3)
    data = dict(json.loads(sched.to_json()), target=target)
    with pytest.raises(ValueError, match="outside spins"):
        rc.verify_schedule(rc.PulseSchedule.from_json(json.dumps(data)),
                           rc.CouplingSystem(np.ones((4, 4)) - np.eye(4)))


# ---------------------------------------------------------- time and overhead

def test_recouple_duration_formate():
    g = math.pi * 195.0 / 2
    t = rc.recouple_duration(g, 12)
    assert t == pytest.approx(1.0 / (12 * 2 * 195.0), abs=1e-18)
    assert 12 * t == pytest.approx(1.0 / (2 * 195.0), abs=1e-18)


def test_recouple_duration_rejects_bad_coupling():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rc.recouple_duration(bad, 12)


def test_recouple_duration_rejects_bad_interval_count():
    # an infinite count returned a zero interval
    for bad in (0, -4, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_bar"):
            rc.recouple_duration(77.0, bad)


def test_pulse_schedule_validates_boundaries():
    for boundaries, match in (([[0], [], [3]], "spin 0"),
                              ([[1], [], [4]], "spin 4"),
                              ([[1], [2]], "3 boundaries")):
        with pytest.raises(ValueError, match=match):
            rc.PulseSchedule(3, 2, 1e-3, boundaries, "decouple")
        with pytest.raises(ValueError, match=match):
            rc.PulseSchedule.from_json(json.dumps(
                {"n": 3, "intervals": 2, "dt": 1e-3,
                 "boundaries": boundaries, "target": "decouple"}))


def test_pulse_schedule_rejects_a_spin_pulsed_twice_at_one_boundary():
    # X X at one boundary is no flip; the dense check ORed the pair into
    # one X, so this schedule verified as PASS with spin 2 never flipped
    # at boundary 1
    bounds = [[], [2, 2], [2, 3], [2], [2, 3]]
    for make in (lambda: rc.PulseSchedule(3, 4, 1e-3, bounds, "decouple"),
                 lambda: rc.PulseSchedule.from_json(json.dumps(
                     {"n": 3, "intervals": 4, "dt": 1e-3, "boundaries": bounds,
                      "target": "decouple"}))):
        with pytest.raises(ValueError, match="boundary 1 pulses spin 2 twice"):
            make()


@pytest.mark.parametrize("spin", [2.5, 2.0, "2"])
def test_pulse_schedule_rejects_a_spin_that_is_not_an_integer(spin):
    # the frame signs index spins as integers; 2.5 would be read as spin 2
    with pytest.raises(ValueError, match=rf"boundary 1 pulses spin {spin!r}, not one of 1..3"):
        rc.PulseSchedule(3, 2, 1e-3, [[1], [spin], [1, 2]], "decouple")


@pytest.mark.parametrize("field,value", [
    ("n", 3.0), ("n", 0), ("n", True), ("intervals", 2.0), ("intervals", 0),
])
def test_pulse_schedule_counts_must_be_positive_integers(field, value):
    # "n": 3.0 or "intervals": 2.0 loaded, and verify_schedule then raised
    # TypeError; n = 0 was refused only through its boundaries
    data = dict({"n": 3, "intervals": 2, "dt": 1e-3,
                 "boundaries": [[1], [], [1]], "target": "decouple"},
                **{field: value})
    match = rf"need {field} >= 1 as an integer, got {field}={value!r}"
    with pytest.raises(ValueError, match=match):
        rc.verify_schedule(rc.PulseSchedule.from_json(json.dumps(data)),
                           rc.CouplingSystem(np.ones((3, 3)) - np.eye(3)))
    with pytest.raises(ValueError, match=match):
        rc.PulseSchedule(**data)


def test_pulse_schedule_rejects_bad_dt():
    for dt in (math.nan, math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            rc.PulseSchedule(3, 2, dt, [[1], [], [1]], "decouple")


def test_doubling_order_halves_interval():
    g = 77.0
    assert rc.recouple_duration(g, 24) == pytest.approx(
        rc.recouple_duration(g, 12) / 2)


def test_efficiency_values():
    assert rc.efficiency_c(9) == Fraction(4, 3)
    for k in range(0, 11):
        assert rc.efficiency_c(2 ** k) == 1
    worst = max(rc.efficiency_c(n) for n in range(1, 1001))
    assert worst == Fraction(8, 5)
    assert worst < 2


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        rc.SignMatrix(np.ones((2, 3), dtype=int), "decouple")  # not orthogonal
    with pytest.raises(ValueError):
        rc.SignMatrix(np.array([[1, 1], [1, -1]]), "recouple", ((1, 2),))


@settings(deadline=None, max_examples=120)
@given(pm_matrices(6, 8, min_rows=2), st.data())
def test_validate_names_first_bad_pair(e, data):
    n = e.shape[0]
    pairs = ()
    if data.draw(st.booleans()):
        i, j = sorted(data.draw(st.lists(st.integers(1, n), min_size=2,
                                         max_size=2, unique=True)))
        e[j - 1] = e[i - 1]
        pairs = ((i, j),)
    bad = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
           if (a, b) not in pairs and e[a - 1] @ e[b - 1] != 0]
    target = "recouple" if pairs else "decouple"
    if bad:
        with pytest.raises(ValueError,
                           match=f"rows {bad[0][0]},{bad[0][1]} not orthogonal"):
            rc.SignMatrix(e, target, pairs)
    elif pairs and np.any(e.sum(axis=1) != 0):
        with pytest.raises(ValueError, match="row sums"):
            rc.SignMatrix(e, target, pairs)
    else:
        rc.SignMatrix(e, target, pairs)


@pytest.mark.parametrize("target, pairs", [
    (3, ()), ("bogus", ()), ("recouple", ()), ("decouple", ((1, 2),)),
    ("recouple(1,2)", ((1, 2),)), (None, ()), (np.array(["decouple"]), ()),
])
def test_sign_matrix_refuses_an_unknown_target(target, pairs):
    # each was accepted; a non-text target failed later, in verify_schedule
    e = rc.plan_recouple(4, 1, 2).entries
    with pytest.raises(ValueError, match=re.escape(f"target={target!r}")):
        rc.SignMatrix(e, target, pairs)
    with pytest.raises(ValueError, match="target="):
        rc._planned(4, np.array([1, 1, 2, 3]), target, pairs)


@pytest.mark.parametrize("target", [
    3, None, ["decouple"], np.array(["decouple"]), "bogus", "recouple", "recouple()", "recouple(1)", "recouple(1,2,3)",
    "recouple(a,b)", "recouple(1,2)&", "recouple(1,2)&decouple", "recouple(1.5,2)",
])
def test_pulse_schedule_refuses_an_unknown_target(target):
    with pytest.raises(ValueError, match=r"target"):
        rc.PulseSchedule(4, 1, 1e-3, [[], []], target)


def test_a_schedule_is_checked_against_its_target_as_it_is_then():
    sched = rc.PulseSchedule(4, 1, 1e-3, [[], []], "recouple(4,3)&recouple(1, 2)")
    phase = rc._target_phases(sched)
    assert phase[2, 3] == phase[0, 1] == math.pi / 4 and np.count_nonzero(phase) == 2
    sign = rc.plan_recouple(4, 1, 2)
    sched = rc.emit_pulses(sign, rc.recouple_duration(1.0, sign.m))
    system = rc.CouplingSystem(np.ones((4, 4)) - np.eye(4))
    assert rc.verify_schedule(sched, system).passed
    # the dataclass is mutable: a target set later is read when verified
    sched.target = "decouple"
    assert not rc.verify_schedule(sched, system).passed


def test_sign_matrix_rejects_pairs_outside_rows():
    e = rc.plan_recouple(4, 1, 2).entries
    for pair in ((0, 1), (1, 5), (2, 1)):
        with pytest.raises(ValueError, match=rf"\({pair[0]},{pair[1]}\)"):
            rc.SignMatrix(e, "recouple", (pair,))
    with pytest.raises(ValueError, match=r"disjoint, got pair \(2,3\)"):
        rc.SignMatrix(e, "recouple", ((1, 2), (2, 3)))


# ------------------------------------------------------ one table per order

def _counted(monkeypatch, owner, name):
    """Wrap owner.name so each call records its first argument (the
    instance, for a method) in the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_each_order_is_built_and_checked_once(monkeypatch):
    rc._normalized_rows.cache_clear()
    built = _counted(monkeypatch, rc.HadamardMatrix, "__post_init__")
    certified = _counted(monkeypatch, rc.SignMatrix, "_certified")
    validated = _counted(monkeypatch, rc.SignMatrix, "validate")
    gram = _counted(monkeypatch, rc, "_first_unorthogonal")
    tables = _counted(monkeypatch, rc, "_normalized_rows")
    orders = sorted({rc.achievable_order(n) for n in range(2, 257)})
    each = [rc.achievable_order(n) for n in range(2, 257)]
    first = [rc.plan_decouple(n) for n in range(2, 257)]
    assert sorted(h.order for h in built
                  if h.provenance.startswith("normalized(")) == orders
    assert {h.order for h in built} == set(orders)
    assert len(certified) == 255   # each plan's certificate, on its indices
    assert validated == []
    assert len(gram) == len(built)   # the tables' own checks, no plan's
    assert tables == each   # one read per plan, its gather: no compare

    built.clear()
    certified.clear()
    gram.clear()
    tables.clear()
    second = [rc.plan_decouple(n) for n in range(2, 257)]
    assert built == []
    assert len(certified) == 255
    assert validated == []
    assert len(gram) == 0   # each plan's certificate, not a Gram product
    assert tables == each
    assert all(np.array_equal(a.entries, b.entries) for a, b in zip(first, second))

    # a later validate reads the table once, to compare the entries
    tables.clear()
    assert second[-1].validate() is second[-1]
    assert tables == [each[-1]] and len(validated) == 1 and len(gram) == 0


def test_planned_rows_skip_the_sign_scan(monkeypatch):
    # a plan's rows come from the checked int8 table, so only entries given
    # directly are scanned for +/-1; both are kept as int64
    plans = [rc.plan_decouple(n) for n in (5, 12, 40)]
    scanned = _counted(monkeypatch, rc, "_as_signs")
    again = [rc.plan_decouple(n) for n in (5, 12, 40)]
    assert scanned == []
    assert all(p.entries.dtype == np.int64 and np.array_equal(p.entries, q.entries)
               for p, q in zip(plans, again))
    direct = rc.SignMatrix(plans[1].entries.astype(float), "decouple")
    assert len(scanned) == 1 and direct.entries.dtype == np.int64
    with pytest.raises(ValueError, match=r"\+/-1 matrix"):
        rc.SignMatrix(np.where(plans[1].entries > 0, 1.0, -1.5), "decouple")


def test_rows_table_is_read_only_int8():
    rows = rc._normalized_rows(12)
    assert rows.dtype == np.int8
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = -1
    assert np.array_equal(rows, rc.normalize(rc.hadamard(12)).entries)


@pytest.mark.parametrize("plan", [
    lambda: rc.plan_decouple(12),
    lambda: rc.plan_decouple(12, remove_zeeman=True),
    lambda: rc.plan_recouple(12, 1, 2),
    lambda: rc.plan_chain_decouple(12, 5),
], ids=["decouple", "zeeman", "recouple", "chain"])
def test_plan_entries_are_writable_copies(plan):
    sign = plan()
    assert sign.entries.dtype == np.int64
    assert sign.entries.flags.writeable
    expected = sign.entries.copy()
    sign.entries[:] *= -1
    assert np.array_equal(plan().entries, expected)


# ------------------------------------------------ certified plans

def _pair_sets(n):
    """Disjoint 1-based pair sets to recouple on n spins."""
    sets = [[(1, 2)], [(1, n)], [(i, i + 1) for i in range(1, n, 2)]]
    if n >= 4:
        sets.append([(2, n), (1, 3)])
    return sets


def _every_plan(n):
    """(label, plan, chain period or None) from every planner at n spins."""
    yield "decouple", rc.plan_decouple(n), None
    yield "zeeman", rc.plan_decouple(n, remove_zeeman=True), None
    yield "recouple", rc.plan_recouple(n, 1, 2), None
    for pairs in _pair_sets(n):
        for zeeman in (False, True):
            yield f"parallel{pairs}{zeeman}", rc.plan_recouple_parallel(n, pairs, zeeman), None
    for k in (2, 3, 5):
        yield f"chain{k}", rc.plan_chain_decouple(n, k), k


def _full_gram_check(sign, period=None):
    """The plan's whole Gram product: m where two spins must share a row
    (the same spin, a recoupled pair, or for a chain spins equal mod
    period), 0 everywhere else.  Sums of at most 2**24 signs are exact
    integers in float32."""
    e = sign.entries.astype(np.float32)
    row = np.arange(sign.n) % (period or sign.n)
    same = row[:, None] == row[None, :]
    for i, j in sign.pairs:
        same[i - 1, j - 1] = same[j - 1, i - 1] = True
    return np.array_equal(e @ e.T, sign.m * same)


def test_every_planner_passes_the_full_gram_check():
    labelled = []
    for n in range(2, 258):
        for label, sign, period in _every_plan(n):
            assert _full_gram_check(sign, period), (n, label)
            labelled.append((f"{n}:{label}:{sign.entries.shape}", sign.entries))
    assert _digest(labelled) == PINNED["every planner"]


@pytest.mark.parametrize("plan", [
    lambda: rc.plan_decouple(12),
    lambda: rc.plan_decouple(12, remove_zeeman=True),
    lambda: rc.plan_recouple(12, 1, 2),
], ids=["decouple", "zeeman", "recouple"])
def test_a_plan_changed_after_planning_gets_the_full_check(monkeypatch, plan):
    gram = _counted(monkeypatch, rc, "_first_unorthogonal")
    sign = plan()
    assert len(gram) == 0
    # a negated row is no longer the certified one, but is still orthogonal
    # and still sums to zero: accepted, as before certificates
    sign.entries[-1] *= -1
    sign.validate()
    assert len(gram) == 1
    sign.entries[-1, 0] *= -1
    with pytest.raises(ValueError, match=r"rows 1,12 not orthogonal"):
        sign.validate()


def test_a_certificate_holds_only_for_distinct_rows(monkeypatch):
    gram = _counted(monkeypatch, rc, "_first_unorthogonal")
    sign = rc._planned(8, np.arange(1, 4), "decouple")
    shared = rc._planned(8, np.array([1, 1, 2]), "recouple", ((1, 2),))
    assert len(gram) == 0
    assert np.array_equal(shared.entries, rc._normalized_rows(8)[[1, 1, 2]])
    assert sign.entries.dtype == np.int64 and sign.entries.flags.writeable
    # a repeated row outside the pairs is not orthogonal to itself: the
    # certificate fails and the Gram product names the rows
    with pytest.raises(ValueError, match="rows 1,2 not orthogonal"):
        rc._planned(8, np.array([1, 1, 2]), "decouple")
    with pytest.raises(ValueError, match="rows 1,3 not orthogonal"):
        rc._planned(8, np.array([1, 1, 1]), "recouple", ((1, 2),))
    assert len(gram) == 2


def test_raw_entries_keep_the_gram_product(monkeypatch):
    gram = _counted(monkeypatch, rc, "_first_unorthogonal")
    e = rc.plan_recouple(12, 1, 2).entries
    rc.SignMatrix(e, "recouple", ((1, 2),))
    rc.SignMatrix(e[2:], "decouple")
    assert len(gram) == 2
    e[5, 3] *= -1
    with pytest.raises(ValueError, match="rows 1,6 not orthogonal"):
        rc.SignMatrix(e, "recouple", ((1, 2),))


# ------------------------------------------------------ count arguments

@pytest.mark.parametrize("call, name", [
    (lambda: rc.achievable_order(math.nan), "n"),
    (lambda: rc.hadamard(math.inf), "n"),
    (lambda: rc.plan_decouple(2.5), "n"),
    (lambda: rc.plan_decouple(3.0), "n"),
    (lambda: rc.plan_decouple(math.nan, remove_zeeman=True), "n"),
    (lambda: rc.plan_chain_decouple(4, 2.5), "k"),
    (lambda: rc.plan_chain_decouple(2.5, 2), "n"),
    (lambda: rc.plan_recouple(4.0, 1, 2), "n"),
    (lambda: rc.efficiency_c(2.5), "n"),
], ids=["order-nan", "hadamard-inf", "decouple-2.5", "decouple-3.0", "zeeman-nan",
        "chain-k-2.5", "chain-n-2.5", "recouple-4.0", "efficiency-2.5"])
def test_counts_must_be_integers(call, name):
    with pytest.raises(ValueError, match=rf"need {name} >= \d as an integer"):
        call()


def test_zeeman_free_plan_at_the_order_cap_is_rejected():
    with pytest.raises(ValueError, match="capped"):
        rc.plan_decouple(rc.MAX_ORDER, remove_zeeman=True)


def test_chain_plan_length_is_capped():
    with pytest.raises(ValueError, match=r"n=1000000000000 exceeds MAX_ORDER"):
        rc.plan_chain_decouple(10 ** 12, 2)
    assert rc.plan_chain_decouple(rc.MAX_ORDER, 2).entries.shape == (rc.MAX_ORDER, 2)


def test_non_integer_pair_is_rejected():
    with pytest.raises(ValueError, match=r"got pair \(1.5,2\)"):
        rc.plan_recouple(4, 1.5, 2)


def test_numpy_integer_counts_pass():
    assert rc.achievable_order(np.int64(9)) == 12
    assert rc.efficiency_c(np.int32(9)) == Fraction(4, 3)
    assert np.array_equal(rc.plan_chain_decouple(np.int64(6), np.int16(3)).entries,
                          rc.plan_chain_decouple(6, 3).entries)


# finite, non-finite, non-integer and out-of-range counts; valid ones stay
# small
COUNTS = st.one_of(
    st.integers(-3, 40),
    st.integers(2, 40).map(np.int64),
    st.integers(2, 40).map(float),
    st.integers(rc.MAX_ORDER + 1, 4 * rc.MAX_ORDER),
    st.floats(allow_nan=True, allow_infinity=True),
)

ENTRY_POINTS = {
    "achievable_order": lambda n, k: rc.achievable_order(n),
    "hadamard": lambda n, k: rc.hadamard(n),
    "plan_decouple": lambda n, k: rc.plan_decouple(n),
    "plan_decouple_zeeman": lambda n, k: rc.plan_decouple(n, remove_zeeman=True),
    "plan_recouple": lambda n, k: rc.plan_recouple(n, 1, k),
    "plan_chain_decouple": lambda n, k: rc.plan_chain_decouple(n, k),
    "efficiency_c": lambda n, k: rc.efficiency_c(n),
    "recouple_duration": lambda n, k: rc.recouple_duration(1.0, n),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(deadline=None, max_examples=60)
@given(n=COUNTS, k=COUNTS)
def test_entry_points_return_or_raise_value_error(name, n, k):
    try:
        ENTRY_POINTS[name](n, k)
    except ValueError:
        pass


# the couplings, offsets and interval a schedule check turns through; a
# huge finite one overflowed inside the dense product
_DECOUPLE3 = rc.plan_decouple(3)


def _couplings(v):
    g = np.full((3, 3), v)
    np.fill_diagonal(g, 0)
    return g


def _with_target(target):
    data = dict(json.loads(rc.emit_pulses(_DECOUPLE3, 1e-3).to_json()), target=target)
    return rc.PulseSchedule.from_json(json.dumps(data))


VERIFY_INPUTS = {
    "g": lambda v: rc.verify_schedule(rc.emit_pulses(_DECOUPLE3, 1e-3),
                                      rc.CouplingSystem(_couplings(v))),
    "omega": lambda v: rc.verify_schedule(
        rc.emit_pulses(_DECOUPLE3, 1e-3),
        rc.CouplingSystem(_couplings(1.0), omega=[v, 1.0, 2.0])),
    "dt": lambda v: rc.verify_schedule(rc.emit_pulses(_DECOUPLE3, v),
                                       rc.CouplingSystem(_couplings(30.0),
                                                         omega=[5.0, 1.0, 2.0])),
    # a target that is not text failed in verify_schedule with AttributeError
    "sign_target": lambda v: rc.verify_schedule(
        rc.emit_pulses(rc.SignMatrix(_DECOUPLE3.entries, v), 1e-3),
        rc.CouplingSystem(_couplings(1.0))),
    "schedule_target": lambda v: rc.verify_schedule(_with_target(v),
                                                    rc.CouplingSystem(_couplings(1.0))),
    "schedule_target_pair": lambda v: rc.verify_schedule(_with_target(f"recouple(1,{v})"),
                                                         rc.CouplingSystem(_couplings(1.0))),
}


@pytest.mark.parametrize("name", sorted(VERIFY_INPUTS))
@settings(deadline=None, max_examples=60)
@given(v=st.one_of(st.integers(-3, 9), st.floats(allow_nan=True, allow_infinity=True)))
@example(v=math.nan)
@example(v=math.inf)
@example(v=1e308)
def test_verify_schedule_returns_a_finite_deviation_or_raises_value_error(name, v):
    try:
        chk = VERIFY_INPUTS[name](v)
    except ValueError:
        return
    assert math.isfinite(chk.max_deviation)
