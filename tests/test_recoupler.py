import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qwork import recoupler as rc


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


def test_invalid_matrix_rejected():
    bad = np.ones((4, 4), dtype=int)
    with pytest.raises(ValueError):
        rc.HadamardMatrix(4, bad, "nope")


def test_paley_requires_3_mod_4_prime():
    with pytest.raises(ValueError):
        rc._paley(5)
    with pytest.raises(ValueError):
        rc._paley(9)


def test_stored_twelve_normalizes_by_seventh_row_and_column():
    s = rc.stored_h12()
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
    norm = rc.normalize(rc.stored_h12()).entries
    rows = rc._assign_pairs(norm, 9, [(3, 4)])
    got = ["".join("+" if x == 1 else "-" for x in r) for r in rows]
    assert got == EQ_718


def test_plan_recouple_rejects_bad_pairs():
    with pytest.raises(ValueError):
        rc.plan_recouple(5, 3, 3)
    with pytest.raises(ValueError):
        rc.plan_recouple(5, 0, 2)
    with pytest.raises(ValueError):
        rc.plan_recouple_parallel(6, [(1, 2), (2, 3)])


# -------------------------------------------------------------------- pulses

def test_two_spin_pulse_pattern():
    sched = rc.emit_pulses(rc.plan_decouple(2), 1e-3)
    assert sched.boundaries == [[], [2], [2]]
    assert sched.pulse_count == 2


def test_four_spin_simplified_pulses():
    sched = rc.emit_pulses(rc.plan_decouple(4), 1e-3)
    assert sched.boundaries == [[], [2, 4], [2, 3], [2, 4], [2, 3]]
    assert sched.pulse_count == 8


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


def test_verification_size_cap():
    sched = rc.emit_pulses(rc.plan_decouple(9), 1e-3)
    with pytest.raises(ValueError):
        rc.verify_schedule(sched, rc.CouplingSystem(np.zeros((9, 9))))


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
    for bad in (0, -4, 0.5, math.nan):
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
