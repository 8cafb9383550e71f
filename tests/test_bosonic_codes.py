import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwork import bosonic_codes as bc
from qwork import qec_engine as qe
from qwork import qop_core as qc

rng = np.random.default_rng(11)

CODES = bc.example_codes()


def logical_key(code):
    return sorted(tuple(sorted(q.occupations for q, _ in states))
                  for states in code.logicals)


# ---------------------------------------------------------------------------
# combinatorics


def test_partitions_values():
    assert bc.partitions(6, 3) == 28
    assert bc.partitions(0, 5) == 1
    assert bc.partitions(9, 1) == 1
    with pytest.raises(ValueError):
        bc.partitions(-1, 2)


def test_occupation_vectors_complete():
    vecs = bc.occupation_vectors(4, 3)
    assert len(vecs) == bc.partitions(4, 3)
    assert len(set(vecs)) == len(vecs)
    assert all(sum(v) == 4 for v in vecs)
    assert vecs == sorted(vecs)


def test_distance_values():
    assert bc.qcs_distance((4, 0), (0, 4)) == 4
    assert bc.qcs_distance((1, 2, 3), (1, 2, 3)) == 0
    assert CODES["ex1"].distance() == 2
    with pytest.raises(ValueError):
        bc.qcs_distance((1, 2), (1, 2, 3))


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                          st.integers(0, 30)), min_size=3, max_size=3))
def test_distance_metric_axioms(pts):
    u, v, w = pts
    assert bc.qcs_distance(u, v) == bc.qcs_distance(v, u)
    assert (bc.qcs_distance(u, v) == 0) == (u == v)
    assert bc.qcs_distance(u, w) <= bc.qcs_distance(u, v) + bc.qcs_distance(v, w)


# ---------------------------------------------------------------------------
# criteria on the worked examples


@pytest.mark.parametrize("name", sorted(CODES))
def test_examples_pass_both_criteria(name):
    code = CODES[name]
    report = bc.check_nondeformation(code)
    assert report.passed
    assert report.max_discrepancy == 0.0  # exact rational weights
    assert bc.check_orthogonality(code)


def test_example_column_means():
    report = bc.check_nondeformation(CODES["ex1"], t=1)
    assert report.moments[(0,)] == [2.0, 2.0]
    assert report.moments[(1,)] == [2.0, 2.0]


def test_unequal_totals_fail():
    code = bc.BosonicCode(2, 0, [[((1, 1), 1)], [((2, 2), 1)]]).validate()
    report = bc.check_nondeformation(code, t=0)
    assert not report.uniform_total
    assert not report.passed


def test_orthogonality_depends_on_t():
    assert bc.check_orthogonality(CODES["ex4"], t=2)
    assert not bc.check_orthogonality(CODES["ex1"], t=2)
    single = bc.BosonicCode(2, 1, [[((2, 2), 1)]]).validate()
    assert bc.check_orthogonality(single, t=5)  # nothing to collide with


def test_validation_rejects_bad_codes():
    with pytest.raises(ValueError):
        bc.Qcs((1, -2))
    with pytest.raises(ValueError):
        bc.BosonicCode(2, 1, [[((1, 1), 0.5), ((1, 1), 0.5)]]).validate()
    with pytest.raises(ValueError):
        bc.BosonicCode(2, 1, [[((1, 1), 0.7)]]).validate()


@pytest.mark.parametrize("build,match", [
    (lambda: bc.BosonicCode(2, 1, [[((2, 2), math.nan)]]).validate(), "weights"),
    (lambda: bc.BosonicCode(2, math.nan, [[((2, 2), 1.0)]]).validate(), r"\bt="),
    (lambda: bc.BosonicCode(2, 1.5, [[((2, 2), 1.0)]]).validate(), r"\bt="),
    (lambda: bc.Qcs((1.5, 2)), "occupations"),
    (lambda: bc.Qcs((math.nan, 2)), "occupations"),
    (lambda: bc.occupation_vectors(2, 0), "m >= 1"),
    (lambda: bc.occupation_vectors(-1, 2), "n >= 0"),
    (lambda: bc.rate(bc.BosonicCode(2, 0, [[((0, 0), 1.0)]]).validate()),
     "max_occupation"),
], ids=["nan-weight", "nan-t", "fractional-t", "fractional-qcs",
        "nan-qcs", "no-registers", "negative-quanta", "rate-no-quanta"])
def test_input_checks_name_the_parameter(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build,match", [
    (lambda: bc.existence_min_NT(1, 2, math.nan), "l_o"),
    (lambda: bc.existence_min_NT(1, 2, math.inf), "l_o"),
    (lambda: bc.existence_min_NT(1.5, 2, 1), "t >= 0"),
    (lambda: bc.partitions(2.5, 2), "n >= 0"),
    (lambda: bc.construct_t1(2.5, 2), "n >= 1"),
    (lambda: bc.construct_t2((2.5, 1, 0)), r"\bx="),
], ids=["nan-logicals", "inf-logicals", "fractional-order",
        "fractional-quanta", "fractional-construct", "fractional-orbit"])
def test_counts_must_be_integers(build, match):
    # a NaN count returned a plausible bound, an infinite one never
    # returned, and a fractional one raised TypeError from math.comb or,
    # in construct_t2, was truncated
    with pytest.raises(ValueError, match=match):
        build()


# ---------------------------------------------------------------------------
# constructions


def test_construct_t1_matches_worked_codes():
    assert logical_key(bc.construct_t1(2, 2)) == logical_key(CODES["ex1"])
    assert logical_key(bc.construct_t1(3, 3)) == logical_key(CODES["ex3"])
    assert logical_key(bc.construct_t1(6, 3)) == logical_key(CODES["ex2"])
    assert bc.construct_t1(6, 3).n_levels == 10


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (5, 4), (6, 3)])
def test_construct_t1_properties(n, m):
    code = bc.construct_t1(n, m)
    assert bc.check_nondeformation(code, t=1).passed
    assert bc.check_orthogonality(code, t=1)
    # orbits partition the layer
    assert sum(len(states) for states in code.logicals) == bc.partitions(n, m)
    # disjoint supports across logicals
    supports = [frozenset(q.occupations for q, _ in states)
                for states in code.logicals]
    for a, b in zip(supports, supports[1:]):
        assert not (a & b)
    # rotation averaging pins every column mean at 2n/m
    report = bc.check_nondeformation(code, t=1)
    for combo, vals in report.moments.items():
        assert np.allclose(vals, 2 * n / m)


def test_construct_t2_matches_worked_code():
    assert logical_key(bc.construct_t2((1, 0, 2))) == logical_key(CODES["ex4"])


def test_construct_t2_reversal_symmetry():
    code = bc.construct_t2((0, 1, 3, 2))
    rev = [tuple(reversed(q.occupations)) for q, _ in code.logicals[0]]
    sup1 = {q.occupations for q, _ in code.logicals[1]}
    assert set(rev) == sup1


@settings(deadline=None, max_examples=40)
@given(st.integers(3, 5).flatmap(
    lambda m: st.lists(st.integers(0, 4), min_size=m, max_size=m)))
def test_construct_t2_random_orbits(x):
    x = tuple(x)
    rots = {x[r:] + x[:r] for r in range(len(x))}
    assume(len(rots) == len(x))
    assume(x[::-1] not in rots)
    code = bc.construct_t2(x)
    assert bc.check_nondeformation(code, t=2).passed
    assert bc.check_orthogonality(code, t=2)


def test_construct_t2_rejects_degenerate():
    with pytest.raises(ValueError):
        bc.construct_t2((1, 1, 1))
    with pytest.raises(ValueError):
        bc.construct_t2((1, 0, 1))  # reversal equals the vector itself
    with pytest.raises(ValueError):
        bc.construct_t2((1, 2))


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_small_gamma_expansion():
    for g in (0.001, 0.01, 0.05):
        f = bc.code_fidelity(4, 1, g)
        assert abs(f - (1 - 6 * g ** 2 + 8 * g ** 3 - 3 * g ** 4)) < 1e-14


def test_leading_coefficients():
    assert bc.leading_term(4, 1) == 6
    assert bc.leading_term(6, 1) == 15
    assert bc.leading_term(9, 2) == 84
    assert bc.leading_term(16, 3) == 1820
    assert bc.leading_term(20, 3) == 4845
    assert bc.leading_term(50, 4) == 2118760


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.1, 2.0])
def test_fidelity_rejects_gamma_outside_unit_interval(gamma):
    with pytest.raises(ValueError, match="gamma"):
        bc.code_fidelity(4, 1, gamma)


def test_loss_order_must_be_nonnegative():
    with pytest.raises(ValueError, match=r"\bt="):
        bc.leading_term(4, -1)
    with pytest.raises(ValueError, match=r"\bt="):
        bc.code_fidelity(4, -1, 0.1)
    assert bc.code_fidelity(4, 0, 0.0) == 1.0 and bc.code_fidelity(4, 1, 1.0) == 0.0
    # an order past n_total repairs every loss; its terms divided by zero
    assert bc.code_fidelity(2, 5, 1.0) == 1.0


def test_loss_weight_identity():
    for s in (1, 2):
        vals, target = bc.loss_weight_identity(CODES["ex8"], s)
        assert target == math.comb(9, s)
        assert all(v == target for v in vals)
    for s in (1, 2):
        vals, target = bc.loss_weight_identity(CODES["ex11"], s)
        assert target == math.comb(50, s)
        assert all(v == target for v in vals)  # exact Fractions


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4", "ex7", "ex8"])
def test_channel_agreement(name):
    code = CODES[name]
    for g in (0.005, 0.01, 0.02):
        chk = bc.verify_by_channel(code, g)
        assert chk.verdict == "exact"
        assert chk.difference < 1e-12
        assert chk.passed


def test_channel_agreement_large_examples():
    for name in ("ex9", "ex10", "ex11"):
        chk = bc.verify_by_channel(CODES[name], 0.01)
        assert chk.verdict == "exact"
        assert chk.difference < 1e-9


def test_m_independence():
    # same total quanta and loss order, different register counts
    g = 0.013
    vals = [bc.verify_by_channel(CODES[n], g).numeric_fidelity
            for n in ("ex4", "ex7", "ex8")]
    assert np.ptp(vals) < 1e-12
    assert abs(vals[0] - bc.code_fidelity(9, 2, g)) < 1e-12


def test_channel_dimension_cap():
    # the dense check refused this code at 31³ amplitudes; only (30, 0, 0)
    # and (29, 0, 0) are reachable, so the cap now bites at one vector
    big = bc.BosonicCode(3, 1, [[((30, 0, 0), 1)]]).validate()
    assert len(bc.verify_by_channel(big, 0.01).basis) == 2
    with pytest.raises(ValueError):
        bc.verify_by_channel(big, 0.01, max_amplitudes=1)


def test_channel_check_refuses_amplitudes_past_float_range():
    # C(10¹², 30) overflows a float, although the amplitude it enters is below one
    code = bc.BosonicCode(2, 30, [[((10 ** 12, 0), 1)]]).validate()
    with pytest.raises(ValueError, match="binomial"):
        bc.verify_by_channel(code, 0.01)


def _kept_patterns(code, t):
    return [p for s in range(t + 1) for p in bc.loss_patterns(code.m, s)
            if max(p) <= code.max_occupation]


def _dense_channel_reference(code, gamma):
    """The criteria report on dense (N+1)^m registers, each loss pattern
    applied as one tensordot per register."""
    n = code.max_occupation
    shape, dim = (n + 1,) * code.m, (n + 1) ** code.m
    single = qc.standard_channel("bosonic_ad", gamma=gamma, cutoff=n).kraus
    vecs = []
    for states in code.logicals:
        v = np.zeros(shape, dtype=complex)
        for q, mu in states:
            v[q.occupations] = math.sqrt(float(mu))
        vecs.append(v.reshape(dim) / np.linalg.norm(v))

    def apply_pattern(pattern):
        def act(vec):
            tens = np.asarray(vec, dtype=complex).reshape(shape)
            for axis, k in enumerate(pattern):
                tens = np.moveaxis(np.tensordot(single[k], tens, axes=(1, axis)), 0, axis)
            return tens.reshape(dim)
        return act

    errors = [apply_pattern(p) for p in _kept_patterns(code, code.t)]
    return qe.check_approximate(qe.CodeSpace(dim, vecs), errors)


@pytest.mark.parametrize("name", [name for name, code in CODES.items()
                                  if (code.max_occupation + 1) ** code.m <= 20000])
def test_channel_check_matches_the_dense_registers(name):
    code = CODES[name]
    for g in (1e-4, 0.01, 0.2):
        got, ref = bc.verify_by_channel(code, g), _dense_channel_reference(code, g)
        assert got.verdict == ref.verdict
        assert abs(got.numeric_fidelity - ref.crude_bound) <= 1e-15
        rep = got.report
        np.testing.assert_allclose(rep.canonical_p, ref.canonical_p, rtol=0, atol=1e-15)
        np.testing.assert_allclose(rep.lambdas, ref.lambdas, rtol=0, atol=1e-15)


def test_channel_check_reaches_past_the_dense_cap():
    # 11⁵ = 161051 dense amplitudes; the reachable set is a few hundred
    code = bc.construct_t1(5, 5)
    chk = bc.verify_by_channel(code, 0.01)
    assert chk.verdict == "exact"
    assert len(chk.basis) <= 20000 < (code.max_occupation + 1) ** code.m
    assert abs(chk.numeric_fidelity - bc.code_fidelity(code.n_total, 1, 0.01)) <= 1e-12


@pytest.mark.parametrize("name", ["ex1", "ex8", "ex10"])
def test_channel_basis_indexes_the_image_rows(name):
    code = CODES[name]
    chk = bc.verify_by_channel(code, 0.01)
    basis = chk.basis
    assert basis.dtype.kind == "i" and basis.shape == (len(basis), code.m)
    assert [tuple(b) for b in basis] == sorted({tuple(b) for b in basis})
    index = {tuple(b): i for i, b in enumerate(basis)}
    states = [q.occupations for logical in code.logicals for q, _ in logical]
    for p, w, weight in zip(_kept_patterns(code, code.t), chk.report.unitaries,
                            chk.report.canonical_p):
        want = {index[tuple(np.subtract(q, p))] for q in states if min(np.subtract(q, p)) >= 0}
        assert (weight > 0) == bool(want)
        if want:
            assert set(np.flatnonzero(np.abs(w).max(axis=1) > 1e-12)) == want


# ---------------------------------------------------------------------------
# existence bound and rate


def test_existence_values():
    assert bc.existence_min_NT(0, 2, 1) == 2
    assert bc.existence_min_NT(1, 2, 1) == 8
    # two-register closed form
    for t in range(4):
        for lo in range(1, 4):
            need = 1 + lo + lo * (t + 1) * (t + 2) // 2
            assert bc.existence_min_NT(t, 2, lo) == (t + 1) * (need - 1)


def test_existence_monotone():
    grid = [(t, m, lo) for t in range(3) for m in range(2, 5)
            for lo in range(1, 4)]
    for t, m, lo in grid:
        base = bc.existence_min_NT(t, m, lo)
        assert bc.existence_min_NT(t + 1, m, lo) >= base
        assert bc.existence_min_NT(t, m, lo + 1) >= base
        # more registers give more room, never require more quanta
        assert bc.existence_min_NT(t, m + 1, lo) <= base


def test_rate_first_example():
    r = bc.rate(CODES["ex1"])
    assert abs(r - 1 / (2 * math.log2(5))) < 1e-12
    assert round(r, 2) == 0.22


# ---------------------------------------------------------------------------
# weight solving and serialization


def test_balance_weights_recovers_printed():
    w = bc.balance_weights([[(9, 0), (3, 6)], [(0, 9), (6, 3)]], 2)
    assert np.allclose(w[0], [0.25, 0.75], atol=1e-9)
    assert np.allclose(w[1], [0.25, 0.75], atol=1e-9)


def test_balance_weights_rejects():
    with pytest.raises(ValueError):
        bc.balance_weights([[(0, 4), (1, 3)], [(3, 1)]], 1)  # needs w < 0
    with pytest.raises(ValueError):
        bc.balance_weights([[(0, 4), (4, 0)], [(2, 2)]], 2)  # inconsistent


def test_json_round_trip():
    for name in ("ex1", "ex7", "ex10"):
        code = CODES[name]
        back = bc.BosonicCode.from_json(code.to_json())
        assert back.m == code.m and back.t == code.t
        assert logical_key(back) == logical_key(code)
        for sa, sb in zip(code.logicals, back.logicals):
            for (qa, ma), (qb, mb) in zip(sa, sb):
                assert qa == qb
                assert abs(float(ma) - mb) < 1e-12
        assert bc.check_nondeformation(back).passed


def test_qcs_helpers():
    q = bc.Qcs((1, 2, 0))
    assert q.total == 3 and q.m == 3
    assert q.scaled(3).occupations == (3, 6, 0)
    assert list(q) == [1, 2, 0]
    assert q[1] == 2


@pytest.mark.parametrize("call", [lambda: bc.code_fidelity(5, 1.5, 0.1),
                                  lambda: bc.leading_term(5, 1.5)],
                         ids=["code_fidelity", "leading_term"])
def test_loss_order_must_be_integer(call):
    with pytest.raises(ValueError, match=r"\bt="):
        call()


# finite, non-finite, non-integer and out-of-range scalars; valid counts
# stay small, since occupation vectors and loss patterns grow combinatorially
SCALARS = st.one_of(
    st.integers(-3, 9),
    st.integers(-3, 9).map(np.int64),
    st.integers(-3, 9).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)

ENTRY_POINTS = {
    "Qcs": lambda v: bc.Qcs((v, 2)),
    "partitions.n": lambda v: bc.partitions(v, 2),
    "partitions.m": lambda v: bc.partitions(3, v),
    "occupation_vectors.n": lambda v: bc.occupation_vectors(v, 2),
    "occupation_vectors.m": lambda v: bc.occupation_vectors(2, v),
    "BosonicCode.m": lambda v: bc.BosonicCode(v, 1, [[((2, 2), 1.0)]]).validate(),
    "BosonicCode.t": lambda v: bc.BosonicCode(2, v, [[((2, 2), 1.0)]]).validate(),
    "BosonicCode.weights": lambda v: bc.BosonicCode(2, 1, [[((2, 2), v)]]).validate(),
    "check_nondeformation.t": lambda v: bc.check_nondeformation(CODES["ex1"], t=v),
    "check_orthogonality.t": lambda v: bc.check_orthogonality(CODES["ex1"], t=v),
    "cyclic_orbits": lambda v: bc.cyclic_orbits(v, 3),
    "construct_t1.n": lambda v: bc.construct_t1(v, 2),
    "construct_t1.m": lambda v: bc.construct_t1(2, v),
    "construct_t2": lambda v: bc.construct_t2((v, 1, 0)),
    "code_fidelity.n_total": lambda v: bc.code_fidelity(v, 1, 0.1),
    "code_fidelity.t": lambda v: bc.code_fidelity(2, v, 1.0),
    "code_fidelity.gamma": lambda v: bc.code_fidelity(5, 1, v),
    "leading_term.n_total": lambda v: bc.leading_term(v, 1),
    "leading_term.t": lambda v: bc.leading_term(5, v),
    "loss_weight_identity": lambda v: bc.loss_weight_identity(CODES["ex1"], v),
    "verify_by_channel.gamma": lambda v: bc.verify_by_channel(CODES["ex1"], v),
    "verify_by_channel.t": lambda v: bc.verify_by_channel(CODES["ex1"], 0.01, t=v),
    "verify_by_channel.max_amplitudes":
        lambda v: bc.verify_by_channel(CODES["ex1"], 0.01, max_amplitudes=v),
    "existence_min_NT": lambda v: bc.existence_min_NT(1, 2, v),
    "balance_weights.t": lambda v: bc.balance_weights([[(4, 0), (0, 4)], [(2, 2)]], v),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(deadline=None, max_examples=40)
@given(v=SCALARS)
@example(v=math.nan)
@example(v=math.inf)
@example(v=-1)
@example(v=2.5)
@example(v=2.0)
def test_entry_points_return_or_raise_value_error(name, v, all_finite):
    try:
        out = ENTRY_POINTS[name](v)
    except ValueError:
        return
    assert all_finite(out), out
