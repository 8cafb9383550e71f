import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwork import qec_engine as qe
from qwork import qop_core as qc

rng = np.random.default_rng(23)


def pauli_word(s):
    m = {"I": qc.I2, "X": qc.SX, "Y": qc.SY, "Z": qc.SZ}
    return qc.kron_all(*(m[c] for c in s))


def code_from_generators(gens, logical_z, logical_x):
    n = len(gens[0])
    d = 2 ** n
    p = np.eye(d, dtype=complex)
    for g in gens:
        p = p @ (np.eye(d) + pauli_word(g)) / 2
    w, v = np.linalg.eigh(p)
    basis = v[:, w > 0.5]
    zin = qc.dagger(basis) @ pauli_word(logical_z) @ basis
    wz, vz = np.linalg.eigh(zin)
    v0 = basis @ vz[:, np.argmax(wz)]
    v1 = pauli_word(logical_x) @ v0
    return qe.CodeSpace(d, [v0, v1]).validate()


def five_qubit_code():
    return code_from_generators(
        ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], "ZZZZZ", "XXXXX")


def shor_code():
    gens = ["ZZIIIIIII", "ZIZIIIIII", "IIIZZIIII", "IIIZIZIII",
            "IIIIIIZZI", "IIIIIIZIZ", "XXXXXXIII", "XXXIIIXXX"]
    return code_from_generators(gens, "XXXXXXXXX", "ZIIZIIZII")


def weight_one_paulis(n):
    errs = [np.eye(2 ** n, dtype=complex)]
    for q in range(n):
        for p in "XYZ":
            s = ["I"] * n
            s[q] = p
            errs.append(pauli_word("".join(s)))
    return errs


def random_code_state(code, state_rng):
    a = state_rng.normal(size=code.k) + 1j * state_rng.normal(size=code.k)
    a /= np.linalg.norm(a)
    return code.encode(a)


# ---------------------------------------------------------------------------
# exact criteria


def test_five_qubit_exact_nondegenerate():
    code = five_qubit_code()
    rep = qe.check_exact(code, weight_one_paulis(5))
    assert rep.verdict == "exact"
    assert not rep.degenerate
    assert rep.defect < 1e-12
    # g is diagonal for this code and error set
    assert np.abs(rep.g - np.diag(np.diag(rep.g))).max() < 1e-12


def test_shor_z1z2_degenerate():
    code = shor_code()
    z1 = pauli_word("ZIIIIIIII")
    z2 = pauli_word("IZIIIIIII")
    rep = qe.check_exact(code, [z1, z2])
    assert rep.verdict == "exact"
    assert rep.degenerate
    assert np.abs(rep.g - np.ones((2, 2))).max() < 1e-12


def test_four_bit_no_loss_fails_exact():
    code = qe.four_bit_code()
    g = 0.1
    rep = qe.check_exact(code, [qe.ad_product((0, 0, 0, 0), g)])
    assert rep.verdict == "fail"
    # the two logical directions shrink unequally
    blocks = qe.dagger(qe.error_columns(code, qe.ad_product((0, 0, 0, 0), g)))
    b = blocks @ qe.error_columns(code, qe.ad_product((0, 0, 0, 0), g))
    assert abs(b[0, 0] - (1 + (1 - g) ** 4) / 2) < 1e-12
    assert abs(b[1, 1] - (1 - g) ** 2) < 1e-12


def test_acceptance_probability_constant_when_exact():
    # trace of the corrupted state is the same for every code state
    code = five_qubit_code()
    errs = weight_one_paulis(5)
    wts = rng.dirichlet(np.ones(len(errs)))
    noise = [math.sqrt(p) * e for p, e in zip(wts, errs)]
    traces = []
    for _ in range(10):
        psi = random_code_state(code, rng)
        rho = np.outer(psi, psi.conj())
        out = sum(e @ rho @ qc.dagger(e) for e in noise)
        traces.append(float(np.trace(out).real))
    assert max(traces) - min(traces) < 1e-9


def test_lazy_errors_match_dense():
    code = five_qubit_code()
    dense = weight_one_paulis(5)
    lazy = [(lambda v, _e=e: _e @ v) for e in dense]
    r1 = qe.check_exact(code, dense)
    r2 = qe.check_exact(code, lazy)
    assert np.abs(r1.g - r2.g).max() < 1e-12
    assert r2.verdict == "exact"


# ---------------------------------------------------------------------------
# canonicalization


def test_canonicalize_diagonal_returns_same_errors():
    code = five_qubit_code()
    errs = [pauli_word("XIIII"), pauli_word("ZZIII")]
    g = qe.check_exact(code, errs).g
    canon = qe.canonicalize_errors(code, errs, g)
    # same errors up to ordering
    found = 0
    for e in errs:
        for c in canon.errors:
            if np.abs(e - c).max() < 1e-9:
                found += 1
                break
    assert found == 2


def test_canonicalize_recovers_mixed_pair():
    code = five_qubit_code()
    a, b = pauli_word("XIIII"), pauli_word("IZIII")
    mixed = [(a + b) / math.sqrt(2), (a - b) / math.sqrt(2)]
    canon = qe.canonicalize_errors(code, mixed)
    assert np.abs(canon.p - 1.0).max() < 1e-9
    cols = [qe.error_columns(code, e) for e in canon.errors]
    cross = qe.dagger(cols[0]) @ cols[1]
    assert np.abs(cross).max() < 1e-9


def test_canonical_cross_products_diagonal():
    code = qe.four_bit_code()
    errs = qe.four_bit_reversible_set(0.05)
    canon = qe.canonicalize_errors(code, errs)
    cols = [qe.error_columns(code, e) for e in canon.errors]
    for m in range(len(cols)):
        for n in range(len(cols)):
            blk = qe.dagger(cols[m]) @ cols[n]
            if m != n:
                # four-bit loss images never overlap, so cross terms vanish
                assert np.abs(blk).max() < 1e-12
    assert canon.p[0] > canon.p[1]  # descending


# ---------------------------------------------------------------------------
# recovery


def test_recovery_trace_preserving_and_correct():
    code = five_qubit_code()
    errs = weight_one_paulis(5)
    canon = qe.canonicalize_errors(code, errs)
    rec = qe.build_recovery(code, canon)
    s = sum(qc.dagger(k) @ k for k in rec.channel.kraus)
    assert np.abs(s - np.eye(32)).max() < 1e-10

    wts = rng.dirichlet(np.ones(len(errs)))
    noise = [math.sqrt(p) * e for p, e in zip(wts, errs)]
    for _ in range(50):
        psi = random_code_state(code, rng)
        rho = np.outer(psi, psi.conj())
        out = sum(e @ rho @ qc.dagger(e) for e in noise)
        recd = qc.apply(rec.channel, out)
        fid = float(np.real(np.conjugate(psi) @ recd @ psi) / np.trace(recd).real)
        assert abs(fid - 1.0) < 1e-9


def test_recovery_identity_only():
    code = five_qubit_code()
    rec = qe.build_recovery(code, [np.eye(32, dtype=complex)])
    psi = random_code_state(code, rng)
    rho = np.outer(psi, psi.conj())
    recd = qc.apply(rec.channel, rho)
    assert np.abs(recd - rho).max() < 1e-10


def test_recovery_routes_unreachable_through_completion():
    code = five_qubit_code()
    rec = qe.build_recovery(code, [np.eye(32, dtype=complex)])
    # a state orthogonal to the code: flip one qubit of a codeword
    psi = pauli_word("XIIII") @ code.logicals[0]
    rho = np.outer(psi, psi.conj())
    recd = qc.apply(rec.channel, rho)
    assert abs(np.trace(recd).real - 1.0) < 1e-10
    assert np.abs(rec.completion @ psi - psi).max() < 1e-10


def test_recovery_rejects_bad_error_set():
    code = qe.four_bit_code()
    with pytest.raises(ValueError):
        qe.build_recovery(code, [qe.ad_product((0, 0, 0, 0), 0.2)])


# ---------------------------------------------------------------------------
# approximate criteria


def four_bit_samples():
    return [(x, qe.four_bit_reversible_set(x)) for x in (0.005, 0.01, 0.02, 0.04)]


def test_four_bit_approximate_quantities():
    g = 0.01
    code = qe.four_bit_code()
    rep = qe.check_approximate(code, qe.four_bit_reversible_set(g), order=1,
                               samples=four_bit_samples())
    assert rep.verdict == "approximate"
    assert rep.order == 1
    assert rep.ortho_defect < 1e-12
    p = np.sort(rep.canonical_p)[::-1]
    assert abs(p[0] - (1 + (1 - g) ** 4) / 2) < 1e-12
    assert np.abs(p[1:] - g * (1 - g) / 2).max() < 1e-12
    lam = rep.lambdas[np.argsort(rep.canonical_p)[::-1]]
    assert abs(lam[0] - (1 - g) ** 2 / ((1 + (1 - g) ** 4) / 2)) < 1e-12
    assert np.abs(lam[1:] - (1 - g) ** 2).max() < 1e-12


def test_four_bit_gap_scaling():
    # worst residue scales as the square of the damping strength
    xs = [0.005, 0.01, 0.02, 0.04]
    code = qe.four_bit_code()
    ratios = []
    for x in xs:
        rep = qe.check_approximate(code, qe.four_bit_reversible_set(x))
        ratios.append(rep.gaps.max() / x ** 2)
    assert max(ratios) / min(ratios) < 1.5
    rep = qe.check_approximate(code, qe.four_bit_reversible_set(0.01),
                               order=1, samples=four_bit_samples())
    assert abs(rep.gap_slope - 2.0) <= 0.1


def test_five_bit_code_corrects_one_loss_approximately():
    code = five_qubit_code()

    def ad5(gamma):
        errs = [qe.ad_product((0,) * 5, gamma)]
        for i in range(5):
            pat = [0] * 5
            pat[i] = 1
            errs.append(qe.ad_product(tuple(pat), gamma))
        return errs

    samples = [(x, ad5(x)) for x in (0.005, 0.01, 0.02, 0.04)]
    rep = qe.check_approximate(code, ad5(0.01), order=1, samples=samples)
    assert rep.verdict == "approximate"
    # per-qubit average excitation is 1/2 in both codewords, the balance that
    # makes single-loss errors look identical on the two logicals
    for vec in code.logicals:
        t = np.abs(vec) ** 2
        for q in range(5):
            ex = sum(t[i] for i in range(32) if (i >> (4 - q)) & 1)
            assert abs(ex - 0.5) < 1e-12


def test_exact_set_reports_exact_through_approx_path():
    code = five_qubit_code()
    rep = qe.check_approximate(code, weight_one_paulis(5))
    assert rep.verdict == "exact"
    assert np.abs(rep.lambdas - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# fidelity bounds


def test_fidelity_bound_four_bit():
    g = 0.01
    code = qe.four_bit_code()
    rep = qe.check_approximate(code, qe.four_bit_reversible_set(g))
    assert abs(rep.crude_bound - ((1 - g) ** 2 + 2 * g * (1 - g) ** 3)) < 1e-12
    bound = qe.fidelity_lower_bound(rep)
    expect = 1 - 3 * g ** 2 + 4 * g ** 3 - 1.5 * g ** 4
    assert abs(bound - expect) < 1e-9
    assert bound >= rep.crude_bound - 1e-12


def test_fidelity_bound_exact_code_is_total_probability():
    code = five_qubit_code()
    errs = weight_one_paulis(5)
    wts = rng.dirichlet(np.ones(len(errs)))
    weighted = [math.sqrt(p) * e for p, e in zip(wts, errs)]
    rep = qe.check_exact(code, weighted)
    assert rep.verdict == "exact"
    bound = qe.fidelity_lower_bound(rep)
    assert abs(bound - 1.0) < 1e-9  # trace-preserving set: total probability 1


def test_fidelity_bound_empty():
    rep = qe.CriteriaReport(code_h=[])
    assert qe.fidelity_lower_bound(rep) == 0.0


def test_min_overlap_phase_damping():
    ch = qc.standard_channel("phase_damping", p=0.3)
    f = qe.min_overlap_fidelity(ch)
    assert abs(f - 0.7) < 1e-9


def test_min_overlap_amplitude_damping():
    # the ground state is fixed; the excited state keeps 1 - gamma
    ch = qc.standard_channel("amplitude_damping", gamma=0.2)
    assert abs(qe.min_overlap_fidelity(ch) - 0.8) < 1e-12


def test_min_overlap_identity_is_one():
    u = np.exp(0.7j) * np.eye(2, dtype=complex)
    f = qe.min_overlap_fidelity(qc.QuantumChannel([u]))
    assert abs(f - 1.0) < 1e-9


def test_min_overlap_rotation():
    # x-rotation by angle a: equator states along x are fixed, but the
    # worst state lies in the y-z plane and picks up cos^2(a/2)
    a = 0.6
    u = np.cos(a / 2) * qc.I2 - 1j * np.sin(a / 2) * qc.SX
    f = qe.min_overlap_fidelity(qc.QuantumChannel([u]))
    assert abs(f - np.cos(a / 2) ** 2) < 1e-8


def bloch_vector(psi):
    a, b = psi
    return np.array([2 * (np.conj(a) * b).real, 2 * (np.conj(a) * b).imag,
                     abs(a) ** 2 - abs(b) ** 2])


def sphere_sample(count):
    # Fibonacci lattice: near-uniform points on the unit sphere
    i = np.arange(count) + 0.5
    z = 1 - 2 * i / count
    phi = math.pi * (1 + 5 ** 0.5) * i
    rho = np.sqrt(1 - z ** 2)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["generic", "b_perp_lowest", "b_along_lowest",
                        "b_zero_degenerate"]))
def test_exact_bloch_minimum_beats_dense_sample(seed, case):
    r = np.random.default_rng(seed)
    a = r.normal(size=(3, 3))
    q = (a + a.T) / 2
    b = r.normal(size=3) * r.choice([1e-3, 1.0, 10.0])
    lam, vecs = np.linalg.eigh(q)
    if case == "b_perp_lowest":
        # the hard case when the rest of the solution is shorter than one
        b = b - (b @ vecs[:, 0]) * vecs[:, 0]
        b *= r.choice([0.01, 0.3, 1.0, 3.0])
    elif case == "b_along_lowest":
        # the secular root sits exactly at λ₀ - |β|
        b = r.normal() * vecs[:, 0]
    elif case == "b_zero_degenerate":
        lam[1] = lam[0]
        q = vecs @ np.diag(lam) @ vecs.T
        b = np.zeros(3)
    c = r.normal()

    def value(psi):
        v = bloch_vector(psi)
        return c + b @ v + v @ q @ v

    best, state = qe._minimize_over_pure_states(value, 2)
    assert abs(np.linalg.norm(state) - 1) < 1e-14
    assert abs(np.linalg.norm(bloch_vector(state)) - 1) < 1e-14
    pts = sphere_sample(200_000)
    dense = c + pts @ b + np.einsum("ij,jk,ik->i", pts, q, pts)
    assert best <= dense.min() + 1e-12


def test_qubit_minimizer_rejects_non_quadratic_objective():
    with pytest.raises(ValueError, match="quadratic"):
        qe._minimize_over_pure_states(lambda psi: abs(psi[0]) ** 6, 2)
    with pytest.raises(ValueError, match="quadratic"):
        qe.min_overlap_fidelity(lambda rho: np.diag(np.diag(rho) ** 3))


def test_min_overlap_qutrit_identity_is_one():
    f = qe.min_overlap_fidelity(lambda rho: rho, dim=3)
    assert abs(f - 1.0) < 1e-12


def test_min_overlap_with_sampler():
    ch = qc.standard_channel("phase_damping", p=0.2)
    equator = [np.array([1, np.exp(1j * t)]) / math.sqrt(2)
               for t in np.linspace(0, 2 * math.pi, 17)]
    f = qe.min_overlap_fidelity(ch, sampler=equator)
    assert abs(f - 0.8) < 1e-12


# ---------------------------------------------------------------------------
# four-bit pipeline


def test_pipeline_identity_at_zero_noise():
    rep = qe.four_bit_pipeline(0.0)
    assert abs(rep.worst_fidelity - 1.0) < 1e-12
    assert set(rep.syndrome_probs) == {(0, 0)}


def test_pipeline_single_loss_branch_state():
    # after the parity circuit, a first-qubit loss parks the logical content
    # on qubit 3 as b|0> + a(1-g)|1>
    g = 0.04
    code = qe.four_bit_code()
    amp = np.array([0.6, 0.8], dtype=complex)
    psi = code.encode(amp)
    branch = qe.ad_product((1, 0, 0, 0), g) @ psi
    branch = qc.apply_local(qc.CNOT, branch, (0, 1))
    branch = qc.apply_local(qc.CNOT, branch, (2, 3))
    t = branch.reshape(2, 2, 2, 2)
    sub = t[0, 1, :, 0]  # qubits 1,2,4 fixed at 0,1,0
    scale = math.sqrt(g * (1 - g) / 2)
    expect = scale * np.array([0.8, 0.6 * (1 - g)])
    assert np.abs(sub - expect).max() < 1e-12


def test_pipeline_worst_case_coefficient():
    for g in (0.005, 0.01, 0.02):
        rep = qe.four_bit_pipeline(g)
        expect = (1 - g) ** 2 + 2 * g * (1 - g) ** 3
        assert abs(rep.worst_fidelity - expect) < 1e-10
        assert 4.5 <= rep.leading_coefficient <= 5.5


def test_pipeline_matches_closed_form():
    for g in (0.005, 0.01, 0.02, 0.04):
        rep = qe.four_bit_pipeline(g)
        expect = (1 - g) ** 2 + 2 * g * (1 - g) ** 3
        assert abs(rep.worst_fidelity - expect) < 1e-14
        assert abs(np.linalg.norm(rep.worst_state) - 1) < 1e-14


def test_damping_rejects_bad_gamma():
    for bad in (math.nan, math.inf, -0.1, 1.2):
        with pytest.raises(ValueError, match="gamma"):
            qe.ad_kraus(bad)
        with pytest.raises(ValueError, match="gamma"):
            qe.four_bit_pipeline(bad)


def test_pipeline_syndrome_probabilities():
    g = 0.01
    rep = qe.four_bit_pipeline(g)
    total = sum(rep.syndrome_probs.values())
    assert abs(total - 1.0) < 1e-9
    assert rep.syndrome_probs[(0, 0)] > 0.9
