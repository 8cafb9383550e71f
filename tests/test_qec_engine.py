import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, minimize

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
    # canonicalization mixes the errors, so it takes matrices only
    with pytest.raises(ValueError, match=r"\berrors\b"):
        qe.canonicalize_errors(code, dense[:-1] + lazy[-1:])


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


def _pairwise_overlap(code, errors, prune=1e-12):
    """The largest entry of W_j† W_i over pairs of kept images, one pair at
    a time, as build_recovery checked them before one Gram product."""
    kept = []
    for e in errors:
        u, s, vh = np.linalg.svd(qe.error_columns(code, e), full_matrices=False)
        if s.max() ** 2 > prune:
            kept.append(u @ vh)
    return max((float(np.abs(qc.dagger(kept[j]) @ wi).max())
                for i, wi in enumerate(kept) for j in range(i)), default=0.0)


@pytest.mark.parametrize("case", ["five_qubit_canonical", "repeated", "half_overlap",
                                  "slight_overlap", "slight_overlap_strict", "single",
                                  "dead_and_live"])
def test_recovery_overlap_check_matches_the_pairwise_loop(case):
    code = five_qubit_code()
    x0, z1 = pauli_word("XIIII"), pauli_word("IZIII")
    errors, tol = {
        "five_qubit_canonical": (qe.canonicalize_errors(code, weight_one_paulis(5)).errors,
                                 1e-8),
        "repeated": ([np.eye(32), 2 * np.eye(32)], 1e-8),
        "half_overlap": ([x0, (x0 + z1) / math.sqrt(2)], 1e-8),
        "slight_overlap": ([x0, z1 + 1e-9 * x0], 1e-8),
        "slight_overlap_strict": ([x0, z1 + 1e-9 * x0], 1e-10),
        "single": ([z1], 1e-8),
        "dead_and_live": ([np.zeros((32, 32)), x0, np.zeros((32, 32))], 1e-8),
    }[case]
    overlap = _pairwise_overlap(code, errors)
    if overlap > tol:
        with pytest.raises(ValueError, match="error images overlap"):
            qe.build_recovery(code, errors, tol=tol)
    else:
        rec = qe.build_recovery(code, errors, tol=tol)
        assert len(rec.channel.kraus) == len(rec.isometries) + 1
    assert (overlap > tol) == (case in ("repeated", "half_overlap", "slight_overlap_strict"))


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


def _loop_approx_quantities(code, errors):
    """W, H, p, lambda and the worst image overlap, one error at a time."""
    ne = len(errors)
    ws, hs, p, lam = [], [], np.empty(ne), np.empty(ne)
    for n, e in enumerate(errors):
        u, s, vh = np.linalg.svd(qe.error_columns(code, e), full_matrices=False)
        ws.append(u @ vh)
        hs.append(qc.dagger(vh) @ np.diag(s) @ vh)
        p[n] = s.max() ** 2
        lam[n] = (s.min() / s.max()) ** 2 if s.max() > 0 else 1.0
    ortho = 0.0
    for m in range(ne):
        for n in range(m + 1, ne):
            if p[m] > 0 and p[n] > 0:
                ortho = max(ortho, float(np.linalg.norm(qc.dagger(ws[m]) @ ws[n], 2)))
    return ws, hs, p, lam, ortho


def _bosonic_case(monkeypatch):
    # the compact code space and gather errors that verify_by_channel builds
    from qwork import bosonic_codes as bc
    seen, batched = [], qe._approx_quantities

    def record(code, errors):
        seen.append((code, errors))
        return batched(code, errors)

    monkeypatch.setattr(qe, "_approx_quantities", record)
    bc.verify_by_channel(bc.example_codes()["ex8"], 0.01)
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("case", ["four_bit", "four_bit_with_dead", "five_qubit_paulis",
                                  "bosonic_ex8", "empty"])
def test_batched_approx_quantities_match_the_loop(case, monkeypatch):
    code, errors = {
        "four_bit": lambda: (qe.four_bit_code(), qe.four_bit_reversible_set(0.01)),
        "four_bit_with_dead": lambda: (qe.four_bit_code(), [np.zeros((16, 16))]
                                       + qe.four_bit_reversible_set(0.2)),
        "five_qubit_paulis": lambda: (five_qubit_code(), weight_one_paulis(5)),
        "bosonic_ex8": lambda: _bosonic_case(monkeypatch),
        "empty": lambda: (qe.four_bit_code(), []),
    }[case]()
    got, ref = qe._approx_quantities(code, errors), _loop_approx_quantities(code, errors)
    for a, b in zip(got[:4], ref[:4]):
        np.testing.assert_allclose(np.reshape(a, np.shape(b)), b, rtol=0, atol=1e-14)
    assert abs(got[4] - ref[4]) <= 1e-14


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


@pytest.mark.parametrize("g", [0.005, 0.01, 0.04])
def test_fidelity_bound_four_bit_closed_form(g):
    rep = qe.check_approximate(qe.four_bit_code(), qe.four_bit_reversible_set(g))
    expect = 1 - 3 * g ** 2 + 4 * g ** 3 - 1.5 * g ** 4
    assert abs(qe.fidelity_lower_bound(rep) - expect) < 1e-12


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


def bloch_choi(c, b, q):
    """A Hermitian 4 x 4 Choi matrix C whose overlap Σ C[(i, a), (j, b)]·ρᵢₐ·ρ_bⱼ
    at ρ = (I + r·σ)/2 is c + b·r + rᵀqr: the Paulis are orthogonal, so
    C = Σ H_μν σ̄_μ ⊗ σ̄_ν over H = [[c, b/2], [b/2, q]] realises it."""
    h = np.block([[np.array([[c]]), b[None] / 2], [b[:, None] / 2, q]])
    s = np.conj(np.array(qc.PAULIS))
    return np.einsum("mn,mia,nbj->iajb", h, s, s).reshape(4, 4)


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

    best, state, _ = qe._worst_overlap(bloch_choi(c, b, q))
    assert abs(np.linalg.norm(state) - 1) < 1e-14
    v = bloch_vector(state)
    assert abs(np.linalg.norm(v) - 1) < 1e-14
    assert abs(best - (c + b @ v + v @ q @ v)) < 1e-12
    pts = sphere_sample(200_000)
    dense = c + pts @ b + np.einsum("ij,jk,ik->i", pts, q, pts)
    assert best <= dense.min() + 1e-12


def brentq_argmin(b, q):
    """_sphere_argmin's boundary solution with the secular equation
    Σβᵢ²/(λᵢ - μ)² = 1 solved by scipy's brentq to full precision, on the
    same shift ν = μ - λ₀."""
    lam, vecs = np.linalg.eigh(q)
    beta = vecs.T @ b / 2
    tol = 1e-12 * max(1.0, np.abs(lam).max(), np.linalg.norm(beta))
    gap = lam - lam[0]
    low = gap <= tol
    beta_low = np.linalg.norm(beta[low])
    y = np.zeros(3)
    y[~low] = -beta[~low] / gap[~low]
    if beta_low <= tol and y @ y <= 1.0:
        y[0] = math.sqrt(1.0 - y @ y)
        return vecs @ y

    def secular(nu):
        return float(np.sum((beta / (gap - nu)) ** 2)) - 1.0

    hi = -max(beta_low / 2, tol)
    nu = hi if secular(hi) <= 0 else brentq(
        secular, -2 * np.linalg.norm(beta), hi, xtol=1e-300)
    return vecs @ (-beta / (gap - nu))


def secular_cases():
    rng = np.random.default_rng(41)
    for _ in range(300):
        a = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
        yield (a + a.T) / 2, rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)
    for lam0 in (0.0, 1.0, -3.0, 100.0):
        for _ in range(5):
            v = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            spread = lam0 + np.array([0.0, 1.0, 2.5])
            tol = 1e-12 * max(1.0, np.abs(spread).max())
            # hard case: β misses a degenerate lowest eigenspace
            lam = lam0 + np.array([0.0, 0.0, 2.0])
            yield v @ np.diag(lam) @ v.T, 2 * v @ np.array([0.0, 0.0, 0.7])
            # near-hard case: |β_low| within a factor of ten of tol, the
            # rest of y of length 0.3, 0.6 or 0.9
            for factor, rest in itertools.product((0.5, 1.0, 2.0, 10.0),
                                                  (0.3, 0.6, 0.9)):
                beta = np.array([factor * tol, 0.8 * rest, 1.5 * rest])
                yield v @ np.diag(spread) @ v.T, 2 * v @ beta
            # β along the lowest eigenvector: the root is λ₀ - |β|
            yield v @ np.diag(spread) @ v.T, 2 * v @ np.array([0.9, 0.0, 0.0])


def test_newton_secular_root_matches_brentq():
    for q, b in secular_cases():
        r = qe._sphere_argmin(b, q)
        ref = brentq_argmin(b, q)
        r, ref = r / np.linalg.norm(r), ref / np.linalg.norm(ref)
        assert np.abs(r - ref).max() <= 1e-12
        # never higher, up to the rounding of the objective's own evaluation
        slack = 4 * np.finfo(float).eps * (np.abs(b).sum() + np.abs(q).sum())
        assert b @ r + r @ q @ r <= b @ ref + ref @ q @ ref + slack


def test_secular_root_along_the_lowest_eigenvector():
    v = np.linalg.qr(np.random.default_rng(43).normal(size=(3, 3)))[0]
    q = v @ np.diag([1.0, 2.0, 3.5]) @ v.T
    r = qe._sphere_argmin(1.8 * v[:, 0], q)
    assert np.abs(r + v[:, 0]).max() <= 1e-15


def test_qubit_minimizer_rejects_non_quadratic_objective():
    # |ψ₀|⁶ = ⟨ψ|ρ₀₀³·I|ψ⟩ has no Choi matrix: the one read off the map
    # predicts ρ₀₀·I at the check state
    with pytest.raises(ValueError, match="quadratic"):
        qe.min_overlap_fidelity(lambda rho: rho[0, 0] ** 3 * np.eye(2))
    with pytest.raises(ValueError, match="quadratic"):
        qe.min_overlap_fidelity(lambda rho: np.diag(np.diag(rho) ** 3))


def test_min_overlap_of_a_linear_callable_matches_its_channel():
    # a trace-decreasing map: the worst overlap reads the same coefficients
    # from the callable as from the Kraus form
    ch = qc.QuantumChannel([0.8 * qc.standard_channel("amplitude_damping", gamma=0.3).kraus[0],
                            0.5 * qc.SX @ qc.SZ])
    assert not qc.linear_rep(ch).trace_preserving
    f = qe.min_overlap_fidelity(lambda rho: qc.apply(ch, rho))
    assert abs(f - qe.min_overlap_fidelity(ch)) < 1e-14
    dense = qe.min_overlap_fidelity(ch, sampler=[qe.bloch_state(r) for r in sphere_sample(2000)])
    assert f <= dense + 1e-12


def test_min_overlap_qutrit_identity_is_one():
    f = qe.min_overlap_fidelity(lambda rho: rho, dim=3)
    assert abs(f - 1.0) < 1e-12


def test_min_overlap_one_dimensional_space_is_exact():
    assert qe.min_overlap_fidelity(lambda rho: 0.3 * rho, dim=1) == 0.3
    assert qe.min_overlap_fidelity(lambda rho: rho, dim=1) == 1.0


@pytest.mark.parametrize("dim", [0, -2, 1.5, 2.0, "2", True])
def test_min_overlap_rejects_bad_dim(dim):
    with pytest.raises(ValueError, match="dim"):
        qe.min_overlap_fidelity(lambda rho: rho, dim=dim)


def test_min_overlap_with_sampler():
    ch = qc.standard_channel("phase_damping", p=0.2)
    equator = [np.array([1, np.exp(1j * t)]) / math.sqrt(2)
               for t in np.linspace(0, 2 * math.pi, 17)]
    f = qe.min_overlap_fidelity(ch, sampler=equator)
    assert abs(f - 0.8) < 1e-12


def test_min_overlap_sampler_refuses_bad_candidates():
    ch = qc.standard_channel("phase_damping", p=0.2)
    for bad in ([], [np.zeros(2)], [np.array([np.nan, 1])], [np.array([1, 0, 0])],
                [np.array([1, 0]), np.array([[1], [0]])]):
        with pytest.raises(ValueError, match="sampler"):
            qe.min_overlap_fidelity(ch, sampler=bad)


def test_min_overlap_refuses_a_channel_between_different_dims():
    ch = qc.QuantumChannel([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    with pytest.raises(ValueError, match="dim_in=2, dim_out=1"):
        qe.min_overlap_fidelity(ch)


@pytest.mark.parametrize("hs", [[np.full((2, 2), np.nan)], [np.eye(2), np.diag([np.inf, np.inf])],
                                [np.ones((2, 3))], [np.eye(2), np.eye(3)], [np.ones(2)]])
def test_fidelity_bound_refuses_bad_code_h(hs):
    with pytest.raises(ValueError, match="code_h"):
        qe.fidelity_lower_bound(qe.CriteriaReport(code_h=hs))


def nelder_mead_reference(ch):
    """Worst overlap from the best of 4096 seeded random starts refined by
    Nelder-Mead, each value read through qop_core.apply."""
    k = ch.dim_in

    def val(x):
        if np.linalg.norm(x) < 1e-12:
            return math.inf
        psi = (x[:k] + 1j * x[k:]) / np.linalg.norm(x)
        return float(np.real(psi.conj() @ qc.apply(ch, np.outer(psi, psi.conj())) @ psi))

    start = min(np.random.default_rng(0).normal(size=(4096, 2 * k)), key=val)
    res = minimize(val, start, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    return min(res.fun, val(start))


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("seed", [100, 101])
def test_projected_gradient_never_above_nelder_mead(k, seed):
    ch = qc.random_channel(k, rng=np.random.default_rng(seed))
    f, psi, residual = qe._worst_overlap(qe._choi_matrix(ch.kraus))
    assert qe.min_overlap_fidelity(ch) == f
    assert f <= nelder_mead_reference(ch) + 1e-12
    assert residual <= 1e-10
    direct = np.real(psi.conj() @ qc.apply(ch, np.outer(psi, psi.conj())) @ psi)
    assert abs(f - direct) < 1e-14


def test_min_overlap_reaches_a_flat_minimum():
    # f = ⟨ψ|diag(1, 1/2, 0)|ψ⟩² grows only at fourth order away from |2>:
    # 500 plain projected steps without momentum end 4e-7 above 0 here;
    # the decay channel adds a second-order direction
    assert qe.min_overlap_fidelity(qc.QuantumChannel([np.diag([1, 0.5, 0])])) < 1e-15
    decay = [np.diag([1, math.sqrt(0.7), 0]), math.sqrt(0.3) * np.eye(3)[:, [0]] @ np.eye(3)[[1]],
             np.eye(3)[:, [0]] @ np.eye(3)[[2]]]
    assert qe.min_overlap_fidelity(qc.QuantumChannel(decay)) < 1e-15
    # an error set that is c·I on the code plus one with a flat zero
    rep = qe.CriteriaReport(code_h=[3 * np.eye(3), np.diag([1.0, 0.5, 0.0])])
    assert abs(qe.fidelity_lower_bound(rep) - 9) < 1e-9
    assert qe.fidelity_lower_bound(qe.CriteriaReport(code_h=[np.zeros((3, 3))])) == 0.0


def test_min_overlap_finds_the_state_nelder_mead_missed():
    # from its best random start Nelder-Mead stopped at 0.0928441 here
    ch = qc.random_channel(4, rng=np.random.default_rng(0))
    assert abs(qe.min_overlap_fidelity(ch) - 0.0918876541) < 1e-9


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


def test_pipeline_leading_coefficient_at_small_gamma():
    # the loss is summed directly, not formed as 1 - F, so F's last-bit
    # rounding is not amplified by 1/g² even at g = 1e-4
    for g in (1e-4, 1e-3, 5e-3, 0.01):
        rep = qe.four_bit_pipeline(g)
        assert abs(rep.leading_coefficient - (5 - 6 * g + 2 * g * g)) < 1e-10
    # where g² underflows the coefficient is 0, as at g = 0, not 0/0
    assert qe.four_bit_pipeline(1e-200).leading_coefficient == 0.0


def test_pipeline_runs_the_circuit_once(monkeypatch):
    calls = []
    circuit = qe._four_bit_branches

    def counted(*args):
        calls.append(args)
        return circuit(*args)

    monkeypatch.setattr(qe, "_four_bit_branches", counted)
    rep = qe.four_bit_pipeline(0.02)
    assert len(calls) == 1
    assert rep.method == "exact-sphere"
    assert 0.0 <= rep.secular_residual <= 1e-14


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


# finite, non-finite, non-integer and out-of-range scalars; valid dimensions
# stay small, since min_overlap_fidelity searches over pure states in C^dim
SCALARS = st.one_of(
    st.integers(-3, 4),
    st.integers(-3, 4).map(np.int64),
    st.integers(-3, 4).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)

ENTRY_POINTS = {
    "min_overlap_fidelity.dim": lambda v: qe.min_overlap_fidelity(lambda rho: rho, dim=v),
    "min_overlap_fidelity.sampler": lambda v: qe.min_overlap_fidelity(
        qc.standard_channel("depolarizing", p=0.1), sampler=[np.array([v, 1.0])]),
    "fidelity_lower_bound.code_h": lambda v: qe.fidelity_lower_bound(
        qe.CriteriaReport(code_h=[np.diag([v, v, v]), np.diag([1.0, 0.5, 0.0])])),
    "ad_kraus": lambda v: qe.ad_kraus(v),
    "four_bit_reversible_set": lambda v: qe.four_bit_reversible_set(v),
    "four_bit_pipeline": lambda v: qe.four_bit_pipeline(v),
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
