import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qwork import qop_core as qc

rng = np.random.default_rng(7)


def random_density(dim, rho_rng=rng):
    z = rho_rng.normal(size=(dim, dim)) + 1j * rho_rng.normal(size=(dim, dim))
    m = z @ qc.dagger(z)
    return m / np.trace(m)


def test_apply_no_renormalization():
    # a lone non-unitary Kraus operator shrinks the trace and stays shrunk
    half = qc.QuantumChannel([0.5 * np.eye(2)])
    out = qc.apply(half, np.eye(2, dtype=complex) / 2)
    assert abs(np.trace(out) - 0.25) < 1e-12


def test_phase_damping_action():
    p = 0.3
    ch = qc.standard_channel("phase_damping", p=p)
    rho = random_density(2)
    out = qc.apply(ch, rho)
    # off-diagonals scale by 1-2p, diagonals untouched
    assert abs(out[0, 0] - rho[0, 0]) < 1e-12
    assert abs(out[0, 1] - (1 - 2 * p) * rho[0, 1]) < 1e-12


def test_bit_flip_z_contraction():
    p = 0.2
    ch = qc.standard_channel("bit_flip", p=p)
    out = qc.apply(ch, qc.SZ)
    assert np.abs(out - (2 * p - 1) * qc.SZ).max() < 1e-12


def test_amplitude_damping_fixed_point():
    ch = qc.standard_channel("amplitude_damping", gamma=0.37)
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(qc.apply(ch, ground) - ground).max() < 1e-12
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = qc.apply(ch, excited)
    assert abs(out[0, 0] - 0.37) < 1e-12


def test_generalized_amplitude_damping_steady_state():
    g, p = 0.6, 0.25
    ch = qc.standard_channel("generalized_amplitude_damping", gamma=g, p=p)
    assert ch.trace_preserving
    # repeated application drives any state to diag(p, 1-p) as gamma -> 1
    full = qc.standard_channel("generalized_amplitude_damping", gamma=1.0, p=p)
    out = qc.apply(full, random_density(2))
    assert np.abs(out - np.diag([p, 1 - p])).max() < 1e-12


def test_bosonic_ad_completeness_and_truncation():
    for cutoff in (0, 1, 5, 20):
        ch = qc.standard_channel("bosonic_ad", cutoff=cutoff, gamma=0.15)
        assert len(ch.kraus) == cutoff + 1
        s = sum(qc.dagger(a) @ a for a in ch.kraus)
        assert np.abs(s - np.eye(cutoff + 1)).max() < 1e-10


def test_bosonic_ad_single_photon_matches_qubit_ad():
    g = 0.22
    bos = qc.standard_channel("bosonic_ad", cutoff=1, gamma=g)
    qub = qc.standard_channel("amplitude_damping", gamma=g)
    assert qc.channels_equal(bos, qub, tol=1e-12)


def test_choi_round_trip_small():
    ch = qc.standard_channel("depolarizing", p=0.4)
    back = qc.kraus_from_choi(qc.choi_of(ch))
    assert qc.channels_equal(ch, back, tol=1e-12)
    # canonical set is minimal: depolarizing has Choi rank 4
    assert len(back.kraus) == 4


def test_kraus_from_choi_rejects_negative():
    ch = qc.standard_channel("amplitude_damping", gamma=0.5)
    c = qc.choi_of(ch)
    bad = c.mat - 1e-3 * np.eye(4)
    with pytest.raises(qc.NotCompletelyPositiveError):
        qc.kraus_from_choi(qc.ChoiMatrix(bad, 2, 2))


def test_kraus_from_choi_clamps_tiny_negative():
    ch = qc.standard_channel("phase_damping", p=0.1)
    c = qc.choi_of(ch)
    wiggle = c.mat - 5e-10 * np.eye(4)
    back = qc.kraus_from_choi(qc.ChoiMatrix(wiggle, 2, 2))
    assert qc.channels_equal(ch, back, tol=1e-8)


def test_choi_state_normalization_views():
    ch = qc.standard_channel("amplitude_damping", gamma=0.3)
    c = qc.choi_of(ch)
    st_form = c.as_state()
    assert abs(np.trace(st_form.mat) - 1.0) < 1e-12
    assert np.abs(st_form.as_unnormalized().mat - c.mat).max() < 1e-12


def test_compose_and_tensor():
    pd = qc.standard_channel("phase_damping", p=0.2)
    ad = qc.standard_channel("amplitude_damping", gamma=0.3)
    rho = random_density(2)
    both = qc.compose(pd, ad)
    assert np.abs(qc.apply(both, rho) - qc.apply(pd, qc.apply(ad, rho))).max() < 1e-12
    pair = qc.tensor(pd, ad)
    r2 = random_density(4)
    direct = sum(np.kron(a, b) @ r2 @ qc.dagger(np.kron(a, b))
                 for a in pd.kraus for b in ad.kraus)
    assert np.abs(qc.apply(pair, r2) - direct).max() < 1e-12


def test_partial_trace():
    a = random_density(2)
    b = random_density(3)
    joint = np.kron(a, b)
    assert np.abs(qc.partial_trace(joint, [2, 3], 1) - a).max() < 1e-12
    assert np.abs(qc.partial_trace(joint, [2, 3], 0) - b).max() < 1e-12


# ---------------------------------------------------------------------------
# dense local-gate kernel


def full_operator(op, axes, n):
    """op on qubits ``axes`` as a 2^n x 2^n matrix: op ⊗ I in the qubit order
    (axes, then the other qubits), with rows and columns permuted back."""
    rest = [q for q in range(n) if q not in axes]
    big = qc.kron_all(op, np.eye(2 ** (n - len(axes))))
    order = list(axes) + rest
    perm = [int("".join(format(x, f"0{n}b")[q] for q in order), 2)
            for x in range(2 ** n)]
    return big[np.ix_(perm, perm)]


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_local_kernel_matches_full_operator(conjugate_local, n, data):
    k = data.draw(st.integers(min_value=1, max_value=min(2, n)))
    axes = tuple(data.draw(st.permutations(range(n)))[:k])
    krng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def cplx(*shape):
        return krng.normal(size=shape) + 1j * krng.normal(size=shape)

    op = cplx(2 ** k, 2 ** k)
    u = full_operator(op, axes, n)
    vec, mat, rho = cplx(2 ** n), cplx(2 ** n, 3), cplx(2 ** n, 2 ** n)
    assert np.abs(qc.apply_local(op, vec, axes) - u @ vec).max() < 1e-12
    assert np.abs(qc.apply_local(op, mat, axes) - u @ mat).max() < 1e-12
    assert np.abs(conjugate_local(op, rho, axes)
                  - u @ rho @ qc.dagger(u)).max() < 1e-11
    # a stack of ops acts entry by entry on a stack of states
    ops = cplx(3, 2 ** k, 2 ** k)
    vecs, mats, rhos = cplx(3, 2 ** n), cplx(3, 2 ** n, 3), cplx(3, 2 ** n, 2 ** n)
    got_vec, got_mat = qc.apply_local(ops, vecs, axes), qc.apply_local(ops, mats, axes)
    got_rho = conjugate_local(ops, rhos, axes)
    for s in range(3):
        u = full_operator(ops[s], axes, n)
        assert np.abs(got_vec[s] - u @ vecs[s]).max() < 1e-12
        assert np.abs(got_mat[s] - u @ mats[s]).max() < 1e-12
        assert np.abs(got_rho[s] - u @ rhos[s] @ qc.dagger(u)).max() < 1e-11


def test_z_signs_table():
    for n in range(1, 7):
        z = qc.z_signs(n)
        assert z.shape == (n, 2 ** n) and not z.flags.writeable
        for x in range(2 ** n):
            bits = format(x, f"0{n}b")
            for q in range(n):
                assert z[q, x] == 1 - 2 * int(bits[q])


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_ising_diagonal_matches_the_pair_loop(n):
    r = np.random.default_rng(n)
    h, j = r.normal(size=n), r.normal(size=(n, n))
    z = qc.z_signs(n)
    want = np.zeros(2 ** n)
    for a in range(n):
        for b in range(a + 1, n):
            want = want + j[a, b] * z[a] * z[b]
    # no fields: the pair rows alone, the values that zero fields give
    assert np.array_equal(qc.ising_diagonal(None, j), want)
    assert np.array_equal(qc.ising_diagonal(None, j), qc.ising_diagonal(np.zeros(n), j))
    for a in range(n):
        want = want + h[a] * z[a]
    # the same sum in the same order: equal to the last bit
    assert np.array_equal(qc.ising_diagonal(h, j), want)


def test_pauli_components_rebuild_the_matrix():
    r = np.random.default_rng(3)
    stack = r.normal(size=(5, 2, 2)) + 1j * r.normal(size=(5, 2, 2))
    c = qc.pauli_components(stack)
    assert c.shape == (5, 4)
    back = np.einsum("sp,pij->sij", c, np.array(qc.PAULIS))
    assert np.abs(back - stack).max() < 1e-15
    assert np.abs(qc.pauli_components(stack[0]) - c[0]).max() == 0.0


def test_json_round_trip():
    ch = qc.standard_channel("generalized_amplitude_damping", gamma=0.3, p=0.7)
    text = ch.to_json()
    back = qc.QuantumChannel.from_json(text)
    assert np.array_equal(qc.choi_of(back).mat, qc.choi_of(ch).mat)
    d = json.loads(text)
    assert d["dim_in"] == 2 and d["trace_preserving"] is True


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_channels(seed):
    r = np.random.default_rng(seed)
    dim = int(r.integers(2, 5))
    ch = qc.random_channel(dim, rng=r)
    back = qc.kraus_from_choi(qc.choi_of(ch))
    assert qc.channels_equal(ch, back, tol=1e-9)
    assert len(back.kraus) <= dim * dim


def _loop_choi(kraus):
    # one outer product per Kraus operator of its column-major vec
    return sum(np.outer(a.flatten(order="F"), a.flatten(order="F").conj()) for a in kraus)


def _loop_kraus(choi, tol):
    # one un-vectorized eigenvector per kept eigenvalue
    c = choi.as_unnormalized()
    w, v = np.linalg.eigh((c.mat + qc.dagger(c.mat)) / 2)
    return [math.sqrt(lam) * vec.reshape(c.dim_out, c.dim_in, order="F")
            for lam, vec in zip(w, v.T) if lam > tol]


@pytest.mark.parametrize("din, dout, k, scale", [
    (2, 3, 6, 1.0), (4, 2, 3, 1.0), (3, 3, 1, 1.0), (2, 2, 1, 1.0),
    (3, 2, 4, 0.8),   # non-TP: every operator shrunk
])
def test_stacked_kernels_match_the_per_kraus_loops(din, dout, k, scale):
    ch0 = qc.random_channel(din, dout, n_kraus=k, rng=np.random.default_rng(din * 10 + k))
    ops = [scale * a for a in ch0.kraus]
    ch = qc.QuantumChannel(ops)
    assert ch.trace_preserving == (scale == 1.0)
    assert len(ch.kraus) == k and all(np.array_equal(a, b) for a, b in zip(ch.kraus, ops))

    want = _loop_choi(ops)
    got = qc.choi_of(ch).mat
    assert got.shape == (din * dout, din * dout)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    s = sum(qc.dagger(a) @ a for a in ops)
    defect = np.abs(s - np.eye(din)).max()
    assert abs(ch._completeness_defect - defect) <= 1e-15 * np.abs(s).max()

    back = qc.kraus_from_choi(qc.ChoiMatrix(want, din, dout))
    loop = _loop_kraus(qc.ChoiMatrix(want, din, dout), qc.DEFAULT_TOL)
    assert len(back.kraus) == len(loop)
    top = max(np.abs(a).max() for a in loop)
    assert all(np.abs(a - b).max() <= 1e-15 * top for a, b in zip(back.kraus, loop))


def test_canonical_kraus_orthogonality():
    # canonical Kraus operators are mutually orthogonal under tr(A†B)
    ch = qc.random_channel(3, rng=np.random.default_rng(5))
    back = qc.kraus_from_choi(qc.choi_of(ch))
    for i, a in enumerate(back.kraus):
        for j, b in enumerate(back.kraus):
            ip = np.trace(qc.dagger(a) @ b)
            if i != j:
                assert abs(ip) < 1e-9


def test_tomography_method1_phase_damping():
    ch = qc.standard_channel("phase_damping", p=0.25)
    got = qc.tomography_method1(lambda rho: qc.apply(ch, rho), 2)
    assert qc.channels_equal(got, ch, tol=1e-8)


def chi_equations_by_loops(oracle, rhos, op_basis):
    """lambda and kappa of method 1, one solve per output and per product."""
    d2 = len(rhos)
    r_cols = np.column_stack([m.reshape(-1) for m in rhos])
    lam = np.array([np.linalg.solve(r_cols, oracle(rho).reshape(-1)) for rho in rhos])
    kappa = np.empty((d2 * d2, d2 * d2), dtype=complex)
    for m, bm in enumerate(op_basis):
        for n, bn in enumerate(op_basis):
            for i, rho in enumerate(rhos):
                kappa[i * d2:(i + 1) * d2, m * d2 + n] = np.linalg.solve(
                    r_cols, (bm @ rho @ qc.dagger(bn)).reshape(-1))
    return lam, kappa


def chi_by_loops(oracle, rhos, op_basis, tol=qc.DEFAULT_TOL):
    """Method 1 through its chi equations: chi solved from lambda = kappa ·
    chi, and one Kraus operator per kept eigenvalue of chi."""
    lam, kappa = chi_equations_by_loops(oracle, rhos, op_basis)
    d2 = len(rhos)
    chi = np.linalg.solve(kappa, lam.reshape(-1)).reshape(d2, d2)
    w, v = np.linalg.eigh((chi + qc.dagger(chi)) / 2)
    return qc.QuantumChannel([math.sqrt(lam_k) * sum(c * b for c, b in zip(col, op_basis))
                              for lam_k, col in zip(w, v.T) if lam_k > tol])


@pytest.mark.parametrize("dim, basis", [(2, "default"), (4, "default"), (2, "random"),
                                        (4, "random"), (2, "op"), (4, "op")])
def test_chi_equations_match_the_per_element_loops(dim, basis):
    # random input states, or a random operator basis that is neither
    # orthogonal nor normalized, in place of the default one
    r = np.random.default_rng(dim)
    ch = qc.random_channel(dim, n_kraus=2, rng=r)
    oracle = lambda rho: qc.apply(ch, rho)
    rhos = ([random_density(dim, r) for _ in range(dim * dim)] if basis == "random"
            else qc.default_state_basis(dim))
    ops = ([r.normal(size=(dim, dim)) + 1j * r.normal(size=(dim, dim))
            for _ in range(dim * dim)] if basis == "op"
           else qc.pauli_product_basis(dim.bit_length() - 1))
    got = qc.tomography_method1(oracle, dim, input_basis=rhos, op_basis=ops)
    assert qc.channels_equal(got, chi_by_loops(oracle, rhos, ops), tol=1e-9)
    assert qc.channels_equal(got, ch, tol=1e-9)


def test_tomography_method1_recovers_a_random_channel_on_three_qubits():
    # kappa would be 4096 x 4096 here; the Choi route solves a 64 x 64 system
    ch = qc.random_channel(8, rng=np.random.default_rng(8))
    got = qc.tomography_method1(lambda rho: qc.apply(ch, rho), 8)
    assert qc.channels_equal(got, ch, tol=1e-9)


def test_tomography_method1_refuses_an_operator_basis_that_does_not_span():
    # B_3 = B_2 left Z out of reach: the least-squares chi gave a 3-Kraus
    # channel whose Choi matrix missed depolarizing's by 0.067
    ch = qc.standard_channel("depolarizing", p=0.2)
    ops = qc.pauli_product_basis(1)
    ops[3] = ops[2]
    with pytest.raises(ValueError, match=r"\bop_basis\b"):
        qc.tomography_method1(lambda rho: qc.apply(ch, rho), 2, op_basis=ops)


@pytest.mark.parametrize("s", [1e-6, 1e-4, 1.0, 1e5, 1e150])
def test_tomography_method1_does_not_depend_on_the_op_basis_scale(s):
    # chi scales as 1/s²: thresholds absolute on chi refused s = 1e-6 as not
    # completely positive, kept a third operator at 1e-4 and none at 1e5
    ch = qc.standard_channel("amplitude_damping", gamma=0.3)
    oracle = lambda rho: qc.apply(ch, rho)
    ref = qc.tomography_method1(oracle, 2)
    got = qc.tomography_method1(oracle, 2, op_basis=[s * b for b in qc.pauli_product_basis(1)])
    assert len(got.kraus) == len(ref.kraus) == 2
    assert qc.channels_equal(got, ref, tol=1e-9)


@pytest.mark.parametrize("name", ["op_basis", "input_basis"])
def test_tomography_method1_judges_span_against_the_basis_scale(name):
    # an absolute rank tolerance of 1e-10 refused both bases scaled by 1e-11
    # as not spanning; a rank-deficient basis at that scale is still refused
    ch = qc.standard_channel("amplitude_damping", gamma=0.3)
    oracle = lambda rho: qc.apply(ch, rho)
    basis = qc.pauli_product_basis(1) if name == "op_basis" else qc.default_state_basis(2)
    got = qc.tomography_method1(oracle, 2, **{name: [1e-11 * b for b in basis]})
    assert qc.channels_equal(got, qc.tomography_method1(oracle, 2), tol=1e-9)
    basis[3] = basis[2]
    with pytest.raises(ValueError, match=rf"\b{name}\b does not span"):
        qc.tomography_method1(oracle, 2, **{name: [1e-11 * b for b in basis]})


def test_tomography_method1_refuses_a_basis_whose_squared_norm_overflows():
    ops = [1e200 * b for b in qc.pauli_product_basis(1)]
    with pytest.raises(ValueError, match=r"\bop_basis\b"):
        qc.tomography_method1(lambda rho: rho, 2, op_basis=ops)


def test_both_tomography_routes_give_the_zero_map_one_zero_operator():
    # method 1 raised "channel needs at least one Kraus operator" here
    zero = lambda rho: 0 * rho
    got1, got2 = qc.tomography_method1(zero, 2), qc.tomography_method2(zero, 2)
    assert got1.kraus.shape == got2.kraus.shape == (1, 2, 2)
    assert not got1.kraus.any() and not got2.kraus.any()
    assert qc.channels_equal(got1, got2)


def test_tomography_method2_phase_damping():
    ch = qc.standard_channel("phase_damping", p=0.25)
    got = qc.tomography_method2(lambda rho: qc.apply(ch, rho), 2)
    assert qc.channels_equal(got, ch, tol=1e-8)


def test_tomography_methods_agree_dim4():
    r = np.random.default_rng(11)
    ch = qc.random_channel(4, n_kraus=3, rng=r)
    oracle = lambda rho: qc.apply(ch, rho)
    got1 = qc.tomography_method1(oracle, 4)
    got2 = qc.tomography_method2(oracle, 4)
    assert qc.channels_equal(got1, ch, tol=1e-8)
    assert qc.channels_equal(got2, ch, tol=1e-8)
    assert qc.channels_equal(got1, got2, tol=1e-8)


def test_tomography_method2_joint_state_input():
    ch = qc.standard_channel("amplitude_damping", gamma=0.4)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    pp = np.outer(phi, phi.conj())
    joint = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            joint[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2] = qc.apply(
                ch, pp[i * 2:(i + 1) * 2, j * 2:(j + 1) * 2])
    got = qc.tomography_method2(joint_state=joint)
    assert qc.channels_equal(got, ch, tol=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tomography_method2_is_kraus_from_choi(d):
    ch = qc.random_channel(d, n_kraus=3, rng=np.random.default_rng(d))
    choi = qc.choi_of(ch)
    got = qc.tomography_method2(lambda r: qc.apply(ch, r), d)
    assert np.abs(qc.choi_of(got).mat - choi.mat).max() < 1e-14
    joint = qc.tomography_method2(joint_state=choi.as_state().mat)
    assert np.abs(qc.choi_of(joint).mat - choi.mat).max() < 1e-14


@pytest.mark.parametrize("joint", [np.eye(6) / 6, np.eye(4)[:, :2], np.eye(3) / 3,
                                   np.float64(1.0)], ids=["6x6", "4x2", "3x3", "scalar"])
def test_tomography_method2_rejects_a_joint_state_of_wrong_side(joint):
    with pytest.raises(ValueError, match="joint_state"):
        qc.tomography_method2(joint_state=joint)


def test_deviation_map_unital_offset_zero():
    ch = qc.standard_channel("depolarizing", p=0.3)
    offset, lin = qc.deviation_map(ch)
    assert np.abs(offset).max() < 1e-12
    dev = qc.SZ * 0.2
    assert np.abs(lin(dev) - qc.apply(ch, dev)).max() < 1e-12


def test_deviation_map_tracks_normalized_evolution():
    ch = qc.standard_channel("amplitude_damping", gamma=0.35)
    offset, lin = qc.deviation_map(ch)
    rho = random_density(2)
    dev = rho - np.eye(2) / 2
    evolved_dev = offset + lin(dev)
    assert np.abs((np.eye(2) / 2 + evolved_dev) - qc.apply(ch, rho)).max() < 1e-12


def test_linear_rep_phase_damping():
    p = 0.3
    rep = qc.linear_rep(qc.standard_channel("phase_damping", p=p))
    assert rep.trace_preserving and rep.unital
    expect = np.diag([1 - 2 * p, 1 - 2 * p, 1.0])
    assert np.abs(rep.m - expect).max() < 1e-12


def test_linear_rep_amplitude_damping_affine():
    g = 0.4
    rep = qc.linear_rep(qc.standard_channel("amplitude_damping", gamma=g))
    assert rep.trace_preserving and not rep.unital
    assert np.abs(rep.v2 - np.array([0, 0, g])).max() < 1e-12
    expect = np.diag([math.sqrt(1 - g), math.sqrt(1 - g), 1 - g])
    assert np.abs(rep.m - expect).max() < 1e-12


def test_choi_of_map_refuses_images_of_the_wrong_shape():
    # a 1 x 1 or length-2 image would broadcast into its 2 x 2 block
    for act in (lambda rho: rho[:1, :1], lambda rho: np.zeros(2), lambda rho: np.eye(3)):
        with pytest.raises(ValueError, match="2 x 2"):
            qc.choi_of_map(act, 2)
        with pytest.raises(ValueError, match="2 x 2"):
            qc.is_cp(act, 2)


def test_is_cp_detects_transpose():
    # the transpose map is positive but not completely positive
    rep = qc.LinearRep(1.0, np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    ok, wmin = qc.is_cp(rep)
    assert not ok and wmin < -0.4
    good = qc.linear_rep(qc.standard_channel("depolarizing", p=0.2))
    ok, _ = qc.is_cp(good)
    assert ok


def test_su2_from_so3_round_trip():
    r = np.random.default_rng(3)
    for _ in range(50):
        u = qc.random_unitary(2, r)
        u = u / np.sqrt(np.linalg.det(u))  # special unitary
        rot = np.empty((3, 3))
        for j, sj in enumerate((qc.SX, qc.SY, qc.SZ)):
            out = u @ sj @ qc.dagger(u)
            for i, si in enumerate((qc.SX, qc.SY, qc.SZ)):
                rot[i, j] = np.real(np.trace(si @ out)) / 2
        lifted = qc.su2_from_so3(rot)
        assert qc.unitaries_equal_up_to_phase(lifted, u, tol=1e-9)


def test_unital_decompose_pauli_mixture():
    terms_in = [(0.5, qc.I2), (0.3, qc.SX), (0.2, qc.SZ)]
    ch = qc.QuantumChannel([math.sqrt(p) * u for p, u in terms_in])
    terms = qc.unital_qubit_decompose(ch)
    probs = sorted(p for p, _ in terms)
    assert abs(sum(probs) - 1.0) < 1e-10
    assert np.abs(np.array(probs) - np.array([0.2, 0.3, 0.5])).max() < 1e-10
    rebuilt = qc.QuantumChannel([math.sqrt(p) * u for p, u in terms])
    assert qc.channels_equal(rebuilt, ch, tol=1e-9)


def test_unital_decompose_random_mixtures():
    r = np.random.default_rng(17)
    for _ in range(20):
        k = int(r.integers(2, 5))
        w = r.dirichlet(np.ones(k))
        us = [qc.random_unitary(2, r) for _ in range(k)]
        ch = qc.QuantumChannel([math.sqrt(p) * u for p, u in zip(w, us)])
        terms = qc.unital_qubit_decompose(ch)
        assert abs(sum(p for p, _ in terms) - 1.0) < 1e-9
        assert min(p for p, _ in terms) > -1e-10
        rebuilt = qc.QuantumChannel([math.sqrt(p) * u for p, u in terms])
        assert qc.channels_equal(rebuilt, ch, tol=1e-8)


def test_unital_decompose_rejects_reflection():
    # Bloch reflection: positive, trace preserving, unital, but not CP
    rep = qc.LinearRep(1.0, np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(qc.NotCompletelyPositiveError):
        qc.unital_qubit_decompose(rep)


def test_inversion_needs_half_depolarizing():
    # flipping the whole Bloch ball is only CP after mixing in at least
    # half depolarization; the worst weight at parameter p is exactly p - 1/2
    def composed(p):
        dep = qc.linear_rep(qc.standard_channel("depolarizing", p=p))
        return qc.bloch_inversion().compose(dep)

    for p in (0.5, 0.5 + 1e-6, 0.75, 1.0):
        terms = qc.unital_qubit_decompose(composed(p))
        assert min(q for q, _ in terms) > -1e-10
    for p in (0.0, 0.3, 0.5 - 1e-6):
        with pytest.raises(qc.NotCompletelyPositiveError):
            qc.unital_qubit_decompose(composed(p))
    ok, wmin = qc.is_cp(composed(0.3))
    assert not ok and wmin < -0.01


def test_qutrit_extreme_channel():
    ch, rank = qc.qutrit_extreme_channel()
    assert ch.trace_preserving
    assert rank == 9
    # unital: maximally mixed state is fixed
    eye3 = np.eye(3, dtype=complex) / 3
    assert np.abs(qc.apply(ch, eye3) - eye3).max() < 1e-12


def test_channel_rejects_overcomplete_kraus():
    with pytest.raises(ValueError):
        qc.QuantumChannel([np.eye(2), 0.5 * qc.SX])


@pytest.mark.parametrize("make, name", [
    # a NaN channel was accepted as non-TP, with a NaN completeness defect
    (lambda: qc.QuantumChannel([[[math.nan, 0], [0, 1]]]), "kraus"),
    (lambda: qc.QuantumChannel([[[math.inf, 0], [0, 1]]]), "kraus"),
    # a 1-D or 3-D operator failed in tuple unpacking
    (lambda: qc.QuantumChannel([[1, 0]]), "kraus"),
    (lambda: qc.QuantumChannel([np.ones((1, 2, 2))]), "kraus"),
    (lambda: qc.QuantumChannel(np.eye(2)), "kraus"),
    # a NaN Choi matrix raised LinAlgError from eigh
    (lambda: qc.kraus_from_choi(qc.ChoiMatrix(np.full((4, 4), math.nan), 2, 2)), "choi"),
    (lambda: qc.kraus_from_choi(qc.ChoiMatrix(np.eye(3), 2, 2)), "choi"),
    # an unknown normalization was read as "state", and a float dimension
    # raised TypeError in the reshape
    (lambda: qc.ChoiMatrix(np.eye(4), 2, 2, "unnormalized"), "normalization"),
    (lambda: qc.ChoiMatrix(np.eye(4), 2.0, 2), "dim_in"),
    (lambda: qc.ChoiMatrix(np.eye(4), 2, 0), "dim_out"),
    # method 1 raised LinAlgError from eigh, numpy's solve message, or
    # LinAlgError from the rank test's SVD
    (lambda: qc.tomography_method1(lambda rho: np.full((2, 2), math.nan), 2), "oracle"),
    (lambda: qc.tomography_method1(lambda rho: np.full((2, 2), math.inf), 2), "oracle"),
    (lambda: qc.tomography_method1(lambda rho: np.eye(3), 2), "oracle"),
    (lambda: qc.tomography_method1(lambda rho: rho, 2, input_basis=[np.full((2, 2), math.nan)] * 4),
     "input_basis"),
    (lambda: qc.tomography_method1(lambda rho: rho, 2, op_basis=[np.full((2, 2), math.inf)] * 4),
     "op_basis"),
    (lambda: qc.tomography_method1(lambda rho: rho, 2, input_basis=[np.eye(2)] * 4),
     "input_basis"),
])
def test_malformed_channels_are_refused_by_name(make, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        make()


@pytest.mark.parametrize("cutoff", [2.5, -1])
def test_bosonic_ad_cutoff_must_be_nonnegative_integer(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        qc.standard_channel("bosonic_ad", gamma=0.1, cutoff=cutoff)


def _old_check_int_accepts(value, least):
    # the verdict before plain ints skipped the ABC check
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least)


@settings(max_examples=300)
@given(value=st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(),
                       st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.fractions()),
       least=st.integers(-3, 3))
def test_check_int_keeps_its_verdict(value, least):
    try:
        qc.check_int("v", value, least)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted is bool(_old_check_int_accepts(value, least))


# finite, non-finite, non-integer and out-of-range scalars; valid dimensions
# stay small, since a Pauli basis on n qubits holds 4^n matrices
SCALARS = st.one_of(
    st.integers(-3, 4),
    st.integers(-3, 4).map(np.int64),
    st.integers(-3, 4).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)

ENTRY_POINTS = {
    "standard_channel.p": lambda v: qc.standard_channel("depolarizing", p=v),
    "standard_channel.gamma": lambda v: qc.standard_channel(
        "generalized_amplitude_damping", gamma=v, p=0.3),
    "standard_channel.cutoff": lambda v: qc.standard_channel("bosonic_ad", gamma=0.1,
                                                             cutoff=v),
    "pauli_product_basis": lambda v: qc.pauli_product_basis(v),
    "default_state_basis": lambda v: qc.default_state_basis(v),
    "choi_of_map": lambda v: qc.choi_of_map(lambda rho: rho, v),
    "tomography_method1.dim": lambda v: qc.tomography_method1(lambda rho: rho, v),
    "tomography_method2.dim": lambda v: qc.tomography_method2(lambda rho: rho, v),
    "is_cp.dim": lambda v: qc.is_cp(lambda rho: rho, v),
    "random_unitary": lambda v: qc.random_unitary(v, np.random.default_rng(0)),
    "random_channel.dim_in": lambda v: qc.random_channel(v, rng=np.random.default_rng(0)),
    "random_channel.dim_out": lambda v: qc.random_channel(2, v, rng=np.random.default_rng(0)),
    "random_channel.n_kraus":
        lambda v: qc.random_channel(2, n_kraus=v, rng=np.random.default_rng(0)),
    "QuantumChannel.kraus": lambda v: qc.QuantumChannel([[[v, 0], [0, 0.5]]]),
    "kraus_from_choi.choi":
        lambda v: qc.kraus_from_choi(qc.ChoiMatrix(np.diag([v, 0.5, 0.0, 0.5]), 2, 2)),
    "kraus_from_choi.dim_in": lambda v: qc.kraus_from_choi(qc.ChoiMatrix(np.eye(4) / 2, v, 2)),
    # 1 and 2 name the two normalizations; any other value is refused
    "kraus_from_choi.normalization": lambda v: qc.kraus_from_choi(qc.ChoiMatrix(
        np.eye(4) / 2, 2, 2, {1: "state", 2: "unnormalized-Y"}.get(v, v))),
    "tomography_method1.oracle": lambda v: qc.tomography_method1(lambda rho: _scaled(v, rho), 2),
    "tomography_method1.op_basis": lambda v: qc.tomography_method1(
        lambda rho: rho, 2, op_basis=[_scaled(v, b) for b in qc.pauli_product_basis(1)]),
}


def _scaled(v, m):
    # v·m, where inf·0 is NaN without a warning: the entry point must refuse
    # what it is given, not the arithmetic that built it
    with np.errstate(invalid="ignore"):
        return v * m


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(deadline=None, max_examples=40)
@given(v=SCALARS)
@example(v=math.nan)
@example(v=math.inf)
@example(v=-1)
@example(v=2.5)
@example(v=2.0)
@example(v=np.int64(2))
def test_entry_points_return_or_raise_value_error(name, v, all_finite):
    try:
        out = ENTRY_POINTS[name](v)
    except ValueError:
        return
    assert all_finite(out), out
