import hashlib
import io
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

from qwork import nmr_sim as nm
from qwork import qop_core as qc


def rand_deviation(n, rng):
    dim = 2 ** n
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def sequence_unitary(system, events):
    """Compose the ideal (scale-1) unitary of a pulse/delay list."""
    dim = 2 ** system.n

    def site(op, spin):
        return qc.kron_all(*(op if q == spin else qc.I2
                             for q in range(system.n)))

    u = np.eye(dim, dtype=complex)
    signs = [np.diag(site(qc.SZ, i)).real for i in range(system.n)]
    for ev in events:
        if ev.kind == "pulse":
            step = site(nm._rot2(ev.axis, ev.angle), ev.spin)
        else:
            total = np.zeros(dim)
            for i in range(system.n):
                for k in range(i + 1, system.n):
                    total = total + system.coupling(i, k) * ev.duration \
                        * signs[i] * signs[k]
            step = np.diag(np.exp(-1j * total))
        u = step @ u
    return u


# ------------------------------------------------------------- spin systems

def test_formate_parameters():
    s = nm.formate_system()
    assert s.n == 2
    assert s.omega[0] / (2 * math.pi) == 500e6
    assert s.omega[1] / (2 * math.pi) == 125e6
    assert s.j[0][1] == 195.0
    assert s.t2_star == (0.35, 0.50)
    assert s.t1 == (9.0, 13.5)


def test_chloroform_variants():
    carbon = nm.chloroform_system("carbon")
    proton = nm.chloroform_system("proton")
    assert carbon.t2_star == (0.13, 0.53)
    assert proton.t2_star == (0.92, 0.16)
    # input spin first: carbon-input puts the low-gamma nucleus up front
    assert carbon.omega[0] < carbon.omega[1]
    assert proton.omega[0] > proton.omega[1]
    with pytest.raises(ValueError):
        nm.chloroform_system("silicon")


def test_spin_system_validation():
    with pytest.raises(ValueError):
        nm.SpinSystem(omega=(1.0, 1.0), j=((0.0, 1.0), (2.0, 0.0)),
                      t2_star=(1.0, 1.0))
    with pytest.raises(ValueError):
        nm.SpinSystem(omega=(1.0,), j=((1.0,),), t2_star=(1.0,))
    with pytest.raises(ValueError):
        nm.SpinSystem(omega=(1.0,), j=((0.0,),), t2_star=(0.0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            nm.SpinSystem(omega=(bad,), j=((0.0,),), t2_star=(1.0,))
        with pytest.raises(ValueError):
            nm.SpinSystem(omega=(1.0,), j=((0.0,),), t2_star=(bad,))
        with pytest.raises(ValueError, match="t1"):
            nm.SpinSystem(omega=(1.0, 1.0), j=((0.0, 1.0), (1.0, 0.0)),
                          t2_star=(1.0, 1.0), t1=(bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            nm.SpinSystem(omega=(1.0,) * 3, t2_star=(1.0,) * 3,
                          j=((0.0, 1.0, bad), (1.0, 0.0, 1.0), (bad, 1.0, 0.0)))


def test_json_round_trip_exact():
    for s in (nm.formate_system(), nm.chloroform_system("carbon"),
              nm.chloroform_system("proton")):
        assert nm.SpinSystem.from_json(s.to_json()) == s


def test_storage_grid():
    s = nm.formate_system()
    grid = nm.storage_grid(s)
    assert grid == tuple(m / 195.0 for m in (0, 12, 24, 36, 48, 60))
    assert len(nm.THETA_GRID) == 11
    assert nm.THETA_GRID[-1] == pytest.approx(math.pi)


# ------------------------------------------------------------------ events

def test_event_constructors():
    p = nm.pulse(1, "y", -math.pi / 2)
    assert p.kind == "pulse" and p.scale_sensitive
    d = nm.delay(0.1, dephase=True, refocus=(1, 1, 0))
    assert d.refocus == (0, 1)
    with pytest.raises(ValueError):
        nm.pulse(0, "z", 1.0)
    with pytest.raises(ValueError):
        nm.delay(-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            nm.delay(bad)


def test_dephase_probability():
    assert nm.dephase_probability(0.0, 0.35) == 0.0
    # long delays saturate at a coin flip
    assert nm.dephase_probability(1e6, 0.35) == pytest.approx(0.5)
    p = nm.dephase_probability(0.2, 0.35)
    assert 1 - 2 * p == pytest.approx(math.exp(-0.2 / 0.35), abs=1e-15)


def test_thermal_state_diagonal():
    s = nm.formate_system()
    th = nm.thermal_state(s)
    wa, wb = s.omega
    expect = np.diag([(wa + wb) / 2, (wa - wb) / 2,
                      (-wa + wb) / 2, (-wa - wb) / 2])
    assert np.allclose(th, expect, atol=1e-6)
    assert nm.thermal_scale(s) > 0


def test_delay_only_is_unital():
    s = nm.formate_system()
    assert nm.identity_offset(s, [nm.delay(0.07, dephase=True)]) == 0.0
    # refocused storage inserts real pulses, so only float-level deviation
    events = [nm.delay(0.02, dephase=True, refocus=(1,))]
    assert nm.identity_offset(s, events) < 1e-12


def test_zero_duration_delay_is_noop():
    s = nm.formate_system()
    rng = np.random.default_rng(5)
    rho = rand_deviation(2, rng)
    ev = [nm.delay(0.0, dephase=True, refocus=(1,), t1_relax=True)]
    out = nm.run_sequence(s, rho, ev)
    assert np.array_equal(out, rho)
    # even with RF noise switched on: no pulses are emitted, so no effect
    noisy = nm.run_sequence(s, rho, ev, rf=nm.RfModel.lorentzian(nodes=4))
    assert np.max(np.abs(noisy - rho)) < 1e-12


def test_refocused_delay_equals_pure_dephasing():
    # arbitrary coupling: the ancilla flips cancel the J phase exactly
    rng = np.random.default_rng(11)
    s = nm.SpinSystem(omega=(1.0, 0.25), j=((0.0, 37.3), (37.3, 0.0)),
                      t2_star=(0.21, 0.34))
    rho = rand_deviation(2, rng)
    t = 0.123
    out = nm.run_sequence(s, rho, [nm.delay(t, dephase=True, refocus=(1,))])
    signs = qc.z_signs(2)
    expect = np.array(rho)
    for i in range(2):
        p = nm.dephase_probability(t, s.t2_star[i])
        expect = expect * ((1 - p) + p * np.outer(signs[i], signs[i]))
    assert np.max(np.abs(out - expect)) < 1e-12


def test_t1_relaxation_step():
    s = nm.formate_system()
    rho = np.kron(np.diag([1.0, -1.0]), np.eye(2)) * 3.0   # 6 * Za/2
    t = 2.5
    out = nm.run_sequence(s, rho, [nm.delay(t, t1_relax=True)])
    decay_a = math.exp(-t / s.t1[0])
    decay_b = math.exp(-t / s.t1[1])
    za = 3.0 * decay_a + (1 - decay_a) * s.omega[0] / 2.0
    zb = (1 - decay_b) * s.omega[1] / 2.0   # b recovers toward thermal too
    expect = np.kron(np.diag([za, -za]), np.eye(2)) \
        + np.kron(np.eye(2), np.diag([zb, -zb]))
    assert np.max(np.abs(out - expect)) < 1e-6 * s.omega[0]


def test_t1_requires_configuration():
    s = nm.SpinSystem(omega=(1.0, 1.0), j=((0.0, 10.0), (10.0, 0.0)),
                      t2_star=(1.0, 1.0))
    with pytest.raises(ValueError):
        nm.run_sequence(s, np.eye(4, dtype=complex),
                        [nm.delay(0.5, t1_relax=True)])


def storage_outputs(*args, **kwargs):
    out = nm.two_bit_experiment(*args, **kwargs)
    return np.array(out["accepted"] + out["rejected"])


@pytest.mark.parametrize("mode", ["coded", "control"])
def test_t1_storage_relaxes_in_the_state_normalization(mode):
    # the storage experiment reports omega_a-normalized sums of two labeled
    # runs, so T1 has to pull the state toward its equilibrium in those
    # units: the outputs cannot depend on the overall frequency scale, and
    # a practically infinite t1 must change nothing
    s = nm.formate_system()
    scaled = nm.SpinSystem(omega=tuple(10 * w for w in s.omega), j=s.j,
                           t2_star=s.t2_star, t1=s.t1)
    frozen = nm.SpinSystem(omega=s.omega, j=s.j, t2_star=s.t2_star,
                           t1=(1e12, 1e12))
    for theta in (0.0, 0.9, math.pi / 2, math.pi):
        for td in nm.storage_grid(s)[::2] + (0.3077,):
            out = storage_outputs(theta, td, mode, system=s, t1_relax=True)
            again = storage_outputs(theta, td, mode, system=scaled, t1_relax=True)
            assert np.max(np.abs(again - out)) < 1e-12
            slow = storage_outputs(theta, td, mode, system=frozen, t1_relax=True)
            plain = storage_outputs(theta, td, mode, system=s)
            assert np.max(np.abs(slow - plain)) < 1e-12
            if mode == "control":
                assert -1.0 <= out[1] <= 1.0


# ----------------------------------------------------------------- readout

def _looped_peak_integrals(rho):
    """The lines of a 2^n x 2^n deviation by a loop over spins and partner
    bits, one coherence at a time: the reference nm._lines must match to the
    byte."""
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    r = rho.reshape([2] * (2 * n))
    lines = {}
    for i in range(n):
        r2 = np.moveaxis(r, (i, n + i), (0, 1))
        up = r2[0, 1].reshape(2 ** (n - 1), 2 ** (n - 1))
        dn = r2[1, 0].reshape(2 ** (n - 1), 2 ** (n - 1))
        for bits in itertools.product((0, 1), repeat=n - 1):
            s = 0
            for b in bits:
                s = 2 * s + b
            cx = (up[s, s] + dn[s, s]) / 2.0
            cy = (1j * up[s, s] - 1j * dn[s, s]) / 2.0
            lines[(i, bits)] = complex(-(1j * cx + cy))
    return lines


def _line_bytes(lines):
    return list(lines), np.array(list(lines.values()), dtype=complex).tobytes()


@pytest.mark.parametrize("n", range(7))
def test_lines_are_the_looped_readout_to_the_byte(n):
    # n = 0: a 1 x 1 deviation has no lines
    rng = np.random.default_rng(90 + n)
    rho = rand_deviation(n, rng)
    rho[rng.random(rho.shape) < 0.2] = 0.0      # signed zeros keep their sign too
    assert _line_bytes(nm.peak_integrals(rho)) == _line_bytes(_looped_peak_integrals(rho))
    stack = np.stack([rand_deviation(n, rng) for _ in range(3)], axis=-1)
    lines = nm._lines(stack)
    assert lines.shape == (n, 2 ** n // 2, 3)
    for t in range(3):
        want = np.array(list(_looped_peak_integrals(stack[..., t]).values()), dtype=complex)
        assert lines[..., t].tobytes() == want.tobytes()


@pytest.mark.parametrize("rho, match", [
    (3.0, "power-of-two"),
    (np.zeros((4, 2)), "power-of-two"),
    (np.zeros((3, 3)), "power-of-two"),
    (np.zeros((0, 0)), "power-of-two"),
    (np.full((4, 4), math.nan), "finite"),
    (np.diag([math.inf, 0.0, 0.0, 0.0]), "finite"),
    # each entry is finite; their sum in the line is not
    (np.array([[0.0, 1e308, 0.0, 0.0], [1e308, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]), "overflow"),
], ids=["scalar", "oblong", "three", "empty", "nan", "inf-diagonal", "overflow"])
def test_peak_integrals_refuses_what_has_no_finite_lines(rho, match):
    with pytest.raises(ValueError, match=f"rho.*{match}"):
        nm.peak_integrals(rho)


def test_thermal_state_has_no_lines():
    peaks = nm.peak_integrals(nm.thermal_state(nm.formate_system()))
    for v in peaks.values():
        assert v == 0


def test_readout_of_thermal_state():
    # quarter turn about x maps z onto the detected quadrature: both lines
    # of each spin come out equal, positive and real; partner bit 0 is the
    # low-frequency line, 1 the high one
    s = nm.formate_system()
    rho = nm.run_sequence(s, nm.thermal_state(s),
                          [nm.pulse(0, "x", math.pi / 2),
                           nm.pulse(1, "x", math.pi / 2)])
    peaks = nm.peak_integrals(rho)
    wa, wb = s.omega
    assert peaks[(0, (0,))] == pytest.approx(wa / 2)
    assert peaks[(0, (1,))] == pytest.approx(wa / 2)
    assert peaks[(1, (0,))] == pytest.approx(wb / 2)
    assert peaks[(1, (1,))] == pytest.approx(wb / 2)


def test_flip_then_readout_splits_lines():
    # a b-controlled flip of the input spin makes its two lines antiphase
    s = nm.formate_system()
    rho = nm.run_sequence(s, nm.thermal_state(s), nm.cnot_ba_events(s))
    rho = nm.run_sequence(s, rho, [nm.pulse(0, "x", math.pi / 2)])
    peaks = nm.peak_integrals(rho)
    wa = s.omega[0]
    assert peaks[(0, (0,))] == pytest.approx(wa / 2)
    assert peaks[(0, (1,))] == pytest.approx(-wa / 2)


def test_cnot_interchanges_populations():
    s = nm.formate_system()
    out = nm.run_sequence(s, nm.thermal_state(s), nm.cnot_ba_events(s))
    th = np.diag(nm.thermal_state(s))
    swapped = np.array([th[0], th[3], th[2], th[1]])
    assert np.allclose(np.diag(out), swapped, atol=1e-6)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-6


def _hand_expanded_tomography(prepare, tol=1e-8):
    """state_tomography with its model rows written out per unknown: the
    spin-a line is -(i*(c10 + s*c13) + c20 + s*c23) after the pulses, s the
    partner's sign, and the spin-b line likewise with the spins swapped."""
    tables = {axis: nm._rotation_table(axis) for axis in (None, "x", "y")}
    system = nm.SpinSystem(omega=(0.0, 0.0), j=((0.0, 0.0), (0.0, 0.0)),
                           t2_star=(1.0, 1.0))
    unknowns = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    col = {ij: k for k, ij in enumerate(unknowns)}
    rows, vals = [], []
    for ra, rb in itertools.product(tables, repeat=2):
        rho = np.asarray(prepare(), dtype=complex)
        events = []
        if ra:
            events.append(nm.pulse(0, ra, math.pi / 2))
        if rb:
            events.append(nm.pulse(1, rb, math.pi / 2))
        rot_a, rot_b = tables[ra], tables[rb]
        peaks = _looped_peak_integrals(nm.run_sequence(system, rho, events))
        for partner, sign in (((0,), 1.0), ((1,), -1.0)):
            for k, pick in ((1, "imag"), (2, "real")):
                row = np.zeros(len(unknowns))
                for (i, j), c in col.items():
                    row[c] = -rot_a[k, i] * (rot_b[0, j] + sign * rot_b[3, j])
                rows.append(row)
                v = peaks[(0, partner)]
                vals.append(v.imag if pick == "imag" else v.real)
            for k, pick in ((1, "imag"), (2, "real")):
                row = np.zeros(len(unknowns))
                for (i, j), c in col.items():
                    row[c] = -rot_b[k, j] * (rot_a[0, i] + sign * rot_a[3, i])
                rows.append(row)
                v = peaks[(1, partner)]
                vals.append(v.imag if pick == "imag" else v.real)
    a = np.array(rows)
    y = np.array(vals)
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    if np.max(np.abs(a @ sol - y)) > tol * max(1.0, float(np.max(np.abs(y)))):
        raise ValueError("inconsistent readout data")
    rec = np.zeros((4, 4), dtype=complex)
    for (i, j), c in col.items():
        rec = rec + sol[c] * np.kron(qc.PAULIS[i], qc.PAULIS[j])
    return rec


def test_tomography_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rho = rand_deviation(2, rng)
        rho = rho - np.trace(rho) / 4 * np.eye(4)   # traceless deviation
        rec = nm.state_tomography(lambda: rho)
        assert np.max(np.abs(rec - rho)) < 1e-10
        assert np.max(np.abs(rec - _hand_expanded_tomography(lambda: rho))) < 1e-13


def test_tomography_rejects_inconsistent_data():
    rng = np.random.default_rng(3)
    rho = rand_deviation(2, rng)
    calls = [0]

    def flaky():
        calls[0] += 1
        if calls[0] == 4:
            return rho + np.diag([1.0, -1.0, 0.0, 0.0]) * np.max(np.abs(rho))
        return rho

    with pytest.raises(ValueError):
        nm.state_tomography(flaky)


# ---------------------------------------------------------------- labeling

def test_temporal_label_two_runs():
    s = nm.formate_system()
    lab = nm.temporal_label(s, [None, nm.cnot_ba_events(s)])
    wa, wb = s.omega
    expect = wa * np.diag([1.0, 0.0, -1.0, 0.0]) \
        + wb * np.diag([1.0, -1.0, 1.0, -1.0])
    assert np.max(np.abs(lab - expect)) < 1e-6
    # a single identity prep just reproduces the thermal deviation
    one = nm.temporal_label(s, [None])
    assert np.array_equal(one, nm.thermal_state(s))


def test_temporal_label_refuses_matrix_preps():
    # a matrix prep was applied as u rho u^dagger: 2 I quadrupled the
    # label, NaN came out as NaN and 8 x 8 failed inside numpy's matmul
    for prep in (2 * np.eye(4), np.full((4, 4), np.nan), np.eye(8)):
        with pytest.raises(ValueError, match="events"):
            nm.temporal_label(nm.formate_system(), [None, prep])


def test_cyclic_label_ops():
    dim = 8
    ops = nm.cyclic_label_ops(dim)
    assert len(ops) == dim - 1
    rng = np.random.default_rng(17)
    d = rng.normal(size=dim)
    rho = np.diag(d)
    total = sum(p @ rho @ p.T for p in ops)
    rest = d[1:].sum()
    expect = rest * np.eye(dim) + ((dim - 1) * d[0] - rest) \
        * np.diag([1.0] + [0.0] * (dim - 1))
    assert np.max(np.abs(total - expect)) < 1e-12


def test_hybrid_label_three_spins():
    out = nm.hybrid_label(3, (3.0, 1.0, 1.0))
    # conditioned on the label spin |1>, the rest is a pure deviation
    assert np.allclose(out["lower_block"], np.diag([0.0, 0.0, 0.0, 4.0]))
    assert out["upper_block"][-1, -1] == pytest.approx(-6.0)
    assert out["gate_count"]["total"] == 2 + 8
    with pytest.raises(ValueError):
        nm.hybrid_label(1, (1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hybrid_label_rejects_non_finite_frequencies(bad):
    with pytest.raises(ValueError, match="omegas"):
        nm.hybrid_label(3, (bad, 1.0, 1.0))


def test_hybrid_label_two_spins():
    out = nm.hybrid_label(2, (2.0, 1.0))
    assert np.allclose(out["lower_block"], np.diag([0.0, 3.0]))
    assert out["gate_count"]["total"] == 2


def test_hybrid_label_returns_the_blocks_and_gate_count_only():
    # a dense 2^n x 2^n complex "state" went out too, and nothing read it
    out = nm.hybrid_label(4, (3.0, 1.0, 1.5, 2.0))
    assert set(out) == {"upper_block", "lower_block", "gate_count"}


def _bit_permutation(n, move):
    # the 0/1 matrix sending basis state j to move(j), qubit 0 the top bit
    dim = 2 ** n
    perm = np.zeros((dim, dim))
    for j in range(dim):
        perm[move(j), j] = 1.0
    return perm


@pytest.mark.parametrize("omegas", [(2.0, 1.0), (3.0, 1.0, 1.5, 2.0),
                                    (0.7, -2.0, 1.1, 0.4, 3.0)])
def test_hybrid_label_blocks_rebuild_the_full_diagonal(omegas):
    n = len(omegas)
    half = 2 ** (n - 1)
    z = np.diag([1.0, -1.0])
    thermal = sum(w / 2 * np.kron(np.kron(np.eye(2 ** i), z), np.eye(2 ** (n - 1 - i)))
                  for i, w in enumerate(omegas))
    fanout = np.eye(2 ** n)
    for t in range(1, n):   # one CNOT from spin 1 onto each other spin
        fanout = _bit_permutation(
            n, lambda j, t=t: j ^ (1 << (n - 1 - t)) if j & half else j) @ fanout
    flip = _bit_permutation(n, lambda j: j ^ half if j % half == half - 1 else j)
    labeled = flip @ ((thermal + fanout @ thermal @ fanout.T) / 2) @ flip.T
    out = nm.hybrid_label(n, omegas)
    diagonal = np.concatenate([(np.diag(out["upper_block"]) + omegas[0]) / 2,
                               (np.diag(out["lower_block"]) - omegas[0]) / 2])
    assert np.allclose(np.diag(diagonal), labeled, atol=1e-12)


def test_hybrid_label_memory_at_ten_spins():
    # the dense complex state alone was 16 MiB; the two real blocks are 2 each
    tracemalloc.start()
    try:
        nm.hybrid_label(10, np.linspace(1.0, 3.0, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


# --------------------------------------------------- constant-vs-balanced

def test_dj_constant_pure():
    for n in (1, 3, 5):
        out = nm.dj_thermal(n, lambda x: 1, 1.0)
        assert out["E"] == pytest.approx([1.0] * n, abs=1e-12)
        assert out["sum"] == pytest.approx(n, abs=1e-12)
        assert out["decision"] == "constant"


def test_dj_balanced_pure_bound():
    rng = np.random.default_rng(29)
    for n in (2, 4, 6):
        dim = 2 ** n
        table = np.zeros(dim, dtype=int)
        table[rng.permutation(dim)[:dim // 2]] = 1
        out = nm.dj_thermal(n, lambda x: table[x], 1.0)
        assert out["sum"] <= n - 2 + 1e-12
        assert out["decision"] == "balanced"


def _convolution_dj_reference(table, p_reg, p_work):
    # the thermal register simulated: a diagonal mixture in, so the pure
    # output distribution is XOR-convolved with the register's weights
    n = len(p_reg)
    dim = 2 ** n
    ghat = nm._fwht(1.0 - 2.0 * np.asarray(table)) / dim
    pvec = ghat * ghat
    weights = np.array([1.0])
    for pi in p_reg:
        weights = np.kron(weights, np.array([pi, 1.0 - pi]))
    pout = nm._fwht(nm._fwht(weights) * nm._fwht(pvec)) / dim
    scale = 2.0 * np.asarray(p_reg) - 1.0
    return p_work * (pout @ qc.z_signs(n).T) + (1.0 - p_work) * scale


@pytest.mark.parametrize("n", range(1, 13))
def test_dj_thermal_matches_the_convolution(n):
    rng = np.random.default_rng(40 + n)
    dim = 2 ** n
    balanced = np.zeros(dim, dtype=int)
    balanced[rng.permutation(dim)[:dim // 2]] = 1
    mixed = list(rng.uniform(0.0, 1.0, size=n))
    mixed[0] = 0.5
    mixed[-1] = 0.5 + 1e-9
    cases = [(0.7, [0.7] * n, 1.0), (0.5, [0.5] * n, 1.0), (0.2, [0.2] * n, 1.0),
             (mixed, mixed, 1.0), (mixed + [0.8], mixed, 0.8),
             ([0.9] * n + [0.3], [0.9] * n, 0.3)]
    for table in (np.ones(dim, dtype=int), balanced):
        for p, p_reg, p_work in cases:
            out = nm.dj_thermal(n, lambda x: table[x], p)
            want = _convolution_dj_reference(table, p_reg, p_work)
            assert np.abs(np.array(out["E"]) - want).max() < 1e-12


def test_dj_thermal_scaling_exact():
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 10):
        dim = 2 ** n
        table = np.zeros(dim, dtype=int)
        table[rng.permutation(dim)[:dim // 2]] = 1
        p = rng.uniform(0.05, 1.0, size=n + 1)
        out = nm.dj_thermal(n, lambda x: table[x], list(p))
        assert out["E"] == pytest.approx(
            list(_convolution_dj_reference(table, p[:n], p[n])), abs=1e-12)
        scale = 2 * p[:n] - 1
        assert out["E"] == pytest.approx(list(scale * out["E_pure"]),
                                         abs=1e-12)


def test_dj_decision_at_sixty_percent():
    # all qubits at p = 0.6 still separate constant from balanced
    for n in (3, 6):
        const = nm.dj_thermal(n, lambda x: 0, 0.6)
        assert const["decision"] == "constant"
        table = [(x ^ (x >> 1)) & 1 for x in range(2 ** n)]
        bal = nm.dj_thermal(n, lambda x: table[x], 0.6)
        assert bal["decision"] == "balanced"
        assert bal["sum"] < bal["threshold"] <= const["sum"]


@pytest.mark.parametrize("p", [0.0, 0.2, 0.4, [0.9, 0.5, 0.9]])
def test_dj_decides_with_registers_below_one_half(p):
    # 2p - 1 <= 0 flips a qubit's outputs; the decision reads through it,
    # except that a qubit at p = 0.5 leaves constant-looking outputs undecided
    parity = lambda x: bin(x).count("1") & 1
    const = nm.dj_thermal(3, lambda x: 0, p)
    bal = nm.dj_thermal(3, parity, p)
    assert const["decision"] == ("undecided" if 0.5 in np.atleast_1d(p)
                                 else "constant")
    assert bal["decision"] == "balanced"
    assert bal["sum"] < const["threshold"] < const["sum"]


def test_dj_undecided_without_signal():
    # a register at p = 0.5, or a work bit that never kicks back, gives the
    # same outputs for every oracle
    table = [x & 1 for x in range(8)]
    for p in (0.5, [0.5] * 3, [1.0, 0.9, 0.8, 0.0]):
        for f in (lambda x: 0, lambda x: table[x]):
            assert nm.dj_thermal(3, f, p)["decision"] == "undecided"
    # one informative qubit is enough to see a balanced oracle, but not to
    # call one constant: f(x) = bit of the p = 0.5 qubit gives the same
    # outputs as a constant oracle
    assert nm.dj_thermal(2, lambda x: x & 1,
                         [0.5, 1.0])["decision"] == "balanced"
    for f in (lambda x: 0, lambda x: (x >> 1) & 1):
        out = nm.dj_thermal(2, f, [0.5, 1.0])
        assert out["E"] == [0.0, 1.0] and out["decision"] == "undecided"


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_dj_never_calls_a_balanced_oracle_constant(n, data):
    dim = 2 ** n
    ones = data.draw(st.lists(st.integers(0, dim - 1), min_size=dim // 2,
                              max_size=dim // 2, unique=True))
    table = [int(x in ones) for x in range(dim)]
    prob = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                     st.floats(0.0, 1.0, allow_nan=False))
    p = data.draw(st.lists(prob, min_size=n, max_size=n + 1))
    assert nm.dj_thermal(n, lambda x: table[x], p)["decision"] != "constant"


def test_dj_rejects_other_oracles():
    with pytest.raises(ValueError):
        nm.dj_thermal(3, lambda x: int(x == 0), 1.0)
    with pytest.raises(ValueError):
        nm.dj_thermal(0, lambda x: 0, 1.0)
    with pytest.raises(ValueError):
        nm.dj_thermal(3, lambda x: 0, [0.5, 0.5])


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan, math.inf,
                               [0.6, 0.6, 1.2], [0.6, 0.6, 0.6, math.nan]])
def test_dj_rejects_probabilities_outside_unit_interval(p):
    with pytest.raises(ValueError, match=r"\bp="):
        nm.dj_thermal(3, lambda x: 0, p)


def test_dj_reads_p_as_one_probability_or_a_flat_list_of_them():
    # a 0-d array is its scalar; a nested list, text or a complex entry is
    # refused, where they raised TypeError or read '0.6' as 0.6
    f = lambda x: x & 1
    assert nm.dj_thermal(3, f, np.array(0.6)) == nm.dj_thermal(3, f, 0.6)
    assert nm.dj_thermal(3, f, np.full(4, 0.6)) == nm.dj_thermal(3, f, [0.6] * 4)
    for p in ([[0.6, 0.6, 0.6]], np.full((1, 3), 0.6), "0.6", ["0.6"] * 3,
              [0.6, 0.6, 0.6 + 0j], [0.6, [0.6], 0.6]):
        with pytest.raises(ValueError, match=r"\bp\b"):
            nm.dj_thermal(3, f, p)


# ----------------------------------------------------------------- RF model

def test_rf_calibration_hits_targets():
    rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=32)
    scales, weights = nm.rf_scale_sets(rf, 2)
    for ch, target in ((0, 0.96), (1, 0.92)):
        val = weights @ np.sin(scales[:, ch] * math.pi / 2)
        assert val == pytest.approx(target, abs=1e-9)


def test_rf_monte_carlo_deterministic_and_close():
    rf = nm.RfModel(kind="lorentzian",
                    widths=nm.RfModel.lorentzian().widths,
                    integration="monte-carlo", shots=4000, seed=7)
    def f():
        scales, weights = nm.rf_scale_sets(rf, 2)
        return weights @ np.sin(scales[:, 0] * math.pi / 2)
    v1 = f()
    v2 = f()
    assert v1 == v2
    assert v1 == pytest.approx(0.96, abs=5e-3)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=3), st.data())
def test_ensemble_stack_matches_per_row_runs(n, data):
    # the per-node meaning is the oracle: every scale row evolved on its
    # own, then weighted
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    j = np.triu(rng.uniform(5.0, 200.0, size=(n, n)), 1)
    system = nm.SpinSystem(omega=tuple(rng.uniform(0.5, 2.0, size=n)),
                           j=tuple(map(tuple, j + j.T)),
                           t2_star=tuple(rng.uniform(0.05, 1.0, size=n)),
                           t1=tuple(rng.uniform(0.05, 1.0, size=n)))
    events = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        if data.draw(st.booleans()):
            events.append(nm.pulse(
                int(rng.integers(n)), str(rng.choice(["x", "y"])),
                float(rng.uniform(-math.pi, math.pi)),
                scale_sensitive=data.draw(st.booleans())))
        else:
            events.append(nm.delay(
                float(rng.uniform(0.0, 0.02)), dephase=data.draw(st.booleans()),
                refocus=[q for q in range(n) if data.draw(st.booleans())],
                t1_relax=data.draw(st.booleans())))
    rf = nm.RfModel(kind="lorentzian", nodes=3,
                    widths=tuple(rng.uniform(0.02, 0.2, size=n)))
    rho = rand_deviation(n, rng)
    scales, weights = nm.rf_scale_sets(rf, n)
    assert scales.shape == (3 ** n, n)
    want = sum(w * nm._run_pure(system, rho, events, row[None])[..., 0]
               for row, w in zip(scales, weights))
    got = nm.run_sequence(system, rho, events, rf=rf)
    assert np.max(np.abs(got - want)) < 1e-13


def test_rf_none_matches_noiseless():
    out_none = nm.two_bit_experiment(0.3 * math.pi, 0.05, mode="coded",
                                     rf=nm.RfModel())
    out_absent = nm.two_bit_experiment(0.3 * math.pi, 0.05, mode="coded")
    assert out_none == out_absent


def test_rf_scale_sets_weights_normalized():
    rf = nm.RfModel.lorentzian(nodes=8)
    scales, weights = nm.rf_scale_sets(rf, 2)
    assert scales.shape == (64, 2) and weights.shape == (64,)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        nm.rf_scale_sets(nm.RfModel(kind="gaussian"), 2)


def test_rf_model_validation():
    good = nm.RfModel.lorentzian().widths
    for kw in (dict(kind="gaussian"), dict(integration="simpson"),
               dict(nodes=0), dict(shots=0), dict(shots=-3),
               dict(widths=(good[0], -0.01)), dict(widths=(0.0, good[1])),
               dict(widths=(math.nan, good[1])), dict(widths=(math.inf, good[1]))):
        with pytest.raises(ValueError):
            nm.RfModel(**{"kind": "lorentzian", "widths": good, **kw})
    with pytest.raises(ValueError, match="nodes"):
        nm.RfModel.lorentzian(nodes=0)
    with pytest.raises(ValueError, match="shots"):
        nm.RfModel.lorentzian(integration="monte-carlo", shots=0)


def test_zero_coupling_is_rejected():
    s = nm.formate_system()
    free = nm.SpinSystem(omega=s.omega, j=((0.0, 0.0), (0.0, 0.0)),
                         t2_star=s.t2_star)
    single = nm.SpinSystem(omega=(1.0,), j=((0.0,),), t2_star=(1.0,))
    for build in (nm.storage_grid, nm.cnot_ba_events, nm.encode_events,
                  nm.decode_events):
        with pytest.raises(ValueError, match="J01"):
            build(free)
        with pytest.raises(ValueError, match="two spins"):
            build(single)


def test_calibrate_width_input_checks():
    with pytest.raises(ValueError):
        nm.calibrate_width(1.5)
    with pytest.raises(ValueError):
        nm.calibrate_width(0.05)


@pytest.mark.parametrize("nodes", [1, 2, 4, 8, 12, 16, 32, 64])
def test_calibrate_width_matches_scipy_brentq_bit_for_bit(nodes):
    rule = np.polynomial.legendre.leggauss(nodes)

    def averaged(width):
        s, wt = nm._lorentz_nodes(width, rule)
        return float(np.sum(wt * np.sin(s * math.pi / 2.0)))

    for target in np.linspace(0.3, 0.995, 15):
        target = float(target)
        if averaged(0.8) > target:
            with pytest.raises(ValueError, match="too small"):
                nm.calibrate_width(target, nodes)
            continue
        want = brentq(lambda w: averaged(w) - target, 1e-6, 0.8, xtol=1e-14)
        assert nm.calibrate_width(target, nodes) == want


def test_brentq_failures():
    with pytest.raises(ValueError, match="different signs"):
        nm._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-14)
    with pytest.raises(RuntimeError, match="did not converge in 2"):
        nm._brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-14, maxiter=2)
    assert nm._brentq(lambda x: x - 0.25, 0.25, 1.0, xtol=1e-14) == 0.25


def test_lorentzian_widths_pinned():
    assert nm.RfModel.lorentzian((0.96, 0.92), nodes=32).widths == (
        0.11232244190413299, 0.16113331777243264)


def test_rf_scale_sets_built_once_and_read_only():
    rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=6)
    scales, weights = nm.rf_scale_sets(rf, 2)
    again = nm.rf_scale_sets(nm.RfModel(**vars(rf)), 2)
    assert again[0] is scales and again[1] is weights
    for arr in (scales, weights, *nm.rf_scale_sets(None, 3)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # the quadrature grid as built per call before the cache
    s, w = zip(*(nm._lorentz_nodes(width, np.polynomial.legendre.leggauss(6))
                 for width in rf.widths))
    assert scales.tobytes() == np.stack(
        [g.ravel() for g in np.meshgrid(*s, indexing="ij")], axis=-1).tobytes()
    assert weights.tobytes() == np.prod(
        [g.ravel() for g in np.meshgrid(*w, indexing="ij")], axis=0).tobytes()
    # widths given as a list are kept as a tuple, so the model stays hashable
    listed = nm.RfModel(kind="lorentzian", widths=list(rf.widths), nodes=6)
    assert listed == rf and nm.rf_scale_sets(listed, 2)[0] is scales


def test_labeled_input_built_once_per_system_and_rf_model(monkeypatch):
    rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=6)
    system = nm.chloroform_system()
    kw = dict(system=system, thetas=(0.0, 0.4, 1.1), tds=(0.01,), rf=rf)
    cached = nm._labeled_input
    cached.cache_clear()
    try:
        rows = nm.two_bit_sweep(**kw)
        info = cached.cache_info()
        # read once per evolution: 3 thetas x 36 scale sets fit one stack,
        # so one per (storage time, mode)
        assert 3 * 6 ** 2 <= nm._STACK_SETS
        assert (info.misses, info.hits) == (1, len(rows) // 3 - 1)
        stack = cached(system, rf)
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0] = 0.0
        assert stack.tobytes() == cached.__wrapped__(system, rf).tobytes()
        # the same rows, to the byte, from an input built for every point
        monkeypatch.setattr(nm, "_labeled_input", cached.__wrapped__)
        assert nm.two_bit_sweep(**kw) == rows
    finally:
        cached.cache_clear()


# ----------------------------------------------- two-spin storage pipeline

def test_encoder_decoder_matrices():
    s = nm.formate_system()
    for events, target in ((nm.encode_events(s), nm.ENCODER),
                           (nm.decode_events(s), nm.DECODER)):
        u = sequence_unitary(s, events)
        assert abs(np.trace(target.conj().T @ u)) == pytest.approx(4.0,
                                                                   abs=1e-12)
    # the decoder inverts the encoder
    prod = nm.DECODER @ nm.ENCODER
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


def test_eight_extra_pulses():
    s = nm.formate_system()
    extra = [e for e in nm.encode_events(s) + nm.decode_events(s)
             if e.kind == "pulse"]
    assert len(extra) == 8


def test_oracle_agreement_full_grid():
    s = nm.formate_system()
    worst = 0.0
    for td in nm.storage_grid(s):
        p_a = nm.dephase_probability(td, s.t2_star[0])
        p_b = nm.dephase_probability(td, s.t2_star[1])
        for theta in nm.THETA_GRID:
            for mode in ("coded", "control"):
                got = nm.two_bit_experiment(theta, td, mode=mode)
                want = nm.ideal_outputs(theta, p_a, p_b, mode=mode)
                for key in ("accepted", "rejected"):
                    for g, w in zip(got[key], want[key]):
                        worst = max(worst, abs(g - w))
    assert worst < 1e-12


def test_conditional_fidelity_identity():
    s = nm.formate_system()
    for td in nm.storage_grid(s)[1:]:
        p_a = nm.dephase_probability(td, s.t2_star[0])
        p_b = nm.dephase_probability(td, s.t2_star[1])
        pts = [(th, *nm.two_bit_experiment(th, td, mode="coded")["accepted"])
               for th in nm.THETA_GRID]
        got = nm.fidelity_delta(pts)
        keep = (1 - p_a) * (1 - p_b)
        assert abs(got - keep / (keep + p_a * p_b)) < 1e-12


def test_control_fidelity():
    s = nm.formate_system()
    td = nm.storage_grid(s)[2]
    p_a = nm.dephase_probability(td, s.t2_star[0])
    pts = [(th, *nm.two_bit_experiment(th, td, mode="control")["accepted"])
           for th in nm.THETA_GRID]
    assert abs(nm.fidelity_delta(pts) - (1 - p_a)) < 1e-12


def test_two_bit_input_validation():
    with pytest.raises(ValueError):
        nm.two_bit_experiment(-0.1, 0.0)
    with pytest.raises(ValueError):
        nm.two_bit_experiment(0.5, -1.0)
    with pytest.raises(ValueError):
        nm.two_bit_experiment(0.5, 0.0, mode="protected")
    s = nm.formate_system()
    unscaled = nm.SpinSystem(omega=(0.0, s.omega[1]), j=s.j, t2_star=s.t2_star)
    with pytest.raises(ValueError, match="normalized"):
        nm.two_bit_experiment(0.5, 0.0, system=unscaled)


def test_two_bit_experiment_needs_two_spins():
    three = nm.SpinSystem(omega=(1.0, 2.0, 3.0),
                          j=((0.0, 195.0, 10.0), (195.0, 0.0, 20.0),
                             (10.0, 20.0, 0.0)),
                          t2_star=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="two-spin system, got 3 spins"):
        nm.two_bit_experiment(0.5, 0.0, system=three)


def _pointwise_sweep(system=None, thetas=nm.THETA_GRID, tds=None, modes=("coded", "control"),
                     rf=None, t1_relax=False):
    """two_bit_sweep as one two_bit_experiment per point, the sweep before
    it evolved each (storage time, mode) as one stack over theta."""
    if system is None:
        system = nm.formate_system()
    if tds is None:
        tds = nm.storage_grid(system)
    rows = []
    for td in tds:
        for mode in modes:
            for theta in thetas:
                out = nm.two_bit_experiment(theta, td, mode=mode, rf=rf,
                                            system=system, t1_relax=t1_relax)
                rows.append({
                    "theta": theta, "td": td, "mode": mode,
                    "x_acc": out["accepted"][0], "z_acc": out["accepted"][1],
                    "x_rej": out["rejected"][0], "z_rej": out["rejected"][1],
                })
    return rows


SWEEP_CASES = {
    "rf-off": dict(),
    "quadrature-4": dict(rf=nm.RfModel.lorentzian(nodes=4)),
    "monte-carlo-32": dict(rf=nm.RfModel(kind="lorentzian",
                                         widths=nm.RfModel.lorentzian().widths,
                                         integration="monte-carlo", shots=32, seed=5)),
    "t1": dict(t1_relax=True),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
@pytest.mark.parametrize("stack_sets", [None, 40])
def test_sweep_matches_the_pointwise_reference(case, stack_sets, monkeypatch):
    # at 40 sets per stack, 4-node quadrature (16 sets) evolves the grid two
    # thetas at a time, the last alone, and 32 shots one theta at a time
    if stack_sets is not None:
        monkeypatch.setattr(nm, "_STACK_SETS", stack_sets)
    kw = dict(SWEEP_CASES[case], tds=(0.0, 0.05, 0.2))
    got, want = nm.two_bit_sweep(**kw), _pointwise_sweep(**kw)
    assert len(got) == len(want) == 3 * 2 * len(nm.THETA_GRID)
    for g, w in zip(got, want, strict=True):
        assert (g["theta"], g["td"], g["mode"]) == (w["theta"], w["td"], w["mode"])
        for key in ("x_acc", "z_acc", "x_rej", "z_rej"):
            assert abs(g[key] - w[key]) <= 1e-15, (case, g, w)


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_one_theta_sweep_is_the_point_to_the_byte(case):
    kw = SWEEP_CASES[case]
    for theta, td, mode in ((0.0, 0.0, "coded"), (0.9, 0.05, "control"),
                            (math.pi, 0.2, "coded")):
        [row] = nm.two_bit_sweep(thetas=(theta,), tds=(td,), modes=(mode,), **kw)
        out = nm.two_bit_experiment(theta, td, mode=mode, **kw)
        assert (row["x_acc"], row["z_acc"]) == out["accepted"]
        assert (row["x_rej"], row["z_rej"]) == out["rejected"]


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_are_peak_integrals_to_the_byte(case, monkeypatch):
    # the sweep reads spin a's lines of all thetas of a stack at once; each
    # row keeps the bytes peak_integrals gives on that theta's mean
    kw = dict(SWEEP_CASES[case], tds=(0.0, 0.05))
    stacks, run_pure = [], nm._run_pure

    def recorded(*args, **kwargs):
        out = run_pure(*args, **kwargs)
        if "lead" in kwargs:   # the sweep's evolutions, not the labeled input's
            stacks.append(out)
        return out

    monkeypatch.setattr(nm, "_run_pure", recorded)
    rows = nm.two_bit_sweep(**kw)
    weights = nm.rf_scale_sets(kw.get("rf"), 2)[1]
    want = []
    for stack in stacks:
        means = np.einsum("ijts,s->ijt", stack.reshape((4, 4, -1, len(weights))), weights)
        for t in range(means.shape[2]):
            peaks = nm.peak_integrals(means[..., t])
            low, high = peaks[(0, (0,))], peaks[(0, (1,))]
            want.append((-low.imag, low.real, -high.imag, high.real))
    assert [(r["x_acc"], r["z_acc"], r["x_rej"], r["z_rej"]) for r in rows] == want


def _count_evolutions(monkeypatch, rf, **kw):
    """_run_pure calls of one sweep, the labeled input built beforehand."""
    system = nm.formate_system()
    nm._labeled_input(system, rf)
    calls = []
    run_pure = nm._run_pure

    def counted(*args, **kwargs):
        calls.append(args[3].shape[0])
        return run_pure(*args, **kwargs)

    monkeypatch.setattr(nm, "_run_pure", counted)
    nm.two_bit_sweep(system=system, rf=rf, **kw)
    return calls


def test_sweep_evolves_once_per_storage_time_and_mode(monkeypatch):
    # RF off: the whole theta grid in one stack per (t_d, mode)
    calls = _count_evolutions(monkeypatch, None, tds=(0.0, 0.05, 0.2))
    assert calls == [len(nm.THETA_GRID)] * 6
    # 32 x 32 nodes: 1024 sets fill a stack, so one evolution per point
    calls = _count_evolutions(monkeypatch, nm.RfModel.lorentzian(nodes=32),
                              thetas=(0.0, 0.9, 2.0), tds=(0.05,), modes=("coded",))
    assert calls == [1024] * 3


@pytest.mark.parametrize("kw, name", [
    (dict(thetas=(math.nan, 0.3, 0.9)), "theta"),
    (dict(thetas=(0.3, -0.1, 0.9)), "theta"),
    (dict(thetas=(0.3, 0.9, 4.0)), "theta"),
    (dict(tds=(0.0, 0.05, -1.0)), "t_d"),
    (dict(tds=(0.0, math.inf)), "t_d"),
    (dict(tds=(0.0, 1e308)), "t_d"),
    (dict(modes=("coded", "protected")), "mode"),
])
def test_sweep_checks_every_argument_before_evolving(kw, name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evolved before the arguments were checked")

    monkeypatch.setattr(nm, "_run_pure", refuse)
    monkeypatch.setattr(nm, "_labeled_input", refuse)
    with pytest.raises(ValueError, match=name):
        nm.two_bit_sweep(**kw)


# ---------------------------------------------------------------- analysis

def test_ellipse_circle():
    pts = [(th, math.sin(th), math.cos(th)) for th in nm.THETA_GRID]
    fit = nm.ellipse_analysis(pts)
    assert fit["ellipticity"] == pytest.approx(1.0, abs=1e-9)
    assert fit["p_eps"] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        nm.ellipse_analysis(pts[:5])


def test_control_ellipticity_matches_dephasing():
    s = nm.formate_system()
    for td in nm.storage_grid(s)[1:]:
        pts = [(th, *nm.two_bit_experiment(th, td, mode="control")["accepted"])
               for th in nm.THETA_GRID]
        eps = nm.ellipse_analysis(pts)["ellipticity"]
        assert abs(eps / math.exp(td / s.t2_star[0]) - 1) < 1e-3


def test_coded_ellipticity_quadratic_fit():
    s = nm.formate_system()
    ts, es = [], []
    for td in nm.storage_grid(s):
        pts = [(th, *nm.two_bit_experiment(th, td, mode="coded")["accepted"])
               for th in nm.THETA_GRID]
        ts.append(td)
        es.append(nm.ellipse_analysis(pts)["ellipticity"])
    c0, c1, c2 = np.polynomial.polynomial.polyfit(ts, es, 2)
    assert c0 == pytest.approx(1.0, abs=0.01)
    assert abs(c1) < 0.2
    # curvature within a quarter of the ideal-case value 2.5
    assert 1.875 <= c2 <= 3.125


def test_coded_ellipticity_closed_form():
    s = nm.formate_system()
    td = nm.storage_grid(s)[3]
    p_a = nm.dephase_probability(td, s.t2_star[0])
    p_b = nm.dephase_probability(td, s.t2_star[1])
    pts = [(th, *nm.two_bit_experiment(th, td, mode="coded")["accepted"])
           for th in nm.THETA_GRID]
    eps = nm.ellipse_analysis(pts)["ellipticity"]
    expect = (1 - p_a - p_b + 2 * p_a * p_b) / (1 - p_a - p_b)
    assert abs(eps - expect) < 1e-9


def test_noisy_coded_ellipticity_window():
    # reduced node count here; the acceptance suite runs the full 32-node
    # version of the same check
    rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=12)
    pts = [(th, *nm.two_bit_experiment(th, 0.0, mode="coded",
                                       rf=rf)["accepted"])
           for th in nm.THETA_GRID]
    fit = nm.ellipse_analysis(pts)
    assert 1.0 < fit["ellipticity"] < 1.12
    # pulse-length attenuation comes out positive: weaker signal at larger
    # preparation angles
    assert fit["C"] > 0


def _scipy_ellipse(points):
    # the fit as scipy's MINPACK Levenberg-Marquardt does it: (ellipticity,
    # residual norm)
    pts = np.asarray(points, dtype=float)
    theta, intensity = pts[:, 0], pts[:, 1] ** 2 + pts[:, 2] ** 2
    i0 = intensity[np.argmin(np.abs(theta))]
    i90 = intensity[np.argmin(np.abs(theta - math.pi / 2))]

    def res(q):
        a, b, c, d = q
        return (a + b * np.sin(theta + d) ** 2) * (1.0 - c * (theta + d)) - intensity

    fit = least_squares(res, [i0, i90 - i0, 0.0, 0.0], method="lm")
    assert fit.success
    a, b, _, d = fit.x
    eps = math.sqrt((a + b * math.sin(d) ** 2) / (a + b * math.sin(math.pi / 2 + d) ** 2))
    return eps, float(np.linalg.norm(fit.fun))


def _ellipse_cases():
    s = nm.formate_system()
    yield "circle", [(th, math.sin(th), math.cos(th)) for th in nm.THETA_GRID]
    td = nm.storage_grid(s)[2]
    for mode in ("control", "coded"):
        yield mode, [(th, *nm.two_bit_experiment(th, td, mode=mode)["accepted"])
                     for th in nm.THETA_GRID]
    for nodes in (12, 32):
        rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=nodes)
        for td in nm.storage_grid(s)[:2]:
            yield f"rf{nodes}", [
                (th, *nm.two_bit_experiment(th, td, mode="coded", rf=rf)["accepted"])
                for th in nm.THETA_GRID]


def test_ellipse_fit_matches_scipy_least_squares():
    for label, pts in _ellipse_cases():
        want_eps, want_res = _scipy_ellipse(pts)
        fit = nm.ellipse_analysis(pts)
        assert abs(fit["ellipticity"] - want_eps) <= 1e-8, label
        assert fit["residual"] <= want_res * (1 + 1e-12), label
        # the analytic Jacobian against central differences
        q, theta = np.array([fit[name] for name in "ABCD"]), np.array(pts)[:, 0]
        jac = nm._ellipse_terms(q, theta)[1]
        for k, h in enumerate(1e-6 * np.eye(4)):
            diff = (nm._ellipse_terms(q + h, theta)[0]
                    - nm._ellipse_terms(q - h, theta)[0]) / 2e-6
            assert np.max(np.abs(diff - jac[:, k])) < 1e-8, (label, k)


def test_ellipse_rejects_bad_points():
    pts = [(th, math.sin(th), math.cos(th)) for th in nm.THETA_GRID]
    for bad in (math.nan, math.inf):
        broken = [list(p) for p in pts]
        broken[3][1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            nm.ellipse_analysis(broken)
    for short in (pts[:5], [], [(0.0, 1.0)] * 8):
        with pytest.raises(ValueError, match="points must hold at least six"):
            nm.ellipse_analysis(short)
    # finite points whose intensity, cost or normal matrix overflows raised
    # numpy's RuntimeWarning, and without the warning filter fitted on inf
    for column, value in ((1, 1e100), (1, 1e200), (0, 1e200)):
        broken = [list(p) for p in pts]
        broken[3][column] = value
        with pytest.raises(ValueError, match="points overflow"):
            nm.ellipse_analysis(broken)


def test_ellipse_fit_iteration_cap():
    pts = np.array(next(pts for label, pts in _ellipse_cases() if label == "rf12"))
    intensity = pts[:, 1] ** 2 + pts[:, 2] ** 2
    with pytest.raises(ValueError, match="did not converge in 1 iterations"):
        nm._fit_ellipse(pts[:, 0], intensity, np.array([1.0, 0.0, 0.0, 0.0]),
                        max_iter=1)


def test_fidelity_delta_perfect_run():
    pts = [(th, math.sin(th), math.cos(th)) for th in nm.THETA_GRID]
    assert nm.fidelity_delta(pts) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        nm.fidelity_delta([(0.1, 1.0, 0.0)])


@pytest.mark.parametrize("points, match", [
    ([(0.0, 1.0, 0.0), (0.3, math.nan, 0.5)], "finite"),
    ([(0.0, 1.0, math.nan), (0.3, 0.5, 0.5)], "finite"),
    ([(0.0, 1.0, 0.0), (math.inf, 0.5, 0.5)], "finite"),
    ([(0.0, 1e-320, 0.0), (1.2, 0.5, 0.5)], "overflow"),
    ([(0.0, 1.0, 0.0), (math.pi / 4, 1.7e308, 1.7e308)], "overflow"),
], ids=["nan-x", "nan-z", "inf-theta", "tiny-amplitude", "huge-sum"])
def test_fidelity_delta_refuses_points_without_a_finite_overlap(points, match):
    with pytest.raises(ValueError, match=f"points.*{match}"):
        nm.fidelity_delta(points)


# -------------------------------------------------------------- sweep/CSV

def test_sweep_rows_and_csv_format():
    rows = [
        {"theta": math.pi / 10, "td": 0.0, "mode": "coded",
         "x_acc": 0.123456789012345, "z_acc": -1.0, "x_rej": 0.0,
         "z_rej": 2e-17},
        {"theta": 0.0, "td": 12 / 195.0, "mode": "control",
         "x_acc": 1 / 3, "z_acc": 0.5, "x_rej": -0.25, "z_rej": 1.0},
    ]
    buf = io.StringIO()
    nm.sweep_to_csv(rows, buf)
    assert buf.getvalue() == (
        "theta,td,mode,x_acc,z_acc,x_rej,z_rej\n"
        "0.314159265359,0,coded,0.123456789012,-1,0,2e-17\n"
        "0,0.0615384615385,control,0.333333333333,0.5,-0.25,1\n"
    )


def test_sweep_deterministic():
    s = nm.formate_system()
    rf = nm.RfModel(kind="lorentzian", widths=nm.RfModel.lorentzian().widths,
                    integration="monte-carlo", shots=32, seed=3)
    kw = dict(system=s, thetas=(0.0, math.pi / 2), tds=(0.0,),
              modes=("control",), rf=rf)
    assert nm.two_bit_sweep(**kw) == nm.two_bit_sweep(**kw)


# ------------------------------------------------------ evolution in runs

def close(got, want, rel=1e-13):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(1, 9))
def test_a_run_of_rotations_matches_successive_conjugations(n, conjugate_local, monkeypatch):
    # a run composes each spin's ops in time order.  A scale-last stack of
    # three scale sets takes _rotate_rows' broadcast branch once per spin
    # it touches and side; one of one set takes its matmul branch once per
    # block of up to three adjacent spins and side, and with a pair on both
    # sides of the run (here pairs of no delay, which carry only the Z
    # parts) every block is real
    assert nm._rot2("y", 0.3).dtype == float
    rotated = []
    rotate = nm._rotate_rows
    monkeypatch.setattr(nm, "_rotate_rows",
                        lambda op, src, dst, spin: rotated.append((spin, op.dtype == float))
                        or rotate(op, src, dst, spin))
    rng = np.random.default_rng(70 + n)
    bare = (np.zeros((n, n)), 1.0)
    for rows, flipped, interleaved, ride in itertools.product(
            (1, 3), (False, True), (False, True), (False, True)):
        rho = (rng.normal(size=(rows, 2 ** n, 2 ** n))
               + 1j * rng.normal(size=(rows, 2 ** n, 2 ** n)))
        spins = [int(s) for s in rng.integers(n, size=n + 2)]
        spins.insert(1, spins[0])   # an x then a y rotation of one spin
        if interleaved:   # one spin before, between and after all the others
            hot = int(rng.integers(n))
            spins = [hot] + [x for s in spins for x in (s, hot)]
        run = [(s, nm._rot2("xy"[k % 2], rng.uniform(-math.pi, math.pi, size=rows)))
               for k, s in enumerate(spins)]
        want = rho
        for s, op in run:
            want = conjugate_local(np.moveaxis(op, -1, 0), want, (s,))
        stack = np.moveaxis(rho, 0, -1)
        start = np.ascontiguousarray(stack.swapaxes(0, 1) if flipped else stack)
        ops = {}
        for s, op in run:
            nm._then(ops, s, op)
        rotated.clear()
        owed, gap = (bare + (None,), bare) if ride else (None, None)
        *settled, owed = nm._settle(owed, ops, gap, start, np.empty_like(start), flipped)
        passes = list(rotated)
        got, _, now, _ = nm._settle(owed, {}, None, *settled)
        assert now != flipped
        if rows == 1:
            assert len(passes) <= 2 * -(-n // 3) and passes[:len(passes) // 2] * 2 == passes
            assert all(real for _, real in passes) or not ride
        else:
            assert [s for s, _ in passes] == list(dict.fromkeys(spins)) * 2
        assert close(np.moveaxis(got.swapaxes(0, 1) if now else got, -1, 0), want)


def reference_rot2(axis, angle):
    half = np.asarray(angle)[..., None, None] / 2.0
    sigma = qc.SX if axis == "x" else qc.SY
    return np.cos(half) * qc.I2 - 1j * np.sin(half) * sigma


def reference_conjugate_spin(op, rho, spin, scratch):
    if len(rho) == 1:
        op, shape = op[0], (1 << spin, 2, -1)
    else:
        op, shape = op[:, None], (len(rho), 1 << spin, 2, -1)
    for u in (op, np.conj(op)):
        np.matmul(u, rho.reshape(shape), out=scratch.reshape(shape))
        np.copyto(rho, scratch.swapaxes(-1, -2))


def reference_t1_step(system, stack, t):
    # _t1_step on an (S, 2^n, 2^n) stack, kept here so that the reference
    # shares no kernel with the library
    n = system.n
    r = stack.reshape((-1,) + (2,) * (2 * n))
    eye = np.eye(2 ** (n - 1)).reshape((2,) * (2 * (n - 1)))
    for i in range(n):
        decay = math.exp(-t / system.t1[i])
        r2 = np.moveaxis(r, (1 + i, 1 + n + i), (1, 2))
        b00, b11 = r2[:, 0, 0].copy(), r2[:, 1, 1].copy()
        even = (b00 + b11) / 2.0
        zpart = decay * ((b00 - b11) / 2.0)
        zpart = zpart + (1.0 - decay) * (system.omega[i] / 2.0) * eye
        r2[:, 0, 0] = even + zpart
        r2[:, 1, 1] = even - zpart


def reference_run_pure(system, rho, events, scales, lead=None):
    """The in-place evolution that evolution in runs replaced, on an
    (S, 2^n, 2^n) stack: every rotation is two complex matmuls, each copied
    back transposed, and each delay half multiplies by the phases, then by
    every spin's dephasing factor on the quarter views where that spin's
    bits differ.  Takes and returns _run_pure's (2^n, 2^n, S) layout, and
    its lead pulse."""
    n = system.n
    rho = np.asarray(rho)
    sets = rho.shape[2] if rho.ndim == 3 else 1
    stack = np.empty((len(scales),) + rho.shape[:2], dtype=complex)
    stack.reshape((-1, sets) + rho.shape[:2])[...] = np.moveaxis(
        rho.reshape(rho.shape[:2] + (sets,)), -1, 0)
    scratch = np.empty_like(stack)
    if lead is not None:
        spin, axis, angles = lead
        reference_conjugate_spin(reference_rot2(axis, angles), stack, spin, scratch)
    for ev in events:
        if ev.kind == "pulse":
            scale = scales[:, ev.spin] if ev.scale_sensitive else np.ones(len(scales))
            reference_conjugate_spin(reference_rot2(ev.axis, ev.angle * scale),
                                     stack, ev.spin, scratch)
            continue
        if ev.duration == 0.0:
            continue
        halves = 2 if ev.refocus else 1
        t = ev.duration / halves
        ph = np.exp(-1j * qc.ising_diagonal(np.zeros(n), math.pi * np.array(system.j) / 2.0 * t))
        phase = ph[:, None] * ph.conj()[None, :]
        np.fill_diagonal(phase, 1.0)
        keep = [(1.0 - p) - p for p in
                (nm.dephase_probability(t, t2) for t2 in system.t2_star)]
        for _ in range(halves):
            stack *= phase
            for i, k in enumerate(keep if ev.dephase else ()):
                r = stack.reshape(-1, 1 << i, 2, 1 << (n - 1 - i), 1 << i, 2, 1 << (n - 1 - i))
                r[:, :, 0, :, :, 1] *= k
                r[:, :, 1, :, :, 0] *= k
            if ev.t1_relax:
                reference_t1_step(system, stack, t)
            for s in ev.refocus:
                reference_conjugate_spin(reference_rot2("y", math.pi * scales[:, s]),
                                         stack, s, scratch)
    return np.ascontiguousarray(np.moveaxis(stack, 0, -1))


def coupled_system(n, rng):
    """n spins, every pair coupled, with seeded offsets and dephasing times."""
    j = np.zeros((n, n))
    j[np.triu_indices(n, 1)] = rng.uniform(-200.0, 200.0, size=n * (n - 1) // 2)
    return nm.SpinSystem(omega=tuple(rng.uniform(1.0, 5.0, size=n)),
                         j=tuple(map(tuple, j + j.T)),
                         t2_star=tuple(rng.uniform(0.05, 1.0, size=n)))


def pinned_outputs():
    """Seeded run_sequence and two_bit_experiment outputs, each with whether
    it averages over RF scales: pulses and refocused dephasing delays at 2,
    3, 6 and 8 spins, the same under 4-node RF quadrature at 2 and 3 spins,
    and the storage point with T1."""
    for n, with_rf in ((2, False), (3, False), (6, False), (8, False),
                       (2, True), (3, True)):
        rng = np.random.default_rng(40 + n + with_rf)
        system = coupled_system(n, rng)
        events = [nm.pulse(int(rng.integers(n)), str(rng.choice(["x", "y"])),
                           float(rng.uniform(-math.pi, math.pi)),
                           scale_sensitive=bool(rng.random() < 0.8))
                  for _ in range(12)]
        events += [nm.delay(float(rng.uniform(1e-3, 2e-2)), dephase=True,
                            refocus=[int(s) for s in rng.choice(n, 2, replace=False)])
                   for _ in range(4)]
        events = [events[i] for i in rng.permutation(len(events))]
        rf = nm.RfModel(kind="lorentzian", nodes=4,
                        widths=tuple(rng.uniform(0.02, 0.2, size=n))) if with_rf else None
        yield with_rf, nm.run_sequence(system, rand_deviation(n, rng), events, rf=rf)
    for mode in ("coded", "control"):
        for rf in (None, nm.RfModel.lorentzian(nodes=4)):
            out = nm.two_bit_experiment(0.3 * math.pi, 0.05, mode=mode, rf=rf,
                                        system=nm.chloroform_system(), t1_relax=True)
            yield rf is not None, np.array(out["accepted"] + out["rejected"])


def digest_of(outputs):
    digest = hashlib.sha256()
    for out in outputs:
        digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


def test_rf_free_outputs_are_pinned_to_the_byte():
    # one scale set folds each refocused delay into one pair and each run of
    # pulses into one rotation per spin, applies the runs in blocks of up to
    # three spins, and moves the Z parts of a run between two pairs into
    # their factors; recorded with numpy 2.4, OpenBLAS 0.3.31 on x86-64
    assert digest_of(out for with_rf, out in pinned_outputs() if not with_rf) == (
        "3caeccf9159e8d495abf5d7eafe2199818ff3dc804cd14e7bad0f41d7e8a2691")


def test_rf_outputs_are_pinned_to_the_byte():
    # the RF stacks' refocusing flips carry scales other than 1, so every
    # refocused delay there still takes its two halves and their flips,
    # which compose with the pulses around them
    assert digest_of(out for with_rf, out in pinned_outputs() if with_rf) == (
        "00e884efe7821dd608f273c40dccc809fb2e44f8e456c48e64ec42fe4669aafe")


def unfolded_outputs():
    """Seeded evolutions whose every refocused delay keeps its flips: with
    T1 relaxation at 3 and 6 spins, and without it at one scale set where
    each delay has a refocused spin off scale 1."""
    for n in (3, 6):
        rng = np.random.default_rng(60 + n)
        system = replace(coupled_system(n, rng), t1=tuple(rng.uniform(0.05, 1.0, size=n)))
        events = [nm.pulse(int(rng.integers(n)), "xy"[k % 2], float(rng.uniform(-3, 3)))
                  for k in range(6)]
        events += [nm.delay(float(rng.uniform(1e-3, 2e-2)), dephase=bool(k % 2),
                            refocus=(k % n, (k + 1) % n), t1_relax=True) for k in range(3)]
        yield nm.run_sequence(system, rand_deviation(n, rng), events)
        # spin 0 stays at scale 1: a delay refocusing it with another spin
        # keeps its flips too
        scales = 1.0 + 1e-3 * np.arange(n)[None, :]
        events = [replace(ev, t1_relax=False) for ev in events]
        yield nm._run_pure(system, rand_deviation(n, rng), events, scales)


def test_unfolded_delays_keep_their_bytes():
    # delays that keep their halves, with rotations composed per spin
    assert digest_of(unfolded_outputs()) == (
        "959c4517938ae75e3346ab5523a05d2dd85a4f19dbe53eaac3477dee1943cf27")


def test_outputs_are_pinned_to_the_byte():
    # the bytes of the scale-last stack, recorded as above; its outputs
    # differ from the reference kernel's by rounding, which the test below
    # bounds at 1e-13 relative
    assert digest_of(out for _, out in pinned_outputs()) == (
        "ddff12923545f6757ba40f66a0b533b95d417bc1dc733833208a1eb30277606a")


@pytest.mark.parametrize("n", range(1, 9))
def test_folded_delays_match_the_per_half_path(n, monkeypatch):
    # with every refocused spin at scale 1 and no T1 step, a refocused delay
    # is one factor over its whole duration; the reference takes the two
    # halves and flips them as rotations
    rng = np.random.default_rng(90 + n)
    full = coupled_system(n, rng)
    pair = np.zeros((n, n))
    if n > 1:
        pair[0, 1] = pair[1, 0] = full.j[0][1]
    rho, scales = rand_deviation(n, rng), np.ones((1, n))
    folded = []
    delay_pair = nm._delay_pair
    monkeypatch.setattr(nm, "_delay_pair",
                        lambda *args: folded.append(args[3]) or delay_pair(*args))
    out = np.empty((2 ** n, 2 ** n), dtype=complex)
    for j, size, first, dephase in itertools.product(
            (np.zeros((n, n)), pair, np.array(full.j)), range(1, n + 1), (True, False),
            (False, True)):
        # the first or last spins: spin 0's pair with spin 1 is kept by some
        # sets and cut by others
        refocus = tuple(range(size) if first else range(n - size, n))
        system = replace(full, j=tuple(map(tuple, j)))
        events = [nm.pulse(0, "x", 0.7), nm.delay(7e-3, dephase, refocus),
                  nm.pulse(n - 1, "y", -1.1), nm.delay(0.0, dephase, refocus),
                  nm.delay(4e-3, dephase, refocus[::-1]), nm.pulse(0, "y", 0.4)]
        folded.clear()
        got = nm._run_pure(system, rho, events, scales)
        assert folded == [refocus, refocus]
        assert close(got, reference_run_pure(system, rho, events, scales))
        pair = delay_pair(system, 7e-3, dephase, refocus)
        if pair is not None:
            g = nm._gap_factor(*pair, None, False, out).copy()
            assert (np.diag(g) == 1.0).all()
            # a flipped stack holds each rho transposed: its factor is G^T = G*
            assert np.array_equal(nm._gap_factor(*pair, None, True, out), g.conj())
        assert nm.identity_offset(system, events) < 1e-12


def test_pinned_outputs_match_the_reference_kernel(monkeypatch):
    got = [out for _, out in pinned_outputs()]
    # the labeled-input cache would hand the reference run an input that
    # the library kernel built, and keep one the reference built
    nm._labeled_input.cache_clear()
    monkeypatch.setattr(nm, "_run_pure", reference_run_pure)
    try:
        want = [out for _, out in pinned_outputs()]
    finally:
        nm._labeled_input.cache_clear()
    for g, w in zip(got, want, strict=True):
        assert close(g, w)
    # the reference reproduces the bytes pinned before evolution in runs
    assert digest_of(want) == (
        "5136125b3a8c051e0fbde08c647c199630240bda6ba17c06aea49b7ccabe5d71")


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=4), st.booleans(), st.data())
def test_run_sequence_matches_the_reference_kernel(n, with_rf, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    system = replace(coupled_system(n, rng), t1=tuple(rng.uniform(0.05, 1.0, size=n)))
    events = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        if data.draw(st.booleans()):
            events.append(nm.pulse(
                data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from("xy")),
                float(rng.uniform(-math.pi, math.pi)),
                scale_sensitive=data.draw(st.booleans())))
        else:
            events.append(nm.delay(
                data.draw(st.sampled_from([0.0, float(rng.uniform(1e-4, 2e-2))])),
                dephase=data.draw(st.booleans()),
                refocus=[q for q in range(n) if data.draw(st.booleans())],
                t1_relax=data.draw(st.booleans())))
    rf = nm.RfModel(kind="lorentzian", nodes=4,
                    widths=tuple(rng.uniform(0.02, 0.2, size=n))) if with_rf else None
    rho = rand_deviation(n, rng)
    scales, weights = nm.rf_scale_sets(rf, n)
    want = np.einsum("ijs,s->ij", reference_run_pure(system, rho, events, scales), weights)
    assert close(nm.run_sequence(system, rho, events, rf=rf), want)


# what may break a composed gap: each kind draws one event, or a few in a row
GAP_EVENTS = {
    "pulse": lambda draw, n: [nm.pulse(draw(st.integers(0, n - 1)), draw(st.sampled_from("xy")),
                                       draw(st.floats(-math.pi, math.pi)),
                                       scale_sensitive=draw(st.booleans()))],
    "free": lambda draw, n: [nm.delay(draw(st.floats(1e-4, 2e-2)), dephase=draw(st.booleans()))
                             for _ in range(draw(st.integers(1, 3)))],
    "zero": lambda draw, n: [nm.delay(0.0, dephase=draw(st.booleans()),
                                      refocus=[q for q in range(n) if draw(st.booleans())])],
    "refocused": lambda draw, n: [nm.delay(
        draw(st.floats(1e-4, 2e-2)), dephase=draw(st.booleans()),
        refocus=draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))],
    "t1": lambda draw, n: [nm.delay(draw(st.floats(1e-4, 2e-2)), dephase=draw(st.booleans()),
                                    refocus=[q for q in range(n) if draw(st.booleans())],
                                    t1_relax=True)],
}


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(min_value=1, max_value=4), st.sampled_from([1, 3]), st.data())
def test_composed_runs_and_gaps_match_the_reference_kernel(n, sets, data):
    # adjacent delays join into one factor, and each spin's pulses between
    # two factors into one rotation; every kind of event that must break a
    # gap or a run is drawn next to the kinds that must not.  Spins drawn
    # at scale 1 in every set keep exact refocusing flips; the others do not.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    system = replace(coupled_system(n, rng), t1=tuple(rng.uniform(0.05, 1.0, size=n)))
    exact = [data.draw(st.booleans()) for _ in range(n)]
    scales = np.where(exact, 1.0, rng.uniform(0.9, 1.1, size=(sets, n)))
    events = []
    for kind in data.draw(st.lists(st.sampled_from(sorted(GAP_EVENTS)), min_size=1,
                                   max_size=12)):
        events += GAP_EVENTS[kind](data.draw, n)
    lead = None
    if data.draw(st.booleans()):
        lead = (data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from("xy")),
                rng.uniform(-math.pi, math.pi, size=sets))
    rho = rand_deviation(n, rng)
    assert close(nm._run_pure(system, rho, events, scales, lead=lead),
                 reference_run_pure(system, rho, events, scales, lead=lead))


# what may stand between two runs: a zero-length delay does nothing, so the
# runs on either side of it join
BETWEEN_RUNS = ("free", "refocused", "t1", "zero")


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_z_parts_riding_on_gaps_match_the_reference_kernel(n, data):
    # one scale set: each complex op of a run with a pair on both sides
    # splits, its Z parts riding as fields on those pairs' factors and its
    # real part applied in blocks.  Drawn: runs of x pulses only, so that
    # every op is complex; a first run with or without a delay before it,
    # and a last with or without one after it; free, refocused, T1 and
    # zero-length delays between runs
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    system = replace(coupled_system(n, rng), t1=tuple(rng.uniform(0.05, 1.0, size=n)))
    events = GAP_EVENTS["free"](draw, n) if draw(st.booleans()) else []
    runs = draw(st.integers(1, 4))
    for k in range(runs):
        axes = draw(st.sampled_from(["x", "xy"]))
        events += [nm.pulse(draw(st.integers(0, n - 1)), draw(st.sampled_from(axes)),
                            draw(st.floats(-math.pi, math.pi)))
                   for _ in range(draw(st.integers(1, 2 * n)))]
        if k < runs - 1:
            events += GAP_EVENTS[draw(st.sampled_from(BETWEEN_RUNS))](draw, n)
    if draw(st.booleans()):
        events += GAP_EVENTS["free"](draw, n)
    rho, scales = rand_deviation(n, rng), np.ones((1, n))
    assert close(nm._run_pure(system, rho, events, scales),
                 reference_run_pure(system, rho, events, scales))


def test_eight_spin_run_sequence_peaks_under_five_mib():
    # each gap builds its 2^n x 2^n factor in the buffer not in use: kept
    # across events, every distinct delay would hold another MiB
    rng = np.random.default_rng(12)
    system = coupled_system(8, rng)
    events = [nm.pulse(int(rng.integers(8)), str(rng.choice(["x", "y"])),
                       float(rng.uniform(-math.pi, math.pi))) for _ in range(48)]
    events += [nm.delay(float(rng.uniform(1e-3, 2e-2)), dephase=True,
                        refocus=[int(s) for s in rng.choice(8, 2, replace=False)])
               for _ in range(16)]
    events = [events[i] for i in rng.permutation(len(events))]
    rho = nm.thermal_state(system) / max(system.omega)
    tracemalloc.start()
    try:
        nm.run_sequence(system, rho, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_run_sequence_leaves_the_input_alone():
    rng = np.random.default_rng(8)
    system = coupled_system(3, rng)
    rho = rand_deviation(3, rng)
    before = rho.copy()
    nm.run_sequence(system, rho, [nm.pulse(1, "x", 0.4),
                                  nm.delay(0.01, dephase=True, refocus=(0, 2))])
    assert rho.tobytes() == before.tobytes()


def test_delay_only_is_unital_at_eight_spins():
    system = coupled_system(8, np.random.default_rng(9))
    events = [nm.delay(0.013, dephase=True), nm.delay(0.02, dephase=True)]
    assert nm.identity_offset(system, events) == 0.0


@pytest.mark.parametrize("rho, match", [
    (np.eye(8), r"rho must be 4 x 4 for 2 spins, got shape \(8, 8\)"),
    (np.eye(4)[None], r"rho must be 4 x 4"),
    (np.full((4, 4), math.nan), "rho must be finite"),
    (np.diag([1.0, math.inf, 0.0, 0.0]), "rho must be finite"),
], ids=["8x8", "stack", "nan", "inf"])
def test_run_sequence_rejects_bad_rho(rho, match):
    with pytest.raises(ValueError, match=match):
        nm.run_sequence(nm.formate_system(), rho, [nm.pulse(0, "x", 0.3)])


@pytest.mark.parametrize("event, match", [
    (nm.pulse(2, "x", 0.3), r"pulse spin 2 outside 0\.\.1"),
    (nm.delay(0.01, refocus=(1, 5)), r"delay refocus 5 outside 0\.\.1"),
], ids=["spin", "refocus"])
def test_run_sequence_rejects_spins_outside_the_system(event, match):
    with pytest.raises(ValueError, match=match):
        nm.run_sequence(nm.formate_system(), np.eye(4), [event])
    with pytest.raises(ValueError, match=match):
        nm.identity_offset(nm.formate_system(), [event])


@pytest.mark.parametrize("make, name", [
    (lambda: nm.pulse(-1, "x", 0.3), "spin"),
    (lambda: nm.pulse(1.7, "x", 0.3), "spin"),
    (lambda: nm.pulse(math.nan, "y", 0.3), "spin"),
    (lambda: nm.delay(0.01, refocus=(-1,)), "refocus"),
    (lambda: nm.delay(0.01, refocus=(0, 1.5)), "refocus"),
], ids=["spin-negative", "spin-fraction", "spin-nan", "refocus-negative",
        "refocus-fraction"])
def test_event_spins_must_be_integers(make, name):
    with pytest.raises(ValueError, match=rf"need {name} >= 0 as an integer"):
        make()


@pytest.mark.parametrize("kw,name", [(dict(nodes=2.5), "nodes"),
                                     (dict(integration="monte-carlo", shots=2.5),
                                      "shots")])
def test_rf_counts_must_be_integers(kw, name):
    with pytest.raises(ValueError, match=name):
        nm.RfModel.lorentzian(**kw)


@pytest.mark.parametrize("t2_star", [0.0, -0.3, math.nan])
def test_dephase_probability_needs_positive_t2_star(t2_star):
    with pytest.raises(ValueError, match="t2_star"):
        nm.dephase_probability(1.0, t2_star)


@pytest.mark.parametrize("temperature", [0.0, -5.0, math.nan, math.inf, 5e-324])
def test_thermal_scale_needs_positive_finite_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        nm.thermal_scale(nm.formate_system(), temperature)


def test_delays_whose_coupling_phase_overflows_are_refused():
    # pi J/2 t overflows past about 6e305 s at J = 195 Hz, and the outputs
    # came out all NaN with only a RuntimeWarning
    s = nm.formate_system()
    with pytest.raises(ValueError, match="t_d"):
        nm.two_bit_experiment(0.3, 1e308)
    with pytest.raises(ValueError, match="duration"):
        nm.run_sequence(s, nm.thermal_state(s), [nm.pulse(0, "x", 0.3), nm.delay(1e308)])
    # the check bounds the phase, not the delay
    out = nm.two_bit_experiment(0.3, 1e305)
    assert np.isfinite(out["accepted"] + out["rejected"]).all()
    free = nm.SpinSystem(s.omega, ((0.0, 0.0), (0.0, 0.0)), s.t2_star)
    rho = nm.thermal_state(free)
    assert np.array_equal(nm.run_sequence(free, rho, [nm.delay(1e308)] * 2), rho)
    # delays with no pulse between them join in one factor, so their
    # phases add: each of these is finite, their sum is not
    with pytest.raises(ValueError, match="duration"):
        nm.run_sequence(s, nm.thermal_state(s), [nm.delay(4e305), nm.delay(0.0),
                                                 nm.delay(4e305, dephase=True)])
    out = nm.run_sequence(s, nm.thermal_state(s),
                          [nm.delay(4e305), nm.pulse(0, "x", 0.3), nm.delay(4e305)])
    assert np.isfinite(out).all()


def test_run_sequence_takes_an_iterator_of_events():
    # the checks used the iterator up, so rho came back unevolved
    s = nm.formate_system()
    rho = nm.thermal_state(s)
    events = nm.cnot_ba_events(s)
    want = nm.run_sequence(s, rho, events)
    assert np.abs(want - rho).max() > 0.1
    assert nm.run_sequence(s, rho, iter(events)).tobytes() == want.tobytes()


def test_run_sequence_refuses_events_that_are_not_iterable():
    s = nm.formate_system()
    with pytest.raises(ValueError, match="events must be an iterable"):
        nm.run_sequence(s, nm.thermal_state(s), 3)
    with pytest.raises(ValueError, match="events must be an iterable"):
        nm.temporal_label(s, [None, 3])


@pytest.mark.parametrize("events", [["x"], [nm.pulse(0, "x", 0.3), nm.Event("wait")]],
                         ids=["not-an-event", "unknown-kind"])
def test_run_sequence_rejects_what_is_not_an_event(events):
    with pytest.raises(ValueError, match="events must hold pulse and delay Events"):
        nm.run_sequence(nm.formate_system(), np.eye(4), events)
    with pytest.raises(ValueError, match="events must hold pulse and delay Events"):
        nm.identity_offset(nm.formate_system(), events)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.1, 0.1), "theta"), ((math.inf, 0.1, 0.1), "theta"),
    ((0.3, 2.0, 0.1), "p_a"), ((0.3, -0.1, 0.1), "p_a"), ((0.3, math.nan, 0.1), "p_a"),
    ((0.3, 0.1, 1.5), "p_b"), ((0.3, 0.1, math.nan), "p_b"),
])
@pytest.mark.parametrize("mode", ["coded", "control"])
def test_ideal_outputs_rejects_what_it_cannot_mean(args, name, mode):
    with pytest.raises(ValueError, match=name):
        nm.ideal_outputs(*args, mode=mode)


@pytest.mark.parametrize("multiples", [(math.nan,), (0, math.inf), (12, -12)])
def test_storage_grid_rejects_bad_multiples(multiples):
    with pytest.raises(ValueError, match="multiples"):
        nm.storage_grid(nm.formate_system(), multiples=multiples)


# finite, non-finite, non-integer and out-of-range scalars; valid counts
# stay small, since the dense checks hold 2^n amplitudes
SCALARS = st.one_of(
    st.integers(-3, 9),
    st.integers(-3, 9).map(np.int64),
    st.integers(-3, 9).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)

_SPINS = nm.formate_system()

ENTRY_POINTS = {
    "SpinSystem.omega": lambda v: nm.SpinSystem((v, 1.0), ((0, 1), (1, 0)), (1, 1)),
    "SpinSystem.j": lambda v: nm.SpinSystem((1.0, 1.0), ((0, v), (v, 0)), (1, 1)),
    "SpinSystem.t2_star": lambda v: nm.SpinSystem((1.0, 1.0), ((0, 1), (1, 0)), (v, 1)),
    "SpinSystem.t1": lambda v: nm.SpinSystem((1.0, 1.0), ((0, 1), (1, 0)), (1, 1), (1, v)),
    "storage_grid": lambda v: nm.storage_grid(_SPINS, (0, v)),
    "pulse.spin": lambda v: nm.pulse(v, "x", 0.3),
    "pulse.angle": lambda v: nm.pulse(0, "y", v),
    "delay.duration": lambda v: nm.delay(v, dephase=True),
    "delay.refocus": lambda v: nm.delay(0.01, refocus=(v,)),
    "dephase_probability.t": lambda v: nm.dephase_probability(v, 0.3),
    "dephase_probability.t2_star": lambda v: nm.dephase_probability(0.1, v),
    "thermal_scale": lambda v: nm.thermal_scale(_SPINS, v),
    "cyclic_label_ops": lambda v: nm.cyclic_label_ops(v),
    "hybrid_label.n": lambda v: nm.hybrid_label(v, [3.0, 1.0]),
    "hybrid_label.omegas": lambda v: nm.hybrid_label(3, [3.0, v, 1.0]),
    "dj_thermal.n": lambda v: nm.dj_thermal(v, lambda x: 0, 0.9),
    "dj_thermal.p": lambda v: nm.dj_thermal(2, lambda x: x & 1, [0.9, v]),
    "dj_thermal.p_array": lambda v: nm.dj_thermal(2, lambda x: x & 1, np.array(v)),
    "dj_thermal.p_nested": lambda v: nm.dj_thermal(2, lambda x: x & 1, [[0.9, v]]),
    "dj_thermal.p_text": lambda v: nm.dj_thermal(2, lambda x: x & 1, [0.9, str(v)]),
    "RfModel.widths": lambda v: nm.RfModel("lorentzian", (0.1, v)),
    "RfModel.nodes": lambda v: nm.RfModel("lorentzian", (0.1,), nodes=v),
    "RfModel.shots": lambda v: nm.RfModel("lorentzian", (0.1,), shots=v),
    "calibrate_width.target": lambda v: nm.calibrate_width(v, 4),
    "calibrate_width.nodes": lambda v: nm.calibrate_width(0.9, v),
    "two_bit_experiment.theta": lambda v: nm.two_bit_experiment(v, 0.0),
    "two_bit_experiment.t_d": lambda v: nm.two_bit_experiment(0.3, v),
    "two_bit_sweep.thetas": lambda v: nm.two_bit_sweep(
        thetas=(0.3, v, 1.2), tds=(0.0,), modes=("coded",)),
    "two_bit_sweep.tds": lambda v: nm.two_bit_sweep(
        thetas=(0.3, 1.2), tds=(0.05, v), modes=("control",)),
    "ideal_outputs.theta": lambda v: nm.ideal_outputs(v, 0.1, 0.2),
    "ideal_outputs.p_a": lambda v: nm.ideal_outputs(0.3, v, 0.2),
    "ideal_outputs.p_b": lambda v: nm.ideal_outputs(0.3, 0.1, v, mode="control"),
    "peak_integrals": lambda v: nm.peak_integrals(
        np.array([[0, 0, v, 0], [0, 0, 0, 0], [v, 0, 0, 0], [0, 0, 0, 0]])),
    "fidelity_delta.theta": lambda v: nm.fidelity_delta([(0.0, 1.0, 0.0), (v, 0.5, 0.5)]),
    # a tiny theta=0 amplitude overflows the normalized overlaps
    "fidelity_delta.x": lambda v: nm.fidelity_delta([(0.0, v, 0.0), (1.2, 0.5, v)]),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(deadline=None, max_examples=40)
@given(v=SCALARS)
@example(v=math.nan)
@example(v=math.inf)
@example(v=-1)
@example(v=2.5)
@example(v=2.0)
@example(v=1e308)
def test_entry_points_return_or_raise_value_error(name, v, all_finite):
    try:
        out = ENTRY_POINTS[name](v)
    except ValueError:
        return
    assert all_finite(out), out
