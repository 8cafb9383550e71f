import io
import math

import numpy as np
import pytest

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


# ----------------------------------------------------------------- readout

def test_thermal_state_has_no_lines():
    peaks = nm.peak_integrals(nm.thermal_state(nm.formate_system()))
    for v in peaks.lines.values():
        assert v == 0


def test_readout_of_thermal_state():
    # quarter turn about x maps z onto the detected quadrature: both lines
    # of each spin come out equal, positive and real
    s = nm.formate_system()
    rho = nm._run_pure(s, nm.thermal_state(s),
                       [nm.pulse(0, "x", math.pi / 2),
                        nm.pulse(1, "x", math.pi / 2)], (1.0, 1.0))
    peaks = nm.peak_integrals(rho)
    wa, wb = s.omega
    assert peaks.a_low == pytest.approx(wa / 2)
    assert peaks.a_high == pytest.approx(wa / 2)
    assert peaks.b_low == pytest.approx(wb / 2)
    assert peaks.b_high == pytest.approx(wb / 2)


def test_flip_then_readout_splits_lines():
    # a b-controlled flip of the input spin makes its two lines antiphase
    s = nm.formate_system()
    rho = nm._run_pure(s, nm.thermal_state(s), nm.cnot_ba_events(s),
                       (1.0, 1.0))
    rho = nm._run_pure(s, rho, [nm.pulse(0, "x", math.pi / 2)], (1.0, 1.0))
    peaks = nm.peak_integrals(rho)
    wa = s.omega[0]
    assert peaks.a_low == pytest.approx(wa / 2)
    assert peaks.a_high == pytest.approx(-wa / 2)


def test_cnot_interchanges_populations():
    s = nm.formate_system()
    out = nm._run_pure(s, nm.thermal_state(s), nm.cnot_ba_events(s),
                       (1.0, 1.0))
    th = np.diag(nm.thermal_state(s))
    swapped = np.array([th[0], th[3], th[2], th[1]])
    assert np.allclose(np.diag(out), swapped, atol=1e-6)
    assert np.max(np.abs(out - np.diag(np.diag(out)))) < 1e-6


def test_tomography_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rho = rand_deviation(2, rng)
        rho = rho - np.trace(rho) / 4 * np.eye(4)   # traceless deviation
        rec = nm.state_tomography(lambda: rho)
        assert np.max(np.abs(rec - rho)) < 1e-10


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


def test_temporal_label_accepts_unitaries():
    s = nm.formate_system()
    cn = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                  dtype=complex)
    lab = nm.temporal_label(s, [None, cn])
    wa, wb = s.omega
    expect = wa * np.diag([1.0, 0.0, -1.0, 0.0]) \
        + wb * np.diag([1.0, -1.0, 1.0, -1.0])
    assert np.max(np.abs(lab - expect)) < 1e-6


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


def test_hybrid_label_two_spins():
    out = nm.hybrid_label(2, (2.0, 1.0))
    assert np.allclose(out["lower_block"], np.diag([0.0, 3.0]))
    assert out["gate_count"]["total"] == 2


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


def test_dj_thermal_scaling_exact():
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 10):
        dim = 2 ** n
        table = np.zeros(dim, dtype=int)
        table[rng.permutation(dim)[:dim // 2]] = 1
        p = rng.uniform(0.05, 1.0, size=n + 1)
        out = nm.dj_thermal(n, lambda x: table[x], list(p))
        assert out["scaling_error"] < 1e-12
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


def test_dj_rejects_other_oracles():
    with pytest.raises(ValueError):
        nm.dj_thermal(3, lambda x: int(x == 0), 1.0)
    with pytest.raises(ValueError):
        nm.dj_thermal(0, lambda x: 0, 1.0)
    with pytest.raises(ValueError):
        nm.dj_thermal(3, lambda x: 0, [0.5, 0.5])


# ----------------------------------------------------------------- RF model

def test_rf_calibration_hits_targets():
    rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=32)
    for ch, target in ((0, 0.96), (1, 0.92)):
        val = nm.rf_average(lambda s, c=ch: math.sin(s[c] * math.pi / 2),
                            rf, channels=2)
        assert val == pytest.approx(target, abs=1e-9)


def test_rf_monte_carlo_deterministic_and_close():
    rf = nm.RfModel(kind="lorentzian",
                    widths=nm.RfModel.lorentzian().widths,
                    integration="monte-carlo", shots=4000, seed=7)
    f = lambda s: math.sin(s[0] * math.pi / 2)
    v1 = nm.rf_average(f, rf, channels=2)
    v2 = nm.rf_average(f, rf, channels=2)
    assert v1 == v2
    assert v1 == pytest.approx(0.96, abs=5e-3)


def test_rf_none_matches_noiseless():
    out_none = nm.two_bit_experiment(0.3 * math.pi, 0.05, mode="coded",
                                     rf=nm.RfModel.none())
    out_absent = nm.two_bit_experiment(0.3 * math.pi, 0.05, mode="coded")
    assert out_none == out_absent


def test_rf_scale_sets_weights_normalized():
    rf = nm.RfModel.lorentzian(nodes=8)
    sets = nm.rf_scale_sets(rf, 2)
    assert len(sets) == 64
    assert sum(w for _, w in sets) == pytest.approx(1.0, abs=1e-12)
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
    for build in (nm.storage_grid, nm.cnot_ba_events, nm.encode_events,
                  nm.decode_events):
        with pytest.raises(ValueError, match="J01"):
            build(free)


def test_calibrate_width_input_checks():
    with pytest.raises(ValueError):
        nm.calibrate_width(1.5)
    with pytest.raises(ValueError):
        nm.calibrate_width(0.05)


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


def test_fidelity_delta_perfect_run():
    pts = [(th, math.sin(th), math.cos(th)) for th in nm.THETA_GRID]
    assert nm.fidelity_delta(pts) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        nm.fidelity_delta([(0.1, 1.0, 0.0)])


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
