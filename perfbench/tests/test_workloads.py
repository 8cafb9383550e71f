import collections
import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

import golden
import workloads as wl
from qwork import bosonic_codes as bc
from qwork import cli
from qwork import nmr_sim as nm
from qwork import qec_engine as qe
from qwork import qop_core as qc
from qwork import recoupler as rc


def inputs(workload, seed):
    mods = wl.import_modules(workload)
    return [(t.name, t.params, t.sample) for t in wl.build(workload, seed, mods)]


def shape(tasks):
    """Task kinds and counts: the amount of work, whatever the inputs."""
    return collections.Counter((name.split("/")[0], sample) for name, _, sample in tasks)


@pytest.mark.parametrize("workload", wl.LIBRARY_WORKLOADS)
def test_generators_are_deterministic_and_seed_keeps_the_work(workload):
    a, b, c = inputs(workload, 5), inputs(workload, 5), inputs(workload, 6)
    assert a == b
    assert a != c or workload == "dense_registers"
    assert shape(a) == shape(c)


def test_dense_inputs_depend_on_the_seed():
    def events(seed):
        rng = np.random.default_rng(seed)
        wl.random_spin_system(nm, rng, 6)
        return wl.random_events(nm, rng, 6, 24, 8)
    assert events(1) == events(1) and events(1) != events(2)
    assert wl.pulses_applied(events(1)) == wl.pulses_applied(events(2)) == 24 + 8 * 4


def test_storage_slice_always_has_the_ellipse_anchors():
    for seed in range(50):
        thetas, td, stored, mc = wl.storage_slice(np.random.default_rng(seed))
        assert len(set(thetas)) == 6 and {0, 5} <= set(thetas)
        assert 1 <= td <= 5
        assert stored[0] == 0 and stored[1] in thetas[1:] and mc in thetas


def cli_list(seed, tmp_path):
    return wl.cli_commands(nm, np.random.default_rng(seed), str(tmp_path))


def test_cli_commands_use_declared_options(tmp_path):
    for seed in range(5):
        for cmd in cli_list(seed, tmp_path):
            group, argv = cli.cli, list(cmd.argv)
            ctx = group.make_context("qwork", [], resilient_parsing=True)
            while isinstance(group, type(cli.cli)):
                group = group.get_command(ctx, argv.pop(0))
                assert group is not None, cmd.argv
            declared = {opt for p in group.params for opt in p.opts}
            used = {a for a in argv if a.startswith("--")}
            assert used <= declared, (cmd.slug, used - declared)
    used = {a for c in cli_list(0, tmp_path) for a in c.argv if a.startswith("--")}
    assert {"--n", "--t", "--code", "--fixture", "--dims"} <= used


@pytest.mark.parametrize("argv", [
    ["recouple", "plan", "--spins", "6", "--pair", "2,5", "--verify"],
    ["stab", "check", "shor9", "--order", "2"],
    ["channel", "roundtrip", "--dim", "3", "--seed", "7"],
    ["nmr", "dj", "--bits", "6", "--oracle", "balanced", "--p", "0.6"],
    ["bosonic", "verify", "ex1", "--gamma", "0.01"],
])
def test_readme_spellings_are_rejected(argv, capsys):
    assert cli.main(argv) == 3


def test_replay_config_matches_the_click_layer(tmp_path):
    out = str(tmp_path / "sweep.csv")
    want = cli.ExperimentConfig(command=("nmr", "two-bit"), params={
        "sweep": True, "theta": 0.0, "td": 0.0, "mode": "coded", "rf": "none",
        "nodes": 32, "integration": "quadrature", "shots": 512, "seed": 0,
        "system": "formate", "t1": False}, seed=0, output=out)
    assert cli.ExperimentConfig.from_json(wl.replay_config(out)) == want


# ---------------------------------------------------------------------------
# every oracle passes the real output and rejects a perturbed one

def verdict(check, *args):
    chk = wl.Checker()
    check(chk, *args)
    return chk.attempted > 0 and chk.failed == 0


def test_golden_point_oracle():
    table = golden.load()
    want = table[golden.key(3, 2, "coded", "quadrature")]
    row = dict(zip(("x_acc", "z_acc", "x_rej", "z_rej"), want))
    assert verdict(wl.check_golden_point, row, want, "p")
    row["z_rej"] += 1e-7
    assert not verdict(wl.check_golden_point, row, want, "p")


def test_rf_ellipse_oracle():
    assert verdict(wl.check_rf_ellipse, {"ellipticity": 1.06})
    assert not verdict(wl.check_rf_ellipse, {"ellipticity": 1.0})


def test_fidelity_delta_reference_matches_library():
    table = golden.load()
    pts = [(nm.THETA_GRID[i],) + table[golden.key(i, 4, "coded", "quadrature")][:2]
           for i in range(11)]
    assert abs(wl.fidelity_delta_reference(pts) - nm.fidelity_delta(pts)) < 1e-14


def test_reference_evolution_oracle():
    rng = np.random.default_rng(3)
    system = wl.random_spin_system(nm, rng, 3)
    events = wl.random_events(nm, rng, 3, 6, 3)
    rho = nm.thermal_state(system) / max(system.omega)
    got = nm.run_sequence(system, rho, events)
    want = wl.reference_evolution(system, rho, events)
    assert verdict(wl.check_matrix, "seq", got, want, 1e-12)
    bad = got.copy()
    bad[1, 2] += 1e-8
    assert not verdict(wl.check_matrix, "seq", bad, want, 1e-10)


def test_sweep_oracle():
    system = nm.formate_system()
    rows = nm.two_bit_sweep(system=system)
    assert verdict(lambda chk, r: wl.check_sweep(chk, nm, r, system), rows)
    rows[40] = dict(rows[40], x_acc=rows[40]["x_acc"] + 1e-9)
    assert not verdict(lambda chk, r: wl.check_sweep(chk, nm, r, system), rows)


def test_temporal_label_oracle():
    system = nm.chloroform_system("proton")
    lab = nm.temporal_label(system, [None, nm.cnot_ba_events(system)])
    ref = wl.temporal_label_reference(system)
    assert verdict(wl.check_matrix, "lab", lab / system.omega[0], ref / system.omega[0], 1e-9)
    assert not verdict(wl.check_matrix, "lab", nm.thermal_state(system) / system.omega[0],
                       ref / system.omega[0], 1e-9)


def test_hybrid_and_dj_oracles():
    out = nm.hybrid_label(5, [3.0, 1.0, 1.5, 2.0, 0.7])
    assert verdict(wl.check_hybrid, out, 5)
    bad = copy.deepcopy(out)
    bad["lower_block"][0, 0] += 1e-6
    assert not verdict(wl.check_hybrid, bad, 5)

    dj = nm.dj_thermal(4, lambda x: x & 1, 0.7)
    assert verdict(wl.check_dj, dj, 4, "balanced", 0.7)
    assert not verdict(wl.check_dj, dict(dj, decision="constant"), 4, "balanced", 0.7)
    assert not verdict(wl.check_dj, dict(dj, E=[e + 1e-9 for e in dj["E"]]), 4, "balanced", 0.7)


def test_four_bit_oracles():
    g = 0.02
    rep = qe.check_approximate(qe.four_bit_code(), qe.four_bit_reversible_set(g))
    assert verdict(wl.check_four_bit_products, rep, g)
    bad = copy.copy(rep)
    bad.canonical_p = rep.canonical_p * (1 + 1e-9)
    assert not verdict(wl.check_four_bit_products, bad, g)
    assert verdict(wl.check_four_bit_cli, "leading_coefficient=5.02\nPASS leading coefficient")
    assert not verdict(wl.check_four_bit_cli, "leading_coefficient=5.6\nPASS leading coefficient")


def test_recovery_oracle():
    five = wl.five_qubit_code(qc, qe)
    errs = wl.weight_one_paulis(qc, 5)
    rec = qe.build_recovery(five, qe.canonicalize_errors(five, errs))
    noise = [e / 4 for e in errs[:16]]
    states = [np.array([1.0, 0.0]), np.array([0.6, 0.8j])]
    assert verdict(lambda chk: wl.check_recovery(chk, qc, five, rec, noise, states))
    ident = SimpleNamespace(channel=qc.QuantumChannel([np.eye(32, dtype=complex)]))
    assert not verdict(lambda chk: wl.check_recovery(chk, qc, five, ident, noise, states))


def test_bosonic_oracle():
    code = bc.example_codes()["ex1"]
    out = bc.verify_by_channel(code, 1e-4)
    assert verdict(wl.check_bosonic, bc, out, "ex1", code, 1e-4)
    shifted = copy.copy(out)
    shifted.numeric_fidelity = out.numeric_fidelity - 2e-8
    assert not verdict(wl.check_bosonic, bc, shifted, "ex1", code, 1e-4)
    assert not verdict(wl.check_bosonic, bc, copy.copy(out).__class__(
        **{**out.__dict__, "difference": 1e-6}), "ex1", code, 1e-4)


def test_sign_matrix_oracle():
    sign = rc.plan_decouple(12)
    assert verdict(wl.check_sign_matrix, sign, 12)
    e = sign.entries.copy()
    e[3, 5] *= -1
    assert not verdict(wl.check_sign_matrix, SimpleNamespace(entries=e, m=sign.m), 12)
    assert not verdict(wl.check_sign_matrix,
                       SimpleNamespace(entries=sign.entries.astype(float), m=sign.m), 12)


def test_cli_output_oracles():
    system = nm.formate_system()
    want = wl.ideal_point(nm, system, 0.6, 0.1, "coded")
    line = "accepted: x=%.12g z=%.12g\nrejected: x=%.12g z=%.12g" % want
    assert verdict(wl.check_two_bit_cli, line, want, "two-bit")
    assert not verdict(wl.check_two_bit_cli, line.replace("x=", "x=1"), want, "two-bit")
    p = 0.3
    spec = "choi_eigenvalues: %r %r %r %r" % (0.2, 0.2, 0.2, 1.4)
    assert verdict(wl.check_choi_spectrum, spec, p)
    assert not verdict(wl.check_choi_spectrum, spec, 0.31)
    diag = wl.thermal_diagonal(system)
    text = "diagonal[rad/s]: " + " ".join("%.12g" % d for d in diag)
    assert verdict(wl.check_thermal_cli, text, nm, "formate")
    assert not verdict(wl.check_thermal_cli, text, nm, "chloroform_carbon")
    lab = np.real(np.diag(wl.temporal_label_reference(system)))
    text = "two-run temporal label, diagonal[rad/s]: " + " ".join("%.12g" % d for d in lab)
    assert verdict(wl.check_label_cli, text, system)
    assert not verdict(wl.check_label_cli, text.replace(" -", " "), system)


def test_min_overlap_closed_forms_hold():
    for kind, arg, want in (("amplitude_damping", "gamma", lambda x: 1 - x),
                            ("depolarizing", "p", lambda x: 1 - 2 * x / 3),
                            ("phase_damping", "p", lambda x: 1 - x)):
        f = qe.min_overlap_fidelity(qc.standard_channel(kind, **{arg: 0.2}))
        assert math.isclose(f, want(0.2), abs_tol=1e-9)


def test_spread_evenly_keeps_each_group_in_order():
    groups = [["a0", "a1"], ["b0", "b1", "b2", "b3"], ["c0"]]
    merged = wl.spread_evenly(groups)
    assert sorted(merged) == sorted(sum(groups, []))
    for g in groups:
        assert [t for t in merged if t in g] == g
    assert merged.index("c0") in (2, 3, 4)    # the middle, not an end


def test_code_search_plans_every_n_once():
    mods = wl.import_modules("code_search")
    plans = [t.params["n"] for t in wl.build("code_search", 3, mods)
             if t.name.startswith("plan_decouple/")]
    covered = sorted(n for lo, hi in plans for n in range(lo, hi + 1))
    assert covered == list(range(2, 257))
    assert sum(lo == hi for lo, hi in plans) == 128
