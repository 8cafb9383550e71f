import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import click
import numpy as np
import pytest

from qwork import cli
from qwork import nmr_sim as nm
from qwork import recoupler as rc


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- fixtures

def test_list_fixtures(capsys):
    code, out, _ = run_cli(capsys, "list-fixtures")
    assert code == 0
    for name in ("shor9", "steane7", "five_qubit", "ad4", "ad7",
                 "ex1", "ex11", "formate", "chloroform_carbon",
                 "depolarizing"):
        assert name in out
    assert "J[Hz]=195" in out


def test_registry_validates_and_lists_builtins_only_when_dir_empty(tmp_path):
    base = cli.FixtureRegistry()
    extra = cli.FixtureRegistry(str(tmp_path))
    assert sorted(base.codes) == sorted(extra.codes)
    assert sorted(base.systems) == sorted(extra.systems)


def test_custom_fixture_loading(tmp_path, capsys):
    (tmp_path / "code.json").write_text(json.dumps({
        "kind": "stabilizer_code", "name": "bitflip3",
        "payload": {"n": 3, "generators": ["ZZI", "IZZ"],
                    "logical_x": ["XXX"], "logical_z": ["ZII"]}}))
    (tmp_path / "sys.json").write_text(json.dumps({
        "kind": "spin_system", "name": "toy",
        "payload": {"omega_hz": [10.0, 5.0], "J_hz": [[0.0, 2.0], [2.0, 0.0]],
                    "t2_star_s": [1.0, 1.0]}}))
    reg = cli.FixtureRegistry(str(tmp_path))
    assert "bitflip3" in reg.codes
    assert reg.systems["toy"].omega[0] == pytest.approx(2 * math.pi * 10)
    code, out, _ = run_cli(capsys, "--fixture-dir", str(tmp_path),
                           "list-fixtures")
    assert code == 0 and "bitflip3" in out and "toy" in out


def test_corrupted_fixture_rejected(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({
        "kind": "stabilizer_code", "name": "broken",
        "payload": {"n": 3, "generators": ["ZZI", "XIZ"],
                    "logical_x": ["XXX"], "logical_z": ["ZII"]}}))
    code, _, err = run_cli(capsys, "--fixture-dir", str(tmp_path),
                           "list-fixtures")
    assert code == 3
    assert "broken.json" in err


@pytest.mark.parametrize("payload", [
    {"generators": []},
    {"generators": ["ZZI", "IZZ"], "logical_x": ["XXX"]},
    {"generators": ["ZZI"], "logical_x": ["XXX"], "logical_z": ["ZII"]},
], ids=["no-generators", "unpaired", "pair-count"])
def test_malformed_code_fixture_exits_3(tmp_path, capsys, payload):
    (tmp_path / "odd.json").write_text(json.dumps({
        "kind": "stabilizer_code", "name": "odd", "payload": payload}))
    code, out, err = run_cli(capsys, "--fixture-dir", str(tmp_path),
                             "stab", "check", "--code", "shor9")
    assert code == 3 and out == ""
    assert "odd.json" in err and ("generators" in err or "logical_x" in err)


@pytest.mark.parametrize("args", [
    ("nmr", "thermal"),
    ("nmr", "two-bit", "--theta", "0", "--td", "0", "--mode", "coded"),
], ids=["thermal", "two-bit"])
def test_broken_code_fixture_fails_commands_that_read_no_code(tmp_path,
                                                              capsys, args):
    # the directory is checked in full when the registry is made, not when
    # the command first reads a code
    (tmp_path / "broken.json").write_text(json.dumps({
        "kind": "stabilizer_code", "name": "broken",
        "payload": {"n": 3, "generators": ["ZZI", "XIZ"],
                    "logical_x": ["XXX"], "logical_z": ["ZII"]}}))
    code, out, err = run_cli(capsys, "--fixture-dir", str(tmp_path), *args)
    assert code == 3 and out == ""
    assert "broken.json" in err


def test_fixture_dir_env_var(tmp_path, capsys, monkeypatch):
    (tmp_path / "sys.json").write_text(json.dumps({
        "kind": "spin_system", "name": "envsys",
        "payload": {"omega_hz": [1.0], "J_hz": [[0.0]], "t2_star_s": [1.0]}}))
    monkeypatch.setenv(cli.FIXTURE_DIR_ENV, str(tmp_path))
    code, out, _ = run_cli(capsys, "list-fixtures")
    assert code == 0 and "envsys" in out


def test_missing_fixture_and_bad_command(capsys):
    code, _, err = run_cli(capsys, "stab", "check", "--code", "nosuch")
    assert code == 3 and "nosuch" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 3


# ----------------------------------------------------------------- verdicts

def test_channel_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "channel", "roundtrip",
                           "--count", "9", "--seed", "4")
    assert code == 0
    assert "PASS" in out


def test_channel_show(capsys):
    code, out, _ = run_cli(capsys, "channel", "show",
                           "--kind", "depolarizing", "--p", "0.5")
    assert code == 0
    assert "completely_positive: True" in out
    assert "unital_offset: 0\n" in out
    code, _, err = run_cli(capsys, "channel", "show", "--kind", "warp")
    assert code == 3


def test_channel_show_rejects_an_option_its_kind_does_not_read(capsys, tmp_path):
    params = {"kind": "depolarizing", "p": 0.5, "gamma": 0.1}
    code, out, err = run_cli(capsys, "channel", "show", "--kind", "depolarizing",
                             "--p", "0.5", "--gamma", "0.1")
    assert code == 3 and out == ""
    assert "channel depolarizing takes no --gamma" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cli.ExperimentConfig(("channel", "show"), params).to_json())
    assert run_cli(capsys, "run", "--config", str(cfg)) == (code, out, err)


def test_qec_four_bit(capsys):
    code, out, _ = run_cli(capsys, "qec", "four-bit", "--gamma", "0.01")
    assert code == 0
    # 12 significant digits everywhere; the exact value is 5 - 6g + 2g² =
    # 4.9402, and F's last-bit rounding reaches the print amplified by 1/g²
    lead = float(re.search(r"^leading_coefficient=(\S+)$", out, re.M).group(1))
    assert abs(lead - 4.9402) < 2e-11
    assert "PASS" in out
    code, _, _ = run_cli(capsys, "qec", "four-bit", "--gamma", "0.7")
    assert code == 3


def test_bosonic_verify(capsys):
    code, out, _ = run_cli(capsys, "bosonic", "verify",
                           "--fixture", "ex1", "--gamma", "0.01")
    assert code == 0
    assert "verdict=exact" in out and "PASS" in out


def test_stab_check_verdicts(capsys):
    code, out, _ = run_cli(capsys, "stab", "check", "--code", "shor9",
                           "--t", "2", "--distance")
    assert code == 0
    assert "pauli_distance=3" in out
    # a correct negative answer is a verdict failure, not an input error
    code, _, err = run_cli(capsys, "stab", "check", "--code", "ad4",
                           "--t", "2")
    assert code == 2
    assert "NOT correctable" in err


def test_recouple_plan_with_full_verify(capsys, tmp_path):
    # all nine spins are checked, not an 8-spin sub-schedule
    out_file = tmp_path / "sched.json"
    code, out, _ = run_cli(capsys, "recouple", "plan", "--n", "9",
                           "--pair", "3,4", "--verify",
                           "--out", str(out_file))
    assert code == 0
    assert "verify[n=9]: deviation=0\nPASS toggling-frame check under 1e-10" in out
    sched = rc.PulseSchedule.from_json(out_file.read_text())
    assert sched.n == 9
    code, _, err = run_cli(capsys, "recouple", "plan", "--n", "4",
                           "--pair", "9,1")
    assert code == 3


@pytest.mark.parametrize("pair", ["11,12", "10,11"])
def test_recouple_plan_takes_one_based_pairs(capsys, pair):
    code, out, _ = run_cli(capsys, "recouple", "plan", "--n", "12",
                           "--pair", pair, "--verify")
    assert code == 0
    assert "verify[n=12]: deviation=0\nPASS toggling-frame check under 1e-10" in out


def test_recouple_plan_verify_marks_a_bound(capsys):
    # seven mistimed pairs put 14 spins in the support, past the exact
    # evaluation, so the printed deviation is a bound
    pairs = [a for k in range(1, 15, 2) for a in ("--pair", f"{k},{k + 1}")]
    code, out, err = run_cli(capsys, "recouple", "plan", "--n", "16", *pairs,
                             "--dt", "0.25", "--verify")
    assert code == 2 and "verify[n=16]: deviation<=2\n" in out
    assert "PASS" not in out and "over tolerance" in err


@pytest.mark.parametrize("args", [
    ("recouple", "plan", "--n", "5", "--pair", "0,1"),
    ("recouple", "plan", "--n", "6", "--dt", "nan"),
    ("recouple", "plan", "--n", "3000"),
    ("bosonic", "verify", "--fixture", "ex1", "--gamma", "2"),
    ("nmr", "label", "--scheme", "hybrid", "--omegas", "1"),
    ("channel", "roundtrip", "--dims", "0"),
])
def test_library_value_errors_exit_3(capsys, args):
    code, _, err = run_cli(capsys, *args)
    assert code == 3 and "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ("stab", "check", "--code", "shor9", "--t", "-1"),
    ("nmr", "tomo", "--tol", "nan"),
    ("nmr", "tomo", "--tol", "-1"),
    ("channel", "roundtrip", "--tol", "0"),
    ("channel", "roundtrip", "--tol", "inf"),
])
def test_verdicts_never_pass_vacuously(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 3 and "PASS" not in out and "error:" in err


@pytest.mark.parametrize("path, args, option", [
    (("channel", "roundtrip"), (), "count"),
    (("nmr", "sequence"), ("--events", "none.json"), "nodes"),
    (("nmr", "two-bit"), ("--mode", "coded"), "nodes"),
    (("nmr", "two-bit"), ("--mode", "coded"), "shots"),
])
def test_counts_below_one_exit_3_naming_the_option(path, args, option, tmp_path,
                                                   capsys):
    # a count of 0 ran nothing: `nmr two-bit --mode coded --nodes 0
    # --shots 0` (RF off) exited 0
    code, out, err = run_cli(capsys, *path, *args, f"--{option}", "0")
    assert code == 3 and out == "" and f"--{option}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cli.ExperimentConfig(path, {option: 0}).to_json())
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 3 and out == "" and f"'{option}'" in err


def test_recouple_decouple_verify(capsys):
    code, out, _ = run_cli(capsys, "recouple", "plan", "--n", "6", "--verify")
    assert code == 0 and "PASS" in out


# ---------------------------------------------------------------- nmr paths

def test_nmr_thermal(capsys):
    code, out, _ = run_cli(capsys, "nmr", "thermal", "--system", "formate")
    assert code == 0
    vals = [float(x) for x in out.splitlines()[1].split(":")[1].split()]
    s = nm.formate_system()
    assert vals[0] == pytest.approx((s.omega[0] + s.omega[1]) / 2, rel=1e-11)


def test_nmr_sequence(capsys, tmp_path):
    events = tmp_path / "ev.json"
    events.write_text(json.dumps([
        {"type": "pulse", "spin": 0, "axis": "x", "angle": math.pi / 2}]))
    code, out, _ = run_cli(capsys, "nmr", "sequence",
                           "--events", str(events))
    assert code == 0
    assert "spin=0" in out
    code, _, err = run_cli(capsys, "nmr", "sequence",
                           "--events", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize("event, name", [
    ({"type": "pulse", "spin": 5, "axis": "x", "angle": 1.0}, "spin 5"),
    ({"type": "pulse", "spin": -1, "axis": "x", "angle": 1.0}, "spin=-1"),
    ({"type": "pulse", "spin": 1.7, "axis": "x", "angle": 1.0}, "spin=1.7"),
    ({"type": "delay", "duration": 0.01, "refocus": [2]}, "refocus 2"),
], ids=["spin-5", "spin-negative", "spin-fraction", "refocus-2"])
def test_nmr_sequence_rejects_bad_spins(capsys, tmp_path, event, name):
    events = tmp_path / "ev.json"
    events.write_text(json.dumps([event]))
    code, out, err = run_cli(capsys, "nmr", "sequence", "--events", str(events))
    assert code == 3 and out == "" and name in err and "Traceback" not in err


SEQUENCE_SYSTEMS = {
    "three": {"omega_hz": [10.0, 5.0, 3.0],
              "J_hz": [[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]],
              "t2_star_s": [1.0, 1.0, 1.0]},
    "pair": {"omega_hz": [10.0, 5.0], "J_hz": [[0.0, 2.0], [2.0, 0.0]],
             "t2_star_s": [1.0, 1.0]},
}


@pytest.mark.parametrize("system, rf, digest", [
    ("three", (), "2444498567d0dd9401101064128c41764a081981824e6c1a956292c06ccda97b"),
    ("pair", (), "8ef6e64f9554679ba148555fd9f5e31f17e3f0a00f195748994b8ac80dcc7f0a"),
    ("pair", ("--rf", "lorentzian", "--nodes", "4"),
     "1756037812123954513fa9b8881bcb1a906bda83acb86f9f878a63896d40d625"),
], ids=["three", "pair", "pair-rf"])
def test_nmr_sequence_stdout_is_pinned(tmp_path, capsys, system, rf, digest):
    # every line of the spectrum, by spin and partner state, to the printed
    # digit; the Lorentzian model has two widths, so RF runs on two spins;
    # recorded with numpy 2.4, OpenBLAS 0.3.31 on x86-64
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for name, payload in SEQUENCE_SYSTEMS.items():
        (fixtures / f"{name}.json").write_text(json.dumps({
            "kind": "spin_system", "name": name, "payload": payload}))
    n = len(SEQUENCE_SYSTEMS[system]["omega_hz"])
    items = [{"type": "pulse", "spin": k % n, "axis": "xy"[k % 2], "angle": 0.4 + 0.3 * k}
             for k in range(5)]
    items[2:2] = [{"type": "delay", "duration": 0.013, "dephase": True, "refocus": [1]},
                  {"type": "delay", "duration": 0.021}]
    (tmp_path / "events.json").write_text(json.dumps(items))
    code, out, _ = run_cli(capsys, "--fixture-dir", str(fixtures), "nmr", "sequence",
                           "--system", system, "--events", str(tmp_path / "events.json"),
                           *rf)
    assert code == 0 and len(out.splitlines()) == n * 2 ** (n - 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_nmr_tomo(capsys):
    code, out, _ = run_cli(capsys, "nmr", "tomo", "--seed", "6")
    assert code == 0 and "PASS" in out


def test_nmr_label_schemes(capsys):
    code, out, _ = run_cli(capsys, "nmr", "label")
    assert code == 0
    code, out, _ = run_cli(capsys, "nmr", "label", "--scheme", "hybrid",
                           "--omegas", "3,1,1")
    assert code == 0
    assert "lower_block: 0 0 0 4" in out
    code, _, _ = run_cli(capsys, "nmr", "label", "--scheme", "spatial")
    assert code == 3


def test_nmr_dj(capsys):
    code, out, _ = run_cli(capsys, "nmr", "dj", "--n", "4",
                           "--oracle", "balanced", "--p", "0.6")
    assert code == 0
    assert "decision=balanced" in out
    code, out, _ = run_cli(capsys, "nmr", "dj", "--n", "3",
                           "--oracle", "constant", "--p", "0.6")
    assert code == 0 and "decision=constant" in out


def test_nmr_dj_without_signal_fails_for_both_oracles(capsys):
    for oracle in ("constant", "balanced"):
        code, out, err = run_cli(capsys, "nmr", "dj", "--n", "3",
                                 "--oracle", oracle, "--p", "0.5")
        assert code == 2 and "decision=undecided" in out
        assert "PASS" not in out and "undecided" in err
        # a qubit at p = 0.5 prints an exact 0, never -0
        assert "\nE: 0 0 0\n" in out


@pytest.mark.parametrize("path", [("channel", "roundtrip"), ("nmr", "tomo"),
                                  ("nmr", "two-bit")])
def test_negative_seed_exits_3_naming_the_option(path, tmp_path, capsys):
    code, out, err = run_cli(capsys, *path, "--seed", "-1")
    assert code == 3 and out == "" and "--seed" in err and "-1" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(cli.ExperimentConfig(path, seed=-1).to_json())
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 3 and out == "" and "'seed'" in err and "-1" in err


def test_nmr_two_bit_point_matches_module(capsys):
    theta, td = 3 * math.pi / 10, 24 / 195.0
    code, out, _ = run_cli(capsys, "nmr", "two-bit", "--theta", str(theta),
                           "--td", str(td), "--mode", "coded")
    assert code == 0
    ref = nm.two_bit_experiment(theta, td, mode="coded")
    assert f"x={cli.fmt(ref['accepted'][0])}" in out
    assert f"z={cli.fmt(ref['accepted'][1])}" in out


def test_nmr_two_bit_rejects_non_finite_delay(capsys):
    code, _, err = run_cli(capsys, "nmr", "two-bit", "--td", "nan",
                           "--mode", "coded")
    assert code == 3 and "finite" in err


def test_nmr_two_bit_rejects_a_delay_whose_phase_overflows(capsys):
    code, out, err = run_cli(capsys, "nmr", "two-bit", "--td", "1e308",
                             "--mode", "coded")
    assert code == 3 and out == "" and "t_d" in err and "Traceback" not in err


def test_nmr_two_bit_rejects_three_spin_fixture(tmp_path, capsys):
    (tmp_path / "three.json").write_text(json.dumps({
        "kind": "spin_system", "name": "three",
        "payload": {"omega_hz": [10.0, 5.0, 3.0],
                    "J_hz": [[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]],
                    "t2_star_s": [1.0, 1.0, 1.0]}}))
    code, _, err = run_cli(capsys, "--fixture-dir", str(tmp_path), "nmr",
                           "two-bit", "--system", "three", "--mode", "coded")
    assert code == 3 and "got 3 spins" in err and "Traceback" not in err


def test_nmr_two_bit_rejects_bad_rf_settings(capsys):
    base = ("nmr", "two-bit", "--rf", "lorentzian", "--theta", "0.3",
            "--mode", "coded")
    for extra, name in ((("--integration", "monte-carlo", "--shots", "0"), "shots"),
                        (("--nodes", "0"), "nodes"),
                        (("--integration", "simpson"), "integration")):
        code, _, err = run_cli(capsys, *base, *extra)
        assert code == 3 and name in err


def test_nmr_two_bit_sweep_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "nmr", "two-bit", "--sweep",
                             "--mode", "control", "--rf", "lorentzian",
                             "--nodes", "4", "--seed", "3",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "theta,td,mode,x_acc,z_acc,x_rej,z_rej"


# ------------------------------------------------------------ config replay

def test_run_config_replays_identically(tmp_path, capsys):
    code, direct, _ = run_cli(capsys, "nmr", "dj", "--n", "3",
                              "--oracle", "constant", "--p", "0.6")
    assert code == 0
    cfg = cli.ExperimentConfig(command=("nmr", "dj"),
                               params={"n": 3, "oracle": "constant",
                                       "p": 0.6})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    code, replay, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    assert replay == direct


def test_config_json_round_trip():
    cfg = cli.ExperimentConfig(command=("nmr", "two-bit"),
                               params={"sweep": True, "mode": "coded"},
                               fixture_dir="/tmp/f", seed=9, output="x.csv")
    back = cli.ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(cli.InputError):
        cli.ExperimentConfig.from_json("not json at all")


def _command_paths(group=cli.cli, prefix=()):
    for name, cmd in sorted(group.commands.items()):
        if isinstance(cmd, click.Group):
            yield from _command_paths(cmd, prefix + (name,))
        else:
            yield prefix + (name,)


def _command(path):
    cmd = cli.cli
    for name in path:
        cmd = cmd.commands[name]
    return cmd


def replay_cases(tmp):
    """path -> (direct options, the params replaying them, top-level fields)
    for every command; output files and fixtures live under ``tmp``."""
    events = tmp / "events.json"
    events.write_text(json.dumps([
        {"type": "pulse", "spin": 0, "axis": "x", "angle": math.pi / 2},
        {"type": "delay", "duration": 0.002, "dephase": True},
        {"type": "pulse", "spin": 1, "axis": "y", "angle": 1.0}]))
    inner = tmp / "inner.json"
    inner.write_text(cli.ExperimentConfig(("nmr", "dj"), {"n": 2}).to_json())
    fixtures = tmp / "fixtures"
    fixtures.mkdir(exist_ok=True)
    (fixtures / "code.json").write_text(json.dumps({
        "kind": "stabilizer_code", "name": "bitflip3",
        "payload": {"n": 3, "generators": ["ZZI", "IZZ"],
                    "logical_x": ["XXX"], "logical_z": ["ZII"]}}))
    fx = {"fixture_dir": str(fixtures)}
    return {
        ("list-fixtures",): ([], {}, fx),
        ("run",): (["--config", str(inner)], {"config_path": str(inner)}, {}),
        ("channel", "roundtrip"): (
            ["--count", "5", "--dims", "3,2", "--seed", "4"],
            {"count": 5, "dims": [3, 2]}, {"seed": 4}),
        ("channel", "show"): (
            ["--kind", "generalized_amplitude_damping", "--gamma", "0.3",
             "--p", "0.4"],
            {"kind": "generalized_amplitude_damping", "gamma": 0.3, "p": 0.4},
            {}),
        ("qec", "four-bit"): (["--gamma", "0.02"], {"gamma": 0.02}, {}),
        ("bosonic", "verify"): (["--fixture", "ex3", "--gamma", "0.02"],
                                {"fixture": "ex3", "gamma": 0.02}, {}),
        ("stab", "check"): (["--code", "bitflip3", "--t", "1", "--distance"],
                            {"code": "bitflip3", "t": 1, "distance": True}, fx),
        ("recouple", "plan"): (
            ["--n", "9", "--pair", "3,4", "--pair", "5,7", "--zeeman-free",
             "--dt", "0.25", "--verify", "--out", str(tmp / "sched.json")],
            {"n": 9, "pairs": [[3, 4], [5, 7]], "zeeman_free": True,
             "dt": 0.25, "verify": True},
            {"output": str(tmp / "sched.json")}),
        ("nmr", "thermal"): (["--system", "chloroform_proton"],
                             {"system": "chloroform_proton"}, {}),
        ("nmr", "sequence"): (
            ["--events", str(events), "--rf", "lorentzian", "--nodes", "4"],
            {"events_file": str(events), "rf": "lorentzian", "nodes": 4}, {}),
        ("nmr", "tomo"): (["--seed", "6", "--tol", "1e-9"], {"tol": 1e-9},
                          {"seed": 6}),
        ("nmr", "label"): (["--scheme", "hybrid", "--omegas", "5,2,1,1"],
                           {"scheme": "hybrid", "omegas": [5, 2, 1, 1]}, {}),
        ("nmr", "dj"): (
            ["--n", "4", "--oracle", "balanced", "--p", "0.6,0.7,0.8,0.9,0.95"],
            {"n": 4, "oracle": "balanced", "p": [0.6, 0.7, 0.8, 0.9, 0.95]},
            {}),
        ("nmr", "two-bit"): (
            ["--theta", "0.9", "--td", "0.05", "--mode", "control", "--rf",
             "lorentzian", "--integration", "monte-carlo", "--shots", "16",
             "--seed", "3", "--t1"],
            {"theta": 0.9, "td": 0.05, "mode": "control", "rf": "lorentzian",
             "integration": "monte-carlo", "shots": 16, "t1": True},
            {"seed": 3}),
    }


def _fixture_args(top):
    return ["--fixture-dir", top["fixture_dir"]] if "fixture_dir" in top else []


@pytest.mark.parametrize("path", list(_command_paths()), ids=" ".join)
def test_every_command_replays_like_the_command_line(path, tmp_path, capsys):
    # a command without a case in replay_cases fails here
    options, params, top = replay_cases(tmp_path)[path]
    code, direct, _ = run_cli(capsys, *_fixture_args(top), *path, *options)
    assert code in (0, 2) and direct
    written = None
    if "output" in top:
        written = Path(top["output"]).read_bytes()
        Path(top["output"]).unlink()
    cfg = tmp_path / "replay.json"
    cfg.write_text(cli.ExperimentConfig(path, params, **top).to_json())
    assert run_cli(capsys, "run", "--config", str(cfg))[:2] == (code, direct)
    if written is not None:
        assert Path(top["output"]).read_bytes() == written


@pytest.mark.parametrize("config, key", [
    ({"command": ["nmr", "dj"], "params": {"n": 3.5}}, "'n'"),
    ({"command": ["nmr", "dj"], "params": {"n": "3"}}, "'n'"),
    ({"command": ["nmr", "dj"], "params": {"n": None}}, "'n'"),
    ({"command": ["nmr", "dj"], "params": {"p": True}}, "'p'"),
    ({"command": ["nmr", "dj"], "params": {"bogus": 1}}, "'bogus'"),
    ({"command": ["recouple", "plan"],
      "params": {"n": 4, "zeeman_free": "no"}}, "'zeeman_free'"),
    ({"command": ["recouple", "plan"],
      "params": {"n": 4, "pairs": [[1, 2, 3]]}}, "'pairs'"),
    ({"command": ["stab", "check"], "params": {"code": "shor9", "t": 1.7}},
     "'t'"),
    ({"command": ["channel", "roundtrip"], "params": {"dims": ["2", 3]}},
     "'dims'"),
    ({"command": ["nmr", "two-bit"], "params": {"mode": "sideways"}},
     "'mode'"),
    ({"command": ["recouple", "plan"], "params": {}}, "'n'"),
    ({"command": ["channel", "show"], "params": {}}, "'kind'"),
    ({"command": ["bosonic", "verify"], "params": {"gamma": 0.01}},
     "'fixture'"),
    ({"command": ["nmr", "sequence"], "params": {"events": []}}, "'events'"),
    ({"command": ["nmr", "sequence"],
      "params": {"events_file": "e.json", "shots": 8}}, "'shots'"),
    ({"command": ["nmr", "two-bit"], "params": {"out": "x.csv"}}, "'out'"),
    ({"command": ["nmr", "dj"], "output": "x.csv"}, "'output'"),
    ({"command": ["nmr", "dj"], "seed": 4}, "'seed'"),
    ({"command": ["nmr", "two-bit"], "params": {"seed": 1}, "seed": 0},
     "'seed'"),
    ({"command": "nmr dj"}, "'command'"),
    ({"command": ["nmr", "dj"], "seed": 3.5}, "'seed'"),
    ({"command": ["nmr", "dj"], "sed": 3}, "'sed'"),
    ({"command": ["nmr"]}, "'nmr'"),
])
def test_bad_replays_exit_3_naming_the_key(config, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 3 and out == "" and key in err and "Traceback" not in err


def test_a_config_cannot_replay_itself(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": ["run"],
                                "params": {"config_path": str(path)}}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 3 and "replays itself" in err


def _numeric_options():
    for path in _command_paths():
        for param in _command(path).params:
            if isinstance(param.type, (click.types.IntParamType,
                                       click.types.FloatParamType,
                                       cli.Numbers)):
                yield path, param.opts[0]


@pytest.mark.parametrize("path, option", list(_numeric_options()),
                         ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_numeric_options_fail_cleanly_at_the_edges(path, option, tmp_path,
                                                   capsys):
    # huge values are left out: --count or --nodes would do real work
    options, _, top = replay_cases(tmp_path)[path]
    for value in ("nan", "inf", "-inf", "-1", "0"):
        argv = list(options)
        if option in argv:
            argv[argv.index(option) + 1] = value
        else:
            argv += [option, value]
        code, _, err = run_cli(capsys, *_fixture_args(top), *path, *argv)
        assert code in (0, 2, 3) and "Traceback" not in err, argv


def test_fmt_twelve_digits():
    assert cli.fmt(math.pi) == "3.14159265359"
    assert cli.fmt(1.0) == "1"
    assert cli.fmt(4.94020000000539) == "4.94020000001"


# ------------------------------------------------------------------ README

def test_readme_commands_run():
    # every `qwork ...` line of the README's console blocks must run
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line, comments=True)[1:]
                for block in text.split("```console")[1:]
                for line in block.split("```")[0].splitlines()
                if line.startswith("qwork ")]
    assert len(commands) == 10
    for argv in commands:
        assert cli.main(argv) == 0, argv
