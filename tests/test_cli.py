import json
import math
import re
import shlex
from pathlib import Path

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


def test_recouple_plan_with_reduced_verify(capsys, tmp_path):
    out_file = tmp_path / "sched.json"
    code, out, _ = run_cli(capsys, "recouple", "plan", "--n", "9",
                           "--pair", "3,4", "--verify",
                           "--out", str(out_file))
    assert code == 0
    assert "PASS dense check" in out
    dev = float(out.split("deviation=")[1].split()[0])
    assert dev < 1e-10
    sched = rc.PulseSchedule.from_json(out_file.read_text())
    assert sched.n == 9
    code, _, err = run_cli(capsys, "recouple", "plan", "--n", "4",
                           "--pair", "9,1")
    assert code == 3


@pytest.mark.parametrize("pair", ["11,12", "10,11"])
def test_recouple_plan_takes_one_based_pairs(capsys, pair):
    code, out, _ = run_cli(capsys, "recouple", "plan", "--n", "12",
                           "--pair", pair, "--verify")
    assert code == 0 and "PASS dense check" in out
    kept = out.split("reduced to spins ")[1].split("]")[0].split(",")
    assert set(pair.split(",")) <= set(kept)


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
    ("channel", "roundtrip", "--count", "0"),
])
def test_verdicts_never_pass_vacuously(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 3 and "PASS" not in out and "error:" in err


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
