import json
import os
import shutil
import subprocess
import sys

import run
from conftest import ROOT


def test_tail_has_ten_samples_beyond_it():
    xs = list(range(40))
    value, pct = run.tail(xs)
    assert value == 29 and pct == 75.0
    assert sum(x > value for x in xs) == 10
    assert run.tail(list(range(20))) == (9, 50.0)


def test_tail_below_twenty_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_spec_lists_every_metric_the_runs_print():
    spec = run.load_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)


def test_fails_without_qwork_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "storage_rf",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            assert "correct" not in json.loads(line)
        except ValueError:
            pass


def test_scaled_seconds_follow_the_probe():
    import pytest
    import speed
    import worker

    ref = speed.REFERENCE_S
    assert speed.scaled(2.0, ref) == pytest.approx(2.0)
    assert speed.scaled(2.0, 2 * ref) == pytest.approx(1.0)
    passes = [[(1.0, ref), (0.5, 2 * ref)], [(3.0, 2 * ref), (0.4, ref)], [(2.0, ref), (0.3, ref)]]
    (s0, f0), (s1, f1) = worker.per_task(passes)
    assert (s0, f0) == (pytest.approx(1.5), 1.0)
    assert (s1, f1) == (pytest.approx(0.3), 0.3)


def test_startup_probe_follows_half_the_drift():
    import pytest
    import speed

    ref = speed.REFERENCE_S
    assert speed.startup_probe(ref) == pytest.approx(ref)
    assert speed.scaled(2.0, speed.startup_probe(4 * ref)) == pytest.approx(1.0)
