"""qwork benchmark: four closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload storage_rf --seed 1 --seconds 20 --trace 0

Run from the repository root.  One task runs at a time, and one process at a
time besides this one, all on one CPU: library workloads run in a fresh
worker process (perfbench/worker.py), and cli_cold starts one
``python -m qwork.cli`` process per command.  Every timing is paired with a
speed probe and reported at reference speed (see speed.py); raw seconds go
to the result file too.  Every output is checked; the last line printed is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
A result file with provenance goes to perfbench/out/.  See
perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"      # at most nproc; one thread keeps a shared box steady


def configure_env():
    """Environment of this process and every child it starts; numpy must
    not be imported yet, so that it reads the BLAS thread count."""
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    os.environ["PYTHONHASHSEED"] = "0"    # same dict and set layouts in every process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # parent, workers and CLI processes share one CPU, so a probe taken here
    # measures the CPU the next child runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)


if __name__ == "__main__":
    configure_env()

sys.path.insert(0, HERE)
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter

SETUP_SPAWNS = 3        # fresh processes timed for setup_s (median)
STARTUP_SPAWNS = 3      # fresh `import qwork.cli` timings in traced runs
RUN_LIMIT_S = 170       # a run must end inside the 180 s the contract allows

UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
         "peak_rss_mb": "MB"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  Below 20 samples that would fall under the median, so the
    maximum is reported instead (percentile 100)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def git_commit():
    """Commit of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args):
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(), "git_commit": git_commit(),
        "reference_probe_s": speed.REFERENCE_S,
        "startup_elasticity": speed.STARTUP_ELASTICITY,
    }


class Run:
    """Child processes of one benchmark run, all inside a time limit."""

    def __init__(self):
        self.deadline = clock() + RUN_LIMIT_S

    def remaining(self):
        left = self.deadline - clock()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time limit")
        return left

    def timed(self, argv, cwd=ROOT):
        """(seconds, probe, returncode, stdout, stderr) of one child, start
        to exit, with the speed probes from just before and after it (as
        they apply to start-up: children here are fresh processes)."""
        before = speed.probe()
        start = clock()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        elapsed = clock() - start
        probe = speed.startup_probe((before + speed.probe()) / 2)
        return elapsed, probe, proc.returncode, out, err

    def until_ready(self, argv):
        """Start a worker; (seconds to its ``ready`` line, probe, process)."""
        probe = speed.startup_probe(speed.probe())
        start = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = clock() - start
        if line.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise RuntimeError(f"worker failed during set-up:\n{err}")
        return ready, probe, proc

    def finish(self, proc, result=True):
        """Wait for a worker; return its JSON result line if asked."""
        try:
            out, err = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{err}")
        if not result:
            return None
        return json.loads(out.strip().splitlines()[-1])


def startup_samples(run, count):
    """(seconds, probe) of fresh `import qwork.cli` processes."""
    argv = [sys.executable, "-c", "import qwork.cli"]
    return [run.timed(argv)[:2] for _ in range(count)]


def run_library(run, args, out_dir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    setup, startup = [], None
    if args.trace:
        startup = startup_samples(run, STARTUP_SPAWNS)
    else:
        for _ in range(SETUP_SPAWNS - 1):
            ready, probe, proc = run.until_ready(cmd + ["--setup-only"])
            run.finish(proc, result=False)
            setup.append((ready, probe))
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    ready, probe, proc = run.until_ready(cmd + [
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans_path])
    setup.append((ready, probe))
    result = run.finish(proc)
    result["setup"] = setup
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if args.trace:
        result.update(cli_startup=startup, spans_file=os.path.relpath(spans_path, ROOT))
    return result


def run_cli_cold(run, args, out_dir):
    import numpy as np
    from qwork import nmr_sim

    workdir = os.path.join(out_dir, f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = startup_samples(run, STARTUP_SPAWNS if args.trace else SETUP_SPAWNS)
        commands = workloads.cli_commands(nmr_sim, np.random.default_rng(args.seed), workdir)
        chk = workloads.Checker()
        passes, spans = [], []
        start = clock()
        while True:
            passes.append(cli_pass(run, commands, workdir, chk, spans, f"{len(passes)}:"))
            spent = clock() - start
            # two passes at least: a traced run needs an untraced and a
            # traced pass, and 32 invocations put the tail under the maximum
            if len(passes) >= 2 and spent + spent / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"attempted": chk.attempted, "failed": chk.failed, "messages": chk.messages,
              "setup": setup, "passes": [sum(t for t, _ in p) for p in passes],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if not args.trace:
        result["tasks"] = [{"name": c.slug, "sample": True, "argv": ["qwork"] + c.argv,
                            "scaled_s": s, "fastest_s": f}
                           for c, (s, f) in zip(commands, worker.per_task(passes))]
        # latency per command invocation: always two passes, so 32 samples
        # and a fixed tail percentile
        result["latencies"] = {"scaled_s": [speed.scaled(t, p) for ps in passes for t, p in ps],
                               "fastest_s": [t for ps in passes for t, _ in ps]}
        return result
    # the first pass is the untraced one; the rest record one span per command
    traced = [s for s in spans if not s["task"].startswith("0:")]
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as fh:
        for sp in traced:
            fh.write(json.dumps(sp) + "\n")
    per_cmd = worker.per_task(passes[1:])
    wall = sum(s for s, _ in per_cmd)
    untraced = sum(s for s, _ in worker.per_task(passes[:1]))
    layers = {f"cli.{c.slug}.s": s for c, (s, _) in zip(commands, per_cmd)}
    layers.update({
        "trace.wall_s": wall, "trace.untraced_wall_s": untraced,
        "trace.overhead_ratio": wall / untraced - 1.0,
        "trace.span_coverage": sum(s["end"] - s["start"] for s in traced)
        / sum(t for p in passes[1:] for t, _ in p)})
    result.update({"cli_startup": setup, "untraced_passes": result["passes"][:1],
                   "passes": result["passes"][1:], "spans_file": os.path.relpath(path, ROOT),
                   "layers": layers})
    return result


def cli_pass(run, commands, workdir, chk, spans, label):
    """Each command once in a fresh process; returns [(seconds, probe)]."""
    cli = [sys.executable, "-m", "qwork.cli"]
    timings, outputs = [], {}
    for cmd in commands:
        if cmd.slug == "run.config":
            with open(os.path.join(workdir, "replay.json"), "w") as fh:
                fh.write(workloads.replay_config(os.path.join(workdir, "sweep.csv")))
            shutil.copyfile(os.path.join(workdir, "sweep.csv"),
                            os.path.join(workdir, "sweep.first.csv"))
        t0 = clock()
        dt, probe, code, out, err = run.timed(cli + cmd.argv, cwd=workdir)
        spans.append({"id": len(spans), "name": f"cli.{cmd.slug}", "parent": None,
                      "task": label + cmd.slug, "start": t0, "end": t0 + dt})
        timings.append((dt, probe))
        outputs[cmd.slug] = out
        if not chk.expect(code == 0, f"qwork {' '.join(cmd.argv)} exited {code}: "
                                     f"{err.decode(errors='replace').strip()}"):
            continue
        if cmd.check is not None:
            cmd.check(chk, out.decode(errors="replace"))
    chk.expect(outputs.get("run.config") == outputs.get("nmr.two-bit.sweep-out"),
               "run --config replay stdout differs from the original run")
    with open(os.path.join(workdir, "sweep.csv"), "rb") as a, \
            open(os.path.join(workdir, "sweep.first.csv"), "rb") as b:
        chk.expect(a.read() == b.read(), "run --config replay wrote a different CSV")
    return timings


def end_to_end(result):
    """Metrics at reference speed, and the same from raw seconds (fastest
    repetition per task).  Library task latencies are one per sampled task,
    so the tail's percentile does not move with the number of passes;
    cli_cold gives one per invocation."""
    tasks = result["tasks"]
    out = {}
    for kind, key in (("scaled", "scaled_s"), ("raw", "fastest_s")):
        samples = result.get("latencies", {}).get(key) or [
            t[key] for t in tasks if t["sample"]]
        value, pct = tail(samples)
        setup = [speed.scaled(t, p) if kind == "scaled" else t for t, p in result["setup"]]
        out[kind] = {"setup_s": statistics.median(setup),
                     "wall_s": sum(t[key] for t in tasks),
                     "task_p50_s": statistics.median(samples),
                     "task_tail_s": value,
                     "peak_rss_mb": result["peak_rss_mb"]}
    return out, pct, len(samples)


def per_layer(result, spec):
    layers = dict(result["layers"])
    layers["cli.startup_s"] = statistics.median(speed.scaled(t, p)
                                                for t, p in result["cli_startup"])
    return {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="qwork benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qwork", "cli.py")):
        print(f"error: no qwork sources under {SRC}; run from a qwork checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    run = Run()
    if args.workload == "cli_cold":
        result = run_cli_cold(run, args, out_dir)
    else:
        result = run_library(run, args, out_dir)

    attempted, failed = result["attempted"], result["failed"]
    record = {"provenance": provenance(args), "attempted": attempted, "failed": failed,
              "check_fail_ratio": failed / attempted, "failures": result["messages"],
              "pass_raw_s": result["passes"]}
    lines = []
    if args.trace:
        metrics = per_layer(result, spec)
        record.update({"untraced_pass_raw_s": result["untraced_passes"],
                       "spans_file": result["spans_file"]})
    else:
        values, pct, count = end_to_end(result)
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values["scaled"].items()}
        record.update({"raw": values["raw"], "tail_percentile": pct, "sample_count": count,
                       "setup_raw_s": [t for t, _ in result["setup"]],
                       "tasks": result["tasks"]})
        lines.append(f"task_tail_s is the p{pct:.1f} of {count} task latencies")
        lines += [f"raw {k} = {v:.6g} {UNITS[k]}" for k, v in values["raw"].items()]
    record["metrics"] = metrics

    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload={args.workload} seed={args.seed} passes={len(result['passes'])} "
          f"result={os.path.relpath(path, ROOT)}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"check_fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for msg in result["messages"]:
        print(f"FAILED CHECK: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
