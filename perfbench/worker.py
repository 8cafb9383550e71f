"""Runs one library workload in a fresh process; driven by run.py.

Prints ``ready`` as soon as imports and fixtures are built (the parent times
that as set-up), then runs passes over the workload's task list, one task at
a time, each right after a speed probe (see speed.py), and prints one JSON
line with every task's latency at reference speed and raw, check counts and,
with --trace 1, the per-layer numbers from the spans.

    PYTHONPATH=src python3 perfbench/worker.py --workload code_search \
        --seed 1 --seconds 10 --trace 0
"""

import argparse
import json
import statistics
import sys
import time

import spans
import speed
import workloads

clock = time.perf_counter


def run_pass(tasks, chk, tracer=None, label="", totals=None):
    """One pass; returns [(seconds, probe)] per task, the probe averaged from
    just before and just after the task (the probe after one task is the
    probe before the next).  Oracles are untimed."""
    timings = []
    before = speed.probe()
    for task in tasks:
        if tracer is not None:
            tracer.task = f"{label}{task.name}"
        start = clock()
        try:
            out = task.run()
            error = None
        except Exception as exc:  # a failing task is counted, not fatal
            out, error = None, exc
        elapsed = clock() - start
        if tracer is not None:
            tracer.task = None
        after = speed.probe()
        timings.append((elapsed, (before + after) / 2))
        before = after
        if not chk.expect(error is None, f"{task.name} raised {error!r}"):
            continue
        try:
            task.check(chk, out)
        except Exception as exc:
            chk.fail(f"{task.name}: oracle could not read the output ({exc!r})")
        if totals is not None and task.counts is not None:
            for key, value in task.counts(out).items():
                totals[key] = totals.get(key, 0) + value
    return timings


def per_task(passes):
    """Each task's (seconds at reference speed, fastest raw seconds).

    The first is the median over the passes of the latency scaled by its
    probe.
    """
    return [(statistics.median(speed.scaled(t, p) for t, p in reps),
             min(t for t, _ in reps))
            for reps in zip(*passes)]



def measure(tasks, seconds, chk):
    """Passes until the next one would run past the time budget."""
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(tasks, chk))
        spent = clock() - start
        if spent + spent / len(passes) > seconds:
            return passes


def measure_traced(workload, seed, mods, tasks, seconds, chk, spans_path):
    """Alternate untraced and traced passes; per-layer numbers per pass.

    Span self times are scaled by the probe of the task they belong to.
    """
    tracer = spans.Tracer()
    tracer.install(mods)
    probes = {"setup": speed.probe()}
    tracer.task = "setup"
    traced_tasks = workloads.build(workload, seed, mods)
    tracer.task = None
    tracer.uninstall()
    plain, traced, totals = [], [], {}
    start = clock()
    while True:
        plain.append(run_pass(tasks, chk))
        label = f"{len(traced)}:"
        tracer.install(mods)
        try:
            traced.append(run_pass(traced_tasks, chk, tracer, label, totals))
        finally:
            tracer.uninstall()
        probes.update({label + t.name: p for t, (_, p) in zip(traced_tasks, traced[-1])})
        spent = clock() - start
        if spent + spent / len(traced) > seconds:
            break
    tracer.write_jsonl(spans_path)

    scale = {task: speed.REFERENCE_S / p for task, p in probes.items()}
    npass = len(traced)
    setup = [s for s in tracer.spans if s["task"] == "setup"]
    work = [s for s in tracer.spans if s["task"] != "setup"]
    layers = {}
    for name, entry in spans.summarize(work, scale).items():
        layers[f"{name}.busy_s"] = entry["busy_s"] / npass
        layers[f"{name}.calls"] = entry["calls"] / npass
    for name, entry in spans.summarize(setup, scale).items():
        layers[f"{name}.busy_s"] = layers.get(f"{name}.busy_s", 0.0) + entry["busy_s"]
        layers[f"{name}.calls"] = layers.get(f"{name}.calls", 0) + entry["calls"]
    for key, value in totals.items():
        layers[key] = value / npass
    points = totals.get("nmr_sim.points", 0)
    if points:
        layers["nmr_sim.scale_sets_per_point"] = totals["nmr_sim.scale_sets"] / points
    wall = sum(s for s, _ in per_task(traced))
    untraced = sum(s for s, _ in per_task(plain))
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.overhead_ratio"] = wall / untraced - 1.0
    layers["trace.span_coverage"] = (spans.root_time(work)
                                     / sum(t for p in traced for t, _ in p))
    return {"passes": [sum(t for t, _ in p) for p in traced],
            "untraced_passes": [sum(t for t, _ in p) for p in plain], "layers": layers}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.LIBRARY_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="JSON-lines span file (--trace 1)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods = workloads.import_modules(args.workload)
    tasks = workloads.build(args.workload, args.seed, mods)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    chk = workloads.Checker()
    if args.trace:
        result = measure_traced(args.workload, args.seed, mods, tasks,
                                args.seconds, chk, args.spans)
    else:
        passes = measure(tasks, args.seconds, chk)
        result = {"passes": [sum(t for t, _ in p) for p in passes],
                  "tasks": [{"name": task.name, "sample": task.sample, "params": task.params,
                             "scaled_s": s, "fastest_s": f}
                            for task, (s, f) in zip(tasks, per_task(passes))]}
    result.update({"attempted": chk.attempted, "failed": chk.failed,
                   "messages": chk.messages})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
