"""Spans recorded around calls into qwork's public functions.

A Tracer replaces selected module attributes with wrappers that record a
span per call: name, start, end, parent span and task id.  Because qwork's
modules call each other through module attributes (``qec_engine.
check_approximate`` from ``bosonic_codes``, ``two_bit_experiment`` from
``two_bit_sweep``), nested calls become child spans, and a span's self time
is its duration minus the time its children cover.  Nothing in qwork is
edited: the attributes are restored when tracing stops.  Spans stay in
memory and are written out as JSON lines when the run ends.
"""

import functools
import json
import time

# Public functions timed per module; each becomes a span named
# "<module>.<function>".  Classmethods are given as "Class.method".
TRACED = {
    "qop_core": ("choi_of", "kraus_from_choi", "tomography_method1",
                 "tomography_method2", "unital_qubit_decompose"),
    "qec_engine": ("four_bit_pipeline", "fidelity_lower_bound",
                   "min_overlap_fidelity", "check_approximate", "check_exact",
                   "canonicalize_errors", "build_recovery"),
    "bosonic_codes": ("example_codes", "check_nondeformation",
                      "verify_by_channel"),
    "stabilizer": ("ad_correctable", "ad_dense_check",
                   "verify_c3_construction"),
    "recoupler": ("plan_decouple", "emit_pulses", "verify_schedule"),
    "nmr_sim": ("RfModel.lorentzian", "two_bit_sweep", "two_bit_experiment",
                "run_sequence", "identity_offset", "state_tomography",
                "temporal_label", "hybrid_label", "dj_thermal",
                "ellipse_analysis", "fidelity_delta"),
}


class Tracer:
    """Records nested spans; install() patches, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # dicts in start order
        self._stack = []         # indices of open spans
        self._saved = []         # (owner, attribute, original)
        self.task = None         # id of the task now running

    def span(self, name):
        """Context manager recording one span under the current parent."""
        return _Span(self, name)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # calls made outside a task (the benchmark's own oracles) are
            # not part of the measured work
            if self.task is None:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, modules):
        """Patch TRACED functions of the given {short name: module} map."""
        for short, names in TRACED.items():
            module = modules.get(short)
            if module is None:
                continue
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                    original = owner.__dict__[attr]
                    patched = classmethod(
                        self.wrap(f"{short}.{name}", original.__func__))
                else:
                    original = getattr(module, attr)
                    patched = self.wrap(f"{short}.{name}", original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, patched)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append({"id": len(tr.spans), "name": self.name,
                         "parent": parent, "task": tr.task,
                         "start": tr.clock(), "end": None})
        tr._stack.append(len(tr.spans) - 1)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr._stack.pop()]["end"] = tr.clock()
        return False


def self_times(spans):
    """Per span id: duration minus the time its direct children cover."""
    own = {sp["id"]: sp["end"] - sp["start"] for sp in spans}
    for sp in spans:
        if sp["parent"] is not None:
            own[sp["parent"]] -= sp["end"] - sp["start"]
    return own


def summarize(spans, scale=None):
    """name -> {"busy_s": summed self time, "calls": count}.

    ``scale`` optionally maps a task id to a factor applied to the self time
    of that task's spans.
    """
    own = self_times(spans)
    out = {}
    for sp in spans:
        entry = out.setdefault(sp["name"], {"busy_s": 0.0, "calls": 0})
        entry["busy_s"] += own[sp["id"]] * (scale[sp["task"]] if scale else 1.0)
        entry["calls"] += 1
    return out


def root_time(spans):
    """Time covered by spans that have no parent."""
    return sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] is None)
