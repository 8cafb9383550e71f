import types

import spans


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    sp = [
        {"id": 0, "name": "a", "parent": None, "task": "t", "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "task": "t", "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "task": "t", "start": 2.0, "end": 3.0},
        {"id": 3, "name": "b", "parent": 0, "task": "t", "start": 5.0, "end": 7.0},
    ]
    assert spans.self_times(sp) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    summary = spans.summarize(sp)
    assert summary["b"] == {"busy_s": 4.0, "calls": 2}
    assert spans.summarize(sp, {"t": 0.5})["a"] == {"busy_s": 2.5, "calls": 1}
    assert spans.root_time(sp) == 10.0


def test_tracer_nests_module_calls_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2      # calls through the module
    saved = spans.TRACED
    spans.TRACED = {"m": ("outer", "inner")}
    try:
        tracer = spans.Tracer(clock=fake_clock([0.0, 1.0, 2.0, 5.0]))
        originals = (mod.outer, mod.inner)
        tracer.install({"m": mod})
        tracer.task = "t0"
        assert mod.outer(1) == 4
        tracer.task = None
        assert mod.outer(1) == 4                # outside a task: no span
        tracer.uninstall()
    finally:
        spans.TRACED = saved
    assert (mod.outer, mod.inner) == originals
    outer, inner = tracer.spans
    assert outer["name"] == "m.outer" and outer["parent"] is None
    assert inner["name"] == "m.inner" and inner["parent"] == outer["id"]
    assert inner["task"] == "t0"
    assert spans.summarize(tracer.spans)["m.outer"]["busy_s"] == 4.0


def test_tracer_patches_classmethods_and_restores():
    from qwork import nmr_sim

    before = nmr_sim.RfModel.__dict__["lorentzian"]
    tracer = spans.Tracer()
    tracer.install({"nmr_sim": nmr_sim})
    tracer.task = "setup"
    rf = nmr_sim.RfModel.lorentzian((0.96, 0.92), nodes=8)
    tracer.uninstall()
    assert nmr_sim.RfModel.__dict__["lorentzian"] is before
    assert isinstance(rf, nmr_sim.RfModel)
    assert [s["name"] for s in tracer.spans] == ["nmr_sim.RfModel.lorentzian"]
