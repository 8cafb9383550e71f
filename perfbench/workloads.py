"""Seeded inputs, task lists and correctness oracles for every workload.

Each library workload is a fixed list of tasks built from ``--seed``: a task
calls one qwork public function on inputs the benchmark generated, and its
oracle checks the output against a closed form, an independent reference
computed here, or the golden RF table.  The seed changes the inputs, never
the amount of work, so passes cost the same whatever the seed.  Oracles
record failures in a Checker instead of raising, so one wrong output is
counted and the run goes on.
"""

import importlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import golden

LIBRARY_WORKLOADS = ("storage_rf", "dense_registers", "code_search")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_cold",)

MODULES = {
    "storage_rf": ("nmr_sim",),
    "dense_registers": ("nmr_sim", "recoupler", "stabilizer"),
    "code_search": ("qop_core", "qec_engine", "bosonic_codes", "stabilizer",
                    "recoupler"),
}

FOUR_BIT_GAMMAS = (0.005, 0.01, 0.02, 0.04)


class Checker:
    """Counts oracle checks; keeps the first few failure messages."""

    def __init__(self, keep=20):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.keep = keep

    def expect(self, ok, label):
        self.attempted += 1
        if not ok:
            self.fail(label)
        return bool(ok)

    def fail(self, label):
        self.failed += 1
        if len(self.messages) < self.keep:
            self.messages.append(label)

    def close(self, label, got, want, tol):
        got, want = float(got), float(want)
        return self.expect(abs(got - want) <= tol,
                           f"{label}: got {got!r}, want {want!r} (tol {tol:g})")


@dataclass
class Task:
    """One call into qwork plus the oracle for its output.

    ``sample`` marks tasks whose latency feeds task_p50_s / task_tail_s;
    ``counts`` maps the output to exact work counts for the traced run.
    """

    name: str
    run: object
    check: object
    sample: bool = True
    params: dict = field(default_factory=dict)
    counts: object = None


def import_modules(workload):
    return {m: importlib.import_module(f"qwork.{m}") for m in MODULES[workload]}


def build(workload, seed, mods):
    """Fixtures and the fixed task list of a library workload."""
    builders = {"storage_rf": storage_rf, "dense_registers": dense_registers,
                "code_search": code_search}
    return builders[workload](np.random.default_rng(seed), mods)


# ---------------------------------------------------------------------------
# storage_rf: the noisy two-spin storage experiment

def storage_slice(rng, n_theta=11, n_td=6):
    """The seed's slice of the shipped grid, as grid indices.

    Six thetas (always 0 and pi/2) at zero storage, enough for the ellipse
    fit; one nonzero storage time with theta 0 and one more theta from the
    six; one theta for the Monte-Carlo points.
    """
    half = n_theta // 2
    others = [i for i in range(1, n_theta) if i != half]
    picked = [int(i) for i in rng.choice(others, size=4, replace=False)]
    thetas = sorted([0, half] + picked)
    stored = sorted([0, int(rng.choice(thetas[1:]))])
    return thetas, int(rng.integers(1, n_td)), stored, int(rng.choice(thetas))


def storage_rf(rng, mods):
    nm = mods["nmr_sim"]
    table = golden.load()
    system = nm.formate_system()
    tds = nm.storage_grid(system)
    quad, mc = golden.rf_models(nm)
    theta_idx, td_idx, stored_idx, mc_theta = storage_slice(
        rng, len(nm.THETA_GRID), len(tds))
    slices = {0: theta_idx, td_idx: stored_idx}
    plan = [(ti, 0, "coded", "quadrature") for ti in theta_idx]
    plan += [(ti, td_idx, mode, "quadrature")
             for mode in golden.MODES for ti in stored_idx]
    plan += [(mc_theta, td_idx, mode, "monte-carlo") for mode in golden.MODES]
    results = {}
    tasks = []
    for ti, di, mode, integration in plan:
        rf = quad if integration == "quadrature" else mc
        point = (ti, di, mode, integration)

        def run(ti=ti, di=di, mode=mode, rf=rf):
            return nm.two_bit_sweep(system=system, thetas=[nm.THETA_GRID[ti]],
                                    tds=[tds[di]], modes=(mode,), rf=rf)

        def check(chk, rows, point=point):
            results[point] = rows[0]
            check_golden_point(chk, rows[0], table[golden.key(*point)],
                               golden.key(*point))

        nsets = rf.nodes ** system.n if integration == "quadrature" else rf.shots
        tasks.append(Task(
            f"point/{golden.key(*point)}", run, check,
            params={"theta": nm.THETA_GRID[ti], "td": tds[di], "mode": mode,
                    "integration": integration},
            counts=lambda out, nsets=nsets: {"nmr_sim.scale_sets": nsets,
                                             "nmr_sim.points": 1}))

    def rows_for(di, mode):
        return [results[(ti, di, mode, "quadrature")] for ti in slices[di]]

    def golden_pts(di, mode):
        return [(nm.THETA_GRID[ti],) + table[golden.key(ti, di, mode, "quadrature")][:2]
                for ti in slices[di]]

    def pts(rows):
        return [(r["theta"], r["x_acc"], r["z_acc"]) for r in rows]

    tasks.append(Task("ellipse/coded-td0",
                      lambda: nm.ellipse_analysis(pts(rows_for(0, "coded"))),
                      check_rf_ellipse, sample=False))
    for di in (0, td_idx):
        def fid(di=di):
            return nm.fidelity_delta(pts(rows_for(di, "coded")))

        def check_fid(chk, got, di=di):
            chk.close(f"fidelity_delta td#{di}", got,
                      fidelity_delta_reference(golden_pts(di, "coded")), golden.TOL)

        tasks.append(Task(f"fidelity_delta/td{di}", fid, check_fid, sample=False))
    return tasks


def check_rf_ellipse(chk, fit):
    """Under the calibrated RF spread the stored ellipse is slightly eccentric
    even with no storage delay."""
    chk.expect(1.01 <= fit["ellipticity"] <= 1.11,
               f"RF ellipticity {fit['ellipticity']!r} outside [1.01, 1.11]")


def check_golden_point(chk, row, want, label):
    got = (row["x_acc"], row["z_acc"], row["x_rej"], row["z_rej"])
    err = max(abs(g - w) for g, w in zip(got, want))
    chk.expect(err <= golden.TOL, f"{label}: off the golden table by {err:.3g}")


def fidelity_delta_reference(points):
    """Worst input-output overlap normalized by the theta=0 amplitude."""
    norm = next(math.hypot(x, z) for th, x, z in points if abs(th) < 1e-12)
    return min((1 + (math.sin(th) * x + math.cos(th) * z) / norm) / 2
               for th, x, z in points)


# ---------------------------------------------------------------------------
# dense_registers: many spins, no ensemble

def random_spin_system(nm, rng, n):
    j = np.triu(rng.uniform(5.0, 200.0, size=(n, n)), 1)
    j = j + j.T
    return nm.SpinSystem(
        omega=tuple(2 * math.pi * rng.uniform(50e6, 600e6, size=n)),
        j=tuple(tuple(row) for row in j),
        t2_star=tuple(rng.uniform(0.1, 1.0, size=n)))


def random_events(nm, rng, n, n_pulses, n_delays):
    """Pulses and refocused dephasing delays in random order; every delay
    refocuses exactly two spins, so the work is the same for every seed."""
    events = [nm.pulse(int(rng.integers(n)), str(rng.choice(["x", "y"])),
                       float(rng.uniform(-math.pi, math.pi)))
              for _ in range(n_pulses)]
    events += [nm.delay(float(rng.uniform(1e-3, 2e-2)), dephase=True,
                        refocus=[int(s) for s in rng.choice(n, 2, replace=False)])
               for _ in range(n_delays)]
    order = rng.permutation(len(events))
    return [events[i] for i in order]


def pulses_applied(events):
    """Pulses a sequence applies, counting the two flips per refocused spin."""
    return sum(1 if ev.kind == "pulse" else 2 * len(ev.refocus) for ev in events)


def reference_evolution(system, rho, events):
    """Independent dense evolution by local tensor contraction.

    Same conventions as the simulator: a pulse conjugates one spin by
    exp(-i angle/2 sigma); a delay applies the scalar-coupling phases and the
    per-spin dephasing masks; a refocused delay is two halves with pi_y flips
    of the refocused spins after each half.
    """
    n = system.n
    dim = 2 ** n
    idx = np.arange(dim)
    signs = np.array([1 - 2 * ((idx >> (n - 1 - q)) & 1) for q in range(n)])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)

    def rotate(r, spin, axis, angle):
        u = (math.cos(angle / 2) * np.eye(2)
             - 1j * math.sin(angle / 2) * (sx if axis == "x" else sy))
        t = r.reshape((2,) * (2 * n))
        t = np.moveaxis(np.tensordot(u, t, axes=(1, spin)), 0, spin)
        t = np.moveaxis(np.tensordot(u.conj(), t, axes=(1, n + spin)), 0, n + spin)
        return t.reshape(dim, dim)

    def free(r, t, dephase):
        phase = np.zeros(dim)
        for i in range(n):
            for k in range(i + 1, n):
                phase += system.coupling(i, k) * t * signs[i] * signs[k]
        r = r * np.exp(-1j * (phase[:, None] - phase[None, :]))
        if dephase:
            for i in range(n):
                p = (1 - math.exp(-t / system.t2_star[i])) / 2
                r = r * ((1 - p) + p * np.outer(signs[i], signs[i]))
        return r

    r = np.array(rho, dtype=complex)
    for ev in events:
        if ev.kind == "pulse":
            r = rotate(r, ev.spin, ev.axis, ev.angle)
        elif ev.duration > 0:
            halves = 2 if ev.refocus else 1
            for _ in range(halves):
                r = free(r, ev.duration / halves, ev.dephase)
                for s in ev.refocus:
                    r = rotate(r, s, "y", math.pi)
    return r


def check_matrix(chk, label, got, want, tol):
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(np.asarray(got) - want))) / scale
    chk.expect(err <= tol, f"{label}: relative deviation {err:.3g} > {tol:g}")


def check_sweep(chk, nm, rows, system):
    """Noiseless sweep against ideal_outputs and the fidelity identities."""
    tol = 1e-12
    for r in rows:
        pa = nm.dephase_probability(r["td"], system.t2_star[0])
        pb = nm.dephase_probability(r["td"], system.t2_star[1])
        want = nm.ideal_outputs(r["theta"], pa, pb, mode=r["mode"])
        got = (r["x_acc"], r["z_acc"], r["x_rej"], r["z_rej"])
        err = max(abs(g - w) for g, w in zip(got, want["accepted"] + want["rejected"]))
        chk.expect(err <= tol, f"sweep {r['mode']} theta={r['theta']:.4f} "
                               f"td={r['td']:.4f}: off ideal_outputs by {err:.3g}")
    for td in sorted({r["td"] for r in rows}):
        pa = nm.dephase_probability(td, system.t2_star[0])
        pb = nm.dephase_probability(td, system.t2_star[1])
        coded = [r for r in rows if r["mode"] == "coded" and r["td"] == td]
        z0 = next(r["z_acc"] for r in coded if r["theta"] == 0.0)
        x90 = next(r["x_acc"] for r in coded if abs(r["theta"] - math.pi / 2) < 1e-12)
        chk.close(f"undetected fault rate td={td:.4f}", (z0 - x90) / 2, pa * pb, tol)
        keep = (1 - pa) * (1 - pb)
        pts = [(r["theta"], r["x_acc"], r["z_acc"]) for r in coded]
        chk.close(f"post-selected fidelity td={td:.4f}",
                  fidelity_delta_reference(pts), keep / (keep + pa * pb), tol)


def dense_registers(rng, mods):
    nm, rc, st = mods["nmr_sim"], mods["recoupler"], mods["stabilizer"]
    tasks = []
    for n, n_pulses, n_delays in ((6, 24, 8), (8, 48, 16)):
        system = random_spin_system(nm, rng, n)
        events = random_events(nm, rng, n, n_pulses, n_delays)
        rho = nm.thermal_state(system) / max(system.omega)
        count = {"nmr_sim.pulses_applied": pulses_applied(events)}
        want = {}

        def check_run(chk, out, n=n, s=system, r=rho, e=events, want=want):
            if "rho" not in want:   # the reference is oracle work: untimed
                want["rho"] = reference_evolution(s, r, e)
            check_matrix(chk, f"run_sequence {n} spins", out, want["rho"], 1e-10)

        tasks.append(Task(
            f"run_sequence/{n}spin", lambda s=system, e=events, r=rho:
            nm.run_sequence(s, r, e), check_run,
            params={"n": n, "events": len(events)}, counts=lambda out, c=count: c))
        tasks.append(Task(
            f"identity_offset/{n}spin", lambda s=system, e=events:
            nm.identity_offset(s, e),
            lambda chk, out, n=n: chk.expect(
                out < 1e-12, f"identity_offset {n} spins = {out!r}, sequence not unital"),
            params={"n": n}, counts=lambda out, c=count: c))

    formate = nm.formate_system()
    tasks.append(Task("two_bit_sweep/noiseless", lambda: nm.two_bit_sweep(system=formate),
                      lambda chk, rows: check_sweep(chk, nm, rows, formate)))

    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dev = m + m.conj().T
    dev = dev - np.trace(dev) / 4 * np.eye(4)
    tasks.append(Task("state_tomography", lambda: nm.state_tomography(lambda: dev),
                      lambda chk, rec: check_matrix(chk, "state_tomography", rec, dev, 1e-8)))

    # calls under a millisecond are batched into one task per function, so
    # every task latency is long enough to time steadily
    labels = [formate, nm.chloroform_system(str(rng.choice(["carbon", "proton"])))]
    tasks.append(Task(
        "temporal_label", lambda: [nm.temporal_label(s, [None, nm.cnot_ba_events(s)])
                                   for s in labels],
        lambda chk, outs: [check_matrix(chk, "temporal_label", lab / s.omega[0],
                                        temporal_label_reference(s) / s.omega[0], 1e-9)
                           for s, lab in zip(labels, outs)]))

    hybrid = [(n, [float(w) for w in rng.uniform(0.5, 4.0, size=n)]) for n in range(3, 11)]
    tasks.append(Task("hybrid_label/3-10", lambda: [nm.hybrid_label(n, w) for n, w in hybrid],
                      lambda chk, outs: [check_hybrid(chk, out, n)
                                         for (n, _), out in zip(hybrid, outs)]))

    queries = []
    for n in range(2, 13):
        dim = 2 ** n
        table = np.zeros(dim, dtype=int)
        table[rng.permutation(dim)[: dim // 2]] = 1
        p = float(rng.uniform(0.55, 0.95))
        probs = [float(x) for x in rng.uniform(0.05, 0.95, size=n + 1)]
        queries += [(n, "constant", lambda x: 0, p),
                    (n, "balanced", lambda x, t=table: int(t[x]), p),
                    (n, "balanced-noisy", lambda x, t=table: int(t[x]), probs)]
    tasks.append(Task("dj_thermal/2-12", lambda: [nm.dj_thermal(n, f, prob)
                                                  for n, _, f, prob in queries],
                      lambda chk, outs: [check_dj(chk, out, n, kind, prob)
                                         for (n, kind, _, prob), out in zip(queries, outs)]))

    for n in range(2, 9):
        g = np.triu(rng.uniform(5.0, 60.0, size=(n, n)), 1)
        system = rc.CouplingSystem(g + g.T, omega=rng.uniform(50.0, 800.0, size=n))
        i, j = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
        sched = rc.emit_pulses(rc.plan_decouple(n, remove_zeeman=True), 2.3e-3)
        sign = rc.plan_recouple(n, i, j)
        pair = rc.emit_pulses(sign, rc.recouple_duration(system.g[i - 1, j - 1], sign.m))
        for label, s in (("decouple", sched), (f"recouple({i},{j})", pair)):
            tasks.append(Task(
                f"verify_schedule/{n}/{label}", lambda s=s, sy=system: rc.verify_schedule(s, sy),
                lambda chk, out, label=label, n=n: chk.expect(
                    out.passed and out.max_deviation < 1e-10,
                    f"verify_schedule n={n} {label}: deviation {out.max_deviation!r}")))

    shor9 = st.shor9()
    tasks.append(Task("ad_dense_check/shor9", lambda: st.ad_dense_check(shor9, 2),
                      lambda chk, worst: chk.expect(
                          worst < 1e-9, f"ad_dense_check(shor9, 2) = {worst!r}")))
    c3_seed = int(rng.integers(2 ** 31))
    tasks.append(Task("verify_c3_construction/Toffoli",
                      lambda: st.verify_c3_construction(
                          "Toffoli", rng=np.random.default_rng(c3_seed)),
                      lambda chk, ok: chk.expect(ok is True, "Toffoli construction failed")))
    return tasks


def thermal_diagonal(system):
    """sum_i omega_i Z_i / 2 on the two-spin computational basis."""
    return (np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) @ np.array(system.omega)) / 2


def temporal_label_reference(system):
    """Thermal deviation plus its copy under the b-controlled NOT (|01>,|11>
    swapped), which is what the two-run label sums on two spins."""
    d = thermal_diagonal(system)
    return np.diag(d + d[[0, 3, 2, 1]]).astype(complex)


def check_hybrid(chk, out, n):
    lower = np.real(np.diag(out["lower_block"]))
    chk.expect(np.all(np.abs(lower[:-1] - lower[0]) < 1e-12)
               and abs(lower[-1] - lower[0]) > 1e-9,
               f"hybrid_label n={n}: lower block is not a pure deviation")
    total = (n - 1) + (1 if n == 2 else 8 * (n - 2))
    chk.expect(out["gate_count"]["total"] == total,
               f"hybrid_label n={n}: gate count {out['gate_count']['total']} != {total}")


def check_dj(chk, out, n, kind, prob):
    probs = [prob] * n if np.isscalar(prob) else prob[:n]
    for i in range(n):
        chk.close(f"dj_thermal n={n} {kind} E[{i}]", out["E"][i],
                  (2 * probs[i] - 1) * out["E_pure"][i], 1e-12)
    if kind != "balanced-noisy":
        want = "constant" if kind == "constant" else "balanced"
        chk.expect(out["decision"] == want,
                   f"dj_thermal n={n}: decided {out['decision']}, oracle is {want}")


# ---------------------------------------------------------------------------
# code_search: optimiser-driven and combinatorial verification

def random_isometry_kraus(rng, din, dout, nk):
    """Kraus operators of a random channel, cut from a random isometry."""
    z = rng.normal(size=(nk * dout, din)) + 1j * rng.normal(size=(nk * dout, din))
    q, _ = np.linalg.qr(z)
    return [q[k * dout:(k + 1) * dout, :] for k in range(nk)]


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pauli_string(qc, s):
    m = {"I": qc.I2, "X": qc.SX, "Y": qc.SY, "Z": qc.SZ}
    return qc.kron_all(*(m[c] for c in s))


def five_qubit_code(qc, qe):
    """[[5,1,3]] code space from its stabilizers and logical Z, X."""
    d = 32
    proj = np.eye(d, dtype=complex)
    for g in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        proj = proj @ (np.eye(d) + pauli_string(qc, g)) / 2
    w, v = np.linalg.eigh(proj)
    basis = v[:, w > 0.5]
    wz, vz = np.linalg.eigh(basis.conj().T @ pauli_string(qc, "ZZZZZ") @ basis)
    v0 = basis @ vz[:, np.argmax(wz)]
    return qe.CodeSpace(d, [v0, pauli_string(qc, "XXXXX") @ v0]).validate()


def weight_one_paulis(qc, n):
    errs = [np.eye(2 ** n, dtype=complex)]
    for q in range(n):
        for p in "XYZ":
            errs.append(pauli_string(qc, "I" * q + p + "I" * (n - q - 1)))
    return errs


def choi_error(qc, ch, back):
    return float(np.max(np.abs(qc.choi_of(back).mat - qc.choi_of(ch).mat)))


def code_search(rng, mods):
    qc, qe = mods["qop_core"], mods["qec_engine"]
    bc, st, rc = mods["bosonic_codes"], mods["stabilizer"], mods["recoupler"]
    four_bit, tasks = [], []

    for g in FOUR_BIT_GAMMAS:
        def check_four_bit(chk, rep, g=g):
            chk.expect(4.5 <= rep.leading_coefficient <= 5.5,
                       f"four-bit gamma={g}: leading coefficient "
                       f"{rep.leading_coefficient!r} outside [4.5, 5.5]")
            chk.close(f"four-bit gamma={g}: coefficient identity",
                      rep.leading_coefficient, (1 - rep.worst_fidelity) / g ** 2, 1e-9)
        four_bit.append(Task(f"four_bit_pipeline/{g}", lambda g=g: qe.four_bit_pipeline(g),
                             check_four_bit, params={"gamma": g}))

    # later tasks take earlier tasks' outputs as their inputs
    made = {}

    def keep(key, check):
        def wrapped(chk, out):
            made[key] = out
            check(chk, out)
        return wrapped

    code4 = qe.four_bit_code()
    for g in sorted(float(x) for x in rng.uniform(0.005, 0.03, size=2)):
        errs = qe.four_bit_reversible_set(g)
        tasks.append(Task(f"check_approximate/{g:.5f}",
                          lambda e=errs: qe.check_approximate(code4, e),
                          keep(g, lambda chk, rep, g=g: check_four_bit_products(chk, rep, g)),
                          params={"gamma": g}))
        tasks.append(Task(f"fidelity_lower_bound/{g:.5f}",
                          lambda g=g: qe.fidelity_lower_bound(made[g]),
                          lambda chk, b, g=g: chk.expect(
                              b >= 1 - 3.5 * g ** 2,
                              f"fidelity bound {b!r} below 1 - 3.5 gamma^2 at {g}"),
                          params={"gamma": g}))

    # worst-case overlap of single-qubit channels, each with a closed form
    for kind, arg, want in (("amplitude_damping", "gamma", lambda x: 1 - x),
                            ("depolarizing", "p", lambda x: 1 - 2 * x / 3),
                            ("phase_damping", "p", lambda x: 1 - x)):
        x = float(rng.uniform(0.01, 0.3))
        ch = qc.standard_channel(kind, **{arg: x})
        tasks.append(Task(f"min_overlap_fidelity/{kind}",
                          lambda ch=ch: qe.min_overlap_fidelity(ch),
                          lambda chk, f, kind=kind, x=x, want=want: chk.close(
                              f"min_overlap_fidelity {kind}({x:.4f})", f, want(x), 1e-9),
                          params={"kind": kind, arg: x}))

    five = five_qubit_code(qc, qe)
    errs5 = weight_one_paulis(qc, 5)
    tasks.append(Task("check_exact/five_qubit", lambda: qe.check_exact(five, errs5),
                      lambda chk, rep: chk.expect(
                          rep.verdict == "exact", f"five-qubit code verdict {rep.verdict}")))
    tasks.append(Task("canonicalize_errors/five_qubit",
                      lambda: qe.canonicalize_errors(five, errs5),
                      keep("canon", lambda chk, out: chk.expect(
                          len(out.errors) == len(errs5), "canonical set lost errors"))))
    weights = rng.dirichlet(np.ones(len(errs5)))
    noise = [math.sqrt(p) * e for p, e in zip(weights, errs5)]
    states = [a / np.linalg.norm(a) for a in
              rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))]
    tasks.append(Task("build_recovery/five_qubit", lambda: qe.build_recovery(five, made["canon"]),
                      lambda chk, rec: check_recovery(chk, qc, five, rec, noise, states)))

    # calls of a few milliseconds or less are batched into one task per
    # function (or per code), so every task latency is long enough to time
    codes = bc.example_codes()
    tasks.append(Task("check_nondeformation/all",
                      lambda: [bc.check_nondeformation(c) for c in codes.values()],
                      lambda chk, reps: [chk.expect(rep.passed, f"bosonic {name} fails "
                                                    "non-deformation")
                                         for name, rep in zip(codes, reps)]))
    gammas = [1e-4] + sorted(float(x) for x in rng.uniform(0.002, 0.02, size=3))
    for name in ("ex1", "ex3", "ex4", "ex8"):
        tasks.append(Task(f"verify_by_channel/{name}",
                          lambda c=codes[name]: [bc.verify_by_channel(c, g) for g in gammas],
                          lambda chk, outs, name=name, c=codes[name]:
                          [check_bosonic(chk, bc, out, name, c, g)
                           for g, out in zip(gammas, outs)],
                          params={"code": name, "gammas": gammas}))

    for name, t in (("ad4", 1), ("ad7", 1), ("shor9", 2)):
        code = getattr(st, name)()
        tasks.append(Task(f"ad_correctable/{name}", lambda c=code, t=t: st.ad_correctable(c, t),
                          lambda chk, rep, name=name: chk.expect(
                              rep.correctable, f"{name} not damping-correctable"),
                          counts=lambda rep: {"stabilizer.ad_correctable.checked": rep.checked}))

    # every (d_in, d_out) pair over 2..4 in turn, full Kraus rank: the seed
    # draws the isometries, not the sizes
    pairs = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
    channels = [qc.QuantumChannel(random_isometry_kraus(rng, din, dout, din * dout))
                for din, dout in (pairs[k % len(pairs)] for k in range(200))]

    def roundtrip():
        return [qc.kraus_from_choi(qc.choi_of(ch)) for ch in channels]

    tasks.append(Task("choi_roundtrip/200", roundtrip, lambda chk, backs: chk.expect(
        max(choi_error(qc, a, b) for a, b in zip(channels, backs)) < 1e-9,
        "Choi round-trip error above 1e-9")))

    targets = [qc.standard_channel("phase_damping", p=float(rng.uniform(0.05, 0.45))),
               qc.standard_channel("amplitude_damping", gamma=float(rng.uniform(0.05, 0.45))),
               qc.unitary_channel(random_unitary(rng, 4))]
    for method in ("tomography_method1", "tomography_method2"):
        for k, ch in enumerate(targets):
            def tomo(ch=ch, method=method):
                return getattr(qc, method)(lambda rho: qc.apply(ch, rho), ch.kraus[0].shape[1])
            tasks.append(Task(f"{method}/{k}", tomo,
                              lambda chk, got, ch=ch, label=f"{method}/{k}": chk.expect(
                                  choi_error(qc, ch, got) < 1e-8, f"{label} misses the channel")))

    unital = []
    for _ in range(20):
        w = rng.dirichlet(np.ones(3))
        unital.append(qc.QuantumChannel([math.sqrt(p) * random_unitary(rng, 2) for p in w]))
    tasks.append(Task("unital_qubit_decompose/20",
                      lambda: [qc.unital_qubit_decompose(ch) for ch in unital],
                      lambda chk, outs: [chk.expect(
                          choi_error(qc, ch, qc.QuantumChannel(
                              [math.sqrt(p) * u for p, u in terms])) < 1e-9,
                          "unital decomposition does not rebuild the channel")
                          for ch, terms in zip(unital, outs)]))

    # calls under about 20 ms (n <= 128) in blocks of eight n, and one task
    # per n above, so the median and the tail of the task latencies each
    # fall among many similar calls rather than on a jump between a few
    # batches; a stride of 17 over n spreads the costly calls over the pass
    def plan(block):
        return Task(f"plan_decouple/{block[0]}" + (f"-{block[-1]}" if len(block) > 1 else ""),
                    lambda: [rc.plan_decouple(n) for n in block],
                    lambda chk, signs: [check_sign_matrix(chk, sign, n)
                                        for n, sign in zip(block, signs)],
                    params={"n": [block[0], block[-1]]},
                    counts=lambda signs: {"recoupler.intervals_planned":
                                          sum(sign.m for sign in signs)})

    small = [plan(range(lo, min(lo + 8, 129))) for lo in range(2, 129, 8)]
    large = [plan(range(n, n + 1)) for n in (129 + 17 * k % 128 for k in range(128))]
    return spread_evenly([four_bit, tasks, small, large])


def spread_evenly(groups):
    """Merge task lists so each is spread evenly over the pass, each in its
    own order (later tasks there may use earlier tasks' outputs).  Latency
    samples taken far apart in time see different moments of a shared
    host's drift, so their median and tail drift less than the samples."""
    keyed = [((i + 0.5) / len(g), j, task) for j, g in enumerate(groups)
             for i, task in enumerate(g)]
    return [task for _, _, task in sorted(keyed, key=lambda e: e[:2])]


def check_four_bit_products(chk, rep, g):
    order = np.argsort(rep.canonical_p)[::-1]
    p, lam = rep.canonical_p[order], rep.lambdas[order]
    tol = 1e-12
    chk.close(f"four-bit p0 at {g}", p[0], (1 + (1 - g) ** 4) / 2, tol)
    chk.close(f"four-bit p1.. at {g}", np.max(np.abs(p[1:] - g * (1 - g) / 2)), 0.0, tol)
    chk.close(f"four-bit lambda0 at {g}", lam[0],
              (1 - g) ** 2 / ((1 + (1 - g) ** 4) / 2), tol)
    chk.close(f"four-bit lambda1.. at {g}", np.max(np.abs(lam[1:] - (1 - g) ** 2)), 0.0, tol)


def check_recovery(chk, qc, code, rec, noise, states):
    worst = 0.0
    for a in states:
        psi = code.encode(a)
        rho = np.outer(psi, psi.conj())
        out = qc.apply(rec.channel, sum(e @ rho @ e.conj().T for e in noise))
        fid = float(np.real(psi.conj() @ out @ psi) / np.trace(out).real)
        worst = max(worst, abs(fid - 1.0))
    chk.expect(worst < 1e-10, f"five-qubit recovery misses by {worst:.3g}")


def check_bosonic(chk, bc, out, name, code, g):
    chk.expect(out.verdict == "exact" and out.difference <= 1e-9,
               f"bosonic {name} at {g}: verdict {out.verdict}, "
               f"difference {out.difference:.3g}")
    if g <= 1e-4:
        lead = bc.leading_term(code.n_total, code.t)
        est = (1 - out.numeric_fidelity) / g ** (code.t + 1)
        chk.expect(round(est) == lead,
                   f"bosonic {name}: leading coefficient {est:.4f} != {lead}")


def check_sign_matrix(chk, sign, n):
    e = sign.entries
    ok = (e.dtype.kind in "iu" and e.shape[0] == n
          and np.array_equal(e @ e.T, sign.m * np.eye(n, dtype=e.dtype)))
    chk.expect(ok, f"plan_decouple({n}) sign matrix not orthogonal in integers")


# ---------------------------------------------------------------------------
# cli_cold: every command in a fresh process

@dataclass
class Command:
    """One CLI invocation; ``check(chk, stdout)`` judges its output."""

    slug: str
    argv: list
    check: object


def cli_commands(nm, rng, workdir):
    """The fixed cli_cold command list for a seed.

    The seed picks parameters that do not change a command's cost (the
    costly ones, four-bit gamma and the stabilizer code, are fixed).  Option
    names follow the click definitions in qwork.cli (--n, --t,
    --code, --fixture, --dims); the last two commands write a sweep with
    --out and replay the same config with ``run --config``.
    """
    table = golden.load()
    formate = nm.formate_system()
    tds = nm.storage_grid(formate)
    thetas = nm.THETA_GRID
    dims = ",".join(str(d) for d in rng.permutation([2, 3, 4]))
    p_dep = float(rng.uniform(0.05, 0.7))
    fixture = str(rng.choice(["ex1", "ex3", "ex4", "ex8"]))
    system = str(rng.choice(["formate", "chloroform_carbon", "chloroform_proton"]))
    dj_n = int(rng.integers(2, 11))
    dj_oracle = str(rng.choice(["constant", "balanced"]))
    dj_p = float(rng.uniform(0.55, 0.95))
    ti, di = int(rng.integers(11)), int(rng.integers(6))
    mode = str(rng.choice(["coded", "control"]))
    rti, rdi = int(rng.integers(11)), int(rng.integers(1, 6))
    seed = int(rng.integers(1000))
    td, rtd = tds[di], tds[rdi]
    out_csv = os.path.join(workdir, "sweep.csv")
    cfg_path = os.path.join(workdir, "replay.json")

    def passes(chk, out, slug):
        chk.expect("PASS" in out, f"{slug}: no PASS line")

    return [
        Command("list-fixtures", ["list-fixtures"], lambda chk, out: chk.expect(
            all(name in out for name in ("shor9", "ad7", "ex11", "formate",
                                         "chloroform_proton", "depolarizing")),
            "list-fixtures: missing fixtures")),
        Command("channel.roundtrip", ["channel", "roundtrip", "--dims", dims,
                                      "--seed", str(seed)],
                lambda chk, out: passes(chk, out, "channel roundtrip")),
        Command("channel.show", ["channel", "show", "--kind", "depolarizing",
                                 "--p", repr(p_dep)],
                lambda chk, out: check_choi_spectrum(chk, out, p_dep)),
        Command("qec.four-bit", ["qec", "four-bit", "--gamma", "0.01"],
                lambda chk, out: check_four_bit_cli(chk, out)),
        Command("bosonic.verify", ["bosonic", "verify", "--fixture", fixture,
                                   "--gamma", "0.01"],
                lambda chk, out: passes(chk, out, "bosonic verify")),
        Command("stab.check", ["stab", "check", "--code", "shor9", "--t", "2"],
                lambda chk, out: passes(chk, out, "stab check")),
        Command("recouple.plan.n6", ["recouple", "plan", "--n", "6", "--verify"],
                lambda chk, out: passes(chk, out, "recouple plan --n 6")),
        Command("recouple.plan.n12", ["recouple", "plan", "--n", "12", "--verify"],
                lambda chk, out: passes(chk, out, "recouple plan --n 12")),
        Command("nmr.thermal", ["nmr", "thermal", "--system", system],
                lambda chk, out: check_thermal_cli(chk, out, nm, system)),
        Command("nmr.tomo", ["nmr", "tomo", "--seed", str(seed)],
                lambda chk, out: passes(chk, out, "nmr tomo")),
        Command("nmr.label", ["nmr", "label", "--scheme", "temporal"],
                lambda chk, out: check_label_cli(chk, out, formate)),
        Command("nmr.dj", ["nmr", "dj", "--n", str(dj_n), "--oracle", dj_oracle,
                           "--p", repr(dj_p)],
                lambda chk, out: passes(chk, out, "nmr dj")),
        Command("nmr.two-bit", ["nmr", "two-bit", "--theta", repr(thetas[ti]),
                                "--td", repr(td), "--mode", mode],
                lambda chk, out: check_two_bit_cli(chk, out, ideal_point(
                    nm, formate, thetas[ti], td, mode), "nmr two-bit")),
        Command("nmr.two-bit.rf", ["nmr", "two-bit", "--theta", repr(thetas[rti]),
                                   "--td", repr(rtd), "--mode", "coded",
                                   "--rf", "lorentzian"],
                lambda chk, out: check_two_bit_cli(
                    chk, out, table[golden.key(rti, rdi, "coded", "quadrature")],
                    "nmr two-bit --rf lorentzian")),
        Command("nmr.two-bit.sweep-out", ["nmr", "two-bit", "--sweep", "--mode",
                                          "coded", "--out", out_csv],
                lambda chk, out: chk.expect(f"wrote 66 rows to {out_csv}" in out,
                                            "two-bit --out: wrong summary line")),
        Command("run.config", ["run", "--config", cfg_path], None),
    ]


def replay_config(out_csv):
    """The ExperimentConfig JSON the click layer builds for the --out sweep."""
    params = {"sweep": True, "theta": 0.0, "td": 0.0, "mode": "coded",
              "rf": "none", "nodes": 32, "integration": "quadrature",
              "shots": 512, "seed": 0, "system": "formate", "t1": False}
    return json.dumps({"command": ["nmr", "two-bit"], "params": params,
                       "fixture_dir": None, "seed": 0, "output": out_csv}, indent=2)


def ideal_point(nm, system, theta, td, mode):
    """Closed-form noiseless outputs (x_acc, z_acc, x_rej, z_rej)."""
    pa = nm.dephase_probability(td, system.t2_star[0])
    pb = nm.dephase_probability(td, system.t2_star[1])
    want = nm.ideal_outputs(theta, pa, pb, mode=mode)
    return want["accepted"] + want["rejected"]


def parse_fields(out):
    """key=value pairs from CLI output lines."""
    fields = {}
    for line in out.splitlines():
        prefix = line.split(":", 1)[0] + "." if ":" in line else ""
        body = line.split(":", 1)[1] if ":" in line else line
        for tok in body.split():
            if "=" in tok:
                k, v = tok.split("=", 1)
                fields[prefix + k] = v
    return fields


def check_two_bit_cli(chk, out, want, label):
    f = parse_fields(out)
    try:
        got = tuple(float(f[k]) for k in ("accepted.x", "accepted.z",
                                          "rejected.x", "rejected.z"))
    except (KeyError, ValueError):
        chk.fail(f"{label}: output not parsed")
        return
    # 12 significant digits on O(1) values
    err = max(abs(g - w) for g, w in zip(got, want))
    chk.expect(err <= 1e-10, f"{label}: off by {err:.3g}")


def check_four_bit_cli(chk, out):
    f = parse_fields(out)
    try:
        lead = float(f["leading_coefficient"])
    except (KeyError, ValueError):
        chk.fail("qec four-bit: output not parsed")
        return
    chk.expect(4.5 <= lead <= 5.5 and "PASS" in out,
               f"qec four-bit: leading coefficient {lead} outside [4.5, 5.5]")


def check_choi_spectrum(chk, out, p):
    line = next((ln for ln in out.splitlines() if ln.startswith("choi_eigenvalues:")), "")
    vals = sorted(float(v) for v in line.split(":", 1)[-1].split()) if line else []
    want = sorted([2 * p / 3] * 3 + [2 * (1 - p)])
    chk.expect(len(vals) == 4 and max(abs(a - b) for a, b in zip(vals, want)) < 1e-10,
               f"channel show: Choi spectrum {vals} != {want}")


def check_thermal_cli(chk, out, nm, name):
    system = (nm.formate_system() if name == "formate"
              else nm.chloroform_system(name.split("_")[1]))
    want = thermal_diagonal(system)
    line = next((ln for ln in out.splitlines() if ln.startswith("diagonal")), "")
    vals = [float(v) for v in line.split(":", 1)[-1].split()] if line else []
    chk.expect(len(vals) == 4 and all(abs(a - b) <= 1e-11 * abs(b) for a, b in zip(vals, want)),
               f"nmr thermal {name}: diagonal {vals} != {list(want)}")


def check_label_cli(chk, out, system):
    want = np.real(np.diag(temporal_label_reference(system)))
    vals = [float(v) for v in out.split(":", 1)[-1].split()] if ":" in out else []
    chk.expect(len(vals) == 4 and all(abs(a - b) <= 1e-9 * max(system.omega)
                                      for a, b in zip(vals, want)),
               f"nmr label: diagonal {vals} != {list(want)}")
