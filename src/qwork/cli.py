"""Command-line frontend: named fixtures, reproducible runs, CSV/JSON output.

Every subcommand builds an ExperimentConfig and hands it to a dispatcher, so
a run is fully determined by its config (including the seed); ``qwork run
--config file.json`` replays any invocation bit-for-bit.

Exit codes: 0 = pass, 2 = a verdict check failed, 3 = input/config error.
"""

import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import bosonic_codes
from . import nmr_sim
from . import qec_engine
from . import qop_core
from . import recoupler
from . import stabilizer

FIXTURE_DIR_ENV = "QWORK_FIXTURE_DIR"


class InputError(Exception):
    """Bad arguments, missing files, or corrupted fixtures (exit 3)."""


class VerdictError(Exception):
    """A requested check ran fine and failed (exit 2)."""


def fmt(x):
    """All floating output uses 12 significant digits."""
    return "%.12g" % float(x)


def fmt_vec(values):
    return " ".join(fmt(v) for v in values)


def _tolerance(p, default):
    """A verdict tolerance; NaN or a non-positive one would pass anything
    or nothing."""
    tol = float(p.get("tol", default))
    if not 0 < tol < math.inf:
        raise InputError(f"--tol must be positive and finite, got {tol!r}")
    return tol


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run: command path, parameters, seed."""

    command: tuple
    params: dict = field(default_factory=dict)
    fixture_dir: str = None
    seed: int = 0
    output: str = None

    def to_json(self):
        return json.dumps({
            "command": list(self.command),
            "params": self.params,
            "fixture_dir": self.fixture_dir,
            "seed": self.seed,
            "output": self.output,
        }, indent=2)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            return cls(command=tuple(data["command"]),
                       params=dict(data.get("params", {})),
                       fixture_dir=data.get("fixture_dir"),
                       seed=int(data.get("seed", 0)),
                       output=data.get("output"))
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad config: {exc}")


# ---------------------------------------------------------------------------
# fixture registry

_CHANNEL_KINDS = {
    "phase_damping": ("p",),
    "depolarizing": ("p",),
    "amplitude_damping": ("gamma",),
    "generalized_amplitude_damping": ("gamma", "p"),
    "bit_flip": ("p",),
    "bosonic_ad": ("cutoff", "gamma"),
}

_CODE_BUILDERS = {
    "shor9": stabilizer.shor9,
    "steane7": stabilizer.steane7,
    "five_qubit": stabilizer.five_qubit,
    "ad4": stabilizer.ad4,
    "ad7": stabilizer.ad7,
}

_SYSTEM_BUILDERS = {
    "formate": nmr_sim.formate_system,
    "chloroform_carbon": lambda: nmr_sim.chloroform_system("carbon"),
    "chloroform_proton": lambda: nmr_sim.chloroform_system("proton"),
}


class FixtureRegistry:
    """Named codes, channels, and spin systems, validated when loaded.

    Built-ins are always present; a directory of ``*.json`` files (from
    --fixture-dir or the QWORK_FIXTURE_DIR environment variable) can add
    custom stabilizer codes and spin systems.  Every fixture is checked on
    load and a broken one is rejected with the offending file named.
    """

    def __init__(self, extra_dir=None):
        self.codes = {}
        self.systems = {}
        self.bosonic = {}
        for name, build in _CODE_BUILDERS.items():
            code = build()
            code.validate()
            self.codes[name] = code
        for name, build in _SYSTEM_BUILDERS.items():
            self.systems[name] = build()   # constructor validates
        for name, code in bosonic_codes.example_codes().items():
            code.validate()
            self.bosonic[name] = code
        if extra_dir:
            self._load_dir(extra_dir)

    def _load_dir(self, path):
        if not os.path.isdir(path):
            raise InputError(f"fixture directory not found: {path}")
        for entry in sorted(os.listdir(path)):
            if not entry.endswith(".json"):
                continue
            full = os.path.join(path, entry)
            try:
                with open(full) as fh:
                    data = json.load(fh)
                kind = data["kind"]
                name = data["name"]
                payload = json.dumps(data["payload"])
                if kind == "stabilizer_code":
                    code = stabilizer.StabilizerCode.from_json(payload)
                    code.validate()
                    self.codes[name] = code
                elif kind == "spin_system":
                    self.systems[name] = nmr_sim.SpinSystem.from_json(payload)
                else:
                    raise ValueError(f"unknown fixture kind {kind!r}")
            except InputError:
                raise
            except Exception as exc:
                raise InputError(f"fixture file {full}: {exc}")

    def code(self, name):
        try:
            return self.codes[name]
        except KeyError:
            raise InputError(f"unknown code fixture {name!r} "
                             f"(have: {', '.join(sorted(self.codes))})")

    def system(self, name):
        try:
            return self.systems[name]
        except KeyError:
            raise InputError(f"unknown spin system {name!r} "
                             f"(have: {', '.join(sorted(self.systems))})")

    def bosonic_code(self, name):
        try:
            return self.bosonic[name]
        except KeyError:
            raise InputError(f"unknown bosonic fixture {name!r} "
                             f"(have: {', '.join(sorted(self.bosonic))})")

    def rows(self):
        out = []
        for name in sorted(self.codes):
            c = self.codes[name]
            out.append((name, "stabilizer code",
                        f"n={c.n} k={c.k} generators={len(c.generators)}"))
        def numeric(name):
            digits = "".join(ch for ch in name if ch.isdigit())
            return (int(digits) if digits else 0, name)

        for name in sorted(self.bosonic, key=numeric):
            c = self.bosonic[name]
            out.append((name, "bosonic code",
                        f"registers={c.m} order={c.t} cutoff={c.max_occupation}"))
        for name in sorted(self.systems):
            s = self.systems[name]
            freqs = "/".join(fmt(w / (2 * math.pi) / 1e6) for w in s.omega)
            jtxt = f" J[Hz]={fmt(s.j[0][1])}" if s.n >= 2 else ""
            out.append((name, "spin system",
                        f"freq[MHz]={freqs}{jtxt} "
                        f"T2*[s]={'/'.join(fmt(t) for t in s.t2_star)}"))
        for name in sorted(_CHANNEL_KINDS):
            out.append((name, "channel family",
                        "params: " + ", ".join(_CHANNEL_KINDS[name])))
        return out


def _registry(cfg):
    return FixtureRegistry(cfg.fixture_dir)


def _open_output(cfg):
    if cfg.output:
        return open(cfg.output, "w", newline="")
    return None


# ---------------------------------------------------------------------------
# command implementations (all take an ExperimentConfig)

def run_list_fixtures(cfg):
    reg = _registry(cfg)
    rows = reg.rows()
    width = max(len(r[0]) for r in rows)
    kw = max(len(r[1]) for r in rows)
    for name, kind, info in rows:
        click.echo(f"{name:<{width}}  {kind:<{kw}}  {info}")
    return 0


def run_channel_roundtrip(cfg):
    p = cfg.params
    dims = p.get("dims", [2, 3, 4])
    count = p.get("count", 60)
    if not count >= 1:
        raise InputError(f"--count must be at least 1, got {count!r}")
    tol = _tolerance(p, 1e-9)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for k in range(count):
        dim = int(dims[k % len(dims)])
        ch = qop_core.random_channel(dim, rng=rng)
        choi = qop_core.choi_of(ch)
        back = qop_core.kraus_from_choi(choi)
        worst = max(worst, float(np.max(np.abs(
            qop_core.choi_of(back).mat - choi.mat))))
    click.echo(f"channels={count} dims={','.join(str(d) for d in dims)} "
               f"max_choi_error={fmt(worst)}")
    if worst >= tol:
        raise VerdictError(f"round-trip error {fmt(worst)} >= {fmt(tol)}")
    click.echo("PASS round-trip within tolerance")
    return 0


def run_channel_show(cfg):
    p = dict(cfg.params)
    kind = p.pop("kind")
    if kind not in _CHANNEL_KINDS:
        raise InputError(f"unknown channel kind {kind!r} "
                         f"(have: {', '.join(sorted(_CHANNEL_KINDS))})")
    needed = _CHANNEL_KINDS[kind]
    args = {}
    for name in needed:
        if p.get(name) is None:
            raise InputError(f"channel {kind} needs --{name}")
        args[name] = int(p[name]) if name == "cutoff" else float(p[name])
    ch = qop_core.standard_channel(kind, **args)
    choi = qop_core.choi_of(ch)
    evals = np.linalg.eigvalsh(choi.mat)
    click.echo(f"kind={kind} "
               + " ".join(f"{k}={fmt(v)}" for k, v in args.items()))
    click.echo(f"dims: in={ch.dim_in} out={ch.dim_out} kraus={len(ch.kraus)}")
    click.echo(f"choi_eigenvalues: {fmt_vec(evals)}")
    click.echo(f"completely_positive: {bool(evals[0] > -1e-9)}")
    offset, _ = qop_core.deviation_map(ch)
    click.echo(f"unital_offset: {fmt(np.max(np.abs(offset)))}")
    return 0


def run_qec_four_bit(cfg):
    p = cfg.params
    gamma = float(p.get("gamma", 0.01))
    if not 0 < gamma < 0.5:
        raise InputError("gamma must be in (0, 0.5)")
    report = qec_engine.four_bit_pipeline(gamma)
    lead = report.leading_coefficient
    click.echo(f"gamma={fmt(gamma)}")
    click.echo(f"worst_fidelity={fmt(report.worst_fidelity)}")
    click.echo(f"infidelity_over_gamma2={fmt((1 - report.worst_fidelity) / gamma ** 2)}")
    click.echo(f"leading_coefficient={fmt(lead)}")
    for syn, prob in sorted(report.syndrome_probs.items()):
        click.echo(f"syndrome {syn}: prob={fmt(prob)}")
    if not 4.5 <= lead <= 5.5:
        raise VerdictError(f"leading coefficient {fmt(lead)} outside [4.5, 5.5]")
    click.echo("PASS leading coefficient in [4.5, 5.5]")
    return 0


def run_bosonic_verify(cfg):
    p = cfg.params
    reg = _registry(cfg)
    code = reg.bosonic_code(p["fixture"])
    gamma = float(p.get("gamma", 0.01))
    exact = bosonic_codes.check_nondeformation(code)
    click.echo(f"fixture={p['fixture']} order={code.t} registers={code.m}")
    click.echo(f"structural_check: passed={exact.passed} "
               f"max_discrepancy={fmt(exact.max_discrepancy)}")
    chan = bosonic_codes.verify_by_channel(code, gamma)
    click.echo(f"channel_check at gamma={fmt(gamma)}: "
               f"fidelity={fmt(chan.numeric_fidelity)} "
               f"formula={fmt(chan.formula_fidelity)} "
               f"difference={fmt(chan.difference)} verdict={chan.verdict}")
    if not exact.passed or chan.verdict != "exact":
        raise VerdictError("bosonic fixture failed verification")
    click.echo("PASS")
    return 0


def run_stab_check(cfg):
    p = cfg.params
    reg = _registry(cfg)
    name = p["code"]
    code = reg.code(name)
    t = int(p.get("t", 1))
    report = stabilizer.ad_correctable(code, t)
    click.echo(f"code={name} n={code.n} k={code.k} t={t}")
    click.echo(f"checked_products={report.checked} "
               f"negated_pairs={len(report.negated)}")
    if p.get("distance"):
        click.echo(f"pauli_distance={stabilizer.pauli_distance(code)}")
    if not report.correctable:
        first = report.rejections[0] if report.rejections else "?"
        raise VerdictError(
            f"loss errors of order {t} NOT correctable (first failure: {first})")
    click.echo(f"PASS loss errors up to order {t} correctable")
    return 0


def _reduced_schedule(sign, dt):
    """Restrict a sign matrix to 8 spins (keeping recoupled pairs) so the
    dense verifier can run; returns (schedule, kept 1-based spins)."""
    keep = []
    for pair in sign.pairs:
        keep.extend(pair)
    for spin in range(1, sign.n + 1):
        if len(keep) >= 8:
            break
        if spin not in keep:
            keep.append(spin)
    keep = sorted(keep[:8])
    relabel = {old: new for new, old in enumerate(keep, start=1)}
    pairs = tuple((relabel[i], relabel[j]) for i, j in sign.pairs)
    reduced = recoupler.SignMatrix(sign.entries[[k - 1 for k in keep]],
                                   sign.target, pairs)
    return recoupler.emit_pulses(reduced, dt), keep


def run_recouple_plan(cfg):
    p = cfg.params
    n = int(p["n"])
    if n < 2:
        raise InputError("need at least two spins")
    zeeman = bool(p.get("zeeman_free"))
    if p.get("pairs"):
        pairs = [tuple(int(x) for x in pair) for pair in p["pairs"]]
        if len(pairs) == 1:
            sign = recoupler.plan_recouple(n, *pairs[0], remove_zeeman=zeeman)
        else:
            sign = recoupler.plan_recouple_parallel(n, pairs,
                                                    remove_zeeman=zeeman)
    else:
        sign = recoupler.plan_decouple(n, remove_zeeman=zeeman)
    dt = p.get("dt")
    dt = recoupler.recouple_duration(1.0, sign.m) if dt is None else float(dt)
    sched = recoupler.emit_pulses(sign, dt)
    click.echo(f"target={sign.target} spins={n} intervals={sign.m} "
               f"pulses={sched.pulse_count} total_time={fmt(sign.m * dt)}")
    for row in sign.entries:
        click.echo("".join("+" if v > 0 else "-" for v in row))
    out = _open_output(cfg)
    if out is not None:
        with out:
            out.write(sched.to_json())
        click.echo(f"wrote {cfg.output}")
    if p.get("verify"):
        if n <= 8:
            check = recoupler.verify_schedule(
                sched, recoupler.CouplingSystem(_unit_couplings(n)))
            scope = f"n={n}"
        else:
            red, keep = _reduced_schedule(sign, dt)
            check = recoupler.verify_schedule(
                red, recoupler.CouplingSystem(_unit_couplings(len(keep))))
            scope = f"reduced to spins {','.join(str(k) for k in keep)}"
        click.echo(f"verify[{scope}]: deviation={fmt(check.max_deviation)}")
        if not check.passed:
            raise VerdictError(
                f"schedule deviation {fmt(check.max_deviation)} over tolerance")
        click.echo("PASS dense check under 1e-10")
    return 0


def _unit_couplings(n):
    g = np.ones((n, n))
    np.fill_diagonal(g, 0.0)
    return g


def _events_from_spec(items):
    events = []
    try:
        for item in items:
            kind = item["type"]
            if kind == "pulse":
                events.append(nmr_sim.pulse(
                    item["spin"], item["axis"], float(item["angle"]),
                    scale_sensitive=bool(item.get("scale_sensitive", True))))
            elif kind == "delay":
                events.append(nmr_sim.delay(
                    float(item["duration"]),
                    dephase=bool(item.get("dephase", False)),
                    refocus=tuple(item.get("refocus", ())),
                    t1_relax=bool(item.get("t1_relax", False))))
            else:
                raise ValueError(f"unknown event type {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad event list: {exc}")
    return events


def _rf_from_params(p):
    rf_kind = p.get("rf", "none")
    if rf_kind == "none":
        return None
    if rf_kind != "lorentzian":
        raise InputError(f"unknown rf model {rf_kind!r}")
    att = p.get("attenuations", (0.96, 0.92))
    return nmr_sim.RfModel.lorentzian(
        tuple(float(a) for a in att),
        nodes=int(p.get("nodes", 32)),
        integration=p.get("integration", "quadrature"),
        shots=int(p.get("shots", 512)),
        seed=int(p.get("seed", 0)))


def run_nmr_thermal(cfg):
    reg = _registry(cfg)
    system = reg.system(cfg.params.get("system", "formate"))
    rho = nmr_sim.thermal_state(system)
    click.echo(f"system={cfg.params.get('system', 'formate')} spins={system.n}")
    click.echo(f"diagonal[rad/s]: {fmt_vec(np.diag(rho).real)}")
    click.echo(f"identity_weight_at_298K: {fmt(nmr_sim.thermal_scale(system))}")
    return 0


def run_nmr_sequence(cfg):
    p = cfg.params
    reg = _registry(cfg)
    system = reg.system(p.get("system", "formate"))
    if "events_file" in p:
        try:
            with open(p["events_file"]) as fh:
                items = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read events file: {exc}")
        except ValueError as exc:
            raise InputError(f"events file is not JSON: {exc}")
    else:
        items = p.get("events", [])
    events = _events_from_spec(items)
    rf = _rf_from_params(p)
    rho = nmr_sim.run_sequence(system, nmr_sim.thermal_state(system),
                               events, rf=rf)
    peaks = nmr_sim.peak_integrals(rho)
    for (spin, bits), value in sorted(peaks.lines.items()):
        label = "".join(str(b) for b in bits)
        click.echo(f"spin={spin} partner=|{label}> "
                   f"re={fmt(value.real)} im={fmt(value.imag)}")
    return 0


def run_nmr_tomo(cfg):
    tol = _tolerance(cfg.params, 1e-8)
    rng = np.random.default_rng(cfg.seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m + m.conj().T
    rho = rho - np.trace(rho) / 4 * np.eye(4)
    rec = nmr_sim.state_tomography(lambda: rho)
    err = float(np.max(np.abs(rec - rho)))
    click.echo(f"seed={cfg.seed} reconstruction_error={fmt(err)}")
    if err > tol:
        raise VerdictError(f"tomography error {fmt(err)} > {fmt(tol)}")
    click.echo("PASS reconstruction within tolerance")
    return 0


def run_nmr_label(cfg):
    p = cfg.params
    scheme = p.get("scheme", "temporal")
    if scheme == "temporal":
        reg = _registry(cfg)
        system = reg.system(p.get("system", "formate"))
        lab = nmr_sim.temporal_label(
            system, [None, nmr_sim.cnot_ba_events(system)])
        click.echo("two-run temporal label, diagonal[rad/s]: "
                   + fmt_vec(np.diag(lab).real))
        return 0
    if scheme == "hybrid":
        omegas = [float(w) for w in p.get("omegas", (3.0, 1.0, 1.0))]
        out = nmr_sim.hybrid_label(len(omegas), omegas)
        click.echo("hybrid label on %d spins" % len(omegas))
        click.echo("upper_block: " + fmt_vec(np.diag(out["upper_block"])))
        click.echo("lower_block: " + fmt_vec(np.diag(out["lower_block"])))
        gc = out["gate_count"]
        click.echo(f"gates: fanout={gc['fanout']} "
                   f"conditional_flip={gc['conditional_flip']} total={gc['total']}")
        return 0
    raise InputError(f"unknown labeling scheme {scheme!r}")


def run_nmr_dj(cfg):
    p = cfg.params
    n = int(p.get("n", 3))
    oracle = p.get("oracle", "constant")
    if oracle == "constant":
        f = lambda x: 0
    elif oracle == "balanced":
        f = lambda x: bin(x).count("1") & 1
    else:
        raise InputError("oracle must be 'constant' or 'balanced'")
    probs = p.get("p", 1.0)
    if isinstance(probs, (list, tuple)):
        probs = [float(x) for x in probs]
    else:
        probs = float(probs)
    out = nmr_sim.dj_thermal(n, f, probs)
    click.echo(f"n={n} oracle={oracle}")
    click.echo("E: " + fmt_vec(out["E"]))
    click.echo(f"sum={fmt(out['sum'])} threshold={fmt(out['threshold'])} "
               f"decision={out['decision']}")
    if out["decision"] != oracle:
        raise VerdictError(
            f"decision {out['decision']} does not match the {oracle} oracle")
    click.echo("PASS decision matches the oracle")
    return 0


def run_nmr_two_bit(cfg):
    p = cfg.params
    reg = _registry(cfg)
    system = reg.system(p.get("system", "formate"))
    rf = _rf_from_params(p)
    t1 = bool(p.get("t1", False))
    if p.get("sweep"):
        modes = ("coded", "control") if p.get("mode", "both") == "both" \
            else (p["mode"],)
        rows = nmr_sim.two_bit_sweep(system=system, modes=modes, rf=rf,
                                     t1_relax=t1)
        out = _open_output(cfg)
        if out is not None:
            with out:
                nmr_sim.sweep_to_csv(rows, out)
            click.echo(f"wrote {len(rows)} rows to {cfg.output}")
        else:
            nmr_sim.sweep_to_csv(rows, sys.stdout)
        return 0
    theta = float(p.get("theta", 0.0))
    td = float(p.get("td", 0.0))
    mode = p.get("mode", "coded")
    if mode == "both":
        raise InputError("single-point runs need --mode coded or control")
    out = nmr_sim.two_bit_experiment(theta, td, mode=mode, rf=rf,
                                     system=system, t1_relax=t1)
    click.echo(f"theta={fmt(theta)} td={fmt(td)} mode={mode}")
    click.echo(f"accepted: x={fmt(out['accepted'][0])} z={fmt(out['accepted'][1])}")
    click.echo(f"rejected: x={fmt(out['rejected'][0])} z={fmt(out['rejected'][1])}")
    return 0


_DISPATCH = {
    ("list-fixtures",): run_list_fixtures,
    ("channel", "roundtrip"): run_channel_roundtrip,
    ("channel", "show"): run_channel_show,
    ("qec", "four-bit"): run_qec_four_bit,
    ("bosonic", "verify"): run_bosonic_verify,
    ("stab", "check"): run_stab_check,
    ("recouple", "plan"): run_recouple_plan,
    ("nmr", "thermal"): run_nmr_thermal,
    ("nmr", "sequence"): run_nmr_sequence,
    ("nmr", "tomo"): run_nmr_tomo,
    ("nmr", "label"): run_nmr_label,
    ("nmr", "dj"): run_nmr_dj,
    ("nmr", "two-bit"): run_nmr_two_bit,
}


def dispatch(cfg):
    try:
        impl = _DISPATCH[cfg.command]
    except KeyError:
        raise InputError(f"unknown command {' '.join(cfg.command)!r}")
    return impl(cfg)


# ---------------------------------------------------------------------------
# click layer: thin parsers that build configs

@click.group()
@click.option("--fixture-dir", envvar=FIXTURE_DIR_ENV, default=None,
              help="Directory of extra fixture JSON files.")
@click.pass_context
def cli(ctx, fixture_dir):
    """Workbench for channels, error-correcting codes, and NMR experiments."""
    ctx.obj = {"fixture_dir": fixture_dir}


def _cfg(ctx, command, params, seed=0, output=None):
    return ExperimentConfig(command=command, params=params,
                            fixture_dir=ctx.obj["fixture_dir"],
                            seed=seed, output=output)


@cli.command("list-fixtures")
@click.pass_context
def cmd_list_fixtures(ctx):
    """Show every named fixture with its validation summary."""
    return dispatch(_cfg(ctx, ("list-fixtures",), {}))


@cli.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="ExperimentConfig JSON file.")
def cmd_run(config_path):
    """Replay a saved configuration exactly."""
    try:
        with open(config_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    return dispatch(ExperimentConfig.from_json(text))


@cli.group()
def channel():
    """Quantum-channel utilities."""


@channel.command("roundtrip")
@click.option("--count", default=60, show_default=True)
@click.option("--dims", default="2,3,4", show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.pass_context
def cmd_channel_roundtrip(ctx, count, dims, tol, seed):
    """Random-channel Choi/Kraus round-trip check."""
    try:
        dim_list = [int(d) for d in dims.split(",")]
    except ValueError:
        raise InputError("--dims wants a comma-separated list of integers")
    return dispatch(_cfg(ctx, ("channel", "roundtrip"),
                         {"count": count, "dims": dim_list, "tol": tol},
                         seed=seed))


@channel.command("show")
@click.option("--kind", required=True)
@click.option("--p", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--cutoff", type=int, default=None)
@click.pass_context
def cmd_channel_show(ctx, kind, p, gamma, cutoff):
    """Print the Choi spectrum and unitality of a named channel."""
    return dispatch(_cfg(ctx, ("channel", "show"),
                         {"kind": kind, "p": p, "gamma": gamma,
                          "cutoff": cutoff}))


@cli.group()
def qec():
    """Approximate error-correction pipelines."""


@qec.command("four-bit")
@click.option("--gamma", default=0.01, show_default=True)
@click.pass_context
def cmd_qec_four_bit(ctx, gamma):
    """Run the four-qubit loss-code recovery pipeline."""
    return dispatch(_cfg(ctx, ("qec", "four-bit"), {"gamma": gamma}))


@cli.group()
def bosonic():
    """Multimode excitation-loss codes."""


@bosonic.command("verify")
@click.option("--fixture", required=True)
@click.option("--gamma", default=0.01, show_default=True)
@click.pass_context
def cmd_bosonic_verify(ctx, fixture, gamma):
    """Check a named bosonic code structurally and against the channel."""
    return dispatch(_cfg(ctx, ("bosonic", "verify"),
                         {"fixture": fixture, "gamma": gamma}))


@cli.group()
def stab():
    """Stabilizer codes."""


@stab.command("check")
@click.option("--code", required=True)
@click.option("--t", default=1, show_default=True)
@click.option("--distance", is_flag=True)
@click.pass_context
def cmd_stab_check(ctx, code, t, distance):
    """Check loss-error correctability of a named stabilizer code."""
    return dispatch(_cfg(ctx, ("stab", "check"),
                         {"code": code, "t": t, "distance": distance}))


@cli.group()
def recouple():
    """Decoupling and selective recoupling schedules."""


@recouple.command("plan")
@click.option("--n", required=True, type=int)
@click.option("--pair", "pair_specs", multiple=True,
              help="Spin pair to recouple, e.g. --pair 3,4; repeatable.")
@click.option("--zeeman-free", is_flag=True)
@click.option("--dt", type=float, default=None,
              help="Interval duration (defaults to the recoupling period).")
@click.option("--verify", is_flag=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def cmd_recouple_plan(ctx, n, pair_specs, zeeman_free, dt, verify, out):
    """Print (and optionally verify / save) a pulse schedule."""
    pairs = []
    for spec in pair_specs:
        bits = spec.split(",")
        if len(bits) != 2:
            raise InputError(f"bad --pair {spec!r}, want i,j")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise InputError(f"bad --pair {spec!r}, want integers")
    params = {"n": n, "pairs": pairs, "zeeman_free": zeeman_free,
              "verify": verify}
    if dt is not None:
        params["dt"] = dt
    return dispatch(_cfg(ctx, ("recouple", "plan"), params, output=out))


@cli.group()
def nmr():
    """Bulk-spin simulation and the two-spin storage experiment."""


@nmr.command("thermal")
@click.option("--system", default="formate", show_default=True)
@click.pass_context
def cmd_nmr_thermal(ctx, system):
    """Print the equilibrium deviation of a named spin system."""
    return dispatch(_cfg(ctx, ("nmr", "thermal"), {"system": system}))


@nmr.command("sequence")
@click.option("--system", default="formate", show_default=True)
@click.option("--events", "events_file", required=True, type=click.Path(),
              help="JSON list of pulse/delay events.")
@click.option("--rf", default="none", show_default=True)
@click.option("--nodes", default=32, show_default=True)
@click.pass_context
def cmd_nmr_sequence(ctx, system, events_file, rf, nodes):
    """Run an event list on the thermal state and print the spectrum."""
    return dispatch(_cfg(ctx, ("nmr", "sequence"),
                         {"system": system, "events_file": events_file,
                          "rf": rf, "nodes": nodes}))


@nmr.command("tomo")
@click.option("--seed", default=0, show_default=True)
@click.option("--tol", default=1e-8, show_default=True)
@click.pass_context
def cmd_nmr_tomo(ctx, seed, tol):
    """Round-trip a random deviation through simulated readout."""
    return dispatch(_cfg(ctx, ("nmr", "tomo"), {"tol": tol}, seed=seed))


@nmr.command("label")
@click.option("--scheme", default="temporal", show_default=True)
@click.option("--system", default="formate", show_default=True)
@click.option("--omegas", default=None,
              help="Comma-separated frequencies for the hybrid scheme.")
@click.pass_context
def cmd_nmr_label(ctx, scheme, system, omegas):
    """Build an effective-pure input state."""
    params = {"scheme": scheme, "system": system}
    if omegas:
        try:
            params["omegas"] = [float(w) for w in omegas.split(",")]
        except ValueError:
            raise InputError("--omegas wants comma-separated numbers")
    return dispatch(_cfg(ctx, ("nmr", "label"), params))


@nmr.command("dj")
@click.option("--n", default=3, show_default=True)
@click.option("--oracle", default="constant", show_default=True)
@click.option("--p", default="1.0", show_default=True,
              help="Scalar or comma-separated per-qubit probabilities.")
@click.pass_context
def cmd_nmr_dj(ctx, n, oracle, p):
    """Constant-vs-balanced decision on a thermal register."""
    try:
        probs = [float(x) for x in p.split(",")]
    except ValueError:
        raise InputError("--p wants numbers")
    params = {"n": n, "oracle": oracle,
              "p": probs[0] if len(probs) == 1 else probs}
    return dispatch(_cfg(ctx, ("nmr", "dj"), params))


@nmr.command("two-bit")
@click.option("--sweep", is_flag=True)
@click.option("--theta", default=0.0, show_default=True)
@click.option("--td", default=0.0, show_default=True)
@click.option("--mode", default="both", show_default=True,
              type=click.Choice(["coded", "control", "both"]))
@click.option("--rf", default="none", show_default=True)
@click.option("--nodes", default=32, show_default=True)
@click.option("--integration", default="quadrature", show_default=True)
@click.option("--shots", default=512, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--system", default="formate", show_default=True)
@click.option("--t1", is_flag=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def cmd_nmr_two_bit(ctx, sweep, theta, td, mode, rf, nodes, integration,
                    shots, seed, system, t1, out):
    """Run the two-spin storage experiment (single point or full sweep)."""
    params = {"sweep": sweep, "theta": theta, "td": td, "mode": mode,
              "rf": rf, "nodes": nodes, "integration": integration,
              "shots": shots, "seed": seed, "system": system, "t1": t1}
    return dispatch(_cfg(ctx, ("nmr", "two-bit"), params, seed=seed,
                         output=out))


def main(argv=None):
    """Entry point mapping errors to documented exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if rv else 0
    except VerdictError as exc:
        click.echo(f"FAIL: {exc}", err=True)
        return 2
    except (InputError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except click.ClickException as exc:
        exc.show()
        return 3
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
