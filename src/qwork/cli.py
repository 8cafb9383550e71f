"""Command-line frontend: named fixtures, reproducible runs, CSV/JSON output.

The click command tree is the one declaration of every command, its options
and their defaults.  A run is fully determined by its command path, option
values, fixture directory and seed; ``qwork run --config file.json`` replays
an ExperimentConfig holding them through the same click command and option
types, so it prints what the command line prints.

Each command imports only the library modules it runs, inside its own body:
a fresh process compiles every module it imports, so ``qec four-bit`` does
not pay for ``nmr_sim`` or ``stabilizer``.

Exit codes: 0 = pass, 2 = a verdict check failed, 3 = input/config error.
"""

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

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


# ---------------------------------------------------------------------------
# configuration

_CONFIG_FIELDS = {
    "command": ("a list of strings", lambda v: isinstance(v, list)
                and all(isinstance(c, str) for c in v)),
    "params": ("an object", lambda v: isinstance(v, dict)),
    "fixture_dir": ("a string or null",
                    lambda v: v is None or isinstance(v, str)),
    "seed": ("an integer", lambda v: isinstance(v, int)
             and not isinstance(v, bool)),
    "output": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


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
            command = data["command"]
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad config: {exc}")
        for name, value in data.items():
            if name not in _CONFIG_FIELDS:
                raise InputError(f"bad config: unknown field {name!r}")
            want, ok = _CONFIG_FIELDS[name]
            if not ok(value):
                raise InputError(f"bad config: {name!r} must be {want}, "
                                 f"got {value!r}")
        return cls(**dict(data, command=tuple(command)))


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


def _built_in_codes():
    from . import stabilizer   # from_strings validates each code
    return {name: getattr(stabilizer, name)()
            for name in ("shor9", "steane7", "five_qubit", "ad4", "ad7")}


def _built_in_systems():
    from . import nmr_sim   # the SpinSystem constructor validates
    return {"formate": nmr_sim.formate_system(),
            "chloroform_carbon": nmr_sim.chloroform_system("carbon"),
            "chloroform_proton": nmr_sim.chloroform_system("proton")}


def _built_in_bosonic():
    from . import bosonic_codes   # example_codes validates each code
    return bosonic_codes.example_codes()


class FixtureRegistry:
    """Named codes, channels, and spin systems, validated when loaded.

    Built-ins are always present; a directory of ``*.json`` files (from
    --fixture-dir or the QWORK_FIXTURE_DIR environment variable) can add
    custom stabilizer codes and spin systems.  Every file in the directory
    is checked when the registry is made and a broken one is rejected with
    the offending file named.  Each kind of fixture (``codes``, ``systems``,
    ``bosonic``) is built, and its library module imported, the first time
    it is read, so a command loads only the kind it uses.
    """

    def __init__(self, extra_dir=None):
        self._custom_codes = {}
        self._custom_systems = {}
        if extra_dir:
            self._load_dir(extra_dir)

    # built on first read; the directory's fixtures replace built-ins of
    # the same name
    codes = functools.cached_property(
        lambda self: {**_built_in_codes(), **self._custom_codes})
    systems = functools.cached_property(
        lambda self: {**_built_in_systems(), **self._custom_systems})
    bosonic = functools.cached_property(lambda self: _built_in_bosonic())

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
                    from . import stabilizer   # from_json validates
                    self._custom_codes[name] = stabilizer.StabilizerCode.from_json(payload)
                elif kind == "spin_system":
                    from . import nmr_sim
                    self._custom_systems[name] = nmr_sim.SpinSystem.from_json(
                        payload)
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


# ---------------------------------------------------------------------------
# commands: the click tree declares each command once, with its options and
# defaults; ``run --config`` replays a config through the same tree

class Numbers(click.ParamType):
    """Numbers of one click type: a comma-separated string on the command
    line, a JSON number or list of numbers in a config; ``size`` fixes how
    many."""

    name = "text"   # the command-line form is a comma-separated string

    def __init__(self, item, size=None):
        self.item, self.size = item, size

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            items = value.split(",")
        elif isinstance(value, (list, tuple)):
            items = value
        else:
            items = [value]
        if self.size is not None and len(items) != self.size:
            self.fail(f"{value!r} is not {self.size} comma-separated values",
                      param, ctx)
        return tuple(self.item.convert(x, param, ctx) for x in items)


def _json_kind_ok(ptype, value):
    """Whether a config value has the JSON kind that click type ``ptype``
    takes; the type's own conversion would truncate 3.5 or parse "3"."""
    if isinstance(ptype, Numbers):
        items = value if isinstance(value, list) else [value]
        return all(_json_kind_ok(ptype.item, x) for x in items)
    if isinstance(ptype, click.types.BoolParamType):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if isinstance(ptype, click.types.IntParamType):
        return isinstance(value, int)
    if isinstance(ptype, click.types.FloatParamType):
        return isinstance(value, (int, float))
    return isinstance(value, str)


def replay(cfg):
    """Run an ExperimentConfig through the click command it names.

    The params are that command's parameter names and go through its own
    types, defaults and required checks; the config's seed and output feed
    --seed and --out.  A bad key or value is an InputError naming the key.
    """
    path = " ".join(cfg.command)
    cmd = cli
    for name in cfg.command:
        cmd = getattr(cmd, "commands", {}).get(name)
        if cmd is None:
            break
    if cmd is None or isinstance(cmd, click.Group):
        raise InputError(f"unknown command {path!r}")
    options = {param.name: param for param in cmd.params}
    params = dict(cfg.params)
    for key in params:
        if key not in options:
            raise InputError(f"unknown param {key!r} for {path!r}")
    for name, field_name in (("seed", "seed"), ("out", "output")):
        value = getattr(cfg, field_name)
        if name in options:
            if params.setdefault(name, value) != value:
                raise InputError(f"param {name!r} disagrees with the "
                                 f"config's {field_name!r}")
        elif value:
            raise InputError(f"config {field_name!r} is set but {path!r} "
                             f"has no --{name}")
    # the parent link shares ctx.meta, where `run` notes the configs it reads
    ctx = click.Context(cli, parent=click.get_current_context(silent=True),
                        obj=cfg.fixture_dir)
    kwargs = {}
    for key, value in params.items():
        param = options[key]
        items = value if param.multiple else [value]
        nullable = value is None and param.default is None
        if not nullable and not (isinstance(items, list) and all(
                _json_kind_ok(param.type, x) for x in items)):
            raise InputError(f"param {key!r} has the wrong JSON type: "
                             f"{value!r}")
        try:
            kwargs[key] = param.type_cast_value(ctx, value)
        except click.BadParameter as exc:
            raise InputError(f"param {key!r}: {exc.message}")
    for param in cmd.params:
        if param.required and param.name not in kwargs:
            raise InputError(f"missing required param {param.name!r} "
                             f"for {path!r}")
    return ctx.invoke(cmd, **kwargs)


@click.group()
@click.option("--fixture-dir", envvar=FIXTURE_DIR_ENV, default=None,
              help="Directory of extra fixture JSON files.")
@click.pass_context
def cli(ctx, fixture_dir):
    """Workbench for channels, error-correcting codes, and NMR experiments."""
    ctx.obj = fixture_dir


@cli.command("list-fixtures")
@click.pass_obj
def cmd_list_fixtures(fixture_dir):
    """Show every named fixture with its validation summary."""
    rows = FixtureRegistry(fixture_dir).rows()
    width = max(len(r[0]) for r in rows)
    kw = max(len(r[1]) for r in rows)
    for name, kind, info in rows:
        click.echo(f"{name:<{width}}  {kind:<{kw}}  {info}")


@cli.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="ExperimentConfig JSON file.")
@click.pass_context
def cmd_run(ctx, config_path):
    """Replay a saved configuration exactly."""
    # a config may replay another one, but a cycle would never end
    real = os.path.realpath(config_path)
    reading = ctx.meta.setdefault("qwork.configs", set())
    if real in reading:
        raise InputError(f"config {config_path} replays itself")
    reading.add(real)
    try:
        with open(config_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    replay(ExperimentConfig.from_json(text))


@cli.group()
def channel():
    """Quantum-channel utilities."""


@channel.command("roundtrip")
@click.option("--count", default=60, show_default=True, type=click.IntRange(min=1))
@click.option("--dims", type=Numbers(click.INT), default="2,3,4",
              show_default=True)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
def cmd_channel_roundtrip(count, dims, tol, seed):
    """Random-channel Choi/Kraus round-trip check."""
    from . import qop_core
    qop_core.check_positive("tol", tol)   # the verdict's own tolerance
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in range(count):
        ch = qop_core.random_channel(dims[k % len(dims)], rng=rng)
        choi = qop_core.choi_of(ch)
        back = qop_core.kraus_from_choi(choi)
        worst = max(worst, float(np.max(np.abs(
            qop_core.choi_of(back).mat - choi.mat))))
    click.echo(f"channels={count} dims={','.join(str(d) for d in dims)} "
               f"max_choi_error={fmt(worst)}")
    if worst >= tol:
        raise VerdictError(f"round-trip error {fmt(worst)} >= {fmt(tol)}")
    click.echo("PASS round-trip within tolerance")


@channel.command("show")
@click.option("--kind", required=True)
@click.option("--p", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--cutoff", type=int, default=None)
def cmd_channel_show(kind, **given):
    """Print the Choi spectrum and unitality of a named channel."""
    from . import qop_core
    if kind not in _CHANNEL_KINDS:
        raise InputError(f"unknown channel kind {kind!r} "
                         f"(have: {', '.join(sorted(_CHANNEL_KINDS))})")
    args = {name: given[name] for name in _CHANNEL_KINDS[kind]}
    for name, value in args.items():
        if value is None:
            raise InputError(f"channel {kind} needs --{name}")
    for name, value in given.items():
        if value is not None and name not in args:
            raise InputError(f"channel {kind} takes no --{name}")
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


@cli.group()
def qec():
    """Approximate error-correction pipelines."""


@qec.command("four-bit")
@click.option("--gamma", default=0.01, show_default=True)
def cmd_qec_four_bit(gamma):
    """Run the four-qubit loss-code recovery pipeline."""
    from . import qec_engine
    if not 0 < gamma < 0.5:
        raise InputError("gamma must be in (0, 0.5)")
    report = qec_engine.four_bit_pipeline(gamma)
    lead = report.leading_coefficient
    click.echo(f"gamma={fmt(gamma)}")
    click.echo(f"worst_fidelity={fmt(report.worst_fidelity)}")
    click.echo(f"infidelity_over_gamma2={fmt(lead)}")
    click.echo(f"leading_coefficient={fmt(lead)}")
    for syn, prob in sorted(report.syndrome_probs.items()):
        click.echo(f"syndrome {syn}: prob={fmt(prob)}")
    if not 4.5 <= lead <= 5.5:
        raise VerdictError(f"leading coefficient {fmt(lead)} outside [4.5, 5.5]")
    click.echo("PASS leading coefficient in [4.5, 5.5]")


@cli.group()
def bosonic():
    """Multimode excitation-loss codes."""


@bosonic.command("verify")
@click.option("--fixture", required=True)
@click.option("--gamma", default=0.01, show_default=True)
@click.pass_obj
def cmd_bosonic_verify(fixture_dir, fixture, gamma):
    """Check a named bosonic code structurally and against the channel."""
    from . import bosonic_codes
    code = FixtureRegistry(fixture_dir).bosonic_code(fixture)
    exact = bosonic_codes.check_nondeformation(code)
    click.echo(f"fixture={fixture} order={code.t} registers={code.m}")
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


@cli.group()
def stab():
    """Stabilizer codes."""


@stab.command("check")
@click.option("--code", required=True)
@click.option("--t", default=1, show_default=True)
@click.option("--distance", is_flag=True)
@click.pass_obj
def cmd_stab_check(fixture_dir, code, t, distance):
    """Check loss-error correctability of a named stabilizer code."""
    from . import stabilizer
    stab_code = FixtureRegistry(fixture_dir).code(code)
    report = stabilizer.ad_correctable(stab_code, t)
    click.echo(f"code={code} n={stab_code.n} k={stab_code.k} t={t}")
    click.echo(f"checked_products={report.checked} "
               f"negated_pairs={len(report.negated)}")
    if distance:
        click.echo(f"pauli_distance={stabilizer.pauli_distance(stab_code)}")
    if not report.correctable:
        first = report.rejections[0] if report.rejections else "?"
        raise VerdictError(
            f"loss errors of order {t} NOT correctable (first failure: {first})")
    click.echo(f"PASS loss errors up to order {t} correctable")


@cli.group()
def recouple():
    """Decoupling and selective recoupling schedules."""


@recouple.command("plan")
@click.option("--n", required=True, type=int)
@click.option("--pair", "pairs", multiple=True, type=Numbers(click.INT, 2),
              help="Spin pair to recouple, e.g. --pair 3,4; repeatable.")
@click.option("--zeeman-free", is_flag=True)
@click.option("--dt", type=float, default=None,
              help="Interval duration (defaults to the recoupling period).")
@click.option("--verify", is_flag=True)
@click.option("--out", default=None, type=click.Path())
def cmd_recouple_plan(n, pairs, zeeman_free, dt, verify, out):
    """Print (and optionally verify / save) a pulse schedule."""
    from . import recoupler
    if pairs:
        sign = recoupler.plan_recouple_parallel(n, pairs, remove_zeeman=zeeman_free)
    else:
        sign = recoupler.plan_decouple(n, remove_zeeman=zeeman_free)
    if dt is None:
        dt = recoupler.recouple_duration(1.0, sign.m)
    sched = recoupler.emit_pulses(sign, dt)
    click.echo(f"target={sign.target} spins={n} intervals={sign.m} "
               f"pulses={sched.pulse_count} total_time={fmt(sign.m * dt)}")
    for row in sign.entries:
        click.echo("".join("+" if v > 0 else "-" for v in row))
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(sched.to_json())
        click.echo(f"wrote {out}")
    if verify:
        check = recoupler.verify_schedule(
            sched, recoupler.CouplingSystem(np.ones((n, n)) - np.eye(n)))
        rel = "=" if check.exact else "<="   # past 12 spins, a bound
        click.echo(f"verify[n={n}]: deviation{rel}{fmt(check.max_deviation)}")
        if not check.passed:
            raise VerdictError(
                f"schedule deviation {fmt(check.max_deviation)} over tolerance")
        click.echo("PASS toggling-frame check under 1e-10")


@cli.group()
def nmr():
    """Bulk-spin simulation and the two-spin storage experiment."""


def _events_from_spec(items):
    from . import nmr_sim
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


def _rf_model(rf, **settings):
    """The RF-inhomogeneity model --rf names, or None for "none"."""
    from . import nmr_sim
    if rf == "none":
        return None
    if rf != "lorentzian":
        raise InputError(f"unknown rf model {rf!r}")
    return nmr_sim.RfModel.lorentzian(**settings)


@nmr.command("thermal")
@click.option("--system", default="formate", show_default=True)
@click.pass_obj
def cmd_nmr_thermal(fixture_dir, system):
    """Print the equilibrium deviation of a named spin system."""
    from . import nmr_sim
    spins = FixtureRegistry(fixture_dir).system(system)
    rho = nmr_sim.thermal_state(spins)
    click.echo(f"system={system} spins={spins.n}")
    click.echo(f"diagonal[rad/s]: {fmt_vec(np.diag(rho).real)}")
    click.echo(f"identity_weight_at_298K: {fmt(nmr_sim.thermal_scale(spins))}")


@nmr.command("sequence")
@click.option("--system", default="formate", show_default=True)
@click.option("--events", "events_file", required=True, type=click.Path(),
              help="JSON list of pulse/delay events.")
@click.option("--rf", default="none", show_default=True)
@click.option("--nodes", default=32, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def cmd_nmr_sequence(fixture_dir, system, events_file, rf, nodes):
    """Run an event list on the thermal state and print the spectrum."""
    from . import nmr_sim
    spins = FixtureRegistry(fixture_dir).system(system)
    try:
        with open(events_file) as fh:
            items = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read events file: {exc}")
    except ValueError as exc:
        raise InputError(f"events file is not JSON: {exc}")
    events = _events_from_spec(items)
    rho = nmr_sim.run_sequence(spins, nmr_sim.thermal_state(spins), events,
                               rf=_rf_model(rf, nodes=nodes))
    peaks = nmr_sim.peak_integrals(rho)
    for (spin, bits), value in sorted(peaks.items()):
        label = "".join(str(b) for b in bits)
        click.echo(f"spin={spin} partner=|{label}> "
                   f"re={fmt(value.real)} im={fmt(value.imag)}")


@nmr.command("tomo")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--tol", default=1e-8, show_default=True)
def cmd_nmr_tomo(seed, tol):
    """Round-trip a random deviation through simulated readout."""
    from . import nmr_sim, qop_core
    qop_core.check_positive("tol", tol)   # the verdict's own tolerance
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m + m.conj().T
    rho = rho - np.trace(rho) / 4 * np.eye(4)
    rec = nmr_sim.state_tomography(lambda: rho)
    err = float(np.max(np.abs(rec - rho)))
    click.echo(f"seed={seed} reconstruction_error={fmt(err)}")
    if err > tol:
        raise VerdictError(f"tomography error {fmt(err)} > {fmt(tol)}")
    click.echo("PASS reconstruction within tolerance")


@nmr.command("label")
@click.option("--scheme", default="temporal", show_default=True)
@click.option("--system", default="formate", show_default=True)
@click.option("--omegas", type=Numbers(click.FLOAT), default="3,1,1",
              help="Comma-separated frequencies for the hybrid scheme.")
@click.pass_obj
def cmd_nmr_label(fixture_dir, scheme, system, omegas):
    """Build an effective-pure input state."""
    from . import nmr_sim
    if scheme == "temporal":
        spins = FixtureRegistry(fixture_dir).system(system)
        lab = nmr_sim.temporal_label(
            spins, [None, nmr_sim.cnot_ba_events(spins)])
        click.echo("two-run temporal label, diagonal[rad/s]: "
                   + fmt_vec(np.diag(lab).real))
    elif scheme == "hybrid":
        res = nmr_sim.hybrid_label(len(omegas), omegas)
        click.echo("hybrid label on %d spins" % len(omegas))
        click.echo("upper_block: " + fmt_vec(np.diag(res["upper_block"])))
        click.echo("lower_block: " + fmt_vec(np.diag(res["lower_block"])))
        gc = res["gate_count"]
        click.echo(f"gates: fanout={gc['fanout']} "
                   f"conditional_flip={gc['conditional_flip']} total={gc['total']}")
    else:
        raise InputError(f"unknown labeling scheme {scheme!r}")


@nmr.command("dj")
@click.option("--n", default=3, show_default=True)
@click.option("--oracle", default="constant", show_default=True)
@click.option("--p", type=Numbers(click.FLOAT), default="1.0",
              show_default=True,
              help="Scalar or comma-separated per-qubit probabilities.")
def cmd_nmr_dj(n, oracle, p):
    """Constant-vs-balanced decision on a thermal register."""
    from . import nmr_sim
    if oracle == "constant":
        f = lambda x: 0
    elif oracle == "balanced":
        f = lambda x: bin(x).count("1") & 1
    else:
        raise InputError("oracle must be 'constant' or 'balanced'")
    res = nmr_sim.dj_thermal(n, f, p[0] if len(p) == 1 else p)
    click.echo(f"n={n} oracle={oracle}")
    click.echo("E: " + fmt_vec(res["E"]))
    click.echo(f"sum={fmt(res['sum'])} threshold={fmt(res['threshold'])} "
               f"decision={res['decision']}")
    if res["decision"] != oracle:
        raise VerdictError(
            f"decision {res['decision']} does not match the {oracle} oracle")
    click.echo("PASS decision matches the oracle")


@nmr.command("two-bit")
@click.option("--sweep", is_flag=True)
@click.option("--theta", default=0.0, show_default=True)
@click.option("--td", default=0.0, show_default=True)
@click.option("--mode", default="both", show_default=True,
              type=click.Choice(["coded", "control", "both"]))
@click.option("--rf", default="none", show_default=True)
@click.option("--nodes", default=32, show_default=True, type=click.IntRange(min=1))
@click.option("--integration", default="quadrature", show_default=True)
@click.option("--shots", default=512, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--system", default="formate", show_default=True)
@click.option("--t1", is_flag=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def cmd_nmr_two_bit(fixture_dir, sweep, theta, td, mode, rf, nodes,
                    integration, shots, seed, system, t1, out):
    """Run the two-spin storage experiment (single point or full sweep)."""
    from . import nmr_sim
    spins = FixtureRegistry(fixture_dir).system(system)
    model = _rf_model(rf, nodes=nodes, integration=integration, shots=shots,
                      seed=seed)
    if sweep:
        modes = ("coded", "control") if mode == "both" else (mode,)
        rows = nmr_sim.two_bit_sweep(system=spins, modes=modes, rf=model,
                                     t1_relax=t1)
        if out:
            with open(out, "w", newline="") as fh:
                nmr_sim.sweep_to_csv(rows, fh)
            click.echo(f"wrote {len(rows)} rows to {out}")
        else:
            nmr_sim.sweep_to_csv(rows, sys.stdout)
        return
    if mode == "both":
        raise InputError("single-point runs need --mode coded or control")
    res = nmr_sim.two_bit_experiment(theta, td, mode=mode, rf=model,
                                     system=spins, t1_relax=t1)
    click.echo(f"theta={fmt(theta)} td={fmt(td)} mode={mode}")
    click.echo(f"accepted: x={fmt(res['accepted'][0])} z={fmt(res['accepted'][1])}")
    click.echo(f"rejected: x={fmt(res['rejected'][0])} z={fmt(res['rejected'][1])}")


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
