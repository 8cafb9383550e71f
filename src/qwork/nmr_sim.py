"""Bulk-ensemble NMR simulation.

Spin systems with scalar coupling, pulse/delay sequencing in the rotating
frame, spectral-line readout, state tomography from readout-pulse variants,
effective-pure-state preparation (temporal and hybrid labeling), a
constant-vs-balanced oracle decision running directly on thermal inputs,
and the full two-spin dephasing-protection experiment with its
RF-inhomogeneity noise model and ellipse/fidelity analysis pipeline.

Conventions: spins follow qop_core's bit order, and in two-spin systems
spin 0 is "a" and spin 1 is "b".  A pulse about axis eta by angle theta
conjugates by exp(-i*theta/2 * sigma_eta).
Delays evolve only the scalar coupling (Zeeman precession is absorbed by the
rotating frame); density matrices are deviation matrices in angular-frequency
units, so the thermal deviation is sum_i omega_i Z_i / 2.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import constants as _const
from scipy.optimize import brentq, least_squares

from .qop_core import I2, PAULIS, SX, SY, conjugate_local, z_signs

THETA_GRID = tuple(k * math.pi / 10 for k in range(11))
STORAGE_MULTIPLES = (0, 12, 24, 36, 48, 60)


# ---------------------------------------------------------------------------
# spin systems

@dataclass(frozen=True)
class SpinSystem:
    """A set of spins with offsets, scalar couplings and dephasing times.

    omega: rotating-frame reference frequencies in rad/s (used for thermal
    deviations only), j: coupling matrix in Hz, t2_star: effective dephasing
    times in seconds, t1: optional longitudinal relaxation times.
    """

    omega: tuple
    j: tuple
    t2_star: tuple
    t1: tuple = None

    def __post_init__(self):
        n = len(self.omega)
        object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        if not all(math.isfinite(w) for w in self.omega):
            raise ValueError("omega must be finite")
        jm = tuple(tuple(float(x) for x in row) for row in self.j)
        if len(jm) != n or any(len(row) != n for row in jm):
            raise ValueError("coupling matrix must be n x n")
        for i in range(n):
            if jm[i][i] != 0.0:
                raise ValueError("self-coupling must be zero")
            for k in range(n):
                if jm[i][k] != jm[k][i]:
                    raise ValueError("coupling matrix must be symmetric")
        object.__setattr__(self, "j", jm)
        t2 = tuple(float(t) for t in self.t2_star)
        if len(t2) != n or not all(0 < t < math.inf for t in t2):
            raise ValueError("each spin needs a positive finite dephasing time")
        object.__setattr__(self, "t2_star", t2)
        if self.t1 is not None:
            t1 = tuple(float(t) for t in self.t1)
            if len(t1) != n or any(t <= 0 for t in t1):
                raise ValueError("t1 times must be positive for every spin")
            object.__setattr__(self, "t1", t1)

    @property
    def n(self):
        return len(self.omega)

    def coupling(self, i, k):
        """Effective two-spin phase-evolution rate in rad/s."""
        return math.pi * self.j[i][k] / 2.0

    def to_json(self):
        data = {
            "omega_hz": [w / (2 * math.pi) for w in self.omega],
            "J_hz": [list(row) for row in self.j],
            "t2_star_s": list(self.t2_star),
        }
        if self.t1 is not None:
            data["t1_s"] = list(self.t1)
        return json.dumps(data)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(
            omega=tuple(2 * math.pi * f for f in data["omega_hz"]),
            j=tuple(tuple(row) for row in data["J_hz"]),
            t2_star=tuple(data["t2_star_s"]),
            t1=tuple(data["t1_s"]) if data.get("t1_s") else None,
        )


def formate_system():
    """Proton/carbon pair in labeled sodium formate (input spin first)."""
    return SpinSystem(
        omega=(2 * math.pi * 500e6, 2 * math.pi * 125e6),
        j=((0.0, 195.0), (195.0, 0.0)),
        t2_star=(0.35, 0.50),
        t1=(9.0, 13.5),
    )


def chloroform_system(input_spin="carbon"):
    """Proton/carbon pair in labeled chloroform; spin 0 is the input.

    The two variants swap which nucleus stores the data qubit, so the pair
    covers both a slow-dephasing and a fast-dephasing ancilla.
    """
    proton = 2 * math.pi * 500e6
    carbon = 2 * math.pi * 125e6
    if input_spin == "carbon":
        return SpinSystem(
            omega=(carbon, proton),
            j=((0.0, 195.0), (195.0, 0.0)),
            t2_star=(0.13, 0.53),
            t1=(18.5, 16.0),
        )
    if input_spin == "proton":
        return SpinSystem(
            omega=(proton, carbon),
            j=((0.0, 195.0), (195.0, 0.0)),
            t2_star=(0.92, 0.16),
            t1=(16.0, 18.5),
        )
    raise ValueError("input_spin must be 'proton' or 'carbon'")


def _coupling_period(system):
    """1/(2 J01): the delay over which the input pair's coupling turns ZZ by pi/2."""
    j = system.j[0][1]
    if not (math.isfinite(j) and j != 0.0):
        raise ValueError(f"the input pair needs a nonzero finite J01, got {j!r}")
    return 1.0 / (2.0 * j)


def storage_grid(system, multiples=STORAGE_MULTIPLES):
    """Storage delays at even multiples of the coupling period."""
    _coupling_period(system)  # rejects an uncoupled pair
    # m / J01 (2m periods) rounds once, where 2m times the period rounds twice
    return tuple(m / system.j[0][1] for m in multiples)


# ---------------------------------------------------------------------------
# events

@dataclass(frozen=True)
class Event:
    kind: str
    spin: int = 0
    axis: str = "x"
    angle: float = 0.0
    scale_sensitive: bool = True
    duration: float = 0.0
    dephase: bool = False
    refocus: tuple = ()
    t1_relax: bool = False


def pulse(spin, axis, angle, scale_sensitive=True):
    if axis not in ("x", "y"):
        raise ValueError("pulse axis must be 'x' or 'y'")
    if not math.isfinite(angle):
        raise ValueError("pulse angle must be finite")
    return Event("pulse", spin=int(spin), axis=axis, angle=float(angle),
                 scale_sensitive=bool(scale_sensitive))


def delay(duration, dephase=False, refocus=(), t1_relax=False):
    if not math.isfinite(duration):
        raise ValueError("delay duration must be finite")
    if duration < 0:
        raise ValueError("delay duration must be nonnegative")
    return Event("delay", duration=float(duration), dephase=bool(dephase),
                 refocus=tuple(sorted(set(int(s) for s in refocus))),
                 t1_relax=bool(t1_relax))


def dephase_probability(t, t2_star):
    """Phase-flip probability accumulated over a delay of length t."""
    return (1.0 - math.exp(-t / t2_star)) / 2.0


# ---------------------------------------------------------------------------
# sequence evolution

def _rot2(axis, angle):
    s = SX if axis == "x" else SY
    return math.cos(angle / 2.0) * I2 - 1j * math.sin(angle / 2.0) * s


def _apply_pulse(rho, ev, scales):
    angle = ev.angle * (scales[ev.spin] if ev.scale_sensitive else 1.0)
    return conjugate_local(_rot2(ev.axis, angle), rho, (ev.spin,))


def _apply_delay(system, rho, ev, scales):
    n = system.n
    if ev.duration == 0.0:
        return rho
    if ev.refocus:
        inner = Event("delay", duration=ev.duration / 2.0, dephase=ev.dephase,
                      t1_relax=ev.t1_relax)
        flips = [Event("pulse", spin=s, axis="y", angle=math.pi) for s in ev.refocus]
        rho = _apply_delay(system, rho, inner, scales)
        for f in flips:
            rho = _apply_pulse(rho, f, scales)
        rho = _apply_delay(system, rho, inner, scales)
        for f in flips:
            rho = _apply_pulse(rho, f, scales)
        return rho
    t = ev.duration
    signs = z_signs(n)
    # scalar-coupling phases (diagonal, so an elementwise conjugation)
    total = np.zeros(2 ** n)
    for i in range(n):
        for k in range(i + 1, n):
            g = system.coupling(i, k)
            if g:
                total = total + g * t * signs[i] * signs[k]
    if np.any(total):
        ph = np.exp(-1j * total)
        phase = ph[:, None] * ph.conj()[None, :]
        # populations are untouched by a diagonal conjugation; pin them so
        # the identity component is preserved exactly, not just to rounding
        np.fill_diagonal(phase, 1.0)
        rho = rho * phase
    if ev.dephase:
        for i in range(n):
            p = dephase_probability(t, system.t2_star[i])
            mask = (1.0 - p) + p * np.outer(signs[i], signs[i])
            np.fill_diagonal(mask, 1.0)
            rho = rho * mask
    if ev.t1_relax:
        rho = _t1_step(system, rho, t)
    return rho


def _t1_step(system, rho, t):
    # Phenomenological energy relaxation: each spin's longitudinal deviation
    # decays toward its thermal value; transverse parts are left to the
    # dephasing model.  Assumes rho is a deviation in angular-frequency units.
    if system.t1 is None:
        raise ValueError("t1 relaxation requested but no t1 times configured")
    n = system.n
    r = rho.reshape([2] * (2 * n))
    for i in range(n):
        decay = math.exp(-t / system.t1[i])
        r2 = np.moveaxis(r, (i, n + i), (0, 1))
        b00, b11 = r2[0, 0].copy(), r2[1, 1].copy()
        even = (b00 + b11) / 2.0
        zpart = (b00 - b11) / 2.0
        zpart = decay * zpart
        eye = np.eye(2 ** (n - 1)).reshape([2] * (2 * (n - 1)))
        zpart = zpart + (1.0 - decay) * (system.omega[i] / 2.0) * eye
        r2[0, 0] = even + zpart
        r2[1, 1] = even - zpart
        r = np.moveaxis(r2, (0, 1), (i, n + i))
    return r.reshape(2 ** n, 2 ** n)


def _run_pure(system, rho, events, scales):
    rho = np.array(rho, dtype=complex)
    for ev in events:
        if ev.kind == "pulse":
            rho = _apply_pulse(rho, ev, scales)
        elif ev.kind == "delay":
            rho = _apply_delay(system, rho, ev, scales)
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    return rho


def run_sequence(system, rho, events, rf=None):
    """Evolve a deviation matrix through pulses and delays.

    With an active RF model the result is the ensemble average over the
    per-channel pulse-scale distribution (perfectly correlated within a run).
    """
    sets = rf_scale_sets(rf, system.n)
    out = None
    for scales, weight in sets:
        run = _run_pure(system, rho, events, scales)
        out = weight * run if out is None else out + weight * run
    return out


def identity_offset(system, events):
    """Deviation of the identity under a sequence; zero means unital."""
    eye = np.eye(2 ** system.n, dtype=complex)
    out = _run_pure(system, eye, events, (1.0,) * system.n)
    return float(np.max(np.abs(out - eye)))


# ---------------------------------------------------------------------------
# thermal state

def thermal_state(system):
    """High-temperature deviation: diagonal sum of omega_i Z_i / 2."""
    n = system.n
    signs = z_signs(n)
    diag = np.zeros(2 ** n)
    for i in range(n):
        diag = diag + system.omega[i] / 2.0 * signs[i]
    return np.diag(diag).astype(complex)


def thermal_scale(system, temperature=298.0):
    """Weight of the deviation relative to the unit identity component."""
    return _const.hbar / (2 ** system.n * _const.k * temperature)


# ---------------------------------------------------------------------------
# spectral readout

@dataclass(frozen=True)
class PeakSet:
    """Complex line integrals keyed by (spin, partner basis state)."""

    lines: dict = field(compare=False)

    def line(self, spin, partner_bits):
        return self.lines[(spin, tuple(partner_bits))]

    # two-spin shorthand: the high-frequency line of a spin sits on the
    # partner-in-|1> transition, the low-frequency line on partner-in-|0>
    @property
    def a_high(self):
        return self.lines[(0, (1,))]

    @property
    def a_low(self):
        return self.lines[(0, (0,))]

    @property
    def b_high(self):
        return self.lines[(1, (1,))]

    @property
    def b_low(self):
        return self.lines[(1, (0,))]


def peak_integrals(rho):
    """Line integrals -(i*x + y) per spin, conditioned on the partner state."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim or rho.shape != (dim, dim):
        raise ValueError("square matrix with power-of-two dimension required")
    r = rho.reshape([2] * (2 * n))
    lines = {}
    for i in range(n):
        r2 = np.moveaxis(r, (i, n + i), (0, 1))
        up = r2[0, 1].reshape(2 ** (n - 1), 2 ** (n - 1))
        dn = r2[1, 0].reshape(2 ** (n - 1), 2 ** (n - 1))
        for bits in itertools.product((0, 1), repeat=n - 1):
            s = 0
            for b in bits:
                s = 2 * s + b
            cx = (up[s, s] + dn[s, s]) / 2.0
            cy = (1j * up[s, s] - 1j * dn[s, s]) / 2.0
            lines[(i, bits)] = complex(-(1j * cx + cy))
    return PeakSet(lines=lines)


def _rotation_table(axis):
    # how a readout pulse permutes single-spin Pauli coefficients
    if axis is None:
        return np.eye(4)
    u = _rot2(axis, math.pi / 2.0)
    table = np.zeros((4, 4))
    for k in range(4):
        for i in range(4):
            table[k, i] = (np.trace(PAULIS[k] @ u @ PAULIS[i] @ u.conj().T) / 2.0).real
    return table


def state_tomography(prepare, tol=1e-8):
    """Reconstruct a two-spin deviation from nine readout-pulse variants.

    prepare() must return the same deviation each time; variants apply
    none/x/y quarter-turn pulses per spin before acquisition.  Raises if the
    overdetermined line data are inconsistent beyond tol.
    """
    variants = list(itertools.product((None, "x", "y"), repeat=2))
    unknowns = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]
    col = {ij: k for k, ij in enumerate(unknowns)}
    rows, vals = [], []
    system = None
    for ra, rb in variants:
        rho = np.asarray(prepare(), dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("tomography needs two-spin deviations")
        if system is None:
            system = SpinSystem(omega=(0.0, 0.0), j=((0.0, 0.0), (0.0, 0.0)),
                                t2_star=(1.0, 1.0))
        events = []
        if ra:
            events.append(pulse(0, ra, math.pi / 2))
        if rb:
            events.append(pulse(1, rb, math.pi / 2))
        rot_a, rot_b = _rotation_table(ra), _rotation_table(rb)
        peaks = peak_integrals(_run_pure(system, rho, events, (1.0, 1.0)))
        for partner, sign in (((0,), 1.0), ((1,), -1.0)):
            # spin-a line: -(i*(c10 + s*c13) + c20 + s*c23) after the pulses
            for k, pick in ((1, "imag"), (2, "real")):
                row = np.zeros(len(unknowns))
                for (i, j), c in col.items():
                    row[c] = -rot_a[k, i] * (rot_b[0, j] + sign * rot_b[3, j])
                rows.append(row)
                v = peaks.line(0, partner)
                vals.append(v.imag if pick == "imag" else v.real)
            for k, pick in ((1, "imag"), (2, "real")):
                row = np.zeros(len(unknowns))
                for (i, j), c in col.items():
                    row[c] = -rot_b[k, j] * (rot_a[0, i] + sign * rot_a[3, i])
                rows.append(row)
                v = peaks.line(1, partner)
                vals.append(v.imag if pick == "imag" else v.real)
    a = np.array(rows)
    y = np.array(vals)
    sol, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.max(np.abs(a @ sol - y)))
    if resid > tol * max(1.0, float(np.max(np.abs(y)))):
        raise ValueError(f"inconsistent readout data (residual {resid:.3g})")
    rec = np.zeros((4, 4), dtype=complex)
    for (i, j), c in col.items():
        rec = rec + sol[c] * np.kron(PAULIS[i], PAULIS[j])
    return rec


# ---------------------------------------------------------------------------
# labeling

def temporal_label(system, preps, rho=None):
    """Sum of prepared copies: one experiment per preparation, results added.

    Each prep is None (no pulses), a unitary matrix, or an event list.
    """
    base = thermal_state(system) if rho is None else np.asarray(rho, complex)
    total = np.zeros_like(base)
    for prep in preps:
        if prep is None:
            total = total + base
        elif isinstance(prep, (list, tuple)) and (not prep or isinstance(prep[0], Event)):
            total = total + _run_pure(system, base, prep, (1.0,) * system.n)
        else:
            u = np.asarray(prep, dtype=complex)
            total = total + u @ base @ u.conj().T
    return total


def cyclic_label_ops(dim):
    """Permutations fixing |0> and cycling the rest; summing over all of
    them turns any diagonal state into identity plus a pure |0> deviation."""
    size = dim - 1
    ops = []
    for k in range(size):
        perm = np.zeros((dim, dim))
        perm[0, 0] = 1.0
        for l in range(1, dim):
            target = ((l - 1 + k) % size) + 1
            perm[target, l] = 1.0
        ops.append(perm)
    return ops


def hybrid_label(n, omegas):
    """Effective pure state on n-1 spins from two runs and O(n) gates.

    Averages the thermal deviation with a copy conjugated by a fan-out of
    CNOTs from spin 1, then flips spin 1 conditioned on all others being |1>.
    Conditioned on spin 1 = |1>, the remaining spins carry a pure deviation.
    """
    if n < 2:
        raise ValueError("need at least two spins")
    omegas = [float(w) for w in omegas]
    if len(omegas) != n:
        raise ValueError("need one frequency per spin")
    dim = 2 ** n
    half = dim // 2
    diag = np.zeros(dim)
    signs = z_signs(n)
    for i in range(n):
        diag = diag + omegas[i] / 2.0 * signs[i]
    # fan-out: when spin 1 reads |1>, flip every other spin
    perm1 = np.array([x ^ (half - 1) if x & half else x for x in range(dim)])
    avg = (diag + diag[perm1]) / 2.0
    # conditional flip of spin 1 when the rest are all |1>
    perm2 = np.arange(dim)
    perm2[half - 1], perm2[dim - 1] = dim - 1, half - 1
    eff = avg[perm2]
    upper = 2.0 * eff[:half] - omegas[0]
    lower = 2.0 * eff[half:] + omegas[0]
    gates_fanout = n - 1
    gates_flip = 1 if n == 2 else 8 * (n - 2)
    return {
        "state": np.diag(eff).astype(complex),
        "upper_block": np.diag(upper),
        "lower_block": np.diag(lower),
        "gate_count": {"fanout": gates_fanout, "conditional_flip": gates_flip,
                       "total": gates_fanout + gates_flip},
    }


# ---------------------------------------------------------------------------
# constant-vs-balanced decision on thermal inputs

def _fwht(vec):
    a = np.array(vec, dtype=float)
    size = a.size
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top, bot = a[:, 0, :].copy(), a[:, 1, :].copy()
        a[:, 0, :] = top + bot
        a[:, 1, :] = top - bot
        a = a.reshape(size)
        h *= 2
    return a


def dj_thermal(n, f, p):
    """Run the constant-vs-balanced query circuit on a thermal-model input.

    f maps integers 0..2^n-1 to {0, 1} and must be constant or balanced.
    p gives each qubit's probability of starting in its nominal basis state
    (length n, or n+1 with the work bit last).  Returns the per-qubit
    longitudinal outputs, the pure-register reference, and the decision.
    """
    if n < 1 or n > 12:
        raise ValueError("register size limited to 1..12 for dense simulation")
    if np.isscalar(p):
        p_reg = [float(p)] * n
        p_work = 1.0
    else:
        p = [float(x) for x in p]
        if len(p) == n:
            p_reg, p_work = p, 1.0
        elif len(p) == n + 1:
            p_reg, p_work = p[:n], p[n]
        else:
            raise ValueError("p must have length n or n+1")
    dim = 2 ** n
    table = np.array([int(bool(f(x))) for x in range(dim)])
    ones = int(table.sum())
    if ones not in (0, dim, dim // 2):
        raise ValueError("oracle is neither constant nor balanced")
    signs = 1.0 - 2.0 * table
    ghat = _fwht(signs) / dim
    pvec = ghat * ghat  # output distribution for a pure register
    weights = np.array([1.0])
    for pi in p_reg:
        weights = np.kron(weights, np.array([pi, 1.0 - pi]))
    # diagonal mixture in, so the output distribution is an XOR convolution
    pout = _fwht(_fwht(weights) * _fwht(pvec)) / dim
    bit_sign = z_signs(n)
    e_phase_pure = pvec @ bit_sign.T
    e_phase_thermal = pout @ bit_sign.T
    scale = np.array([2.0 * pi - 1.0 for pi in p_reg])
    # work bit in |0> disables the phase kickback entirely
    e_thermal = p_work * e_phase_thermal + (1.0 - p_work) * scale
    e_pure_reg = p_work * e_phase_pure + (1.0 - p_work) * np.ones(n)
    scaling_error = float(np.max(np.abs(e_thermal - scale * e_pure_reg)))
    if not scaling_error < 1e-9:
        raise RuntimeError("thermal outputs break the scaling identity "
                           f"E = (2p - 1) E_pure (error {scaling_error:.3e})")
    total = float(e_thermal.sum())
    if np.all(scale > 0):
        threshold = float(scale.sum() - p_work * scale.min())
    else:
        threshold = float(scale.sum())
    decision = "constant" if total >= threshold else "balanced"
    return {
        "E": [float(x) for x in e_thermal],
        "E_pure": [float(x) for x in e_pure_reg],
        "sum": total,
        "threshold": threshold,
        "decision": decision,
        "scaling_error": scaling_error,
    }


# ---------------------------------------------------------------------------
# RF inhomogeneity model

@dataclass(frozen=True)
class RfModel:
    """Per-channel pulse-scale distribution, fully correlated within a run."""

    kind: str = "none"
    widths: tuple = ()
    integration: str = "quadrature"
    nodes: int = 32
    shots: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "lorentzian"):
            raise ValueError(f"unknown RF model kind {self.kind!r}")
        if self.integration not in ("quadrature", "monte-carlo"):
            raise ValueError(f"unknown integration {self.integration!r}")
        _check_count("nodes", self.nodes)
        _check_count("shots", self.shots)
        if not all(0 < w < math.inf for w in self.widths):
            raise ValueError(f"RF widths must be positive and finite: {self.widths!r}")

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def lorentzian(cls, attenuations=(0.96, 0.92), nodes=32,
                   integration="quadrature", shots=512, seed=0):
        widths = tuple(calibrate_width(a, nodes) for a in attenuations)
        return cls(kind="lorentzian", widths=widths, integration=integration,
                   nodes=nodes, shots=shots, seed=seed)


def _check_count(name, value):
    if not value >= 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def _lorentz_nodes(width, nodes):
    # quadrature over the distribution truncated at five half-widths
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 1.0 + 5.0 * width * x
    density = 1.0 / (1.0 + ((s - 1.0) / width) ** 2)
    wt = w * density
    return s, wt / wt.sum()


def calibrate_width(target, nodes=32):
    """Half-width whose averaged quarter-turn signal equals the target."""
    def averaged(width):
        s, wt = _lorentz_nodes(width, nodes)
        return float(np.sum(wt * np.sin(s * math.pi / 2.0)))

    if not 0.0 < target < 1.0:
        raise ValueError("attenuation target must be in (0, 1)")
    _check_count("nodes", nodes)
    lo, hi = 1e-6, 0.8
    if averaged(hi) > target:
        raise ValueError("attenuation target too small to calibrate")
    return brentq(lambda w: averaged(w) - target, lo, hi, xtol=1e-14)


def rf_scale_sets(rf, channels):
    """(scales, weight) pairs for ensemble averaging; one entry when off."""
    if rf is None or rf.kind == "none":
        return [((1.0,) * channels, 1.0)]
    if len(rf.widths) < channels:
        raise ValueError("need one width per channel")
    per_channel = []
    if rf.integration == "quadrature":
        for c in range(channels):
            s, wt = _lorentz_nodes(rf.widths[c], rf.nodes)
            per_channel.append(list(zip(s, wt)))
        sets = []
        for combo in itertools.product(*per_channel):
            scales = tuple(c[0] for c in combo)
            weight = 1.0
            for c in combo:
                weight *= c[1]
            sets.append((scales, weight))
        return sets
    rng = np.random.default_rng(rf.seed)
    edge = math.atan(5.0)
    draws = []
    for c in range(channels):
        u = rng.uniform(-edge, edge, size=rf.shots)
        draws.append(1.0 + rf.widths[c] * np.tan(u))
    sets = []
    for k in range(rf.shots):
        sets.append((tuple(draws[c][k] for c in range(channels)),
                     1.0 / rf.shots))
    return sets


def rf_average(closure, rf, channels=2):
    """Average an array-valued closure over the RF scale distribution."""
    out = None
    for scales, weight in rf_scale_sets(rf, channels):
        val = np.asarray(closure(scales), dtype=float)
        out = weight * val if out is None else out + weight * val
    if out is not None and out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# two-spin protection experiment

def cnot_ba_events(system):
    """Three-step sequence acting as a b-controlled NOT on diagonal states."""
    tau = _coupling_period(system)
    return [pulse(0, "y", math.pi / 2), delay(tau), pulse(0, "x", math.pi / 2)]


ENCODER = (1.0 / math.sqrt(2)) * np.array(
    [[1, -1, 0, 0],
     [0, 0, 1j, 1j],
     [0, 0, 1, -1],
     [1j, 1j, 0, 0]], dtype=complex)
DECODER = ENCODER.conj().T


def encode_events(system):
    """Four pulses around one coupling delay implementing the encoder.

    Several four-pulse realizations reproduce the same unitary; this one
    (three pulses before the delay) is the variant whose response to
    correlated pulse-amplitude errors matches the bench behavior that the
    analysis layer expects: the fitted attenuation coefficient comes out
    positive and the zero-storage ellipticity lands slightly above one.
    """
    tau = _coupling_period(system)
    return [
        pulse(0, "x", -math.pi / 2),
        pulse(0, "y", -math.pi / 2),
        pulse(1, "y", math.pi / 2),
        delay(tau),
        pulse(0, "y", math.pi / 2),
    ]


def decode_events(system):
    """Inverse of the encoder; mirrors it with one pulse before the delay."""
    tau = _coupling_period(system)
    return [
        pulse(0, "y", math.pi / 2),
        delay(tau),
        pulse(0, "y", -math.pi / 2),
        pulse(0, "x", math.pi / 2),
        pulse(1, "y", -math.pi / 2),
    ]


def _labeled_input(system, scales):
    rho = thermal_state(system) / system.omega[0]
    plain = rho
    flipped = _run_pure(system, rho, cnot_ba_events(system), scales)
    return plain + flipped


def two_bit_experiment(theta, t_d, mode="coded", rf=None, system=None,
                       t1_relax=False):
    """One point of the storage experiment; returns decoded spin-a components.

    Pipeline: two-run labeled input, variable-angle preparation, optional
    encoding, storage with dephasing and mid/end refocusing flips on the
    ancilla, optional decoding, then a quarter-turn readout pulse.  Accepted
    components live on the ancilla-|0> line, rejected ones on the |1> line.
    """
    if system is None:
        system = formate_system()
    if not 0.0 <= theta <= math.pi:
        raise ValueError("preparation angle must lie in [0, pi]")
    if t_d < 0:
        raise ValueError("storage time must be nonnegative")
    if mode not in ("coded", "control"):
        raise ValueError("mode must be 'coded' or 'control'")
    events = [pulse(0, "y", theta)]
    if mode == "coded":
        events += encode_events(system)
    events.append(delay(t_d, dephase=True, refocus=(1,), t1_relax=t1_relax))
    if mode == "coded":
        events += decode_events(system)
    events.append(pulse(0, "x", math.pi / 2))

    def one_run(scales):
        rho = _run_pure(system, _labeled_input(system, scales), events, scales)
        peaks = peak_integrals(rho)
        return np.array([
            -peaks.a_low.imag, peaks.a_low.real,
            -peaks.a_high.imag, peaks.a_high.real,
        ])

    vec = rf_average(one_run, rf, channels=system.n)
    return {
        "accepted": (float(vec[0]), float(vec[1])),
        "rejected": (float(vec[2]), float(vec[3])),
    }


def ideal_outputs(theta, p_a, p_b, mode="coded"):
    """Closed-form decoded components under pure dephasing."""
    if mode == "control":
        return {
            "accepted": ((1 - 2 * p_a) * math.sin(theta), math.cos(theta)),
            "rejected": (0.0, 0.0),
        }
    if mode == "coded":
        keep = 1 - p_a - p_b + 2 * p_a * p_b
        return {
            "accepted": ((1 - p_a - p_b) * math.sin(theta),
                         keep * math.cos(theta)),
            "rejected": ((-p_a + p_b) * math.sin(theta),
                         (p_a + p_b - 2 * p_a * p_b) * math.cos(theta)),
        }
    raise ValueError("mode must be 'coded' or 'control'")


def two_bit_sweep(system=None, thetas=THETA_GRID, tds=None, modes=("coded", "control"),
                  rf=None, t1_relax=False):
    """Sweep the experiment over a theta/storage grid; returns row dicts."""
    if system is None:
        system = formate_system()
    if tds is None:
        tds = storage_grid(system)
    rows = []
    for td in tds:
        for mode in modes:
            for theta in thetas:
                out = two_bit_experiment(theta, td, mode=mode, rf=rf,
                                         system=system, t1_relax=t1_relax)
                rows.append({
                    "theta": theta, "td": td, "mode": mode,
                    "x_acc": out["accepted"][0], "z_acc": out["accepted"][1],
                    "x_rej": out["rejected"][0], "z_rej": out["rejected"][1],
                })
    return rows


def sweep_to_csv(rows, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["theta", "td", "mode", "x_acc", "z_acc", "x_rej", "z_rej"])
    for row in rows:
        writer.writerow([
            "%.12g" % row["theta"], "%.12g" % row["td"], row["mode"],
            "%.12g" % row["x_acc"], "%.12g" % row["z_acc"],
            "%.12g" % row["x_rej"], "%.12g" % row["z_rej"],
        ])


# ---------------------------------------------------------------------------
# analysis

def _ellipse_model(params, theta):
    a, b, c, d = params
    return (a + b * np.sin(theta + d) ** 2) * (1.0 - c * (theta + d))


def ellipse_analysis(points):
    """Fit intensity (A + B sin^2(th+D))(1 - C(th+D)) and report distortion.

    points: sequence of (theta, x, z).  The reported ellipticity is
    sqrt(I(0)/I(pi/2)) evaluated on the ellipse component A + B sin^2(th+D)
    of the fit; the (1 - C(th+D)) factor models a pulse-length-dependent
    signal loss, which is a separate effect from the shape of the ellipse,
    so it is divided out before the axis ratio is taken.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 6:
        raise ValueError("need at least six (theta, x, z) samples")
    theta = pts[:, 0]
    intensity = pts[:, 1] ** 2 + pts[:, 2] ** 2
    i0 = intensity[np.argmin(np.abs(theta))]
    i90 = intensity[np.argmin(np.abs(theta - math.pi / 2))]
    start = np.array([i0, i90 - i0, 0.0, 0.0])
    fit = least_squares(lambda q: _ellipse_model(q, theta) - intensity,
                        start, method="lm")
    residual = float(np.linalg.norm(fit.fun))
    if not fit.success:
        raise ValueError(f"ellipse fit did not converge (residual {residual:.3g})")
    a, b, _, d = fit.x
    top = float(a + b * math.sin(d) ** 2)
    bottom = float(a + b * math.sin(math.pi / 2.0 + d) ** 2)
    if top <= 0 or bottom <= 0:
        raise ValueError(f"fitted intensity not positive (residual {residual:.3g})")
    eps = math.sqrt(top / bottom)
    p_eps = (1.0 - 1.0 / eps) / 2.0
    return {
        "A": float(fit.x[0]), "B": float(fit.x[1]),
        "C": float(fit.x[2]), "D": float(fit.x[3]),
        "ellipticity": eps, "p_eps": p_eps, "f_eps": 1.0 - p_eps,
        "residual": residual,
    }


def fidelity_delta(points):
    """Worst-case input-output overlap, normalized by the theta=0 amplitude."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("need (theta, x, z) samples")
    at_zero = pts[np.abs(pts[:, 0]) < 1e-12]
    if at_zero.shape[0] == 0:
        raise ValueError("a theta=0 sample is required for normalization")
    norm = math.hypot(at_zero[0, 1], at_zero[0, 2])
    if norm == 0:
        raise ValueError("vanishing theta=0 amplitude")
    overlaps = (1.0 + (np.sin(pts[:, 0]) * pts[:, 1]
                       + np.cos(pts[:, 0]) * pts[:, 2]) / norm) / 2.0
    return float(np.min(overlaps))
