"""Exact and approximate error-correction checks on explicit code spaces.

A code is a list of orthonormal logical vectors in an ambient Hilbert space.
Errors may be dense matrices or lazy appliers (callables mapping a state
vector to a state vector); every check here only ever needs the images of the
logical vectors, so ambient dimensions in the thousands stay cheap.

The module covers: the exact correctability criterion on cross products of
errors, canonicalization to a diagonal error set, construction of the
projector-based recovery channel, the relaxed criterion where error images may
shrink logical directions unevenly, fidelity lower bounds, worst-case
input-output overlap search, and the full four-qubit amplitude-damping
encode/syndrome/recover circuit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import brentq, minimize

from .qop_core import CNOT, QuantumChannel, apply, apply_local, dagger

DEFAULT_TOL = 1e-9


@dataclass
class CodeSpace:
    """Orthonormal logical vectors spanning a subspace of C^ambient_dim."""

    ambient_dim: int
    logicals: list

    def __post_init__(self):
        self.logicals = [np.asarray(v, dtype=complex).reshape(-1)
                         for v in self.logicals]
        for v in self.logicals:
            if v.shape[0] != self.ambient_dim:
                raise ValueError("logical vector has wrong dimension")

    @property
    def k(self):
        return len(self.logicals)

    @property
    def matrix(self):
        """ambient_dim x k matrix whose columns are the logicals."""
        return np.column_stack(self.logicals)

    def validate(self, tol=DEFAULT_TOL):
        l = self.matrix
        gram = dagger(l) @ l
        if np.abs(gram - np.eye(self.k)).max() > tol:
            raise ValueError("logical vectors are not orthonormal")
        return self

    def projector(self):
        l = self.matrix
        return l @ dagger(l)

    def encode(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if a.shape[0] != self.k:
            raise ValueError("amplitude vector length != number of logicals")
        return self.matrix @ a


@dataclass
class CriteriaReport:
    g: np.ndarray = None
    canonical_p: np.ndarray = None
    lambdas: np.ndarray = None
    unitaries: list = None          # per error: ambient x k isometry (action on the code)
    residues: np.ndarray = None     # per error: operator norm of the deviation
                                    # of sqrt(P A†A P) from its smallest value
    verdict: str = "fail"           # "exact" | "approximate" | "fail"
    order: int = None
    reason: str = None
    degenerate: bool = None
    defect: float = None            # worst deviation from the exact block structure
    ortho_defect: float = None      # worst overlap between distinct error images
    gaps: np.ndarray = None         # per error: p_n (1 - lambda_n)
    gap_slope: float = None         # fitted decay order of the worst gap
    ortho_slope: float = None       # fitted decay order of ortho_defect²
    code_h: list = None             # per error: k x k positive part on the code

    @property
    def crude_bound(self):
        """Sum of p_n lambda_n (state-independent part of the fidelity bound)."""
        return float(np.sum(self.canonical_p * self.lambdas))


@dataclass
class RecoveryOp:
    channel: QuantumChannel
    isometries: list
    completion: np.ndarray


def apply_error(err, vec):
    return err(vec) if callable(err) else np.asarray(err) @ vec


def error_columns(code, err):
    """ambient_dim x k matrix of images of the logicals under the error."""
    return np.column_stack([apply_error(err, v) for v in code.logicals])


def _thin_polar(ac):
    """AC = W H with W an isometry (ambient x k) and H the k x k positive part."""
    p, s, qh = np.linalg.svd(ac, full_matrices=False)
    w = p @ qh
    h = dagger(qh) @ np.diag(s) @ qh
    return w, h, s


def _gram_blocks(code, errors):
    cols = [error_columns(code, e) for e in errors]
    ne, k = len(errors), code.k
    blocks = np.empty((ne, ne, k, k), dtype=complex)
    for m in range(ne):
        for n in range(ne):
            blocks[m, n] = dagger(cols[m]) @ cols[n]
    return cols, blocks


def check_exact(code, errors, tol=DEFAULT_TOL):
    """Exact correctability: every cross product of errors must act on the
    code as a scalar g_mn times the identity, with no logical mixing."""
    code.validate(max(tol, 1e-12))
    ne, k = len(errors), code.k
    _, blocks = _gram_blocks(code, errors)
    g = np.empty((ne, ne), dtype=complex)
    defect = 0.0
    for m in range(ne):
        for n in range(ne):
            g[m, n] = np.trace(blocks[m, n]) / k
            defect = max(defect,
                         float(np.abs(blocks[m, n] - g[m, n] * np.eye(k)).max()))
    g = (g + dagger(g)) / 2
    w = np.linalg.eigvalsh(g)
    scale = max(w.max(), 1.0)
    rank = int(np.sum(w > scale * 1e-9))
    exact = defect <= tol
    return CriteriaReport(
        g=g,
        canonical_p=np.clip(w[::-1], 0.0, None),
        lambdas=np.ones(ne) if exact else None,
        residues=np.zeros(ne) if exact else None,
        verdict="exact" if exact else "fail",
        reason=None if exact else f"criteria deviation {defect:.3e} > tol",
        degenerate=rank < ne,
        defect=defect,
        code_h=[math.sqrt(max(float(np.real(g[n, n])), 0.0)) * np.eye(k)
                for n in range(ne)] if exact else None,
    )


@dataclass
class CanonicalSet:
    errors: list
    p: np.ndarray
    isometries: list


def canonicalize_errors(code, errors, g=None, tol=DEFAULT_TOL):
    """Mix the error set so cross products become diagonal on the code.

    New error l is sum_n u_nl A_n where the columns u_l diagonalize g; the
    weights p_l are g's eigenvalues (descending).  Works for lazy errors by
    returning lazy linear combinations.
    """
    if g is None:
        g = check_exact(code, errors, tol=tol).g
    w, u = np.linalg.eigh((g + dagger(g)) / 2)
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    # pin each eigenvector's phase so an already-diagonal g returns the
    # original errors (up to ordering) instead of arbitrary rephasings
    for l in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, l])))
        ph = u[j, l]
        if abs(ph) > 0:
            u[:, l] = u[:, l] * (ph.conjugate() / abs(ph))

    new_errors = []
    for l in range(len(errors)):
        coeffs = u[:, l].copy()
        if all(not callable(e) for e in errors):
            new_errors.append(sum(c * np.asarray(e, dtype=complex)
                                  for c, e in zip(coeffs, errors)))
        else:
            def combo(vec, _c=coeffs, _errs=tuple(errors)):
                return sum(c * apply_error(e, vec) for c, e in zip(_c, _errs))
            new_errors.append(combo)

    isometries = []
    for e in new_errors:
        wmat, _, _ = _thin_polar(error_columns(code, e))
        isometries.append(wmat)
    return CanonicalSet(new_errors, np.clip(w, 0.0, None), isometries)


def build_recovery(code, canonical, tol=1e-8, prune=1e-12):
    """Recovery channel for a canonical error set: one element per error,
    projecting the error's image back onto the code and undoing the rotation,
    plus a projector onto everything unreachable.
    """
    if isinstance(canonical, CanonicalSet):
        errors = canonical.errors
    else:
        errors = list(canonical)
    l = code.matrix
    d, k = code.ambient_dim, code.k

    kept = []
    for e in errors:
        ac = error_columns(code, e)
        w, h, s = _thin_polar(ac)
        p = float(s.max() ** 2) if s.size else 0.0
        if p <= prune:
            continue
        # the positive part must be a multiple of the identity on the code
        scale = math.sqrt(p)
        if np.abs(h - scale * np.eye(k)).max() > tol * max(scale, 1.0):
            raise ValueError(
                "error set does not meet the exact criteria "
                f"(image deformation {np.abs(h - scale * np.eye(k)).max():.3e})")
        kept.append(w)
    for i, wi in enumerate(kept):
        for j in range(i):
            if np.abs(dagger(kept[j]) @ wi).max() > tol:
                raise ValueError("error images overlap; recovery is ambiguous")

    recovery_ops = [l @ dagger(w) for w in kept]
    completion = np.eye(d, dtype=complex)
    for w in kept:
        completion -= w @ dagger(w)
    completion = (completion + dagger(completion)) / 2
    return RecoveryOp(QuantumChannel(recovery_ops + [completion]),
                      kept, completion)


def _fit_slope(xs, ys):
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    if np.all(ys < 1e-14):
        return math.inf
    ys = np.clip(ys, 1e-300, None)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _approx_quantities(code, errors):
    cols = [error_columns(code, e) for e in errors]
    ne, k = len(errors), code.k
    ws, hs, p, lam = [], [], np.empty(ne), np.empty(ne)
    for n, ac in enumerate(cols):
        w, h, s = _thin_polar(ac)
        ws.append(w)
        hs.append(h)
        p[n] = s.max() ** 2
        lam[n] = (s.min() / s.max()) ** 2 if s.max() > 0 else 1.0
    ortho = 0.0
    for m in range(ne):
        for n in range(m + 1, ne):
            if p[m] <= 0 or p[n] <= 0:
                continue  # dead error, its polar factor is arbitrary
            ortho = max(ortho, float(
                np.linalg.norm(dagger(ws[m]) @ ws[n], 2)))
    return ws, hs, p, lam, ortho


def check_approximate(code, errors, order=None, samples=None, tol=DEFAULT_TOL,
                      ortho_tol=1e-6):
    """Relaxed correctability: each error may shrink the code unevenly.

    Per error, the positive part of its restriction to the code has largest
    eigenvalue p_n and smallest p_n·lambda_n; the residue p_n(1 - lambda_n)
    must decay fast enough.  ``samples`` is an optional list of
    (noise_strength, errors_at_that_strength) pairs, at least three, used to
    fit the decay order of both the gaps and the image overlaps; with it the
    verdict becomes approximate(order) when both fitted slopes clear order+1
    within half an order.
    """
    code.validate(max(tol, 1e-12))
    ws, hs, p, lam, ortho = _approx_quantities(code, errors)
    ne = len(errors)
    residues = np.sqrt(p) - np.sqrt(p * lam)
    gaps = p * (1.0 - lam)

    gap_slope = ortho_slope = None
    if samples is not None:
        if len(samples) < 3:
            raise ValueError("order fitting needs at least 3 samples")
        xs, gap_ys, ortho_ys = [], [], []
        for strength, errs in samples:
            _, _, ps, ls, o = _approx_quantities(code, errs)
            xs.append(strength)
            gap_ys.append(float(np.max(ps * (1 - ls))) if len(ps) else 0.0)
            ortho_ys.append(o ** 2)
        gap_slope = _fit_slope(xs, gap_ys)
        ortho_slope = _fit_slope(xs, ortho_ys)

    want = 1 if order is None else order
    if np.all(1 - lam <= tol) and ortho <= tol:
        verdict, reason = "exact", None
    elif samples is not None:
        ok_gap = gap_slope >= want + 0.5
        ok_ortho = ortho_slope >= want + 0.5
        if ok_gap and ok_ortho:
            verdict, reason = "approximate", None
        else:
            verdict = "fail"
            reason = (f"decay orders (gap {gap_slope:.2f}, "
                      f"overlap² {ortho_slope:.2f}) below {want + 1}")
    elif ortho <= ortho_tol:
        verdict, reason = "approximate", None
    else:
        verdict, reason = "fail", f"error images overlap by {ortho:.3e}"

    g = np.diag(p).astype(complex)
    return CriteriaReport(
        g=g, canonical_p=p, lambdas=lam, unitaries=ws, residues=residues,
        verdict=verdict, order=order if verdict == "approximate" else None,
        reason=reason, defect=float(np.max(gaps)) if ne else 0.0,
        ortho_defect=ortho, gaps=gaps, gap_slope=gap_slope,
        ortho_slope=ortho_slope, code_h=hs)


def bloch_state(r):
    """Pure qubit state with unit Bloch vector r."""
    theta, phi = math.atan2(math.hypot(r[0], r[1]), r[2]), math.atan2(r[1], r[0])
    return np.array([math.cos(theta / 2),
                     complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)])


# the 26 nonzero points of {-1, 0, 1}^3 on the sphere: more than the ten
# coefficients of a quadratic in r, so the fit residual tests that it is one
_PROBES = np.array([p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)])
_PROBES = _PROBES / np.linalg.norm(_PROBES, axis=1, keepdims=True)
_I, _J = np.triu_indices(3)
_DESIGN = np.column_stack([np.ones(len(_PROBES)), _PROBES,
                           _PROBES[:, _I] * _PROBES[:, _J]])


def _sphere_argmin(b, q):
    """Unit r (up to renormalization) minimizing b·r + rᵀqr, the trust-region
    boundary problem (Moré & Sorensen 1983; Gander, Golub & von Matt 1989):
    r = -β/(λ - μ) in q's eigenbasis, β = Vᵀb/2, μ ≤ λ₀ solving Σβᵢ²/(λᵢ - μ)²
    = 1; in the hard case (β misses the lowest eigenvectors, the rest of r is
    shorter than one) μ = λ₀ and the lowest eigenvector fills up r."""
    lam, vecs = np.linalg.eigh(q)
    beta = vecs.T @ b / 2
    tol = 1e-12 * max(1.0, np.abs(lam).max(), np.linalg.norm(beta))
    low = lam - lam[0] <= tol
    beta_low = np.linalg.norm(beta[low])
    y = np.zeros(3)
    y[~low] = -beta[~low] / (lam[~low] - lam[0])
    if beta_low <= tol and y @ y <= 1.0:
        y[0] = math.sqrt(1.0 - y @ y)
        return vecs @ y

    def secular(mu):
        return float(np.sum((beta / (lam - mu)) ** 2)) - 1.0

    # secular(hi) > 0 unless the root lies within tol of λ₀; secular < 0 at
    # λ₀ - 2|β|, where λ₀ - |β| may be the root itself (β along the lowest)
    hi = lam[0] - max(beta_low / 2, tol)
    mu = hi if secular(hi) <= 0 else brentq(
        secular, lam[0] - 2 * np.linalg.norm(beta), hi, xtol=1e-3 * tol)
    return vecs @ (-beta / (lam - mu))


def _minimize_over_pure_states(value, k):
    """(minimum, minimizer) of a real function of a pure state in C^k: exact
    for a qubit, where the function must be quadratic in the Bloch vector as
    every fidelity is (ValueError if its fit at fixed probes fails), else a
    seeded random search refined by Nelder-Mead."""
    if k == 2:
        f = np.array([value(bloch_state(r)) for r in _PROBES])
        coef = np.linalg.lstsq(_DESIGN, f, rcond=None)[0]
        residual = float(np.abs(_DESIGN @ coef - f).max())
        if not residual <= 1e-9 * max(1.0, float(np.abs(f).max())):
            raise ValueError(f"objective is not quadratic in the Bloch vector (fit "
                             f"residual {residual:.3e}); is the channel linear?")
        q = np.zeros((3, 3))
        q[_I, _J] = coef[4:]
        r = _sphere_argmin(coef[1:4], (q + q.T) / 2)
        psi = bloch_state(r / np.linalg.norm(r))
        return value(psi), psi

    def state(x):
        v = x[:k] + 1j * x[k:]
        return v / np.linalg.norm(v)

    val = lambda x: value(state(x)) if np.linalg.norm(x) >= 1e-12 else math.inf
    start = min(np.random.default_rng(0).normal(size=(4096, 2 * k)), key=val)
    res = minimize(val, start, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
    best = res.x if res.fun < val(start) else start
    return val(best), state(best)


def fidelity_lower_bound(report):
    """Worst-case fidelity guarantee of projector-based recovery.

    Minimizes (exactly, for a qubit code) over pure code states the sum over
    errors of the squared expectation of each error's positive part on the
    code.  With no residues this reduces to sum p_n lambda_n; with them it is
    sharper.  Empty error set gives 0.
    """
    hs = report.code_h
    if hs is None:
        raise ValueError("report carries no restricted positive parts")
    if not hs:
        return 0.0
    k = hs[0].shape[0]

    def value(psi):
        return float(sum(np.real(np.conjugate(psi) @ h @ psi) ** 2 for h in hs))

    return _minimize_over_pure_states(value, k)[0]


def min_overlap_fidelity(channel, sampler=None, dim=None):
    """Worst-case overlap of input with channel output over pure states.

    ``channel`` is a QuantumChannel or a callable on density matrices (pass
    ``dim`` for callables on anything but a qubit; a qubit callable must be
    linear); ``sampler`` optionally supplies candidate state vectors instead
    of the built-in search, which is exact for a qubit.
    """
    if isinstance(channel, QuantumChannel):
        dim = channel.dim_in
        act = lambda rho: apply(channel, rho)
    else:
        act = channel
        dim = 2 if dim is None else dim

    def value(psi):
        rho = np.outer(psi, psi.conj())
        return float(np.real(np.conjugate(psi) @ act(rho) @ psi))

    if sampler is not None:
        best = math.inf
        for psi in sampler:
            psi = np.asarray(psi, dtype=complex)
            best = min(best, value(psi / np.linalg.norm(psi)))
        return best

    return _minimize_over_pure_states(value, dim)[0]


# ---------------------------------------------------------------------------
# the four-qubit amplitude-damping code and its circuit pipeline


def four_bit_code():
    v0 = np.zeros(16)
    v0[0b0000] = v0[0b1111] = 1 / math.sqrt(2)
    v1 = np.zeros(16)
    v1[0b0011] = v1[0b1100] = 1 / math.sqrt(2)
    return CodeSpace(16, [v0, v1])


def ad_kraus(gamma):
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be a finite number in [0, 1], got {gamma!r}")
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return a0, a1


def ad_product(pattern, gamma):
    """Tensor product of per-qubit damping elements, e.g. pattern (1,0,0,0)."""
    a0, a1 = ad_kraus(gamma)
    out = np.array([[1.0]], dtype=complex)
    for b in pattern:
        out = np.kron(out, a1 if b else a0)
    return out


def four_bit_reversible_set(gamma):
    """The no-loss element plus the four single-loss elements."""
    errs = [ad_product((0, 0, 0, 0), gamma)]
    for i in range(4):
        pattern = [0, 0, 0, 0]
        pattern[i] = 1
        errs.append(ad_product(tuple(pattern), gamma))
    return errs


@dataclass
class FourBitReport:
    gamma: float
    worst_fidelity: float
    worst_state: np.ndarray
    syndrome_probs: dict
    branches: list           # (syndrome, sub-label, weight, logical 2-vector or None)
    leading_coefficient: float   # (1 - worst_fidelity) / gamma²


def _four_bit_branches(gamma, amplitudes, code):
    """Push one encoded state through damping, syndrome circuit and recovery.

    Returns a list of (syndrome, label, logical-output-vector or None); the
    vectors are unnormalized, their squared norms are branch probabilities.
    None marks a branch with no recovered qubit (counted as fidelity 0).
    """
    damping = ad_kraus(gamma)  # first: it rejects a bad gamma
    psi = code.encode(amplitudes)
    rot_pair = math.atan((1 - gamma) ** 2)
    # rotation sending cos(t)|0> + sin(t)|1> to |0>
    def unrot(t):
        return np.array([[math.cos(t), math.sin(t)],
                         [-math.sin(t), math.cos(t)]], dtype=complex)

    n0 = np.array([[0, 1], [1 - gamma, 0]], dtype=complex)
    n1 = np.array([[0, 0], [math.sqrt(gamma * (2 - gamma)), 0]], dtype=complex)
    controlled_unrot = block_diag(unrot(rot_pair), unrot(math.pi / 4))
    projector = [np.diag(e) for e in np.eye(2, dtype=complex)]

    out = []
    for pattern in np.ndindex(2, 2, 2, 2):
        branch = psi
        for q, b in enumerate(pattern):
            branch = apply_local(damping[b], branch, (q,))
        if np.abs(branch).max() < 1e-300:
            continue
        branch = apply_local(CNOT, branch, (0, 1))
        branch = apply_local(CNOT, branch, (2, 3))
        for s2 in (0, 1):
            half = apply_local(projector[s2], branch, (1,))
            for s4 in (0, 1):
                w = apply_local(projector[s4], half, (3,))
                prob = float(np.vdot(w, w).real)
                if prob < 1e-14:
                    continue
                label = "".join(map(str, pattern))
                if (s2, s4) == (0, 0):
                    # decode back onto qubit 1: fold qubit 3 in, then undo the
                    # residual tilt with a rotation selected by qubit 1
                    w = apply_local(CNOT, w, (2, 0))
                    w = apply_local(controlled_unrot, w, (0, 1))
                    for sub in np.ndindex(2, 2, 2):
                        vec = np.array([w[int("".join(map(str, (b,) + sub)), 2)]
                                        for b in (0, 1)])
                        p = float(np.vdot(vec, vec).real)
                        if p < 1e-14:
                            continue
                        out.append(((s2, s4), label + f"/rest{sub}", vec, p))
                elif (s2, s4) in ((1, 0), (0, 1)):
                    reg = 2 if (s2, s4) == (1, 0) else 0
                    t = np.moveaxis(w.reshape((2,) * 4), reg, 0).reshape(2, 8)
                    for col in range(8):
                        vec = t[:, col]
                        if np.vdot(vec, vec).real < 1e-14:
                            continue
                        good = n0 @ vec
                        bad = n1 @ vec
                        pg = float(np.vdot(good, good).real)
                        pb = float(np.vdot(bad, bad).real)
                        if pg >= 1e-14:
                            out.append(((s2, s4), label + f"/n0.{col}", good, pg))
                        if pb >= 1e-14:
                            out.append(((s2, s4), label + f"/n1.{col}", None, pb))
                else:
                    out.append(((s2, s4), label, None, prob))
    return out


def four_bit_pipeline(gamma):
    """Worst-case fidelity of the four-qubit damping code's circuit pipeline.

    Minimizes, exactly over encoded pure states, the fidelity after the
    per-qubit damping channel, the two-pair parity syndrome circuit, and the
    branch recoveries (rotation pair on the no-loss branch, the swap-like
    non-unitary element on single-loss branches).  Unrecoverable branches
    count as fidelity zero.
    """
    code = four_bit_code()

    def fidelity_of(amplitudes):
        branches = _four_bit_branches(gamma, amplitudes, code)
        return sum((abs(np.vdot(amplitudes, vec)) ** 2
                    for _, _, vec, _ in branches if vec is not None), 0.0)

    worst, worst_amp = _minimize_over_pure_states(fidelity_of, 2)
    branches = _four_bit_branches(gamma, worst_amp, code)
    syn = {}
    for key, _, _, p in branches:
        syn[key] = syn.get(key, 0.0) + p
    coeff = (1 - worst) / gamma ** 2 if gamma > 0 else 0.0
    return FourBitReport(gamma, worst, worst_amp, syn, branches, coeff)
