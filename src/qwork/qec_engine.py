"""Exact and approximate error-correction checks on explicit code spaces.

A code is a list of orthonormal logical vectors in an ambient Hilbert space.
Errors may be dense matrices or lazy appliers (callables mapping a state
vector to a state vector); every check needs only the images of the logical
vectors, so any ambient basis that holds them will do (bosonic_codes uses
the reachable occupation vectors), and the relaxed one takes one batched SVD.
Canonicalization, which mixes the errors, takes matrices only.

The module covers: the exact correctability criterion on cross products of
errors, canonicalization to a diagonal error set, construction of the
projector-based recovery channel, the relaxed criterion where error images may
shrink logical directions unevenly, fidelity lower bounds, worst-case
input-output overlap search, and the full four-qubit amplitude-damping
encode/syndrome/recover circuit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qop_core import (CNOT, DEFAULT_TOL, PAULIS, QuantumChannel, _choi_matrix, apply_local,
                       check_int, check_positive, check_real, choi_of_map, dagger, kron_all,
                       standard_channel)


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
        check_positive("tol", tol)
        l = self.matrix
        gram = dagger(l) @ l
        if np.abs(gram - np.eye(self.k)).max() > tol:
            raise ValueError("logical vectors are not orthonormal")
        return self

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


def check_exact(code, errors, tol=DEFAULT_TOL):
    """Exact correctability: every cross product of errors must act on the
    code as a scalar g_mn times the identity, with no logical mixing."""
    check_positive("tol", tol)
    code.validate(max(tol, 1e-12))
    ne, k = len(errors), code.k
    blocks = _gram_blocks(np.array([error_columns(code, e) for e in errors])
                          .reshape(ne, code.ambient_dim, k))    # (A_m C)†(A_n C)
    g = np.trace(blocks, axis1=2, axis2=3) / k
    defect = float(np.abs(blocks - g[..., None, None] * np.eye(k)).max())
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
    weights p_l are g's eigenvalues (descending).  The errors must be
    matrices, since the new ones are their linear combinations.
    """
    check_positive("tol", tol)
    if any(callable(e) for e in errors):
        raise ValueError("need errors as matrices, got a callable in errors")
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

    new_errors = [sum(c * np.asarray(e, dtype=complex)
                      for c, e in zip(u[:, l], errors))
                  for l in range(len(errors))]
    isometries = _approx_quantities(code, new_errors)[0]
    return CanonicalSet(new_errors, np.clip(w, 0.0, None), isometries)


def build_recovery(code, canonical, tol=1e-8, prune=1e-12):
    """Recovery channel for a canonical error set: one element per error,
    projecting the error's image back onto the code and undoing the rotation,
    plus a projector onto everything unreachable.
    """
    check_positive("tol", tol)
    check_positive("prune", prune)
    if isinstance(canonical, CanonicalSet):
        errors = canonical.errors
    else:
        errors = list(canonical)
    l = code.matrix
    d, k = code.ambient_dim, code.k

    kept = []
    ws, hs, ps, _, _ = _approx_quantities(code, errors)
    for w, h, p in zip(ws, hs, ps):
        if p <= prune:
            continue
        # the positive part must be a multiple of the identity on the code
        scale = math.sqrt(p)
        if np.abs(h - scale * np.eye(k)).max() > tol * max(scale, 1.0):
            raise ValueError(
                "error set does not meet the exact criteria "
                f"(image deformation {np.abs(h - scale * np.eye(k)).max():.3e})")
        kept.append(w)
    blocks = _gram_blocks(np.array(kept).reshape(len(kept), d, k))
    if np.abs(blocks[np.triu_indices(len(kept), 1)]).max(initial=0.0) > tol:
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


def _gram_blocks(ws):
    """W_m† W_n for every pair of an (m, d, k) stack, as (m, m, k, k) blocks
    of one Gram product."""
    m, d, k = ws.shape
    flat = ws.transpose(1, 0, 2).reshape(d, m * k)
    return (dagger(flat) @ flat).reshape(m, k, m, k).swapaxes(1, 2)


def _approx_quantities(code, errors):
    """W, H, p_n and lambda_n of every error's image from one batched SVD, and
    the worst ‖W_m† W_n‖₂ over live pairs (p > 0: a dead W is arbitrary)."""
    ne, k = len(errors), code.k
    cols = np.array([error_columns(code, e) for e in errors]).reshape(ne, code.ambient_dim, k)
    u, s, vh = np.linalg.svd(cols, full_matrices=False)
    ws, top = u @ vh, s.max(axis=-1)
    hs = (vh.conj().swapaxes(-1, -2) * s[:, None, :]) @ vh
    p = top ** 2
    lam = np.divide(s.min(axis=-1), top, out=np.ones(ne), where=top > 0) ** 2
    live = ws[p > 0]
    blocks = _gram_blocks(live)
    ortho = float(np.linalg.norm(blocks[np.triu_indices(len(live), 1)], 2, axis=(-2, -1))
                  .max(initial=0.0))
    return list(ws), list(hs), p, lam, ortho


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
    check_positive("tol", tol)
    check_positive("ortho_tol", ortho_tol)
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


# far from the root, Newton from the right end of the bracket gains a factor
# of about 1.5 per step, so 100 steps cover any bracket in double precision
_SECULAR_STEPS = 100
_EPS4 = 4 * np.finfo(float).eps


def _sphere_argmin(b, q):
    """Unit r (up to renormalization) minimizing b·r + rᵀqr, the trust-region
    boundary problem (Moré & Sorensen 1983; Gander, Golub & von Matt 1989):
    r = y(μ) = -β/(λ - μ) in q's eigenbasis, β = Vᵀb/2, μ ≤ λ₀ solving
    ‖y(μ)‖ = 1; in the hard case (β misses the lowest eigenvectors, the rest
    of r is shorter than one) μ = λ₀ and the lowest eigenvector fills up r.

    The root is found by Newton's method on φ(μ) = 1/‖y(μ)‖ - 1, which is
    concave and nearly linear below λ₀: started at the right end of the
    bracket [λ₀ - 2‖β‖, λ₀ - max(‖β_low‖/2, tol)], where φ < 0, the iterates
    fall monotonically to the root.  A step that leaves the bracket, which
    only rounding can cause, is replaced by bisection.  The iteration stops
    when ‖y‖ = 1 to within rounding (|φ| ≤ 4ε) or the step is below 4ε|μ - λ₀|,
    so r lies on the sphere to machine precision; RuntimeError if neither
    happens in _SECULAR_STEPS steps.  It runs on ν = μ - λ₀ and the gaps
    λ - λ₀ (shifting q by λ₀ moves no minimizer), so λ₀ - μ = -ν carries no
    cancellation when the root is within a few tol of λ₀.
    """
    lam, vecs = np.linalg.eigh(q)
    beta = vecs.T @ b / 2
    tol = 1e-12 * max(1.0, np.abs(lam).max(), np.linalg.norm(beta))
    gap = lam - lam[0]
    low = gap <= tol
    beta_low = np.linalg.norm(beta[low])
    y = np.zeros(3)
    y[~low] = -beta[~low] / gap[~low]
    if beta_low <= tol and y @ y <= 1.0:
        y[0] = math.sqrt(1.0 - y @ y)
        return vecs @ y

    def phi(nu):
        # φ and φ' = -Σβᵢ²/(λᵢ - μ)³ / ‖y‖³ at μ = λ₀ + ν
        y = beta / (gap - nu)
        norm = math.sqrt(y @ y)
        return 1.0 / norm - 1.0, -float(y @ (y / (gap - nu))) / norm ** 3

    # φ(hi) < 0 unless the root lies within tol of λ₀; φ > 0 at -2‖β‖,
    # where -‖β‖ may be the root itself (β along the lowest)
    lo, hi = -2 * np.linalg.norm(beta), -max(beta_low / 2, tol)
    nu = hi
    f, slope = phi(nu)
    if f >= 0:
        return vecs @ (-beta / (gap - nu))
    for _ in range(_SECULAR_STEPS):
        if f > 0:
            lo = nu
        else:
            hi = nu
        step = f / slope
        if abs(f) <= _EPS4 or abs(step) <= _EPS4 * abs(nu):
            return vecs @ (-beta / (gap - (nu - step)))
        nu = nu - step if lo < nu - step < hi else (lo + hi) / 2
        f, slope = phi(nu)
    raise RuntimeError(f"secular equation unsolved after {_SECULAR_STEPS} "
                       f"steps (bracket [{lo!r}, {hi!r}] around λ₀)")


def _overlaps(m, psi):
    """f(ψ) = (ψ̄ ⊗ ψ)† m (ψ̄ ⊗ ψ) for each unit row ψ of psi, and the
    gradient ∂f/∂ψ̄ along the sphere; m is a Hermitian k² x k² matrix."""
    s, k = psi.shape
    w = ((psi.conj()[:, :, None] * psi[:, None, :]).reshape(s, -1) @ m.T).reshape(s, k, k)
    f = np.einsum("sia,si,sa->s", w, psi, psi.conj()).real
    return f, (np.einsum("sia,si->sa", w, psi) + np.einsum("sjb,sb->sj", w.conj(), psi)
               - 2 * f[:, None] * psi)


_STARTS = 64
_STEPS = 500


def _worst_overlap(m):
    """(minimum, minimizer, residual) over unit ψ in C^k of the overlap
    f(ψ) = ⟨ψ|E(ψψ†)|ψ⟩ = Σ C[(i, a), (j, b)]·ψᵢψ̄ₐψ̄ⱼψ_b, m = C Hermitian.

    k = 1 has one state.  A qubit is exact: with ρ = (I + r·σ)/2, r₀ = 1,
    f = Σ r_μ r_ν G_μν = b·r + rᵀqr on the sphere (G₀₀ folds into q), and
    the residual is the secular root's gap |‖r‖ - 1|.  Above that, each of
    _STARTS seeded starts takes _STEPS projected steps of ∂f/∂ψ̄ / (2‖C‖₂)
    with Nesterov momentum, dropped when a step turns uphill (O'Donoghue &
    Candès 2015), so flat minima, where f grows at fourth order, are reached
    too; the lowest is kept, with its gradient norm over ‖C‖₂ as residual.
    It is a local minimum: nothing certifies that it is global.
    """
    k = math.isqrt(m.shape[0])
    if k == 1:
        psi, residual = np.ones(1, dtype=complex), 0.0
    elif k == 2:
        # G is Hermitian as m is, so its real part is symmetric
        g = np.einsum("iajb,mia,nbj->mn", m.reshape(2, 2, 2, 2), PAULIS, PAULIS).real / 4
        r = _sphere_argmin(2 * g[0, 1:], g[1:, 1:] + g[0, 0] * np.eye(3))
        psi, residual = bloch_state(r / np.linalg.norm(r)), abs(np.linalg.norm(r) - 1.0)
    else:
        x = np.random.default_rng(0).normal(size=(_STARTS, 2 * k))
        psi = prev = (x[:, :k] + 1j * x[:, k:]) / np.linalg.norm(x, axis=1, keepdims=True)
        norm, t = np.abs(np.linalg.eigvalsh(m)).max(), np.zeros((_STARTS, 1))
        step = 0.5 / norm if norm > 0 else 0.0
        for _ in range(_STEPS):
            y = psi + t / (t + 3) * (psi - prev)
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            grad = _overlaps(m, y)[1]
            prev, psi = psi, y - step * grad
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            t = np.where(np.sum(grad.conj() * (psi - prev), axis=1, keepdims=True).real > 0,
                         0, t + 1)
        f, grad = _overlaps(m, psi)
        psi, residual = psi[np.argmin(f)], float(np.linalg.norm(2 * step * grad[np.argmin(f)]))
    return float(_overlaps(m, psi[None])[0][0]), psi, residual


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
    h = np.asarray(hs, dtype=complex) if len({np.shape(m) for m in hs}) == 1 else np.ones(1)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("code_h must hold square matrices of one size")
    top = float(np.abs(h).max())   # every Choi entry is below size·top²
    check_real("code_h size·max|entry|²", h.size * top * top)
    return _worst_overlap(_choi_matrix(h))[0]


def min_overlap_fidelity(channel, sampler=None, dim=None):
    """Worst-case overlap of input with channel output over pure states.

    ``channel`` is a QuantumChannel with dim_out = dim_in or a linear
    callable on density matrices (pass ``dim``, an integer of at least 1,
    for callables on anything but a qubit); a callable is read through its
    Choi matrix and checked against it at one generic state.  ``sampler``
    optionally supplies candidate state vectors (finite, nonzero, of length
    dim) instead of the built-in search, which is exact for dim ≤ 2.
    """
    if isinstance(channel, QuantumChannel):
        dim = channel.dim_in
        if channel.dim_out != dim:
            raise ValueError(f"need dim_out = dim_in, got dim_in={dim}, dim_out={channel.dim_out}")
        m = _choi_matrix(channel.kraus)
    else:
        dim = 2 if dim is None else dim
        check_int("dim", dim, 1)
        m = choi_of_map(channel, dim).mat
        psi = np.arange(1, dim + 1) * np.exp(1j * np.arange(dim))
        rho = np.outer(psi, psi.conj()) / (psi.conj() @ psi)
        want = np.einsum("ij,iajb->ab", rho, m.reshape((dim,) * 4))
        residual = np.abs(np.asarray(channel(rho)) - want).max()
        if not residual <= 1e-9 * max(1.0, np.abs(m).max()):
            raise ValueError(f"channel is not linear, so not quadratic (residual {residual:.3e})")
        m = (m + dagger(m)) / 2

    if sampler is None:
        return _worst_overlap(m)[0]
    psi = [np.asarray(p, dtype=complex) for p in sampler]
    ok = psi and all(p.shape == (dim,) for p in psi)
    top = np.abs(psi).max(axis=1, keepdims=True) if ok else np.zeros(1)
    if not (np.isfinite(top).all() and top.all()):
        raise ValueError(f"sampler must give finite nonzero vectors of length {dim}")
    psi = np.array(psi) / top   # so the norm cannot overflow
    return float(_overlaps(m, psi / np.linalg.norm(psi, axis=1, keepdims=True))[0].min())


# ---------------------------------------------------------------------------
# the four-qubit amplitude-damping code and its circuit pipeline


def four_bit_code():
    v0 = np.zeros(16)
    v0[0b0000] = v0[0b1111] = 1 / math.sqrt(2)
    v1 = np.zeros(16)
    v1[0b0011] = v1[0b1100] = 1 / math.sqrt(2)
    return CodeSpace(16, [v0, v1])


def ad_kraus(gamma):
    return standard_channel("amplitude_damping", gamma=gamma).kraus


def ad_product(pattern, gamma):
    """Tensor product of per-qubit damping elements, e.g. pattern (1,0,0,0)."""
    a0, a1 = ad_kraus(gamma)
    return kron_all(np.eye(1), *(a1 if b else a0 for b in pattern))


def four_bit_reversible_set(gamma):
    """The no-loss element plus the four single-loss elements."""
    single = [tuple(int(q == i) for q in range(4)) for i in range(4)]
    return [ad_product(p, gamma) for p in [(0, 0, 0, 0)] + single]


@dataclass
class FourBitReport:
    gamma: float
    worst_fidelity: float
    worst_state: np.ndarray
    syndrome_probs: dict
    branches: list           # (syndrome, label, logical 2-vector or None, probability)
    leading_coefficient: float   # (1 - worst_fidelity) / gamma², loss summed directly
    method: str              # how the worst state was found: "exact-sphere"
    secular_residual: float  # |‖r‖ - 1| of the secular root before renormalizing


# the outcomes of one damping pattern in circuit order, (syndrome, label,
# recovered): no loss decodes onto qubit 1; a single loss keeps the register
# with the logical content under the good (n0) or bad (n1) element
_FOUR_BIT_LEAVES = ([((0, 0), f"/rest{sub}", True) for sub in np.ndindex(2, 2, 2)]
                    + [(syn, f"/{el}.{col}", el == "n0") for syn in ((0, 1), (1, 0))
                       for col in range(8) for el in ("n0", "n1")]
                    + [((1, 1), "", False)])


def _four_bit_branches(gamma, code):
    """Push the code's logical basis through damping, syndrome circuit and
    recovery, under all 16 damping patterns at once.

    Every step is linear in the encoded amplitudes a, so each outcome is a
    map of a.  Returns a (16, 41, 2, 2) stack M over (damping pattern,
    _FOUR_BIT_LEAVES entry): M·a is a recovered outcome's unnormalized
    logical output, and for every outcome ‖M·a‖² is its probability.
    """
    damping = np.array(ad_kraus(gamma))  # first: it rejects a bad gamma
    rot_pair = math.atan((1 - gamma) ** 2)
    # rotation sending cos(t)|0> + sin(t)|1> to |0>
    def unrot(t):
        return np.array([[math.cos(t), math.sin(t)],
                         [-math.sin(t), math.cos(t)]], dtype=complex)

    n0 = np.array([[0, 1], [1 - gamma, 0]], dtype=complex)
    n1 = np.array([[0, 0], [math.sqrt(gamma * (2 - gamma)), 0]], dtype=complex)
    zero = np.zeros((2, 2))
    controlled_unrot = np.block([[unrot(rot_pair), zero],
                                 [zero, unrot(math.pi / 4)]])
    projector = [np.diag(e) for e in np.eye(2, dtype=complex)]

    patterns = np.array(list(np.ndindex(2, 2, 2, 2)))
    branch = np.broadcast_to(code.matrix, (16, 16, 2))
    for q in range(4):
        branch = apply_local(damping[patterns[:, q]], branch, (q,))
    # one 16 x (pattern, amplitude) matrix from here on
    branch = branch.transpose(1, 0, 2).reshape(16, 32)
    branch = apply_local(CNOT, apply_local(CNOT, branch, (0, 1)), (2, 3))

    def by_column(w, reg):
        # (pattern, column, register, amplitude): the register's qubit
        # against the basis states of the other three
        t = np.moveaxis(w.reshape((2,) * 4 + (16, 2)), reg, 0)
        return t.reshape(2, 8, 16, 2).transpose(2, 1, 0, 3)

    maps = []
    for s2, s4 in np.ndindex(2, 2):
        w = apply_local(projector[s4], apply_local(projector[s2], branch, (1,)), (3,))
        if (s2, s4) == (0, 0):
            # decode back onto qubit 1: fold qubit 3 in, then undo the
            # residual tilt with a rotation selected by qubit 1
            w = apply_local(controlled_unrot, apply_local(CNOT, w, (2, 0)), (0, 1))
            maps.append(by_column(w, 0))
        elif s2 != s4:
            t = by_column(w, 2 if s2 else 0)
            maps.append(np.stack([n0 @ t, n1 @ t], axis=2).reshape(16, 16, 2, 2))
        else:
            # W = QR: the 2x2 R has W's probabilities, ‖Ra‖ = ‖Wa‖
            maps.append(np.linalg.qr(w.reshape(16, 16, 2).transpose(1, 0, 2), mode="r")[:, None])
    return np.concatenate(maps, axis=1)


def four_bit_pipeline(gamma):
    """Worst-case fidelity of the four-qubit damping code's circuit pipeline.

    Minimizes, exactly over encoded pure states, the fidelity after the
    per-qubit damping channel, the two-pair parity syndrome circuit, and the
    branch recoveries (rotation pair on the no-loss branch, the swap-like
    non-unitary element on single-loss branches).  Unrecoverable branches
    count as fidelity zero.  The circuit runs once, on the code's logical
    basis: each recovered branch map M contributes |⟨a|M|a⟩|², so the
    fidelity is the overlap of the map with Kraus operators M, and its
    exact qubit minimum gives the worst state a.  The report's branches are
    the M·a of probability 1e-14 or more.
    """
    maps = _four_bit_branches(gamma, four_bit_code())
    recovered = np.array([rec for *_, rec in _FOUR_BIT_LEAVES])
    worst, amp, residual = _worst_overlap(_choi_matrix(maps[:, recovered].reshape(-1, 2, 2)))
    vecs = maps @ amp
    probs = np.einsum("...i,...i->...", vecs.conj(), vecs).real
    # 1 - F summed directly over every leaf: an unrecovered leaf's whole
    # probability, and the weight a recovered one holds outside a
    kept = vecs[:, recovered]
    outside = kept - (kept @ amp.conj())[..., None] * amp
    loss = probs[:, ~recovered].sum() + np.sum(np.abs(outside) ** 2)
    branches, syn = [], {}
    for pattern, leaf in zip(*np.nonzero(probs >= 1e-14)):
        key, suffix, rec = _FOUR_BIT_LEAVES[leaf]
        vec, p = vecs[pattern, leaf], float(probs[pattern, leaf])
        branches.append((key, f"{pattern:04b}{suffix}", vec if rec else None, p))
        syn[key] = syn.get(key, 0.0) + p
    coeff = loss / gamma ** 2 if gamma ** 2 > 0 else 0.0   # 0 where gamma² underflows
    return FourBitReport(gamma, worst, amp, syn, branches, coeff,
                         "exact-sphere", residual)
