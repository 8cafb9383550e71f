"""Quantum operations as dense complex matrices.

Channels are kept in operator-sum (Kraus) form.  The Choi matrix, the chi
matrix with respect to a fixed operator basis, and the real linear
(Bloch-affine) representation are derived views.  Two independent process
tomography routes are provided, plus the structural results for unital qubit
channels (random-unitary decompositions) and the extreme qutrit counterexample.

Bit order: on an n-qubit register, qubit 0 is the leftmost tensor factor and
the most significant bit of a basis index, so basis index x has qubit q in
state (x >> (n - 1 - q)) & 1.  The dense kernel below (``z_signs``,
``apply_local``, ``conjugate_local``) and every module built on it use this
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SX, SY, SZ)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


class NotCompletelyPositiveError(ValueError):
    """Raised when a positivity requirement fails beyond tolerance."""


def kron_all(*mats):
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dagger(m):
    return np.conjugate(np.transpose(m))


def is_hermitian(m, tol=DEFAULT_TOL):
    return bool(np.abs(m - dagger(m)).max() <= tol)


def unitaries_equal_up_to_phase(u, v, tol=DEFAULT_TOL):
    """Phase-insensitive unitary equality: | tr(U† V) | / d == 1."""
    d = u.shape[0]
    return abs(abs(np.trace(dagger(u) @ v)) / d - 1.0) <= tol


@lru_cache(maxsize=16)
def z_signs(n):
    """Read-only (n, 2**n) table of Z eigenvalues: entry [q, x] is
    1 - 2 * (bit of qubit q in basis index x)."""
    idx = np.arange(1 << n)
    out = 1 - 2 * ((idx >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    out.setflags(write=False)
    return out


def apply_local(op, state, axes):
    """Apply the 2^k x 2^k ``op`` to qubits ``axes`` of an n-qubit state.

    ``state`` is a (2^n,) vector or a (2^n, m) matrix transformed column by
    column; the first tensor factor of ``op`` acts on ``axes[0]``.  Only the
    listed qubits are contracted, so no 2^n x 2^n operator is built.
    """
    state = np.asarray(state)
    k = len(axes)
    first = axes[0]
    if tuple(axes) == tuple(range(first, first + k)):
        # an ascending run of qubits is one axis of a plain reshape
        t = state.reshape(1 << first, 1 << k, -1)
        return np.matmul(op, t).reshape(state.shape)
    # otherwise view the state as (gap, 2, gap, 2, ..., gap), one 2 per
    # listed qubit, and move the 2s together in op order
    ordered = sorted(axes)
    dims, prev = [], -1
    for q in ordered:
        dims += [1 << (q - prev - 1), 2]
        prev = q
    dims.append(-1)
    perm = ([2 * i for i in range(k)]
            + [2 * ordered.index(q) + 1 for q in axes] + [2 * k])
    inverse = [0] * len(perm)
    for i, p in enumerate(perm):
        inverse[p] = i
    t = state.reshape(dims).transpose(perm)
    t = np.matmul(op, t.reshape(-1, 1 << k, t.shape[-1])).reshape(t.shape)
    return t.transpose(inverse).reshape(state.shape)


def conjugate_local(op, rho, axes):
    """op rho op† for a local ``op`` on qubits ``axes`` of a 2^n x 2^n rho."""
    return apply_local(np.conj(op), apply_local(op, rho, axes).T, axes).T


# ---------------------------------------------------------------------------
# states


@dataclass
class DensityMatrix:
    """A density matrix, either normalized or a traceless deviation part."""

    mat: np.ndarray
    kind: str = "normalized"  # "normalized" | "deviation"

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.kind not in ("normalized", "deviation"):
            raise ValueError(f"unknown density-matrix kind {self.kind!r}")

    @property
    def dim(self):
        return self.mat.shape[0]

    def validate(self, tol=DEFAULT_TOL):
        if not is_hermitian(self.mat, tol):
            raise ValueError("density matrix is not hermitian")
        tr = np.trace(self.mat)
        if self.kind == "normalized":
            if abs(tr - 1.0) > tol:
                raise ValueError(f"trace {tr} != 1")
            w = np.linalg.eigvalsh(self.mat)
            if w.min() < -tol:
                raise ValueError(f"negative eigenvalue {w.min()}")
        else:
            if abs(tr) > tol:
                raise ValueError(f"deviation has trace {tr} != 0")
        return self


def _as_mat(rho):
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


# ---------------------------------------------------------------------------
# channels


class QuantumChannel:
    """A completely positive map given by a list of Kraus operators.

    Each Kraus operator is a dim_out x dim_in matrix.  The channel is
    trace preserving when sum_k A_k† A_k = I; otherwise the trace of the
    output is the acceptance probability of the represented selective
    process.
    """

    def __init__(self, kraus, tol=DEFAULT_TOL, require_tp=False):
        kraus = [np.asarray(a, dtype=complex) for a in kraus]
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        shape = kraus[0].shape
        for a in kraus:
            if a.shape != shape:
                raise ValueError("inconsistent Kraus shapes")
        self.kraus = kraus
        self.dim_out, self.dim_in = shape
        s = sum(dagger(a) @ a for a in kraus)
        self._completeness_defect = float(np.abs(s - np.eye(self.dim_in)).max())
        self.trace_preserving = self._completeness_defect <= max(tol, 1e-7)
        if not self.trace_preserving:
            # trace-non-increasing channels must still satisfy sum A†A <= I
            w = np.linalg.eigvalsh(np.eye(self.dim_in) - s)
            if w.min() < -max(tol, 1e-7):
                raise ValueError("Kraus completeness sum exceeds identity")
            if require_tp:
                raise ValueError("channel is not trace preserving")

    def __call__(self, rho):
        return apply(self, rho)

    def __repr__(self):
        kind = "TP" if self.trace_preserving else "non-TP"
        return (f"QuantumChannel({len(self.kraus)} Kraus, "
                f"{self.dim_in}->{self.dim_out}, {kind})")

    def to_json(self):
        return json.dumps({
            "dim_in": self.dim_in,
            "dim_out": self.dim_out,
            "kraus": [[[float(z.real), float(z.imag)] for z in a.reshape(-1)]
                      for a in self.kraus],
            "trace_preserving": bool(self.trace_preserving),
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        din, dout = int(d["dim_in"]), int(d["dim_out"])
        kraus = []
        for flat in d["kraus"]:
            z = np.array([re + 1j * im for re, im in flat], dtype=complex)
            kraus.append(z.reshape(dout, din))
        return cls(kraus)


@dataclass
class ChoiMatrix:
    """Choi matrix of a channel; (i,j) block (dim_out sized) = E(|i><j|).

    ``normalization`` is "unnormalized-Y" for the convention where the matrix
    equals dim_in times the state obtained by sending half of a maximally
    entangled pair through the channel, or "state" for the normalized form.
    """

    mat: np.ndarray
    dim_in: int
    dim_out: int
    normalization: str = "unnormalized-Y"

    def as_state(self):
        if self.normalization == "state":
            return self
        return ChoiMatrix(self.mat / self.dim_in, self.dim_in, self.dim_out,
                          "state")

    def as_unnormalized(self):
        if self.normalization == "unnormalized-Y":
            return self
        return ChoiMatrix(self.mat * self.dim_in, self.dim_in, self.dim_out,
                          "unnormalized-Y")


def apply(channel, rho):
    """Apply the channel: sum_k A_k rho A_k† (no renormalization)."""
    mat = _as_mat(rho)
    if mat.shape[0] != channel.dim_in:
        raise ValueError(
            f"state dim {mat.shape[0]} != channel dim_in {channel.dim_in}")
    out = sum(a @ mat @ dagger(a) for a in channel.kraus)
    if isinstance(rho, DensityMatrix):
        return DensityMatrix(out, rho.kind)
    return out


def _vec(a):
    # column-major flatten: segment i of the vector is column i of a
    return np.asarray(a, dtype=complex).flatten(order="F")


def _unvec(v, dim_out, dim_in):
    return np.reshape(v, (dim_out, dim_in), order="F")


def choi_of(channel):
    vs = [_vec(a) for a in channel.kraus]
    c = sum(np.outer(v, v.conj()) for v in vs)
    return ChoiMatrix(c, channel.dim_in, channel.dim_out)


def kraus_from_choi(choi, tol=DEFAULT_TOL):
    """Canonical minimal Kraus set from the eigendecomposition of the Choi
    matrix.  Eigenvalues in [-tol, 0) are clamped to zero; anything more
    negative raises NotCompletelyPositiveError."""
    c = choi.as_unnormalized()
    w, v = np.linalg.eigh((c.mat + dagger(c.mat)) / 2)
    if w.min() < -tol:
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {w.min():.3e} < -tol")
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam <= tol:
            continue
        kraus.append(math.sqrt(lam) * _unvec(vec, c.dim_out, c.dim_in))
    if not kraus:
        kraus = [np.zeros((c.dim_out, c.dim_in), dtype=complex)]
    return QuantumChannel(kraus, tol=tol)


def channels_equal(a, b, tol=DEFAULT_TOL):
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise ValueError("channel dimensions differ")
    ca, cb = choi_of(a).mat, choi_of(b).mat
    return bool(np.abs(ca - cb).max() <= tol)


def compose(outer, inner):
    """Channel composition outer∘inner (inner acts first)."""
    if inner.dim_out != outer.dim_in:
        raise ValueError("composition dimension mismatch")
    return QuantumChannel([b @ a for b in outer.kraus for a in inner.kraus])


def tensor(a, b):
    return QuantumChannel([np.kron(x, y) for x in a.kraus for y in b.kraus])


def partial_trace(rho, dims, index):
    """Trace out subsystem ``index`` of a state on ordered subsystems ``dims``."""
    mat = _as_mat(rho)
    dims = list(dims)
    if mat.shape[0] != int(np.prod(dims)):
        raise ValueError("dims do not match state dimension")
    n = len(dims)
    t = mat.reshape(dims + dims)
    out = np.trace(t, axis1=index, axis2=n + index)
    keep = [d for k, d in enumerate(dims) if k != index]
    dkeep = int(np.prod(keep)) if keep else 1
    return out.reshape(dkeep, dkeep)


def unitary_channel(u):
    return QuantumChannel([np.asarray(u, dtype=complex)])


def standard_channel(kind, **params):
    """Named single-register channels.

    kinds: phase_damping(p), depolarizing(p), amplitude_damping(gamma),
    generalized_amplitude_damping(gamma, p), bosonic_ad(cutoff, gamma),
    bit_flip(p).
    """
    def need(name):
        if name not in params:
            raise ValueError(f"{kind} needs parameter {name!r}")
        return params[name]

    def prob(x, name):
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"{name}={x} out of [0, 1]")
        return x

    if kind == "phase_damping":
        p = prob(need("p"), "p")
        return QuantumChannel([math.sqrt(1 - p) * I2, math.sqrt(p) * SZ])
    if kind == "depolarizing":
        p = prob(need("p"), "p")
        return QuantumChannel([math.sqrt(1 - p) * I2,
                               math.sqrt(p / 3) * SX,
                               math.sqrt(p / 3) * SY,
                               math.sqrt(p / 3) * SZ])
    if kind == "bit_flip":
        # rho -> p rho + (1-p) X rho X
        p = prob(need("p"), "p")
        return QuantumChannel([math.sqrt(p) * I2, math.sqrt(1 - p) * SX])
    if kind == "amplitude_damping":
        g = prob(need("gamma"), "gamma")
        a0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
        a1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
        return QuantumChannel([a0, a1])
    if kind == "generalized_amplitude_damping":
        g = prob(need("gamma"), "gamma")
        p = prob(need("p"), "p")
        base = standard_channel("amplitude_damping", gamma=g)
        a0, a1 = base.kraus
        return QuantumChannel([
            math.sqrt(p) * a0, math.sqrt(p) * a1,
            math.sqrt(1 - p) * (SX @ a0 @ SX), math.sqrt(1 - p) * (SX @ a1 @ SX),
        ])
    if kind == "bosonic_ad":
        g = prob(need("gamma"), "gamma")
        cutoff = int(need("cutoff"))
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        d = cutoff + 1
        kraus = []
        for k in range(d):
            a = np.zeros((d, d), dtype=complex)
            for n in range(k, d):
                a[n - k, n] = math.sqrt(math.comb(n, k)) * math.sqrt(
                    (1 - g) ** (n - k) * g ** k)
            kraus.append(a)
        return QuantumChannel(kraus)
    raise ValueError(f"unknown channel kind {kind!r}")


# ---------------------------------------------------------------------------
# process tomography


def pauli_product_basis(n_qubits):
    """Normalized n-qubit Pauli products (orthonormal under <A,B>=tr(A†B))."""
    d = 2 ** n_qubits
    out = []
    for idx in np.ndindex(*(4,) * n_qubits):
        out.append(kron_all(*(PAULIS[i] for i in idx)) / math.sqrt(d))
    return out


def default_state_basis(dim):
    """d² spanning input states: |i><i|, and the +|j> / +i|j> superpositions."""
    states = []
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        states.append(np.outer(e, e.conj()))
    for i in range(dim):
        for j in range(i + 1, dim):
            for amp in (1.0, 1j):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0
                v[j] = amp
                v /= np.linalg.norm(v)
                states.append(np.outer(v, v.conj()))
    return states


def tomography_method1(oracle, dim, input_basis=None, op_basis=None,
                       tol=DEFAULT_TOL):
    """Process tomography by expanding outputs over a fixed operator basis.

    ``oracle`` maps a density matrix to the channel output.  The chi matrix is
    solved from lambda = kappa · chi and diagonalized; the returned Kraus set
    is the canonical one built from the operator basis.
    """
    if op_basis is None:
        n = round(math.log2(dim))
        if 2 ** n != dim:
            raise ValueError("default operator basis needs a qubit register")
        op_basis = pauli_product_basis(n)
    if input_basis is None:
        input_basis = default_state_basis(dim)
    rhos = [_as_mat(r) for r in input_basis]
    d2 = dim * dim
    if len(rhos) != d2 or len(op_basis) != d2:
        raise ValueError("bases must have dim² elements")

    # R maps expansion coefficients over the input states to vectorized matrices
    r_cols = np.column_stack([m.reshape(-1) for m in rhos])
    if np.linalg.matrix_rank(r_cols, tol=1e-10) < d2:
        raise ValueError("input basis does not span the operator space")

    lam = np.empty((d2, d2), dtype=complex)       # lam[i, j]
    for i, rho in enumerate(rhos):
        out = _as_mat(oracle(rho))
        lam[i] = np.linalg.solve(r_cols, out.reshape(-1))

    kappa = np.empty((d2 * d2, d2 * d2), dtype=complex)
    for m, bm in enumerate(op_basis):
        for n, bn in enumerate(op_basis):
            col = m * d2 + n
            for i, rho in enumerate(rhos):
                prod = bm @ rho @ dagger(bn)
                kappa[i * d2:(i + 1) * d2, col] = np.linalg.solve(
                    r_cols, prod.reshape(-1))

    chi_vec, *_ = np.linalg.lstsq(kappa, lam.reshape(-1), rcond=None)
    chi = chi_vec.reshape(d2, d2)
    chi = (chi + dagger(chi)) / 2
    w, v = np.linalg.eigh(chi)
    if w.min() < -1e-6:
        raise NotCompletelyPositiveError(
            f"chi matrix eigenvalue {w.min():.3e}: inconsistent oracle data")
    kraus = []
    for lam_k, col in zip(w, v.T):
        if lam_k <= tol:
            continue
        a = sum(col[m] * op_basis[m] for m in range(d2))
        kraus.append(math.sqrt(lam_k) * a)
    return QuantumChannel(kraus)


def tomography_method2(oracle=None, dim=None, joint_state=None, tol=DEFAULT_TOL):
    """Process tomography through one half of a maximally entangled pair.

    Either pass ``joint_state`` = (I ⊗ E)(|Φ><Φ|) directly, or pass ``oracle``
    and ``dim`` and the joint state is simulated.  The state is scaled by d,
    eigendecomposed, and each eigenvector is cut into d segments forming the
    columns of one Kraus operator.
    """
    if joint_state is None:
        if oracle is None or dim is None:
            raise ValueError("need either joint_state or (oracle, dim)")
        d = dim
        phi = np.zeros(d * d, dtype=complex)
        for i in range(d):
            phi[i * d + i] = 1.0
        phi /= math.sqrt(d)
        pp = np.outer(phi, phi.conj())
        # act on the second subsystem, block by block
        joint_state = np.zeros_like(pp)
        for i in range(d):
            for j in range(d):
                blk = pp[i * d:(i + 1) * d, j * d:(j + 1) * d]
                joint_state[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                    _as_mat(oracle(blk))
    else:
        joint_state = _as_mat(joint_state)
        d = int(round(math.sqrt(joint_state.shape[0])))
    y = d * joint_state
    y = (y + dagger(y)) / 2
    w, v = np.linalg.eigh(y)
    if w.min() < -max(tol, 1e-7):
        raise NotCompletelyPositiveError(
            f"joint state eigenvalue {w.min():.3e} < 0")
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam <= tol:
            continue
        a = np.empty((d, d), dtype=complex)
        for i in range(d):
            a[:, i] = math.sqrt(lam) * vec[i * d:(i + 1) * d]
        kraus.append(a)
    return QuantumChannel(kraus)


# ---------------------------------------------------------------------------
# deviation evolution and the real linear representation


def deviation_map(channel):
    """Affine action on traceless deviations: rho_d -> offset + E(rho_d).

    offset = (E(I) - I)/dim; it vanishes exactly for unital channels.
    """
    if not channel.trace_preserving:
        raise ValueError("deviation map is defined for trace-preserving channels")
    d = channel.dim_in
    offset = (apply(channel, np.eye(d, dtype=complex)) - np.eye(d)) / d

    def linear(rho):
        return apply(channel, rho)

    return offset, linear


@dataclass
class LinearRep:
    """Real affine representation of a qubit channel on Bloch coefficients.

    Writing states as (c0·I + r·σ)/2, the map sends (c0, r) to the block
    product [[m0, v1], [v2, m]] · (c0, r).  Trace preservation forces m0 = 1
    and v1 = 0; unitality is v2 = 0.
    """

    m0: float
    v1: np.ndarray
    v2: np.ndarray
    m: np.ndarray

    @property
    def unital(self):
        return bool(np.abs(self.v2).max() <= 1e-9)

    @property
    def trace_preserving(self):
        return abs(self.m0 - 1.0) <= 1e-9 and np.abs(self.v1).max() <= 1e-9

    def compose(self, inner):
        """Block product with another affine rep; ``inner`` acts first."""
        m0 = self.m0 * inner.m0 + self.v1 @ inner.v2
        v1 = self.m0 * inner.v1 + self.v1 @ inner.m
        v2 = self.v2 * inner.m0 + self.m @ inner.v2
        m = np.outer(self.v2, inner.v1) + self.m @ inner.m
        return LinearRep(m0, v1, v2, m)


def linear_rep(channel):
    if channel.dim_in != 2 or channel.dim_out != 2:
        raise ValueError("linear_rep implemented for qubit channels")
    out_i = apply(channel, I2)
    m0 = float(np.real(np.trace(out_i)) / 2)
    v2 = np.array([np.real(np.trace(s @ out_i)) / 2 for s in (SX, SY, SZ)])
    v1 = np.empty(3)
    m = np.empty((3, 3))
    for j, sj in enumerate((SX, SY, SZ)):
        out = apply(channel, sj)
        v1[j] = float(np.real(np.trace(out)) / 2)
        for i, si in enumerate((SX, SY, SZ)):
            m[i, j] = float(np.real(np.trace(si @ out)) / 2)
    return LinearRep(m0, v1, v2, m)


def bloch_inversion():
    """Bloch-vector sign flip r -> -r: positive and trace preserving, but not
    completely positive on its own."""
    return LinearRep(1.0, np.zeros(3), np.zeros(3), -np.eye(3))


def channel_from_linear_rep(rep):
    """Rebuild the action on matrices from a qubit Bloch-affine description.

    Returns a function rho -> output matrix (the map need not be completely
    positive; use is_cp to test).
    """
    def act(rho):
        rho = _as_mat(rho)
        c0 = np.trace(rho) / 2
        r = np.array([np.trace(s @ rho) / 2 for s in (SX, SY, SZ)])
        rp = rep.m.astype(complex) @ r + c0 * rep.v2
        c0p = rep.m0 * c0 + rep.v1 @ r
        return c0p * I2 + rp[0] * SX + rp[1] * SY + rp[2] * SZ
    return act


def choi_of_map(act, dim):
    """Choi matrix of an arbitrary linear map given as a function on matrices."""
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            c[np.ix_(range(i * dim, (i + 1) * dim),
                     range(j * dim, (j + 1) * dim))] = act(e)
    return ChoiMatrix(c, dim, dim)


def is_cp(rep_or_act, dim=2, tol=DEFAULT_TOL):
    """Complete positivity by rebuilding the Choi matrix and testing it."""
    if isinstance(rep_or_act, LinearRep):
        act = channel_from_linear_rep(rep_or_act)
    else:
        act = rep_or_act
    c = choi_of_map(act, dim)
    w = np.linalg.eigvalsh((c.mat + dagger(c.mat)) / 2)
    return bool(w.min() >= -tol), float(w.min())


# ---------------------------------------------------------------------------
# unital qubit channels


def su2_from_so3(r):
    """A 2x2 special unitary whose Bloch-vector action equals the rotation r."""
    r = np.asarray(r, dtype=float)
    # quaternion extraction, stable for all traces
    t = np.trace(r)
    if t > -0.5:
        w = math.sqrt(max(0.0, 1.0 + t)) / 2
        x = (r[2, 1] - r[1, 2]) / (4 * w)
        y = (r[0, 2] - r[2, 0]) / (4 * w)
        z = (r[1, 0] - r[0, 1]) / (4 * w)
    else:
        k = int(np.argmax(np.diag(r)))
        i, j = (k + 1) % 3, (k + 2) % 3
        s = math.sqrt(max(0.0, 1.0 + r[k, k] - r[i, i] - r[j, j])) / 2
        q = [0.0, 0.0, 0.0]
        q[k] = s
        q[i] = (r[i, k] + r[k, i]) / (4 * s)
        q[j] = (r[j, k] + r[k, j]) / (4 * s)
        w = (r[j, i] - r[i, j]) / (4 * s)
        x, y, z = q
    u = w * I2 - 1j * (x * SX + y * SY + z * SZ)
    return u


def _q_from_diag(d):
    d1, d2, d3 = d
    return np.array([
        (1 + d1 + d2 + d3) / 4,
        (1 + d1 - d2 - d3) / 4,
        (1 - d1 + d2 - d3) / 4,
        (1 - d1 - d2 + d3) / 4,
    ])


def unital_qubit_decompose(channel_or_rep, tol=DEFAULT_TOL):
    """Random-unitary decomposition of a unital trace-preserving qubit channel.

    Returns a list of (probability, unitary) with probabilities summing to 1.
    The Bloch matrix is factored as O1·D·O2 with special-orthogonal factors,
    D is mapped to mixing weights, and the terms are q_i · (U1 σ_i U2).
    A diagonal outside the doubly-stochastic simplex (e.g. a reflection)
    raises NotCompletelyPositiveError.
    """
    if isinstance(channel_or_rep, LinearRep):
        rep = channel_or_rep
    else:
        rep = linear_rep(channel_or_rep)
    if abs(rep.m0 - 1.0) > 1e-7 or np.abs(rep.v1).max() > 1e-7:
        raise ValueError("channel is not trace preserving")
    if np.abs(rep.v2).max() > 1e-7:
        raise ValueError("channel is not unital")

    u, s, vt = np.linalg.svd(rep.m)
    du, dv = np.linalg.det(u), np.linalg.det(vt)
    o1 = u @ np.diag([1.0, 1.0, du])
    o2 = np.diag([1.0, 1.0, dv]) @ vt
    d = np.array([s[0], s[1], s[2] * du * dv])

    # D is unique up to simultaneous negation of two entries; search the sign
    # orbit for the representative inside the simplex
    best = None
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        q = _q_from_diag(d * signs)
        if best is None or q.min() > best[0]:
            best = (q.min(), np.array(signs), q)
    qmin, signs, q = best
    if qmin < -tol:
        raise NotCompletelyPositiveError(
            f"diagonal part outside the doubly-stochastic simplex "
            f"(worst weight {qmin:.3e})")
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    flip = np.diag(signs.astype(float))  # in SO(3): product of two negations
    o1 = o1 @ flip

    u1 = su2_from_so3(o1)
    u2 = su2_from_so3(o2)
    terms = [(float(qi), u1 @ sig @ u2)
             for qi, sig in zip(q, PAULIS) if qi > 0.0]
    return terms


def qutrit_extreme_channel():
    """Three-Kraus doubly stochastic qutrit channel that is not a mixture of
    unitaries, together with its certificate.

    Returns (channel, rank) where rank is the rank of the 9 vectorized
    products A_k A_l†; rank 9 certifies linear independence, which rules out
    any random-unitary representation.
    """
    s = 1 / math.sqrt(2)
    a1 = s * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    a2 = s * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    a3 = s * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    ch = QuantumChannel([a1, a2, a3])
    defect = float(np.abs(sum(a @ dagger(a) for a in ch.kraus) - np.eye(3)).max())
    if not ch.trace_preserving or defect >= 1e-12:
        raise RuntimeError(
            f"qutrit channel must be trace preserving and unital "
            f"(completeness defect {ch._completeness_defect:.3e}, "
            f"unitality defect {defect:.3e})")
    prods = np.column_stack([
        (ak @ dagger(al)).reshape(-1) for ak in ch.kraus for al in ch.kraus])
    rank = int(np.linalg.matrix_rank(prods, tol=1e-10))
    return ch, rank


# ---------------------------------------------------------------------------
# random channels (test/CLI support)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(dim_in, dim_out=None, n_kraus=None, rng=None):
    """Random trace-preserving channel from a Haar-ish random isometry."""
    rng = np.random.default_rng() if rng is None else rng
    dim_out = dim_in if dim_out is None else dim_out
    n_kraus = dim_in * dim_out if n_kraus is None else n_kraus
    z = rng.normal(size=(n_kraus * dim_out, dim_in)) + \
        1j * rng.normal(size=(n_kraus * dim_out, dim_in))
    q, _ = np.linalg.qr(z)
    kraus = [q[k * dim_out:(k + 1) * dim_out, :] for k in range(n_kraus)]
    return QuantumChannel(kraus)
