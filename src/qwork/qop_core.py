"""Quantum operations as dense complex matrices.

Channels are kept in operator-sum (Kraus) form.  The Choi matrix, the chi
matrix with respect to a fixed operator basis, and the real linear
(Bloch-affine) representation are derived views.  Two process tomography
routes are provided, both through the Choi matrix: chi tomography over an
operator basis, and the Choi state of a maximally entangled pair.  Also here
are the structural results for unital qubit channels (random-unitary
decompositions) and the extreme qutrit counterexample.

Bit order: on an n-qubit register, qubit 0 is the leftmost tensor factor and
the most significant bit of a basis index, so basis index x has qubit q in
state (x >> (n - 1 - q)) & 1.  The dense kernel below (``z_signs``,
``apply_local``) and every module built on it use this order.
"""

from __future__ import annotations

import json
import math
import numbers
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


# The package's scalar entry checks; each test is a negation, which a NaN fails.

def check_int(name, value, least):
    """value is a count of at least least; a bool is a flag, not a count."""
    # a plain int, the common case, skips the costly ABC check
    integral = type(value) is int or (isinstance(value, numbers.Integral)
                                      and not isinstance(value, bool))
    if not (integral and value >= least):
        raise ValueError(f"need {name} >= {least} as an integer, "
                         f"got {name}={value!r}")


def check_real(name, value, low=-math.inf, high=math.inf):
    """value is a finite real in the closed range [low, high]."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and low <= value <= high):
        raise ValueError(f"need {name} in [{low}, {high}] and finite, "
                         f"got {name}={value!r}")


def check_positive(name, value):
    """value is a finite real > 0, as a tolerance, time, width, temperature
    or coupling must be."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ValueError(f"need {name} > 0 and finite, got {name}={value!r}")


def kron_all(*mats):
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dagger(m):
    return np.conjugate(np.transpose(m))


@lru_cache(maxsize=16)
def z_signs(n):
    """Read-only (n, 2**n) table of Z eigenvalues: entry [q, x] is
    1 - 2 * (bit of qubit q in basis index x)."""
    idx = np.arange(1 << n)
    out = 1 - 2 * ((idx >> np.arange(n - 1, -1, -1)[:, None]) & 1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _ising_rows(n):
    # pair indices i < j in row-major order, and the read-only rows
    # Z_i Z_j for those pairs followed by Z_0 .. Z_{n-1}
    z = z_signs(n)
    i, j = np.triu_indices(n, 1)
    rows = np.concatenate([z[i] * z[j], z]).astype(float)
    rows.setflags(write=False)
    return i, j, rows


def ising_diagonal(fields, couplings):
    """Diagonal of sum_i h_i Z_i + sum_{i<j} J_ij Z_i Z_j over the 2^n basis
    states, for an n x n coupling matrix J whose strict upper triangle is
    read and fields h of length n, or None for none: then only the pair rows
    are summed, to the values that zero fields give."""
    couplings = np.asarray(couplings, dtype=float)
    i, j, rows = _ising_rows(len(couplings))
    coef = couplings[i, j]
    if fields is None:
        rows = rows[:len(coef)]
    else:
        coef = np.concatenate([coef, np.asarray(fields, dtype=float)])
    # an axis-0 sum adds the rows in order, pairs first, as one loop would
    return (coef[:, None] * rows).sum(axis=0)


def pauli_components(m):
    """tr(sigma_mu m) / 2 for mu = I, X, Y, Z over the last two axes: (4,)
    for one 2 x 2 matrix, (..., 4) for a stack."""
    return np.einsum("pij,...ji->...p", np.array(PAULIS), m) / 2


def apply_local(op, state, axes):
    """Apply the 2^k x 2^k ``op`` to qubits ``axes`` of an n-qubit state.

    ``state`` is a (2^n,) vector or a (2^n, m) matrix transformed column by
    column; the first tensor factor of ``op`` acts on ``axes[0]``.  A stack
    of ops, (S, 2^k, 2^k), acts entry by entry on an (S, ...) stack of
    states.  Only the listed qubits are contracted, so no 2^n x 2^n operator
    is built.
    """
    state = np.asarray(state)
    lead = state.shape[:np.ndim(op) - 2]
    if lead == (1,):   # same memory layout as a plain state, minus the batching cost
        op, lead = op[0], ()
    elif lead:
        op = op[:, None]
    k = len(axes)
    first = axes[0]
    if tuple(axes) == tuple(range(first, first + k)):
        # an ascending run of qubits is one axis of a plain reshape
        t = state.reshape(*lead, 1 << first, 1 << k, -1)
        return np.matmul(op, t).reshape(state.shape)
    # otherwise view the state as (gap, 2, gap, 2, ..., gap), one 2 per
    # listed qubit, and move the 2s together in op order
    ordered = sorted(axes)
    dims, prev = [], -1
    for q in ordered:
        dims += [1 << (q - prev - 1), 2]
        prev = q
    dims.append(-1)
    b = len(lead)
    perm = (list(range(b)) + [b + 2 * i for i in range(k)]
            + [b + 2 * ordered.index(q) + 1 for q in axes] + [b + 2 * k])
    t = state.reshape(*lead, *dims).transpose(perm)
    t = np.matmul(op, t.reshape(*lead, -1, 1 << k, t.shape[-1])).reshape(t.shape)
    return t.transpose(np.argsort(perm)).reshape(state.shape)


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
        check_positive("tol", tol)
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        if any(a.shape != ops[0].shape for a in ops):
            raise ValueError("inconsistent Kraus shapes")
        if ops[0].ndim != 2:
            raise ValueError(f"need each kraus operator as a matrix, got shape {ops[0].shape}")
        # one (K, dim_out, dim_in) stack: indexable, iterable and len-able
        self.kraus = np.array(ops)
        if not np.isfinite(self.kraus).all():
            raise ValueError("need finite kraus entries")
        self.dim_out, self.dim_in = ops[0].shape
        # sum_k A_k† A_k is F† F for the rows of every A_k stacked in F
        rows = self.kraus.reshape(-1, self.dim_in)
        with np.errstate(over="ignore", invalid="ignore"):   # refused just below
            s = dagger(rows) @ rows
        if not np.isfinite(s).all():
            raise ValueError("Kraus completeness sum exceeds identity")
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

    def __post_init__(self):
        check_int("dim_in", self.dim_in, 1)
        check_int("dim_out", self.dim_out, 1)
        if self.normalization not in ("unnormalized-Y", "state"):
            raise ValueError(f'need normalization "unnormalized-Y" or "state", '
                             f'got normalization={self.normalization!r}')

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
    mat = np.asarray(rho, dtype=complex)
    if mat.shape[0] != channel.dim_in:
        raise ValueError(
            f"state dim {mat.shape[0]} != channel dim_in {channel.dim_in}")
    return sum(a @ mat @ dagger(a) for a in channel.kraus)


def _choi_matrix(ops):
    """Choi matrix C[(i, a), (j, b)] = Σₙ Aₙ[a, i]·conj(Aₙ[b, j]) of the map
    ρ ↦ Σₙ AₙρAₙ† for a (K, d_out, d_in) stack: one product of the
    column-major vectorized operators, whose segment i is column i of Aₙ."""
    v = np.asarray(ops, dtype=complex).transpose(0, 2, 1).reshape(len(ops), -1)
    return v.T @ v.conj()


def choi_of(channel):
    return ChoiMatrix(_choi_matrix(channel.kraus), channel.dim_in, channel.dim_out)


def kraus_from_choi(choi, tol=DEFAULT_TOL):
    """Canonical minimal Kraus set from the eigendecomposition of the Choi
    matrix.  Eigenvalues in [-tol, 0) are clamped to zero; anything more
    negative raises NotCompletelyPositiveError."""
    check_positive("tol", tol)
    c = choi.as_unnormalized()
    d = c.dim_in * c.dim_out
    if np.shape(c.mat) != (d, d) or not np.isfinite(c.mat).all():
        raise ValueError(f"need choi as a finite {d} x {d} matrix for dim_in={c.dim_in}, "
                         f"dim_out={c.dim_out}, got shape {np.shape(c.mat)}")
    # halves first, so a huge finite entry does not overflow the sum
    w, v = np.linalg.eigh(c.mat / 2 + dagger(c.mat) / 2)
    if w.min() < -tol:
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {w.min():.3e} < -tol")
    keep = w > tol
    if not keep.any():
        return QuantumChannel(np.zeros((1, c.dim_out, c.dim_in)), tol=tol)
    return QuantumChannel(_unvectorize(v[:, keep] * np.sqrt(w[keep]), c.dim_in), tol=tol)


def _unvectorize(cols, dim_in):
    """The operators with dim_in columns whose column-major vectors, as in
    _choi_matrix, are the columns of cols, stacked as (K, dim_out, dim_in)."""
    return cols.T.reshape(-1, dim_in, len(cols) // dim_in).transpose(0, 2, 1)


def channels_equal(a, b, tol=DEFAULT_TOL):
    check_positive("tol", tol)
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

    for name in ("p", "gamma"):
        if name in params:
            check_real(name, params[name], 0, 1)

    if kind == "phase_damping":
        p = float(need("p"))
        return QuantumChannel([math.sqrt(1 - p) * I2, math.sqrt(p) * SZ])
    if kind == "depolarizing":
        p = float(need("p"))
        return QuantumChannel([math.sqrt(1 - p) * I2,
                               math.sqrt(p / 3) * SX,
                               math.sqrt(p / 3) * SY,
                               math.sqrt(p / 3) * SZ])
    if kind == "bit_flip":
        # rho -> p rho + (1-p) X rho X
        p = float(need("p"))
        return QuantumChannel([math.sqrt(p) * I2, math.sqrt(1 - p) * SX])
    if kind == "amplitude_damping":
        g = float(need("gamma"))
        a0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
        a1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
        return QuantumChannel([a0, a1])
    if kind == "generalized_amplitude_damping":
        g = float(need("gamma"))
        p = float(need("p"))
        base = standard_channel("amplitude_damping", gamma=g)
        a0, a1 = base.kraus
        return QuantumChannel([
            math.sqrt(p) * a0, math.sqrt(p) * a1,
            math.sqrt(1 - p) * (SX @ a0 @ SX), math.sqrt(1 - p) * (SX @ a1 @ SX),
        ])
    if kind == "bosonic_ad":
        g = float(need("gamma"))
        cutoff = need("cutoff")
        check_int("cutoff", cutoff, 0)
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
    check_int("n_qubits", n_qubits, 1)
    d = 2 ** n_qubits
    return [kron_all(*(PAULIS[i] for i in idx)) / math.sqrt(d)
            for idx in np.ndindex(*(4,) * n_qubits)]


def default_state_basis(dim):
    """d² spanning input states: |i><i|, and the +|j> / +i|j> superpositions."""
    check_int("dim", dim, 1)
    e = np.eye(dim, dtype=complex)
    vecs = list(e) + [(e[i] + amp * e[j]) / math.sqrt(2) for i in range(dim)
                      for j in range(i + 1, dim) for amp in (1.0, 1j)]
    return [np.outer(v, v.conj()) for v in vecs]


def _spanning_stack(name, mats, dim):
    """mats as a (dim², dim, dim) stack of finite matrices that span the dim x dim
    operators, in rank relative to the largest singular value (so at any scale)."""
    d2 = dim * dim
    stack = np.array([np.asarray(m, dtype=complex) for m in mats])
    if stack.shape != (d2, dim, dim) or not np.isfinite(stack).all():
        raise ValueError(f"need {name} as {d2} finite {dim} x {dim} matrices, "
                         f"got shape {stack.shape}")
    if np.linalg.matrix_rank(stack.reshape(d2, d2), rtol=1e-10) < d2:
        raise ValueError(f"{name} does not span the operator space")
    return stack


def tomography_method1(oracle, dim, input_basis=None, op_basis=None,
                       tol=DEFAULT_TOL):
    """Process tomography by expanding outputs over a fixed operator basis.

    ``oracle`` maps a density matrix to the channel output.  Its outputs on
    ``input_basis`` give the Choi matrix C, and chi of E(rho) = Σ chi_mn B_m
    rho B_n† is V⁻¹·C·V⁻†, where column m of V is B_m vectorized as in
    _choi_matrix.  chi is diagonalized; the returned Kraus set is the
    canonical one built from the operator basis, or one zero operator when
    no eigenvalue exceeds tol in units of the basis's mean squared norm.
    """
    check_int("dim", dim, 1)
    check_positive("tol", tol)
    if op_basis is None:
        if dim & (dim - 1):
            raise ValueError("default operator basis needs a qubit register")
        op_basis = pauli_product_basis(int(dim).bit_length() - 1)
    if input_basis is None:
        input_basis = default_state_basis(dim)
    rhos = _spanning_stack("input_basis", input_basis, dim)
    ops = _spanning_stack("op_basis", op_basis, dim)

    c = _choi_of_inputs(oracle, rhos, "oracle").mat
    v = ops.transpose(0, 2, 1).reshape(dim * dim, -1).T
    v_inv = np.linalg.inv(v)
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        chi = v_inv @ c @ dagger(v_inv)
    if not np.isfinite(chi).all():
        raise ValueError("need oracle output small enough for a finite chi matrix")
    # chi scales as 1/s² when op_basis is scaled by s, so its eigenvalues are
    # judged in units of the basis's mean squared Frobenius norm, summed
    # over entries divided by the largest so that no square overflows
    big = float(np.abs(v).max())
    rms = big * math.sqrt(float(np.sum(np.abs(v / big) ** 2)) / len(v))
    if rms * rms == math.inf:
        raise ValueError(f"need op_basis with a finite mean squared norm, "
                         f"got root mean square {rms:.3e}")
    # halves first, so a huge finite entry does not overflow the sum
    w, u = np.linalg.eigh(chi / 2 + dagger(chi) / 2)
    scaled = w * rms * rms
    if scaled.min() < -1e-6:
        raise NotCompletelyPositiveError(
            f"chi matrix eigenvalue {scaled.min():.3e}: inconsistent oracle data")
    keep = scaled > tol
    if not keep.any():
        return QuantumChannel(np.zeros((1, dim, dim)))
    return QuantumChannel(_unvectorize(v @ (u[:, keep] * np.sqrt(w[keep])), dim))


def tomography_method2(oracle=None, dim=None, joint_state=None, tol=DEFAULT_TOL):
    """Process tomography through one half of a maximally entangled pair.

    Either pass ``joint_state`` = (I ⊗ E)(|Φ><Φ|) directly, or pass ``oracle``
    and ``dim`` and the joint state is simulated.  The joint state is the
    channel's Choi matrix in its "state" normalization, and the result is
    kraus_from_choi on it.
    """
    check_positive("tol", tol)
    if joint_state is None:
        if oracle is None or dim is None:
            raise ValueError("need either joint_state or (oracle, dim)")
        return kraus_from_choi(choi_of_map(oracle, dim), tol)
    joint_state = np.asarray(joint_state, dtype=complex)
    d = round(joint_state.size ** 0.25)
    if joint_state.shape != (d * d, d * d):
        raise ValueError(f"joint_state must be square with side d², "
                         f"got shape {joint_state.shape}")
    return kraus_from_choi(ChoiMatrix(joint_state, d, d, "state"), tol)


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
    # transfer matrix r[mu, nu] = Re tr(sigma_mu E(sigma_nu)) / 2
    r = pauli_components(np.array([apply(channel, s) for s in PAULIS])).real.T
    return LinearRep(float(r[0, 0]), r[0, 1:], r[1:, 0], r[1:, 1:])


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
        c = pauli_components(np.asarray(rho, dtype=complex))
        c0, r = c[0], c[1:]
        rp = rep.m.astype(complex) @ r + c0 * rep.v2
        c0p = rep.m0 * c0 + rep.v1 @ r
        return c0p * I2 + rp[0] * SX + rp[1] * SY + rp[2] * SZ
    return act


def choi_of_map(act, dim):
    """Choi matrix of an arbitrary linear map given as a function on matrices."""
    check_int("dim", dim, 1)
    return _choi_of_inputs(act, np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim), "act")


def _choi_of_inputs(act, inputs, name):
    """Choi matrix of the map ``act`` from its images of a (dim², dim, dim)
    stack of spanning inputs, such as the units |i><j| in row-major order.
    Images of another shape (a 1 x 1 or length-2 image would broadcast) or
    with a non-finite entry are refused naming the map."""
    d2, dim = len(inputs), inputs.shape[-1]
    images = np.array([np.asarray(act(x), dtype=complex) for x in inputs])
    if images.shape != inputs.shape or not np.isfinite(images).all():
        raise ValueError(f"need {name} to map {dim} x {dim} matrices to finite "
                         f"{dim} x {dim} matrices, got images of shape {images.shape[1:]}")
    # the units' images are the combinations of the inputs' images that
    # build the units from the inputs
    images = np.linalg.solve(inputs.reshape(d2, d2), images.reshape(d2, d2))
    c = images.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(d2, d2)
    return ChoiMatrix(c, dim, dim)


def is_cp(rep_or_act, dim=2, tol=DEFAULT_TOL):
    """Complete positivity by rebuilding the Choi matrix and testing it."""
    check_positive("tol", tol)
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
    check_positive("tol", tol)
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
    check_int("dim", dim, 1)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(dim_in, dim_out=None, n_kraus=None, rng=None):
    """Random trace-preserving channel from a Haar-ish random isometry."""
    rng = np.random.default_rng() if rng is None else rng
    dim_out = dim_in if dim_out is None else dim_out
    for name, count in (("dim_in", dim_in), ("dim_out", dim_out)):
        check_int(name, count, 1)
    n_kraus = dim_in * dim_out if n_kraus is None else n_kraus
    check_int("n_kraus", n_kraus, 1)
    z = rng.normal(size=(n_kraus * dim_out, dim_in)) + \
        1j * rng.normal(size=(n_kraus * dim_out, dim_in))
    q, _ = np.linalg.qr(z)
    kraus = [q[k * dim_out:(k + 1) * dim_out, :] for k in range(n_kraus)]
    return QuantumChannel(kraus)
