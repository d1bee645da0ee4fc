"""Paired-index 3-tensors over n qubits: sampling, norms, and binary io.

A tensor here has shape (N^2, N^2, N^2) with N = 2^n, each axis indexed by an
ordered pair (i, i') of local indices.  Grouping rows (i, j, k) against columns
(i', j', k') turns the same data into an N^3 x N^3 complex matrix, the one
layout in which a general tensor is stored and contracted.  The central object
is the randomly sampled tensor whose matrix view is the outer product of a
length-N^3 vector with itself, with every entry killed whenever any of the
three index pairs collides.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ScaleError

_MAGIC = b"XGT1"
_FLAG_RAW_G = 1

_TIE_RTOL = 1e-12  # final ascent values this close to the largest are rounding ties
_PRUNE_MARGIN = 1e-12  # relative rounding slack of the net maximum's pruning bounds

# Largest N whose sampled tensors ascend on their real Pauli table (Q^3 =
# N^6 entries, 4096 at N = 4) rather than on g: the ALS in
# `trilinear_norm_lower`, and the classical ascent of a gap row, which
# `sweep.compute_gap_row` runs on its game's cost tensor up to this N and on
# g (`game.classical_value`) above it.  A sampled tensor with N = 2 runs
# neither ALS (its trilinear norm is a closed form) nor classical ascent
# (its row enumerates), so for sampled tensors the table ALS runs at N = 4
# only.  A tensor given by its matrix has no g and always ascends on its
# table.  Per-call numpy overhead on 4x4 factors is what the table saves,
# and its O(Q^3) work per map is what it costs at N = 8.  Medians per call
# over seed-0 rows, one BLAS thread, on 2 cores with numpy 2.4.6 and
# OpenBLAS 0.3.31: the table ALS took 5.07 vs 9.67 ms on g at N = 4, but
# 69.8 vs 17.1 ms at N = 8; the classical ascent on the dense table took
# 1.15 vs 1.68 ms on g at Q = 16, but 14.0 vs 6.3 ms at Q = 64.
_TABLE_MAX_N = 4


@dataclass(frozen=True)
class SamplerConfig:
    """How to draw the underlying length-N^3 vector g.

    distribution is one of "gaussian" (i.i.d. standard normals), "bernoulli"
    (i.i.d. uniform +/-1 signs) or "override" (caller supplies the raw vector;
    the result is the same as `Tensor3(n, raw_g=override_g)`).
    The same (distribution, seed, N) reproduces g, and hence the tensor,
    bit for bit.
    """

    distribution: str = "gaussian"
    seed: int = 0
    override_g: np.ndarray | None = None

    def __post_init__(self):
        if self.distribution not in ("gaussian", "bernoulli", "override"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "override" and self.override_g is None:
            raise ValueError("override distribution needs override_g")


def _read_only(a, dtype) -> np.ndarray:
    """a as a read-only C-contiguous array; a writeable input is copied, so
    the caller's own array stays writeable and cannot change the tensor."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable and np.may_share_memory(out, a):
        out = out.copy()
    out.setflags(write=False)
    return out


class Tensor3:
    """Immutable N^2 x N^2 x N^2 complex tensor, given by exactly one thing.

    A general tensor is its N^3 x N^3 matrix view (rows flattened (i, j, k),
    columns (i', j', k'), both row-major), its only layout: every product,
    pairing and Pauli transform of it reads that matrix, and no other
    arrangement of its entries is formed.  A sampled tensor is its raw
    vector g: its matrix view, g g^T under the collision mask, is built on
    first read and cached.  A hermitized part is its parent's matrix M and
    the part, "sym" for (M + M^H)/2 or "anti" for i(M - M^H)/2
    (`Tensor3(n, M, part=...)`, as :func:`hermitize` makes it): its matrix
    is rebuilt from M on every read and never stored, and any N^5 block of
    it comes from the same block of M and of M^T (:meth:`_offset_block`).
    Passing both a matrix and g, or neither, or a part without a matrix,
    raises ValueError.  A tensor with g is exactly Hermitian by construction,
    and its spectral and trilinear norms never build the matrix: the Lanczos
    top eigenpair multiplies by g, the ALS and `trilinear_eval` contract it,
    at N = 2 both norms are closed forms in g, and it certifies the net
    upper bound.  Hermitian means bit for bit (see
    :meth:`is_hermitian`); a hermitized part is Hermitian by construction.
    Any other Hermitian tensor's top eigenpair comes from the same Lanczos
    solver multiplying by the matrix, and a non-Hermitian one's top singular
    pair from that solver on M M^H.
    """

    __slots__ = ("n", "N", "_matrix", "raw_g", "_part", "_eig", "_herm", "_sv", "_hermitized")

    def __init__(
        self, n: int, matrix: np.ndarray | None = None, raw_g: np.ndarray | None = None, part: str | None = None
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if (matrix is None) == (raw_g is None):
            raise ValueError("a tensor is given by exactly one of its matrix view and its raw vector")
        if part not in (None, "sym", "anti") or (part is not None and matrix is None):
            raise ValueError(f"a hermitized part is 'sym' or 'anti' of a parent matrix, got {part!r}")
        N = 2**n
        if matrix is not None:
            matrix = _read_only(matrix, np.complex128)
            if matrix.shape != (N**3, N**3):
                raise DimensionError(f"matrix view must be {N**3}x{N**3} for n={n}, got {matrix.shape}")
        else:
            raw_g = _read_only(raw_g, np.float64)
            if raw_g.shape != (N**3,):
                raise DimensionError(f"raw vector must have length {N**3}")
        self.n = n
        self.N = N
        # a hermitized part holds its parent's matrix and the part
        self._matrix = matrix
        self._part = part
        self.raw_g = raw_g
        self._eig = None
        self._herm = True if raw_g is not None or part is not None else None  # True, False, or None until known
        self._sv = None
        self._hermitized = None

    @property
    def matrix(self) -> np.ndarray:
        """The N^3 x N^3 matrix view; for a sampled tensor built from g on
        first read, for a hermitized part built from its parent on every read."""
        if self._part is not None:
            M = _hermitian_part(self._matrix, self._matrix.T, self._part)
            M.setflags(write=False)
            return M
        if self._matrix is None:
            self._matrix = np.ascontiguousarray(_masked_outer(self.raw_g, self.N), dtype=np.complex128)
            self._matrix.setflags(write=False)
        return self._matrix

    def _offset_block(self, x: int) -> np.ndarray:
        """The N^5 entries B[b, u, v] = M[(b ⊕ x, u), (b, v)] of the matrix
        view M, for the XOR offset x of player 1's index, as a fresh complex
        (N, N^2, N^2) array.  A hermitized part takes them from the same
        block of its parent and that block's entries of the parent's
        transpose, entry for entry its matrix's, so its matrix is not built."""
        N, Q = self.N, self.N * self.N
        b = np.arange(N)
        if self._part is None:
            return self.matrix.reshape(N, Q, N, Q)[b ^ x, :, b, :]
        P = self._matrix.reshape(N, Q, N, Q)[b ^ x, :, b, :]
        # M^T[(b ⊕ x, u), (b, v)] = M[(b, v), (b ⊕ x, u)] = P[b ⊕ x, v, u]
        return _hermitian_part(P, P[b ^ x].transpose(0, 2, 1), self._part)

    def is_hermitian(self) -> bool:
        """Whether the matrix view equals its conjugate transpose bit for bit
        (as `np.array_equal`: -0 equals +0, and a NaN entry is never
        Hermitian), exactly when `hermitize(self) is self`; compared once,
        and never for a tensor marked Hermitian when built (a sampled tensor
        or a `hermitize` candidate).  Row blocks of about 2^16 entries are
        compared against their conjugated column blocks, up to the first
        mismatch, so no conjugate copy of the whole matrix is made."""
        if self._herm is None:
            M = self.matrix
            b = max(1, 2**16 // len(M))
            self._herm = all(np.array_equal(M[i : i + b], M[:, i : i + b].conj().T) for i in range(0, len(M), b))
        return self._herm

    def frobenius_norm(self) -> float:
        """||M||_F of the matrix view; for a sampled tensor O(N^3) from g as
        sqrt((g^2)^T (J - I)^{⊗3} g^2), so its matrix is never built."""
        if self.raw_g is None:
            return float(np.linalg.norm(self.matrix))
        g2 = self.raw_g * self.raw_g
        return float(np.sqrt(g2 @ _masked_product(g2, self.N)))


@dataclass
class TrilinearWitness:
    """A feasible point (X, Y, Z) of the trilinear maximization and its value.

    Each factor is Hermitian with Frobenius norm at most one, so |value| is a
    certified lower bound on the trilinear norm of the tensor it was built for.
    """

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    value: complex

    def __post_init__(self):
        for name, M in (("X", self.X), ("Y", self.Y), ("Z", self.Z)):
            if np.abs(M - M.conj().T).max() > 1e-12:
                raise ValueError(f"witness factor {name} is not Hermitian")
            if np.linalg.norm(M) > 1.0 + 1e-12:
                raise ValueError(f"witness factor {name} has Frobenius norm > 1")


def sample_tensor(n: int, cfg: SamplerConfig) -> Tensor3:
    """Draw g per cfg and form the masked outer product tensor.

    The matrix view is g g^T with every entry zeroed whenever i == i' or
    j == j' or k == k'.  The result is `Tensor3(n, raw_g=g)`, given by g
    alone; its matrix view is built only if something reads it.
    """
    N = 2**n
    if cfg.distribution == "gaussian":
        rng = np.random.default_rng(cfg.seed)
        g = rng.standard_normal(N**3)
    elif cfg.distribution == "bernoulli":
        rng = np.random.default_rng(cfg.seed)
        g = rng.integers(0, 2, N**3).astype(np.float64) * 2.0 - 1.0
    else:
        g = np.asarray(cfg.override_g, dtype=np.float64).reshape(-1)
        if g.shape != (N**3,):
            raise DimensionError(
                f"override vector must have length {N**3}, got {g.shape[0]}"
            )
    return Tensor3(n, raw_g=g)


def _masked_outer(g: np.ndarray, N: int) -> np.ndarray:
    """The matrix view g g^T with every colliding index pair zeroed."""
    M = np.outer(g, g)
    M6 = M.reshape(N, N, N, N, N, N)
    r = np.arange(N)
    M6[r, :, :, r, :, :] = 0.0  # i == i'
    M6[:, r, :, :, r, :] = 0.0  # j == j'
    M6[:, :, r, :, :, r] = 0.0  # k == k'
    return M


def _masked_product(x: np.ndarray, N: int) -> np.ndarray:
    """(J - I)^{⊗3} x for a length-N^3 vector x: each J - I factor is a sum
    along one axis minus the input, O(N^3) in all."""
    y = x.reshape(N, N, N)
    for axis in range(3):
        y = y.sum(axis=axis, keepdims=True) - y
    return y.reshape(-1)


_LANCZOS_TOL = 1e-14
_LANCZOS_ROWS = 32  # the basis grows by this many rows at a time


def _lanczos_extremes(matvec, dim: int, dtype, frob2: float | None) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Both extreme Ritz pairs of a Hermitian operator, as (low, u, high, v).

    Lanczos with full reorthogonalisation (see :func:`_orthogonalized`)
    from the fixed start vector default_rng(0).standard_normal(dim).  A Ritz
    pair has converged when its residual beta_k |s_k| is at most 1e-14
    max|theta|, which also covers an invariant Krylov space (beta_k = 0).
    The run stops when the basis spans all dim directions, when both extreme
    pairs have converged, or when the near end (the one of larger |theta|)
    has converged and a certified bound B on the far end's eigenvalue
    magnitude is strictly below |theta_near|; the far pair is then left
    unconverged, and it cannot carry the dominant eigenvalue.  An exact
    +/-lambda pair never satisfies the strict test, so it waits for both ends.

    frob2 is the operator's squared Frobenius norm F, or None for a positive
    semidefinite operator.  With F, the k Ritz values bound k distinct
    eigenvalues in magnitude from inside (Cauchy interlacing: the negative
    ones the lowest eigenvalues, the positive ones the highest), so the far
    eigenvalue's square is at most B^2 = max(F - sum theta^2 + theta_far^2,
    0) + 2e-12 F.  The last term is a slack against rounding; since F is at
    least theta_near^2, it also keeps a far Ritz value left unconverged below
    (1 - 1e-12) |theta_near|, out of the tie window of :func:`top_eigenpair`.
    A positive semidefinite operator's far (lowest) eigenvalue lies in
    [0, theta_far], so B = |theta_far|.

    The tridiagonal is solved every step up to 8, then about every k/8
    steps (at most 1/8 extra iterations), and at once when beta_k falls
    below the last tolerance.  The basis V is one contiguous array that
    grows in place by _LANCZOS_ROWS rows (`ndarray.resize`, so no view of
    it is alive across a step), so memory follows the iteration count with
    no second copy of the basis.
    """
    q = np.random.default_rng(0).standard_normal(dim).astype(dtype)
    q /= np.linalg.norm(q)
    V = np.empty((min(dim, _LANCZOS_ROWS), dim), dtype=dtype)
    alpha, beta = [], []
    k = check = 1
    tol = 0.0
    while True:
        if k > len(V):
            V.resize((min(dim, len(V) + _LANCZOS_ROWS), dim), refcheck=False)
        V[k - 1] = q
        w, h = _orthogonalized(matvec(q), V[:k])
        alpha.append(float(h[-1].real))
        b = float(np.linalg.norm(w))
        if k == check or k == dim or b <= tol:
            check = k + max(1, k // 8)
            Tk = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, S = np.linalg.eigh(Tk)
            tol = _LANCZOS_TOL * max(abs(theta[0]), abs(theta[-1]))
            near, far = (0, -1) if abs(theta[0]) > abs(theta[-1]) else (-1, 0)
            if frob2 is None:
                bound2 = theta[far] ** 2
            else:
                bound2 = max(frob2 - theta @ theta + theta[far] ** 2, 0.0) + 2e-12 * frob2
            res_near, res_far = abs(S[-1, near]) * b, abs(S[-1, far]) * b
            if k == dim or (res_near <= tol and (res_far <= tol or bound2 < theta[near] ** 2)):
                break
        beta.append(b)
        q = w / b
        k += 1
    return theta[0], S[:, 0] @ V[:k], theta[-1], S[:, -1] @ V[:k]


def _closed_form(T: Tensor3) -> bool:
    """Whether T's top eigenpair and trilinear norm are closed forms: T is a
    sampled tensor (given by g) with N = 2."""
    return T.raw_g is not None and T.N == 2


def _qubit_eigenpair(g: np.ndarray) -> tuple[float, np.ndarray]:
    """The closed-form top eigenpair of the N = 2 sampled tensor given by g.

    The collision mask keeps only the entries pairing v with its complement
    7 - v, so the matrix view is four 2 x 2 blocks [[0, h_v], [h_v, 0]] with
    h_v = g_v g_{7-v}, v = 0..3, and its eigenvalues are +/-h_v.  Returns
    lambda = max |h_v| on the positive branch (the first v on ties) and
    psi = (e_v + sign(h_v) e_{7-v}) / sqrt(2), sign(0) taken as +1.
    """
    h = g[:4] * g[7:3:-1]
    v = int(np.argmax(np.abs(h)))
    vec = np.zeros(8)
    vec[v] = vec[7 - v] = np.sqrt(0.5)
    if h[v] < 0.0:
        vec[7 - v] = -vec[7 - v]
    return abs(float(h[v])), vec


def top_eigenpair(T: Tensor3) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest magnitude and its eigenvector (exactly Hermitian
    input, as `hermitize(T)` is; any other raises ValueError).

    A sampled tensor with N = 2 takes the closed form of
    :func:`_qubit_eigenpair`: its eigenvalues are +/-g_v g_{7-v}, and no
    solver runs.  Any other tensor gets one Lanczos run (see
    :func:`_lanczos_extremes`) that follows both ends of the spectrum, and
    the end of larger magnitude wins.  The run stops as soon as that end has
    converged and the tensor's squared Frobenius norm (see
    :meth:`Tensor3.frobenius_norm`) certifies that the other end lies
    strictly below it in magnitude; otherwise it waits for both ends.  When
    +s and -s are both eigenvalues of magnitude equal to the spectral norm,
    the positive branch is returned, so the eigenvector realizes the
    spectral norm as a positive quadratic form whenever possible.  A sampled
    tensor never builds its matrix: its product is
    x -> g∘((J - I)^{⊗3}(g∘x)), O(N^3) per product (see
    :func:`_masked_product`), and its Frobenius norm is O(N^3) from g.  Any
    other tensor multiplies by its matrix view, read once for the run and
    its Frobenius norm, so a hermitized part builds its matrix once and
    drops it on return.
    The pair, closed-form or not, is checked once with the same product, and
    ValueError is raised when ||A psi - lambda psi|| exceeds 1e-9 |lambda|
    (or is not a number).
    """
    if not T.is_hermitian():
        raise ValueError("top_eigenpair needs a Hermitian matrix view")
    if T._eig is None:
        N = T.N
        if T.raw_g is None:
            M = T.matrix  # read once: a hermitized part builds it on every read
            matvec, dtype = M.dot, np.complex128
        else:
            g = T.raw_g

            def matvec(x):
                return g * _masked_product(g * x, N)

            dtype = np.float64
        if _closed_form(T):
            lam, vec = _qubit_eigenpair(T.raw_g)
        else:
            frob = float(np.linalg.norm(M)) if T.raw_g is None else T.frobenius_norm()
            low, u, high, v = _lanczos_extremes(matvec, N**3, dtype, frob**2)
            sn = max(abs(low), abs(high))
            lam, vec = (high, v) if high >= sn * (1.0 - 1e-12) else (low, u)
            vec = vec / np.linalg.norm(vec)
        res = float(np.linalg.norm(matvec(vec) - lam * vec))
        if not res <= 1e-9 * abs(lam):
            raise ValueError(f"eigenpair residual {res!r} (lambda {lam!r})")
        vec = np.ascontiguousarray(vec, dtype=np.complex128)
        vec.setflags(write=False)
        T._eig = (float(lam), vec)
    return T._eig


def _dominant_pair(T: Tensor3) -> tuple[float, np.ndarray]:
    """The spectral norm of the matrix view and a dominant unit vector, both
    cached: |lambda| and the top eigenvector of a Hermitian tensor (see
    :func:`top_eigenpair`), else sigma_1 and the left singular vector of
    :func:`_top_singular`; both come from the one Lanczos solver,
    :func:`_lanczos_extremes`, except a sampled N = 2 tensor's closed form."""
    if T.is_hermitian():
        lam, psi = top_eigenpair(T)
        return abs(lam), psi
    return _top_singular(T)


def spectral_norm(T: Tensor3) -> float:
    """Largest singular value of the matrix view (see :func:`_dominant_pair`).

    An exactly Hermitian input goes through its top eigenpair (a sampled
    tensor's matrix is never built, and at N = 2 no solver runs); any other
    through the Lanczos solver on M M^H, whose products never build M^H (see
    :func:`_top_singular`).  No SVD and no dense eigensolve of the matrix
    view runs.
    """
    return _dominant_pair(T)[0]


def trilinear_eval(T: Tensor3, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> complex:
    """Pair the tensor with X ⊗ Y ⊗ Z entrywise: sum T[(ii'),(jj'),(kk')] X[ii'] Y[jj'] Z[kk'].

    The one pairing of the package, and the ALS's witness check.  A sampled
    tensor pairs through the g maps of :func:`_mode_contraction`, X and Y
    passed through its `enter` once: O(N^4), and its matrix is never built.
    Any other tensor contracts its matrix view M directly: X against player
    1's row and column indices of M in one product (through one transient
    copy of M), then the N^4 entries left against Y ⊗ Z.
    """
    N = T.N
    for name, M in (("X", X), ("Y", Y), ("Z", Z)):
        if np.shape(M) != (N, N):
            raise DimensionError(f"{name} must be {N}x{N}")
    if T.raw_g is None:
        W = np.tensordot(X, T.matrix.reshape(N, N * N, N, N * N), axes=([0, 1], [0, 2]))
        return complex(np.sum(W * np.kron(Y, Z)))
    enter, hold = _mode_contraction(T)
    image = hold(1, enter(Y)[None])
    return complex(np.sum(image(2, enter(X)[None])[0] * Z))


def _hermitian_factor(A: np.ndarray, old: np.ndarray, valued: bool):
    """The mode update of a Hermitian tensor on the g maps: X[r] = (conj(A[r]) + A[r]^T) / norm.

    For a Hermitian tensor and Hermitian factors every mode image A is
    Hermitian, and the maximizer of |sum A∘X| over unit-Frobenius Hermitian
    X is conj(A) normalized (the phase rotation of :func:`_phase_factor` is
    the identity).  Writing it as conj(A) + A^T keeps X Hermitian bit for
    bit whatever the rounding in A; the value is ||conj(A) + A^T||_F / 2
    = Re sum A∘X.  An update rule of :func:`_lockstep_ascent`: returns (X,
    values), the values where valued is set and None otherwise.  Where A[r]
    vanishes, X[r] is old[r] and its value is 0.  The update is one norm
    and one in-place divide; only a vanished slice costs the np.where.
    """
    X = A.conj()
    X += A.transpose(0, 2, 1)
    flat = X.view(np.float64).reshape(len(X), -1)
    norm = np.sqrt(np.vecdot(flat, flat))
    ok = norm > 0.0
    if np.count_nonzero(ok) == len(ok):  # no slice vanished (cheaper than ok.all())
        X /= norm[:, None, None]
    else:
        X /= np.where(ok, norm, 1.0)[:, None, None]
        X = np.where(ok[:, None, None], X, old)
    return X, (norm / 2.0 if valued else None)


def _unit_factor(a: np.ndarray, old: np.ndarray, valued: bool):
    """The mode update on real coordinates of a real table: x[r] = a[r] / ||a[r]||.

    A stack (R, d) of real images; the value is ||a[r]||.  An update rule
    as :func:`_hermitian_factor` is: where a[r] vanishes, x[r] is old[r]
    and its value is 0.
    """
    norm = np.sqrt(np.vecdot(a, a))
    ok = norm > 0.0
    if np.count_nonzero(ok) == len(ok):  # no slice vanished (cheaper than ok.all())
        x = a / norm[:, None]
    else:
        x = np.where(ok[:, None], a / np.where(ok, norm, 1.0)[:, None], old)
    return x, (norm if valued else None)


def _phase_factor(a: np.ndarray, old: np.ndarray, valued: bool):
    """The mode update on real coordinates of a complex table, given as planes.

    a is a stack (R, 2, d) holding Re a[r] and Im a[r] of complex images
    a[r].  Over real unit x, |a·x|^2 = (Re a·x)^2 + (Im a·x)^2 is largest
    at the top eigenvector of the 2 x 2 Gram matrix of (Re a, Im a): with
    u = sum a_p^2 = ||Re a||^2 - ||Im a||^2 + 2i Re a·Im a, the value is
    sqrt((||a||^2 + |u|)/2) and x = Re(e^{-iθ} a) / value with θ = arg(u)/2.
    In matrix form, with a the coordinates of a mode image A in an
    orthonormal Hermitian basis, the maximizer is X = (C + C^H)/||C + C^H||_F
    with C = e^{iθ} conj(A).  θ lies in (-π/2, π/2], and θ = 0 when u = 0, where every phase is
    optimal.  An update rule as :func:`_hermitian_factor` is: where a[r]
    vanishes, x[r] is old[r] and its value is 0.
    """
    re, im = a[:, 0], a[:, 1]
    rr, ii, ri = np.vecdot(re, re), np.vecdot(im, im), np.vecdot(re, im)
    diff = rr - ii
    val = np.sqrt((rr + ii + np.hypot(diff, 2.0 * ri)) / 2.0)
    theta = np.arctan2(2.0 * ri, diff) / 2.0
    x = np.cos(theta)[:, None] * re
    x += np.sin(theta)[:, None] * im
    ok = val > 0.0
    if np.count_nonzero(ok) == len(ok):  # no slice vanished (cheaper than ok.all())
        x /= val[:, None]
    else:
        x /= np.where(ok, val, 1.0)[:, None]
        x = np.where(ok[:, None], x, old)
    return x, (val if valued else None)


def _array_maps(W: np.ndarray):
    """The held mode maps of a dense (d, d, d) array, or of a complex one
    stored as S real planes (S, d, d, d), on stacks of R factors.

    hold(h, F) sums W against the factors F on mode h once, U = W ×h F,
    and returns image(m, G), which sums U against G on the third mode and
    returns the image on mode m, one batched product per image.  The hold
    is one pass over W: one GEMM for an outer mode, a batch of S d small
    GEMMs for the middle one.  A factor stack has shape (R, d) of real
    vectors (sign vectors of length Q against a game's signed table,
    coordinate vectors against a real Pauli table or its two planes),
    read-only or not; an image has shape (R, d), or (R, S, d) for planes.
    O(d^3 R) per hold.
    """
    planes = W.shape[:-3]
    d = W.shape[-1]
    P = W.reshape(-1, d, d, d)
    S = len(P)
    # W with the held mode as the contracted index of a matrix product
    by_mode = (P.reshape(S, d, d * d), P.reshape(S * d, d, d), P.reshape(S, d * d, d).transpose(0, 2, 1))

    def hold(h, F):
        R = len(F)
        U = np.matmul(F.reshape(R, d), by_mode[h])
        # U[r, s, i, j] over the other two modes i < j, a view
        U = U.reshape(S, d, R, d).transpose(2, 0, 1, 3) if h == 1 else U.reshape(S, R, d, d).transpose(1, 0, 2, 3)
        shape = (R, *planes, d)

        def image(m, G):
            if m < 3 - h - m:  # the image's mode comes first in U
                return (U @ G.reshape(R, 1, d, 1)).reshape(shape)
            return (G.reshape(R, 1, 1, d) @ U).reshape(shape)

        return image

    return hold


def _mode_contraction(T: Tensor3):
    """The ALS mode maps of a tensor on stacks of R restarts, as (enter, hold).

    hold is the map of :func:`_lockstep_ascent` on (R, N, N) factor stacks:
    hold(h, H) holds H on mode h and returns image(m, F), the image on mode
    m with F on the third mode.  The maps read factors only as `enter`
    returns them, and every factor update built from their images keeps
    that form.  Only a sampled tensor has these maps; a tensor given by its
    matrix ascends on its Pauli table and pairs on its matrix (see
    :func:`trilinear_eval`).

    A sampled tensor is g g^T under the collision mask
    (J - I)^{⊗3}, and enter returns a complex, C-ordered copy of a stack
    with zero diagonals: the mask pairs nothing with a diagonal entry.  The
    start stacks, `trilinear_eval`'s arguments and each factor of the
    classical ascent pass through it once.  With G = g.reshape(N, N, N),
    H held on mode h, F on mode o and the image on mode m,
    A[r, a, a'] = offdiag(sum P[r, a, c, b'] S[r, a', b', c]) in the
    indices of m, o and h, where P = G ×o F contracts F's row index and
    S = G ×h H its column index.  G is real, so P and S are real GEMMs of G
    against the (re, im) float view of the factor stack, one BLAS call per
    restart; A is one complex GEMM per restart against S transposed to
    P's (h, o') order: O(N^4 R) in all.  hold forms S once, and both
    images read it, each through its own transposed copy; a held map stays
    valid until the next hold.  S, the GEMM output and the transposed copy
    are work arrays the maps keep between calls, with their views for each
    stack size, so a sweep at N >= 16 does not page-fault fresh memory on
    every map.
    """
    N = T.N
    N2 = N * N
    G = T.raw_g.reshape(N, N, N)
    off = 1.0 - np.eye(N)
    # G for S = G ×h H, rows (i', j') over the other modes in cyclic order
    # after h against the contracted h'
    by_c = [np.ascontiguousarray(G.transpose((h + 1) % 3, (h + 2) % 3, h)).reshape(N2, N) for h in range(3)]
    # G for P = G ×o F, rows (m, h) against the contracted o, for each (m, h)
    by_b = {
        (m, h): np.ascontiguousarray(G.transpose(m, h, 3 - m - h)).reshape(N2, N)
        for m in range(3)
        for h in range(3)
        if m != h
    }
    arrays = []  # held S, the GEMM output and S's transposed copy, for the most restarts seen
    views = {}  # R -> views of `arrays` for R restarts

    def work(R):
        if R not in views:
            if not arrays or arrays[0].shape[1] < R:  # axis 0 is the held/GEMM pair
                views.clear()
                arrays[:] = np.empty((2, R, N2, 2 * N)), np.empty((R, N, N2), np.complex128)
            held, gemm = arrays[0][:, :R]
            St = arrays[1][:R]
            S = held.view(np.complex128).reshape(R, N, N, N)  # (r, i', j', h)
            views[R] = (
                held,
                gemm,
                gemm.view(np.complex128).reshape(R, N, N2),  # P, (r, m, (h, o'))
                # the copy's source for an image on mode h + 1 and on h + 2:
                # (r, m', h, o') in both
                (S.transpose(0, 1, 3, 2), S.transpose(0, 2, 3, 1)),
                St.reshape(R, N, N, N),
                St.transpose(0, 2, 1),  # (r, (h, o'), m'), as A = P @ St^T reads it
            )
        return views[R]

    def enter(F):
        return np.multiply(F, off, dtype=np.complex128, order="C")

    def transposed(H):  # an entered stack transposed, as the S GEMM reads it
        return np.ascontiguousarray(H.transpose(0, 2, 1)).view(np.float64)

    def hold(h, H):
        held, gemm, P, S_t, St, StT = work(len(H))
        np.matmul(by_c[h], transposed(H), out=held)  # S

        def image(m, F):
            np.copyto(St, S_t[(m - h) % 3 - 1])
            np.matmul(by_b[m, h], F.view(np.float64), out=gemm)
            A = P @ StT
            A.reshape(len(A), -1)[:, :: N + 1] = 0.0  # the collision mask on A's mode
            return A

        return image

    return enter, hold


# The rotating holds of `_lockstep_ascent` over two sweeps, per update: the
# mode updated, the mode held, and whether the update makes the hold
_SCHEDULE = (((0, 2, True), (1, 2, False), (2, 1, True)), ((0, 1, False), (1, 0, True), (2, 0, False)))


def _lockstep_ascent(hold, update, starts, max_sweeps, stop, on_sweep=None):
    """Alternating maximization of a trilinear form from R starts in lockstep.

    starts is a (3, R, ...) stack of the starting factors X, Y, Z, as the
    maps read them.  A sweep updates X, Y and Z in turn, each from its image
    given the other two.  hold(h, F) holds the factors F on mode h and
    returns image(m, G), the image on mode m with G on the third mode, and
    one hold serves two updates: the factor that neither of the next two
    updates changes is held.  The schedule is hold Z, update X and Y; hold
    Y, update Z and X; hold X, update Y and Z; and again, so a sweep makes
    1.5 holds.  The previous held map is dropped before the next hold, so
    one is alive at a time.  Each update is update(image, old, valued) =
    (new factors, values), with old the factors it replaces; the values are
    read only from the Z update (valued True), whose values are the sweep's,
    and the other updates may return None for them.  stop(prev, values, old,
    new) marks the restarts that leave after the sweep, given their values
    before and after it (prev is 0 before the first) and their (X, Y, Z)
    stacks before and after it; a restart also leaves after max_sweeps
    sweeps.  Restarts are independent: each keeps its own trajectory, and
    the running ones' stacks are regathered only in a sweep where some
    leave.  When restarts leave between the two updates of a hold, the
    second update still runs on every row the map was held for, and the
    leavers' rows are dropped after it, so a call of s sweeps makes exactly
    ceil(1.5 s) holds.

    on_sweep, when given, is called as on_sweep(restart, sweep, value) once
    per running restart per sweep, in sweep-major order: every restart still
    running reports sweep i, in increasing restart order, before any reports
    sweep i + 1.

    Each restart's final factors are written back into starts.  Returns
    (value, (X, Y, Z)) of the first restart whose final value is within
    1e-12 relative of the largest: the holds rotate, so restarts that reach
    one optimum can sum its value in different orders, and such rounding
    ties go to the first of them.
    """
    X, Y, Z = starts
    R = len(X)
    # X, Y, Z and `last` hold each restart's factors and value once it
    # leaves; F and `prev` are those of the restarts in `act`, still
    # running, after their latest sweep
    last = np.zeros(R)
    act = np.arange(R)
    F, prev = [X, Y, Z], np.zeros(R)
    gather = None  # rows of F still running, where restarts left in the middle of a hold
    for it in range(max_sweeps):
        old = tuple(F) if gather is None else tuple(f[gather] for f in F)
        for m, h, fresh in _SCHEDULE[it % 2]:
            if fresh:
                image = None  # the previous held map goes before the next is made
                image = hold(h, F[h])
            F[m], v = update(image(m, F[3 - h - m]), F[m], m == 2)
            if gather is not None:
                # the held map covers every row it was held for, so its second
                # update ran for the restarts that left as well; drop them now
                F, gather = [f[gather] for f in F], None
        if on_sweep is not None:
            for r, vr in zip(act.tolist(), v.tolist()):
                on_sweep(r, it, vr)
        done = stop(prev, v, old, tuple(F))
        prev = v
        if np.count_nonzero(done):
            # every running restart is written back, in fewer calls than
            # picking out the leavers; the others are overwritten later
            X[act], Y[act], Z[act], last[act] = *F, v
            keep = ~done
            act, prev = act[keep], v[keep]
            if it % 2:
                F = [f[keep] for f in F]
            else:  # an even sweep ends between the two updates of a hold
                gather = keep
            if act.size == 0:
                break
    if gather is not None:
        F = [f[gather] for f in F]
    X[act], Y[act], Z[act], last[act] = *F, prev
    best = int(np.argmax(last >= last.max() * (1.0 - _TIE_RTOL)))
    return float(last[best]), (X[best], Y[best], Z[best])


def _top_singular(T: Tensor3) -> tuple[float, np.ndarray]:
    """Largest singular value of the matrix view and its left singular vector.

    The Lanczos of :func:`_lanczos_extremes` on the positive semidefinite
    M M^H, each product x -> M conj(conj(x) M), so M^H is never built; it
    stops once its top end has converged, since the far end of a positive
    semidefinite spectrum is bounded by its own Ritz value.  u is the top
    eigenvector, sigma = ||M^H u|| and v = M^H u / sigma.  The phase of u
    is arbitrary; the ALS anchor only reads partial traces of u u^H.  The
    pair is checked against the stored matrix, and ValueError is raised
    when ||M v - sigma u|| exceeds 1e-9 sigma (or is not a number).  Cached
    per tensor: `spectral_norm` and the ALS anchor of a non-Hermitian tensor
    share it.
    """
    if T._sv is None:
        M = T.matrix

        def adjoint(x):  # M^H x
            return (x.conj() @ M).conj()

        u = _lanczos_extremes(lambda x: M @ adjoint(x), len(M), np.complex128, None)[3]
        u = u / np.linalg.norm(u)
        v = adjoint(u)
        sigma = float(np.linalg.norm(v))
        v = v / sigma
        res = float(np.linalg.norm(M @ v - sigma * u))
        if not res <= 1e-9 * sigma:
            raise ValueError(f"singular pair residual {res!r} on the stored matrix (sigma {sigma!r})")
        u.setflags(write=False)
        T._sv = (sigma, u)
    return T._sv


def _orthogonalized(w: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w minus its projection on the orthonormal rows of Q, in two classical
    Gram-Schmidt passes (the second restores orthogonality), and the
    projection coefficients of both passes summed."""
    h = (Q @ w.conj()).conj()
    w = w - h @ Q
    h2 = (Q @ w.conj()).conj()
    return w - h2 @ Q, h + h2


def _anchor_factors(T: Tensor3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: normalized partial traces of the dominant vector
    of :func:`_dominant_pair`."""
    N = T.N
    p3 = _dominant_pair(T)[1].reshape(N, N, N)
    outs = []
    for pattern in ("ajk,bjk->ab", "jak,jbk->ab", "jka,jkb->ab"):
        rho = np.einsum(pattern, p3, p3.conj())
        rho = (rho + rho.conj().T) / 2.0
        nrm = np.linalg.norm(rho)
        outs.append(rho / nrm if nrm > 0 else np.eye(N) / np.sqrt(N))
    return tuple(outs)


def _pauli_table(T: Tensor3) -> np.ndarray:
    """The ALS table C = `pauli.fourier(T)` / N^{3/2}, (d, d, d) with d = N^2.

    A Hermitian tensor's table is real, and C is returned as one real array
    (the real part of a general tensor's computed table, whose imaginary
    part is rounding).  Any other tensor's C is complex and is returned as
    two real planes (2, d, d, d), Re C and Im C.  Either is filled slab by
    slab from `pauli._table_slabs` and divided in place, bit for bit
    `fourier`'s table over N^{3/2}, with no complex table formed.
    """
    from .pauli import _table_slabs  # pauli imports this module

    d = T.N * T.N
    herm = T.is_hermitian()
    C = np.empty((d, d, d) if herm else (2, d, d, d))
    for ps, slab in _table_slabs(T):
        if herm:
            C[ps] = slab.real
        else:
            C[0, ps], C[1, ps] = slab.real, slab.imag
    C /= T.N**1.5
    return C


def _qubit_trilinear(T: Tensor3) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The exact trilinear norm of the N = 2 sampled tensor T, in closed
    form, and its maximizing (X, Y, Z).

    The collision mask and real g leave T's Pauli table (see
    :func:`_pauli_table`) four nonzero entries, a, b, c, d = C[X,X,X],
    C[X,Y,Y], C[Y,X,Y], C[Y,Y,X]: every other string holds I or Z, which the
    mask zeroes, or an odd number of Y, which is 0 for real g.  A factor
    with coordinates (cos α, sin α) on (X, Y) leaves the 2 x 2 slice
    [[a cos α, c sin α], [d sin α, b cos α]] for the other two, whose best
    pair of unit coordinate vectors is its top singular pair, with value
    sigma_max(u) = (sqrt((a+b)^2 u + (c-d)^2 (1-u))
    + sqrt((a-b)^2 u + (c+d)^2 (1-u))) / 2 at u = cos^2 α.  Each root is
    concave in u, so the maximum over [0, 1] lies at 0, at 1 or at the one
    stationary point, which exists only where the two roots' slopes have
    opposite signs; the first of these candidates with the largest value
    wins.  Returns that value and the factors, each leaving through
    `pauli._matrices` as the table ALS's witness does.
    """
    from .pauli import _matrices  # pauli imports this module

    C = _pauli_table(T)
    a, b, c, d = C[1, 1, 1], C[1, 2, 2], C[2, 1, 2], C[2, 2, 1]
    A1, B1, A2, B2 = (a + b) ** 2, (c - d) ** 2, (a - b) ** 2, (c + d) ** 2

    def twice_sigma(u):
        return np.sqrt(A1 * u + B1 * (1.0 - u)) + np.sqrt(A2 * u + B2 * (1.0 - u))

    us = [0.0, 1.0]
    P, Q = A1 - B1, A2 - B2  # the slopes under the two roots
    if P * Q < 0.0:  # the stationary point, squared: P^2 (B2 + Q u) = Q^2 (B1 + P u)
        u = (Q * Q * B1 - P * P * B2) / (P * Q * (P - Q))
        if 0.0 < u < 1.0:
            us.append(u)
    u = max(us, key=twice_sigma)
    x1, x2 = np.sqrt(u), np.sqrt(1.0 - u)
    U, s, Vh = np.linalg.svd(np.array([[a * x1, c * x2], [d * x2, b * x1]]))
    coords = np.zeros((3, 4))
    coords[:, 1:3] = (x1, x2), U[:, 0], Vh[0]
    X, Y, Z = _matrices(coords) / np.sqrt(T.N)
    return float(s[0]), (X, Y, Z)


def _als(T: Tensor3, restarts: int, max_iters: int, tol: float, seed: int, on_sweep):
    """The ALS of :func:`trilinear_norm_lower`, as (best value, (X, Y, Z))."""
    N = T.N
    starts = np.empty((3, restarts, N, N), dtype=np.complex128)
    starts[:, 0] = _anchor_factors(T)
    if restarts > 1:
        # restart r draws X, Y, Z in turn from (seed, r), each the Hermitian
        # part of a complex gaussian matrix (real parts first), unit norm
        draws = np.array(
            [
                np.random.default_rng(np.random.SeedSequence(entropy=(seed, r))).standard_normal((3, 2, N, N))
                for r in range(1, restarts)
            ]
        )
        M = draws[:, :, 0] + 1j * draws[:, :, 1]
        H = (M + M.conj().transpose(0, 1, 3, 2)) / 2.0
        re, im = (part.reshape(restarts - 1, 3, -1) for part in (H.real, H.imag))
        nrm = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))  # as np.linalg.norm sums
        ok = nrm > 0.0
        H /= np.where(ok, nrm, 1.0)[:, :, None, None]
        H[~ok] = np.eye(N) / np.sqrt(N)
        starts[:, 1:] = H.transpose(1, 0, 2, 3)

    def stop(prev, v, old, new):
        return v - prev < tol * np.maximum(prev, 1e-300)

    if T.raw_g is None or N <= _TABLE_MAX_N:
        from .pauli import _coefficients, _matrices  # pauli imports this module

        coords = _coefficients(starts.conj()).real / np.sqrt(N)
        rule = _unit_factor if T.is_hermitian() else _phase_factor
        # the table is passed on unnamed, so it is freed once the ascent returns
        best_val, factors = _lockstep_ascent(_array_maps(_pauli_table(T)), rule, coords, max_iters, stop, on_sweep)
        return best_val, tuple(_matrices(np.stack(factors)) / np.sqrt(N))
    enter, hold = _mode_contraction(T)
    return _lockstep_ascent(hold, _hermitian_factor, enter(starts), max_iters, stop, on_sweep)


def trilinear_norm_lower(
    T: Tensor3,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
    on_sweep=None,
) -> tuple[float, TrilinearWitness]:
    """A certified lower bound on the trilinear norm max |<T, X⊗Y⊗Z>| over
    Hermitian unit-Frobenius balls, and the witness that attains it.

    A sampled tensor with N = 2 (given by g, n = 1) gets the exact norm in
    closed form (see :func:`_qubit_trilinear`), with no ascent; restarts,
    max_iters, tol, seed and on_sweep do not apply to it (on_sweep is never
    called), though they are validated as for any other tensor.

    Every other tensor gets alternating maximization (the ALS).  Each mode
    update is the exact closed-form maximizer with the other two factors
    held fixed, so the objective never decreases within a run, and each
    keeps a restart's old factor where its image vanishes.  The update
    rules take the ascent's protocol, so each is passed to it as it is.  One
    restart starts from the dominant-eigenvector partial traces; the rest
    start from seeded random Hermitian matrices (restart r draws from (seed,
    r)), drawn and normalized as one stack.  All restarts advance in
    lockstep (see :func:`_lockstep_ascent`, where one hold of a factor
    serves two updates); a restart leaves after the sweep whose gain falls
    below tol times its previous value, or after max_iters sweeps.  The best
    value across restarts (the first, on a tie) is returned together with
    the achieving witness.

    Every tensor given by its matrix, and a sampled tensor with N = 4
    (`_TABLE_MAX_N`), ascends on its Pauli table C = `pauli.fourier(T)` /
    N^{3/2} (see :func:`_pauli_table`) through :func:`_array_maps`.  Each
    factor is then its real coordinate vector in the orthonormal basis
    conj(P_p)/sqrt(N): a start F enters as x_p = Re <conj(F), P_p>/sqrt(N)
    (`pauli._coefficients`), and the witness leaves as X = Σ_p x_p
    conj(P_p)/sqrt(N) (`pauli._matrices`).
    A Hermitian tensor's table is real and the update is x = a/||a|| with
    value ||a|| (see :func:`_unit_factor`); any other tensor's table is two
    real planes, every map is a real GEMM against them, and the update is
    the phase rotation of :func:`_phase_factor`.  A sampled tensor with
    N >= 8 ascends on g through the maps of :func:`_mode_contraction`, its
    starts passed once through their `enter`, with the update
    X = (conj(A) + A^T) / ||conj(A) + A^T||_F (see :func:`_hermitian_factor`).

    on_sweep, when given, is called as on_sweep(restart, iteration, value)
    once per unconverged restart per sweep, in iteration-major order: every
    restart still running reports iteration i, in increasing restart order,
    before any reports iteration i + 1.

    A sweep costs 1.5 passes over the table, O(N^6 R), and O(N^4 R) on g.
    The winner, closed-form or not, is paired again by
    :func:`trilinear_eval`, on g for a sampled tensor and on the matrix view
    for any other, so the table route never rereads the table that produced
    its value; that pairing is the returned value and the witness's.
    ValueError is raised when it differs from the computed value by more
    than 1e-9 relative.  ValueError is also raised up front for restarts or
    max_iters below 1 and for a tol that is negative or not finite (a NaN
    tol would never stop a restart).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if _closed_form(T):
        route, (best_val, (X, Y, Z)) = "closed-form", _qubit_trilinear(T)
    else:
        route, (best_val, (X, Y, Z)) = "ALS", _als(T, restarts, max_iters, tol, seed, on_sweep)
    # the table route's table went with its ascent, so it is never held
    # beside the pairing's transient copy of a general tensor's matrix
    value = trilinear_eval(T, X, Y, Z)
    if abs(abs(value) - best_val) > 1e-9 * max(abs(value), best_val):
        raise ValueError(f"{route} value {best_val!r} does not match its witness ({abs(value)!r})")
    return abs(value), TrilinearWitness(X=X, Y=Y, Z=Z, value=value)


@lru_cache(maxsize=8)
def _net_frame(N: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The net-invariant arrays of the net upper bound at (N, eps), read-only.

    E stacks the flattened elements of every projector net, (m, N^2) in
    row-major (i, i'); trace[p] = -tr(E[p]) vec I ⊗ vec I is the trace term
    -vec I ⊗ vec I ⊗ vec I contracted with E[p].
    """
    from . import nets

    E = np.concatenate([nets.projector_net(N, k, eps).elements for k in range(1, N + 1)])
    E = E.reshape(-1, N * N)
    vec_i = np.eye(N).reshape(-1)
    trace = -(E @ vec_i)[:, None, None] * np.outer(vec_i, vec_i)
    E.setflags(write=False)
    trace.setflags(write=False)
    return E, trace


def _net_forms(T: Tensor3, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The net bound's stacked net elements E, (m, N^2); its folded forms
    M1, (m, N^2, N^2), one per first factor; and their pruning bounds
    sigma_max(M1[p]), from one stacked `eigvalsh` of the Grams M1[p]^H M1[p]."""
    N = T.N
    E, trace = _net_frame(N, eps)
    # the unmasked g g^T with each player's index pair (i, i') adjacent, so
    # <g| X⊗Y⊗Z |g> pairs it with the flattened factors; tr X = <vec I, vec X>,
    # so folding the trace term into it makes the deviation one trilinear form
    Wg = np.outer(T.raw_g, T.raw_g).reshape(N, N, N, N, N, N).transpose(0, 3, 1, 4, 2, 5)
    M1 = (E @ Wg.reshape(N * N, -1)).reshape(trace.shape) + trace
    sigma = np.sqrt(np.linalg.eigvalsh(M1.conj().transpose(0, 2, 1) @ M1)[:, -1])
    return E, M1, sigma


def trilinear_norm_upper_net(T: Tensor3, eps: float) -> float:
    """Certified upper bound on the trilinear norm via the projector triple net.

    Only supported at N = 2, and only for tensors carrying their raw sampling
    vector g (the bound is a statement about masked outer-product tensors).
    The bound is

        64 (ln N)^{3/2} ( max |<g| X⊗Y⊗Z |g> - tr(X⊗Y⊗Z)| + 3 eps (N^{3/2} + ||g||^2) )

    with the max taken over the triple net at resolution eps.

    The max is exact but pruned.  With the trace term folded into the mode
    view, the deviation at (E[p], E[q], E[r]) is |E[q] M1[p] E[r]^T|, where
    M1[p] is the folded form contracted with E[p].  Every net element has
    unit Frobenius norm, so by Cauchy-Schwarz ||E[q] M1[p]|| bounds the
    deviation at every r, and sigma_max(M1[p]) bounds it at every (q, r).
    sigma_max(M1[p]) is the square root of the largest eigenvalue of the
    N^2 x N^2 Gram M1[p]^H M1[p], one stacked `eigvalsh` for all p, which
    is accurate to a few units in 1e-16 relative.  The best value starts at
    one evaluated deviation, a lower bound on the maximum.  X is visited in
    decreasing sigma_max, the loop stops once sigma_max (1 + 1e-12) is at
    most the best value so far, and a visited X evaluates only the Y rows
    whose bound, with the same margin, exceeds it.  A skipped triple's
    deviation is at most its bound, and the margin covers the rounding of
    bound and value, so the skipped triples cannot raise the maximum.  The
    nets and the arrays built from them alone are made once per (N, eps).
    """
    if T.N != 2:
        raise ScaleError("net upper bound is only certified at N = 2")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if T.raw_g is None:
        raise ValueError("tensor carries no raw sampling vector; bound not applicable")
    g = T.raw_g
    N = T.N
    E, M1, sigma = _net_forms(T, eps)
    order = np.argsort(-sigma, kind="stable")
    # seeded with one true deviation, so the first visit prunes too: the
    # first X, its Y row of largest bound, and the maximum over Z
    R = E @ M1[order[0]]
    max_dev = float(np.abs(R[np.argmax(np.linalg.norm(R, axis=1))] @ E.T).max())
    for p in order:
        if sigma[p] * (1.0 + _PRUNE_MARGIN) <= max_dev:
            break
        R = E @ M1[p]
        keep = np.linalg.norm(R, axis=1) * (1.0 + _PRUNE_MARGIN) > max_dev
        max_dev = max(max_dev, float(np.abs(R[keep] @ E.T).max(initial=0.0)))
    gnorm2 = float(g @ g)
    prefactor = 64.0 * np.log(N) ** 1.5
    return float(prefactor * (max_dev + 3.0 * eps * (N**1.5 + gnorm2)))


def _hermitian_part(A: np.ndarray, At: np.ndarray, part: str) -> np.ndarray:
    """The "sym" part (A + conj(At))/2 or the "anti" part i(A - conj(At))/2,
    for At the matching entries of the transpose, as one fresh C-ordered
    buffer: conj(At) into it, then A added to it or it subtracted from A, in
    place, then multiplied by i for "anti" and halved.  Entry for entry these
    are the expressions' own operations (IEEE addition commutes), so every
    block and the whole matrix match (M + M^H)/2 and i(M - M^H)/2 bit for bit."""
    out = np.conjugate(At, out=np.empty(A.shape, np.complex128))
    if part == "sym":
        out += A
    else:
        np.subtract(A, out, out=out)
        out *= 1j
    out /= 2.0
    return out


def hermitize(T: Tensor3) -> Tensor3:
    """Return the better of (T + T†)/2 and i(T - T†)/2 by spectral norm.

    An input that `is_hermitian` (bit for bit) is returned as is: its
    symmetric part is the same matrix, so the raw sampling vector and any
    cached eigenpair stay with it, and a sampled tensor's matrix is neither
    built nor compared.  Otherwise each candidate is the hermitized part
    given by T's matrix and the part (see :class:`Tensor3`), and gets one
    Lanczos top eigenpair, the antisymmetric part's first; the winner is
    cached on T and returned with its eigenpair cached and no raw vector,
    and ties go to the symmetric part.  A candidate's matrix is built when
    its Lanczos reads it and dropped when that returns, so one N^6 buffer
    is live at a time and the winner holds none.

    Both candidates are Hermitian bit for bit (see :func:`_hermitian_part`):
    entry (j, i) of M + M^H is M_ji + conj(M_ij), the conjugate of entry
    (i, j) because IEEE addition commutes and conjugation is exact; likewise
    M - M^H is exactly anti-Hermitian, since a - b = -(b - a) in IEEE
    arithmetic.  Halving and multiplying by i (which swaps the components and
    negates one) act on each component alone, so they keep the symmetry.
    """
    if T.is_hermitian():
        return T
    if T._hermitized is None:
        cand_s, cand_a = Tensor3(T.n, T.matrix, part="sym"), Tensor3(T.n, T.matrix, part="anti")
        T._hermitized = cand_a if spectral_norm(cand_a) > spectral_norm(cand_s) else cand_s
    return T._hermitized


def save_tensor(path, T: Tensor3) -> None:
    """Write the tensor in the XGT1 binary format.

    Layout: magic "XGT1", little-endian u32 n, u32 flags, then the body.  With
    flag bit 0 set the body is the raw vector g as N^3 float64 values; with
    flags 0 it is the N^6 matrix entries as complex float64 pairs, rows
    (i,j,k) by columns (i',j',k'), row-major.  A sampled tensor is written as
    g alone, so its matrix is never built.
    """
    flags = _FLAG_RAW_G if T.raw_g is not None else 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", T.n, flags))
        # the array's own buffer, copied only where the machine is not little-endian
        body = T.raw_g.astype("<f8", copy=False) if T.raw_g is not None else T.matrix.astype("<c16", copy=False)
        fh.write(body.data)


def load_tensor(path) -> Tensor3:
    """Read a tensor written by :func:`save_tensor`.

    A raw-vector file yields the tensor given by g.  Raises ValueError for a
    bad magic, a flag bit other than bit 0, a header whose n does not match
    the file size, or a NaN or infinite entry.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not an XGT1 file (magic {magic!r})")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError("truncated XGT1 header")
        n, flags = struct.unpack("<II", header)
        if flags & ~_FLAG_RAW_G:
            raise ValueError(f"XGT1 header has unknown flag bits {flags:#x}")
        raw = bool(flags & _FLAG_RAW_G)
        size = os.fstat(fh.fileno()).st_size
        # the body alone takes 2^(3n+3) bytes as g, 2^(6n+4) as the matrix;
        # compare exponents first so a corrupt n never builds a huge integer
        body_bits = 3 * n + 3 if raw else 6 * n + 4
        if body_bits >= size.bit_length() or size != 12 + 2**body_bits:
            raise ValueError(f"XGT1 header n={n} does not match the file size {size}")
        N = 2**n
        if raw:
            g = np.frombuffer(fh.read(8 * N**3), dtype="<f8")
            if not np.isfinite(g).all():
                raise ValueError("XGT1 raw vector holds a NaN or infinite entry")
            return Tensor3(n, raw_g=g)
        M = np.frombuffer(fh.read(16 * N**6), dtype="<c16").reshape(N**3, N**3)
    if not np.isfinite(M).all():
        raise ValueError("XGT1 matrix holds a NaN or infinite entry")
    return Tensor3(n, M)
