"""Paired-index 3-tensors over n qubits: sampling, norms, and binary io.

A tensor here has shape (N^2, N^2, N^2) with N = 2^n, each axis indexed by an
ordered pair (i, i') of local indices.  Grouping rows (i, j, k) against columns
(i', j', k') turns the same data into an N^3 x N^3 complex matrix; both views
are used throughout.  The central object is the randomly sampled tensor whose
matrix view is the outer product of a length-N^3 vector with itself, with every
entry killed whenever any of the three index pairs collides.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ScaleError

_MAGIC = b"XGT1"
_FLAG_RAW_G = 1

_HERM_TOL = 1e-12
_PRUNE_MARGIN = 1e-12  # relative rounding slack of the net maximum's pruning bounds


@dataclass(frozen=True)
class SamplerConfig:
    """How to draw the underlying length-N^3 vector g.

    distribution is one of "gaussian" (i.i.d. standard normals), "bernoulli"
    (i.i.d. uniform +/-1 signs) or "override" (caller supplies the raw vector).
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
    columns (i', j', k'), both row-major).  A sampled tensor is its raw
    vector g: its matrix view, g g^T under the collision mask, is built on
    first read and cached.  Passing both, or neither, raises ValueError.  A
    tensor with g is exactly Hermitian by construction, and its spectral and
    trilinear norms never build the matrix: the Lanczos top eigenpair
    multiplies by g, the ALS and `trilinear_eval` contract it, and it
    certifies the net upper bound.  A general tensor's top eigenpair or
    singular pair comes from the same solver multiplying by the matrix; each
    pair is cached on the tensor.
    """

    __slots__ = ("n", "N", "_matrix", "raw_g", "_eig", "_herm", "_exact_herm", "_sv", "_hermitized")

    def __init__(self, n: int, matrix: np.ndarray | None = None, raw_g: np.ndarray | None = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if (matrix is None) == (raw_g is None):
            raise ValueError("a tensor is given by exactly one of its matrix view and its raw vector")
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
        self._matrix = matrix
        self.raw_g = raw_g
        self._eig = None
        self._herm = None
        self._exact_herm = True if raw_g is not None else None  # True, False, or None until known
        self._sv = None
        self._hermitized = None

    @property
    def matrix(self) -> np.ndarray:
        """The N^3 x N^3 matrix view; for a sampled tensor built from g on first read."""
        if self._matrix is None:
            self._matrix = np.ascontiguousarray(_masked_outer(self.raw_g, self.N), dtype=np.complex128)
            self._matrix.setflags(write=False)
        return self._matrix

    def mode_view(self) -> np.ndarray:
        """Return the ((i,i'), (j,j'), (k,k')) three-axis view, shape (N^2,)*3."""
        N = self.N
        t6 = self.matrix.reshape(N, N, N, N, N, N)  # i j k i' j' k'
        return np.ascontiguousarray(
            t6.transpose(0, 3, 1, 4, 2, 5).reshape(N * N, N * N, N * N)
        )

    def is_hermitian(self) -> bool:
        """Whether the matrix view is Hermitian to 1e-12 of its largest entry
        (at least 1); computed once, since the tensor is immutable.  A tensor
        known to be exactly Hermitian (one with a raw vector, or a `hermitize`
        candidate) skips the N^6 comparison."""
        if self._herm is None:
            if self._exact_herm:
                self._herm = True
            else:
                M = self.matrix
                scale = max(1.0, np.abs(M).max())
                self._herm = bool(np.abs(M - M.conj().T).max() <= _HERM_TOL * scale)
        return self._herm

    def frobenius_norm(self) -> float:
        """||M||_F of the matrix view; for a sampled tensor O(N^3) from g as
        sqrt((g^2)^T (J - I)^{⊗3} g^2), so its matrix is never built."""
        if self.raw_g is None:
            return float(np.linalg.norm(self.matrix))
        g2 = self.raw_g * self.raw_g
        return float(np.sqrt(g2 @ _masked_product(g2, self.N)))

    @classmethod
    def from_mode_view(cls, n: int, W: np.ndarray) -> "Tensor3":
        N = 2**n
        if W.shape != (N * N, N * N, N * N):
            raise DimensionError(f"mode view must be ({N*N},)*3, got {W.shape}")
        t6 = W.reshape(N, N, N, N, N, N)  # (i i') (j j') (k k')
        M = t6.transpose(0, 2, 4, 1, 3, 5).copy().reshape(N**3, N**3)
        M.setflags(write=False)
        return cls(n, M)


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
    j == j' or k == k'.  The result is given by g alone; its matrix view is
    built only if something reads it.
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


def _lanczos_extremes(matvec, dim: int, dtype) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Both extreme eigenpairs of a Hermitian operator, as (low, u, high, v).

    Lanczos with full reorthogonalisation (two classical Gram-Schmidt passes)
    from the fixed start vector default_rng(0).standard_normal(dim).  It stops
    when the lowest and the highest Ritz pairs both have residual
    beta_k |s_k| <= 1e-14 max|theta|, which also covers an invariant Krylov
    space (beta_k = 0), or when the basis spans all dim directions.  The
    basis grows by doubling, so memory follows the iteration count.
    """
    q = np.random.default_rng(0).standard_normal(dim).astype(dtype)
    q /= np.linalg.norm(q)
    V = np.empty((min(dim, 32), dim), dtype=dtype)
    alpha, beta = [], []
    k = check = 1
    tol = 0.0
    while True:
        if k > V.shape[0]:
            grow = min(dim, 2 * V.shape[0]) - V.shape[0]
            V = np.concatenate([V, np.empty((grow, dim), dtype=dtype)])
        V[k - 1] = q
        Vk = V[:k]
        w = matvec(q)
        h = (Vk @ w.conj()).conj()
        w = w - h @ Vk
        h2 = (Vk @ w.conj()).conj()  # the second pass restores orthogonality
        w = w - h2 @ Vk
        alpha.append(float(h[-1].real + h2[-1].real))
        b = float(np.linalg.norm(w))
        if k == check or k == dim or b <= tol:
            # the tridiagonal is solved every step up to 8, then about every
            # k/8 steps (at most 1/8 extra iterations), and at once when b
            # falls below the last tolerance, which stops the run
            check = k + max(1, k // 8)
            Tk = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, S = np.linalg.eigh(Tk)
            tol = _LANCZOS_TOL * max(abs(theta[0]), abs(theta[-1]))
            if k == dim or max(abs(S[-1, 0]), abs(S[-1, -1])) * b <= tol:
                break
        beta.append(b)
        q = w / b
        k += 1
    return theta[0], S[:, 0] @ Vk, theta[-1], S[:, -1] @ Vk


def top_eigenpair(T: Tensor3) -> tuple[float, np.ndarray]:
    """Eigenvalue of largest magnitude and its eigenvector (Hermitian input).

    One Lanczos run (see :func:`_lanczos_extremes`) follows both ends of the
    spectrum, and the end of larger magnitude wins.  When +s and -s are both
    eigenvalues of magnitude equal to the spectral norm, the positive branch
    is returned, so the eigenvector realizes the spectral norm as a positive
    quadratic form whenever possible.  A sampled tensor never builds its
    matrix: its product is x -> g∘((J - I)^{⊗3}(g∘x)), O(N^3) per product
    (see :func:`_masked_product`).  Any other tensor multiplies by its
    matrix view.
    The pair is checked once with the same product, and ValueError is raised
    when ||A psi - lambda psi|| exceeds 1e-9 |lambda| (or is not a number).
    """
    if not T.is_hermitian():
        raise ValueError("top_eigenpair needs a Hermitian matrix view")
    if T._eig is None:
        N = T.N
        if T.raw_g is None:
            matvec, dtype = T.matrix.dot, np.complex128
        else:
            g = T.raw_g

            def matvec(x):
                return g * _masked_product(g * x, N)

            dtype = np.float64
        low, u, high, v = _lanczos_extremes(matvec, N**3, dtype)
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


def spectral_norm(T: Tensor3) -> float:
    """Largest singular value of the matrix view.

    Hermitian inputs go through the Lanczos top eigenpair (retaining the top
    eigenvector; a sampled tensor's matrix is never built); general inputs go
    through the same solver on the Hermitian dilation (see
    :func:`_top_singular`), whose top singular pair is cached for the ALS
    anchor.  No SVD and no dense eigensolve of the matrix view runs.
    """
    if T.is_hermitian():
        lam, _ = top_eigenpair(T)
        return abs(lam)
    return _top_singular(T)[0]


def trilinear_eval(T: Tensor3, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> complex:
    """Pair the tensor with X ⊗ Y ⊗ Z entrywise: sum T[(ii'),(jj'),(kk')] X[ii'] Y[jj'] Z[kk'].

    Computed as <contract_z(X, Y), Z> with the ALS's mode maps (see
    :func:`_mode_contraction`), X and Y passed through its `enter` once:
    O(N^4) from g for a sampled tensor, whose matrix is never built, and two
    GEMMs on the mode view otherwise.
    """
    N = T.N
    for name, M in (("X", X), ("Y", Y), ("Z", Z)):
        if np.shape(M) != (N, N):
            raise DimensionError(f"{name} must be {N}x{N}")
    enter, _, contract_z = _mode_contraction(T)
    return _pair(contract_z, enter(np.asarray(X)), enter(np.asarray(Y)), Z)


def _pair(contract_z, X: np.ndarray, Y: np.ndarray, Z) -> complex:
    """<contract_z(X, Y), Z> for one factor triple."""
    return complex(np.sum(contract_z(X[None], Y[None])[0] * Z))


def _best_hermitian_factor(A: np.ndarray, old: np.ndarray | None = None):
    """Maximize |sum A[r]∘X[r]| over Hermitian X[r] with ||X[r]||_F <= 1, for each r.

    A is a stack (R, N, N).  With B = conj(A) the objective is |<B, X>_F|,
    the largest over phases φ of Re<C, X> = <(C + C^H)/2, X> with
    C = e^{-iφ} B.  For one phase the maximizer is X = (C + C^H)/||C + C^H||_F,
    reaching ||C + C^H||_F / 2, and ||C + C^H||_F^2 = 2||B||_F^2 +
    2 Re(e^{-2iφ} u) with u = tr(B B).  So the best phase is θ = arg(u)/2 and
    the maximum is sqrt((||A||_F^2 + |u|)/2): a few array operations, no
    eigensolve.  Writing B = H1 + i H2 with H1, H2 Hermitian, the maximizer
    is cos θ H1 + sin θ H2, normalized: the top eigenvector of the 2x2 Gram
    matrix of (H1, H2), since u = g11 - g22 + 2i g12.

    Sign: θ lies in (-π/2, π/2], so X has a nonnegative component along H1
    (a positive one along H2 when that is zero).  When u = 0 every phase is
    optimal and θ = 0.  Returns (X, val, ok) as :func:`_hermitian_factor`
    does: where A[r] vanishes, ok[r] is False, val[r] is 0 and X[r] is
    old[r], or zero when old is None.
    """
    B = A.conj()
    u = np.einsum("rij,rji->r", B, B)
    val = np.sqrt((np.einsum("rij,rij->r", A, B).real + np.abs(u)) / 2.0)
    ok = val > 0.0
    # C = e^{-iθ} B / ||C + C^H||, so that X = C + C^H has unit norm
    C = B * (np.exp(-0.5j * np.angle(u)) / (2.0 * np.where(ok, val, 1.0)))[:, None, None]
    X = C + C.conj().transpose(0, 2, 1)
    if old is not None and not ok.all():
        X = np.where(ok[:, None, None], X, old)
    return X, val, ok


def _hermitian_factor(A: np.ndarray, old: np.ndarray | None = None):
    """The mode update of a Hermitian tensor: X[r] = (conj(A[r]) + A[r]^T) / norm.

    For a Hermitian tensor and Hermitian factors every mode image A is
    Hermitian, so the phase rotation of :func:`_best_hermitian_factor` is
    the identity (u = tr(conj(A)^2) = ||A||_F^2 >= 0) and its maximizer is
    conj(A) normalized.  Writing it as conj(A) + A^T keeps X Hermitian bit
    for bit whatever the rounding in A; the value is ||conj(A) + A^T||_F / 2
    = Re sum A∘X.  Returns (X, val, ok): where A[r] vanishes, ok[r] is
    False, val[r] is 0 and X[r] is old[r], or zero when old is None.  The
    update is one norm and one in-place divide; only a vanished slice costs
    the np.where.
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
        if old is not None:
            X = np.where(ok[:, None, None], X, old)
    return X, norm / 2.0, ok


def _array_maps(W: np.ndarray):
    """The mode maps of a dense (d, d, d) array on stacks of R factors, as
    (hold_z, contract_z).

    A factor stack has shape (R, *shape) with d entries per factor (N x N
    matrices against a tensor's mode view, sign vectors of length Q against
    a game's cost tensor), and every map returns a stack of that shape.
    hold_z(Z) sums W against Z on mode 2 once, as U = W ×3 Z, and returns
    contract_xy(mode, F), which sums U against F on the other of modes 0, 1
    and returns the image on the remaining mode: one GEMM for U, then one
    batched product per mode.  contract_z(X, Y) sums against X and Y and
    returns the image on mode 2.  Factors may be real or complex, read-only
    or not.  O(d^3 R) per map.
    """
    d = W.shape[0]
    W_ab_c = W.reshape(d * d, d)
    W_a_bc = W.reshape(d, d * d)

    def hold_z(Z):
        R = Z.shape[0]
        U = (Z.reshape(R, d) @ W_ab_c.T).reshape(R, d, d)  # (r, a, b)

        def contract_xy(mode, F):
            f = F.reshape(R, d)
            if mode == 0:
                A = (U @ f[:, :, None])[:, :, 0]
            else:
                A = (f[:, None, :] @ U)[:, 0, :]
            return A.reshape(F.shape)

        return contract_xy

    def contract_z(X, Y):
        R = X.shape[0]
        V = (X.reshape(R, d) @ W_a_bc).reshape(R, d, d)  # (r, b, c)
        return (Y.reshape(R, 1, d) @ V)[:, 0, :].reshape(X.shape)

    return hold_z, contract_z


def _mode_contraction(T: Tensor3):
    """The ALS mode maps of a tensor on stacks of R restarts, as
    (enter, hold_z, contract_z).

    hold_z and contract_z are the maps of :func:`_lockstep_ascent` on
    (R, N, N) factor stacks; they read factors only as `enter` returns them,
    and every factor update built from their images keeps that form.  A
    tensor given by its matrix hands its mode view to :func:`_array_maps`,
    and enter leaves a stack as it is.

    A tensor carrying its sampling vector is g g^T under the collision mask
    (J - I)^{⊗3}, and enter returns a complex, C-ordered copy of a stack
    with zero diagonals: the mask pairs nothing with a diagonal entry.  The
    start stacks, `trilinear_eval`'s arguments and the classical ascent's
    factor transform each pass through it once.  With G = g.reshape(N, N, N),
    the mode moved first, and F0, H0 entered factors,
    A[r, a, a'] = offdiag(sum P[r, a, c, b'] S[r, a', b', c]), where
    P = G ×2 F0 and S = G ×3 H0.  G is real, so P and S are real GEMMs of G
    against the (re, im) float view of the factor stack, one BLAS call per
    restart; A is one complex GEMM per restart against S transposed to
    P's (c, b') order: O(N^4 R) in all.  As the dense map does with U,
    hold_z forms S = G ×3 Z0 once, and the maps of modes 0 and 1 both read
    it, each through its own transposed copy: (c, b') order for mode 0,
    (c, a') for mode 1.  A held map stays valid until the next hold_z;
    contract_z forms its S = G ×2 Y0 elsewhere.  S, the GEMM output and the
    transposed copy are work arrays the maps keep between calls, with
    their views for each stack size, so a sweep at N >= 16 does not
    page-fault fresh memory on every map.
    """
    N = T.N
    N2 = N * N
    if T.raw_g is None:
        return (lambda F: F), *_array_maps(T.mode_view())

    G = T.raw_g.reshape(N, N, N)
    off = 1.0 - np.eye(N)
    # G with rows (a', b') against the contracted c, for S = G ×3 Z0, and
    # rows (c', a') against the contracted b, for mode 2's S = G ×2 Y0
    by_c = [np.ascontiguousarray(Gm).reshape(N2, N) for Gm in (G, G.transpose(2, 0, 1))]
    # G with each mode moved first, rows (a, c) against the contracted b, for P
    by_b = [np.ascontiguousarray(G.transpose(axes)).reshape(N2, N) for axes in ((0, 2, 1), (1, 2, 0), (2, 1, 0))]
    arrays = []  # held S, the GEMM output and S's transposed copy, for the most restarts seen
    views = {}  # R -> views of `arrays` for R restarts

    def work(R):
        if R not in views:
            if not arrays or len(arrays[0]) < R:
                views.clear()
                arrays[:] = np.empty((2, R, N2, 2 * N)), np.empty((R, N, N2), np.complex128)
            held, gemm = arrays[0][:, :R]
            St = arrays[1][:R]
            S, S2 = (out.view(np.complex128).reshape(R, N, N, N) for out in (held, gemm))
            views[R] = (
                held,
                gemm,
                S2.reshape(R, N, N2),  # P, (r, a, (c, b')), on the GEMM output after S2 is copied
                # the copy's source for each mode, in P's order: (r, a', c, b'),
                # (r, b', c, a') and (r, c', b, a')
                (S.transpose(0, 1, 3, 2), S.transpose(0, 2, 3, 1), S2.transpose(0, 1, 3, 2)),
                St.reshape(R, N, N, N),
                St.transpose(0, 2, 1),  # (r, (c, b'), a'), as A = P @ St^T reads it
            )
        return views[R]

    def enter(F):
        return np.multiply(F, off, dtype=np.complex128, order="C")

    def transposed(H):  # an entered stack transposed, as the S GEMMs read it
        return np.ascontiguousarray(H.transpose(0, 2, 1)).view(np.float64)

    def mode_map(w, mode, F0):  # A from P = G ×2 F0 and S copied to P's (c, b') order
        _, gemm, P, S_t, St, StT = w
        np.copyto(St, S_t[mode])
        np.matmul(by_b[mode], F0.view(np.float64), out=gemm)
        A = P @ StT
        A.reshape(len(A), -1)[:, :: N + 1] = 0.0  # the collision mask on A's mode
        return A

    def hold_z(Z):
        w = work(len(Z))
        np.matmul(by_c[0], transposed(Z), out=w[0])  # S, (r, a', b', c)
        return lambda mode, F: mode_map(w, mode, F)

    def contract_z(X, Y):
        w = work(len(X))
        np.matmul(by_c[1], transposed(Y), out=w[1])  # S2, (r, c', a', b)
        return mode_map(w, 2, X)

    return enter, hold_z, contract_z


def _lockstep_ascent(hold_z, contract_z, update, starts, max_sweeps, stop, on_sweep=None):
    """Alternating maximization of a trilinear form from R starts in lockstep.

    starts is a (3, R, ...) stack of the starting factors X, Y, Z, as the
    maps read them.  A sweep holds Z (contract_xy = hold_z(Z)), then updates
    X from contract_xy(0, Y), Y from contract_xy(1, X) and Z from
    contract_z(X, Y), each as update(image, old)[:2] = (new factors, values);
    the values of the Z update are the sweep's.  stop(prev, values, old, new)
    marks the restarts that leave after the sweep, given their values before
    and after it (prev is 0 before the first) and their (X, Y, Z) stacks
    before and after it; a restart also leaves after max_sweeps sweeps.
    Restarts are independent: each keeps its own trajectory, and the running
    ones' stacks are regathered only in a sweep where some leave.

    on_sweep, when given, is called as on_sweep(restart, sweep, value) once
    per running restart per sweep, in sweep-major order: every restart still
    running reports sweep i, in increasing restart order, before any reports
    sweep i + 1.

    Each restart's final factors are written back into starts.  Returns
    (value, (X, Y, Z)) of the first restart with the largest final value.
    """
    X, Y, Z = starts
    R = len(X)
    # X, Y, Z and `last` hold each restart's factors and value once it
    # leaves; Xa, Ya, Za and `prev` are those of the restarts in `act`,
    # still running, after their latest sweep
    last = np.zeros(R)
    act = np.arange(R)
    Xa, Ya, Za, prev = X, Y, Z, np.zeros(R)
    for it in range(max_sweeps):
        contract_xy = hold_z(Za)
        Xn = update(contract_xy(0, Ya), Xa)[0]
        Yn = update(contract_xy(1, Xn), Ya)[0]
        Zn, v = update(contract_z(Xn, Yn), Za)[:2]
        if on_sweep is not None:
            for r, vr in zip(act.tolist(), v.tolist()):
                on_sweep(r, it, vr)
        done = stop(prev, v, (Xa, Ya, Za), (Xn, Yn, Zn))
        Xa, Ya, Za, prev = Xn, Yn, Zn, v
        if np.count_nonzero(done):
            # every running restart is written back, in fewer calls than
            # picking out the leavers; the others are overwritten later
            X[act], Y[act], Z[act], last[act] = Xa, Ya, Za, v
            keep = ~done
            act, Xa, Ya, Za, prev = act[keep], Xa[keep], Ya[keep], Za[keep], v[keep]
            if act.size == 0:
                break
    X[act], Y[act], Z[act], last[act] = Xa, Ya, Za, prev
    best = int(np.argmax(last))
    return float(last[best]), (X[best], Y[best], Z[best])


def _top_singular(T: Tensor3) -> tuple[float, np.ndarray]:
    """Largest singular value of the matrix view and its left singular vector.

    One Lanczos run (see :func:`_lanczos_extremes`) on the Hermitian dilation
    [[0, M], [M^H, 0]], whose eigenvalues are the singular values of M and
    their negatives: its top eigenvalue is sigma_1, and the two halves of its
    eigenvector, normalized, are the singular vectors u and v.  The phase of
    u is arbitrary; the ALS anchor only reads partial traces of u u^H.  The
    pair is checked against the stored matrix, and ValueError is raised when
    ||M v - sigma u|| exceeds 1e-9 sigma (or is not a number).  Cached per
    tensor: `spectral_norm` and the ALS anchor of a non-Hermitian tensor
    share it.
    """
    if T._sv is None:
        M = T.matrix
        D = M.shape[0]

        def matvec(x):  # M^H x1 as conj(x1^H M), so M^H is never formed
            return np.concatenate([M @ x[D:], (x[:D].conj() @ M).conj()])

        _, _, sigma, w = _lanczos_extremes(matvec, 2 * D, np.complex128)
        # M v = sigma u and M^H u = sigma v, so both halves have norm 1/sqrt(2)
        u, v = w[:D] / np.linalg.norm(w[:D]), w[D:] / np.linalg.norm(w[D:])
        res = float(np.linalg.norm(M @ v - sigma * u))
        if not res <= 1e-9 * sigma:
            raise ValueError(f"singular pair residual {res!r} on the stored matrix (sigma {sigma!r})")
        u.setflags(write=False)
        T._sv = (float(sigma), u)
    return T._sv


def _anchor_factors(T: Tensor3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic start: normalized partial traces of the dominant eigenvector."""
    N = T.N
    if T.is_hermitian():
        _, psi = top_eigenpair(T)
    else:
        _, psi = _top_singular(T)
    p3 = psi.reshape(N, N, N)
    outs = []
    for pattern in ("ajk,bjk->ab", "jak,jbk->ab", "jka,jkb->ab"):
        rho = np.einsum(pattern, p3, p3.conj())
        rho = (rho + rho.conj().T) / 2.0
        nrm = np.linalg.norm(rho)
        outs.append(rho / nrm if nrm > 0 else np.eye(N) / np.sqrt(N))
    return tuple(outs)


def trilinear_norm_lower(
    T: Tensor3,
    restarts: int = 8,
    max_iters: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
    on_sweep=None,
) -> tuple[float, TrilinearWitness]:
    """Alternating maximization of |<T, X⊗Y⊗Z>| over Hermitian unit-Frobenius balls.

    Each mode update is the exact closed-form maximizer with the other two
    factors held fixed, so the objective never decreases within a run.  On
    a Hermitian tensor (every sampled one) each mode image A is Hermitian
    and the update is X = (conj(A) + A^T) / ||conj(A) + A^T||_F (see
    :func:`_hermitian_factor`); any other tensor keeps the phase rotation of
    :func:`_best_hermitian_factor`.  Either keeps a restart's old factor
    where its image vanishes.  One restart starts from the
    dominant-eigenvector partial traces; the rest start from seeded random
    Hermitian matrices (restart r draws from (seed, r)), drawn and
    normalized as one stack.  The starts pass once through the maps'
    `enter` (see :func:`_mode_contraction`), and all restarts advance in
    lockstep (see :func:`_lockstep_ascent`); a restart leaves after the
    sweep whose gain falls below tol times its previous value, or after
    max_iters sweeps.  The best value across restarts (the first, on a tie)
    is returned together with the achieving witness; it is a guaranteed
    lower bound on the trilinear norm.

    on_sweep, when given, is called as on_sweep(restart, iteration, value)
    once per unconverged restart per sweep, in iteration-major order: every
    restart still running reports iteration i, in increasing restart order,
    before any reports iteration i + 1.

    A sweep costs O(N^4 R) on a sampled tensor (one carrying its raw vector
    g) and O(N^6 R) on any other tensor.  The winner is paired again through
    the same contraction, and ValueError is raised when that differs from
    its ALS value by more than 1e-9 relative.  ValueError is also raised up
    front for restarts or max_iters below 1 and for a tol that is negative
    or not finite (a NaN tol would never stop a restart).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    N = T.N
    enter, hold_z, contract_z = _mode_contraction(T)

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
    update = _hermitian_factor if T.is_hermitian() else _best_hermitian_factor

    def stop(prev, v, old, new):
        return v - prev < tol * np.maximum(prev, 1e-300)

    best_val, (X, Y, Z) = _lockstep_ascent(hold_z, contract_z, update, enter(starts), max_iters, stop, on_sweep)
    value = _pair(contract_z, X, Y, Z)
    if abs(abs(value) - best_val) > 1e-9 * max(abs(value), best_val):
        raise ValueError(f"ALS value {best_val!r} does not match its witness ({abs(value)!r})")
    return abs(value), TrilinearWitness(X=X, Y=Y, Z=Z, value=value)


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
    X is visited in decreasing sigma_max, the loop stops once
    sigma_max (1 + 1e-12) is at most the best value so far, and a visited X
    evaluates only the Y rows whose bound, with the same margin, exceeds
    it.  A skipped triple's deviation is at most its bound, and the margin
    covers the rounding of bound and value, so the skipped triples cannot
    raise the maximum.
    """
    from . import nets

    if T.N != 2:
        raise ScaleError("net upper bound is only certified at N = 2")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if T.raw_g is None:
        raise ValueError("tensor carries no raw sampling vector; bound not applicable")
    g = T.raw_g
    N = T.N
    E = np.concatenate([nets.projector_net(N, k, eps).elements for k in range(1, N + 1)])
    E = E.reshape(-1, N * N)  # (m, N^2), row-major (i, i')
    Wg = np.outer(g, g).reshape(N, N, N, N, N, N).transpose(0, 3, 1, 4, 2, 5)
    # tr X = <vec I, vec X>, so folding -vec I ⊗ vec I ⊗ vec I into the mode
    # view makes the deviation one trilinear form in the flattened factors
    vec_i = np.eye(N).reshape(-1)
    Wg = Wg.reshape(N * N, N * N, N * N) - np.einsum("a,b,c->abc", vec_i, vec_i, vec_i)
    M1 = np.einsum("abc,pa->pbc", Wg, E)  # (m, N^2, N^2), one form per first factor
    sigma = np.linalg.norm(M1, ord=2, axis=(1, 2))
    max_dev = 0.0
    for p in np.argsort(-sigma, kind="stable"):
        if sigma[p] * (1.0 + _PRUNE_MARGIN) <= max_dev:
            break
        R = E @ M1[p]
        keep = np.linalg.norm(R, axis=1) * (1.0 + _PRUNE_MARGIN) > max_dev
        max_dev = max(max_dev, float(np.abs(R[keep] @ E.T).max(initial=0.0)))
    gnorm2 = float(g @ g)
    prefactor = 64.0 * np.log(N) ** 1.5
    return float(prefactor * (max_dev + 3.0 * eps * (N**1.5 + gnorm2)))


def hermitize(T: Tensor3) -> Tensor3:
    """Return the better of (T + T†)/2 and i(T - T†)/2 by spectral norm.

    An exactly Hermitian input is returned as is: its symmetric part is the
    same matrix bit for bit, so the raw sampling vector and any cached
    eigenpair stay with it.  A tensor with a raw vector is exactly Hermitian
    by construction, so its matrix is neither built nor compared; any other
    input is compared once, and the answer is cached.  Otherwise each
    candidate gets one Lanczos top eigenpair per tensor, and the winner is
    cached on T and returned with its eigenpair cached and no raw vector;
    ties go to the symmetric part.

    Both candidates are marked exactly Hermitian, so neither is scanned
    entry by entry: they are Hermitian bit for bit.  Entry (j, i) of
    M + M^H is M_ji + conj(M_ij), the conjugate of entry (i, j) because IEEE
    addition commutes and conjugation is exact; likewise M - M^H is exactly
    anti-Hermitian, since a - b = -(b - a) in IEEE arithmetic.  Halving and
    multiplying by i (which swaps the components and negates one) act on
    each component alone, so they keep the symmetry.
    """
    if T._exact_herm is None:
        T._exact_herm = bool(np.array_equal(T.matrix, T.matrix.conj().T))
    if T._exact_herm:
        return T
    if T._hermitized is None:
        M = T.matrix
        sym, anti = (M + M.conj().T) / 2.0, 1j * (M - M.conj().T) / 2.0
        sym.setflags(write=False)
        anti.setflags(write=False)
        cand_s, cand_a = Tensor3(T.n, sym), Tensor3(T.n, anti)
        cand_s._exact_herm = cand_a._exact_herm = True
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
        if T.raw_g is not None:
            fh.write(T.raw_g.astype("<f8").tobytes())
        else:
            fh.write(T.matrix.astype("<c16").tobytes())


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
