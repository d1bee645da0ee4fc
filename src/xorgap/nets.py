"""Constructive epsilon-nets and the signed-projector decomposition.

Sphere nets come from greedy maximal packing: seeded candidates are kept
whenever they sit farther than eps from every point kept so far, and
construction stops after a long run of consecutive rejections.  A maximal
eps-packing is an eps-net, but the stopping rule is probabilistic, so covering
is additionally verified by sampling.  Projector nets are built at N = 2 only,
where the spans of k-subsets of a sphere net at resolution eps/sqrt(2) have
closed forms: the rank-1 net is v v^H for each sphere-net point v, and the
rank-2 net is the single element I/sqrt(2).  The triple net is the union over
rank triples of elementwise tensor products, and only its size is computed
here (the net upper bound on the trilinear norm streams the products itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ScaleError

PACKING_WINDOW = 10_000  # consecutive rejections that end a sphere-net packing
_PACKING_CAP = 100_000  # largest volumetric bound (1 + 2/eps)^(2N) a packing may reach
_SCREEN_MARGIN = 1e-9  # the GEMM screen rejects only below eps^2 minus this
_EIG_CUTOFF = 1e-12  # decomposition drops eigenvalues below this times the largest


@dataclass(frozen=True)
class SphereNet:
    """Unit vectors in C^dim pairwise farther apart than eps."""

    dim: int
    eps: float
    points: np.ndarray  # (count, dim) complex

    def __len__(self):
        return self.points.shape[0]

    def nearest_distance(self, v: np.ndarray) -> float:
        d2 = np.sum(np.abs(self.points - v.reshape(1, -1)) ** 2, axis=1)
        return float(np.sqrt(d2.min()))


@dataclass(frozen=True)
class ProjectorNet:
    """Normalized projectors X/sqrt(k) of rank k on C^N."""

    N: int
    k: int
    eps: float
    elements: np.ndarray  # (m, N, N) complex, read-only, each of Frobenius norm 1

    def __len__(self):
        return len(self.elements)

    def nearest_distance(self, X: np.ndarray) -> float:
        E = self.elements.reshape(len(self), -1)
        d2 = np.sum(np.abs(E - X.reshape(1, -1)) ** 2, axis=1)
        return float(np.sqrt(d2.min()))


@dataclass
class HermDecomposition:
    """Signed combination of normalized projectors reconstructing a Hermitian matrix.

    terms holds (coefficient, normalized projector) pairs; signs live in the
    coefficients.  The l1 mass of the coefficients is controlled by the
    dimension (at most 4 sqrt(ln N) for unit-Frobenius input).
    """

    N: int
    terms: list  # of (float, ndarray)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.N, self.N), dtype=complex)
        for lam, X in self.terms:
            out += lam * X
        return out

    def coefficient_l1(self) -> float:
        return float(sum(abs(lam) for lam, _ in self.terms))


@lru_cache(maxsize=32)
def sphere_net(N: int, eps: float, seed: int = 0) -> SphereNet:
    """Greedy maximal eps-packing of the unit sphere of C^N (an eps-net).

    Candidates come in seeded batches of 256.  A batch is screened against
    the points kept before it with one real GEMM: Re(v p^H) is the dot of
    the interleaved (re, im) rows of v and p, and d^2 = 2 - 2 Re(v p^H), so
    a candidate is rejected only where that d^2 falls below eps^2 - 1e-9,
    far beyond the expression's rounding of about 1e-15.  The kept points'
    column block grows only when a batch keeps points.  The rest get the
    exact distance sum against those points, and only the candidates that
    pass it are then tested, in order, against the points accepted earlier
    in the same batch; the rejections between them are counted, not
    visited.  So the result is the one-candidate-at-a-time packing, bit for
    bit.  Construction stops after PACKING_WINDOW consecutive rejections,
    even mid-batch.  Deterministic for fixed (N, eps, seed); results are cached
    and shared (all stored arrays are read-only).  N is capped at 4; the
    construction is combinatorial in nature and larger dimensions are
    rejected rather than silently approximated.  So is an eps whose packing
    may exceed 1e5 points, by the volumetric bound (1 + 2/eps)^(2N): there the
    window stop would wait on ever rarer rejections (ScaleError, before any
    point is drawn; (3, 0.5) allows 15 625 and (2, 0.1) about 1.9e5).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if not 1 <= N <= 4:
        raise ScaleError("sphere nets are built only for complex dimension <= 4")
    if 2 * N * math.log1p(2.0 / eps) > math.log(_PACKING_CAP):
        raise ScaleError(
            f"eps too small: a packing of the unit sphere of C^{N} may hold "
            f"(1 + 2/eps)^{2 * N} > {_PACKING_CAP} points; use a larger eps"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, N)))
    pts = np.empty((0, N), dtype=np.complex128)
    cols = np.empty((2 * N, 0))  # the kept points' interleaved (re, im) as columns
    rejects = 0
    eps2 = eps * eps
    # |v - p|^2 = 2 - 2 Re(v p^H) to within about 1e-15 for unit v and p, so
    # Re(v p^H) above this is an exact-test rejection as well
    top = 1.0 - (eps2 - _SCREEN_MARGIN) / 2.0
    while rejects < PACKING_WINDOW:
        batch = rng.standard_normal((256, 2 * N))
        vecs = batch[:, :N] + 1j * batch[:, N:]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        # Re(v p^H) is the dot of the interleaved (re, im) rows: one real GEMM
        near = (vecs.view(np.float64) @ cols).max(axis=1, initial=-np.inf) > top
        # the exact test on the rest, coordinate by coordinate, adding the
        # squares in the same order as the per-candidate sum below
        rest = np.flatnonzero(~near)
        d2 = sum(np.abs(vecs[rest, i, None] - pts[:, i]) ** 2 for i in range(N))
        fresh = np.empty_like(vecs)
        m = 0
        last = -1
        # the candidates that pass, in order; the ones between are rejections
        for j in rest[d2.min(axis=1, initial=np.inf) > eps2]:
            rejects += j - last - 1
            last = j
            if rejects >= PACKING_WINDOW:
                break
            v = vecs[j]
            if np.sum(np.abs(fresh[:m] - v) ** 2, axis=1).min(initial=np.inf) > eps2:
                fresh[m] = v
                m += 1
                rejects = 0
            else:
                rejects += 1
        else:
            rejects += len(vecs) - last - 1
        if m:
            pts = np.concatenate([pts, fresh[:m]])
            cols = np.concatenate([cols, fresh[:m].view(np.float64).T], axis=1)
    pts.setflags(write=False)
    return SphereNet(dim=N, eps=eps, points=pts)


@lru_cache(maxsize=32)
def projector_net(N: int, k: int, eps: float, seed: int = 0) -> ProjectorNet:
    """Net over normalized rank-k projectors on C^N (N = 2 only).

    The net is the spans of k-subsets of an eps/sqrt(2) sphere net,
    normalized by sqrt(k), in closed form.  For k = N every spanning subset
    spans C^N, so the net is the one element I/sqrt(N) and no sphere net is
    built.  For k = 1 the elements are the projectors v v^H of the sphere-net
    points, in point order.  The elements are one read-only (m, N, N) array
    (results are cached per argument tuple).  Covering radius eps is
    verified empirically by the callers that need it.
    """
    if N != 2:
        raise ScaleError("projector nets are built only at N = 2")
    if not 1 <= k <= N:
        raise ValueError("k must lie in [1, N]")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if k == N:
        P = np.eye(N, dtype=np.complex128)[None] / np.sqrt(N)
    else:
        pts = sphere_net(N, eps / np.sqrt(2.0), seed=seed).points
        P = pts[:, :, None] * pts[:, None, :].conj()
    P.setflags(write=False)
    return ProjectorNet(N=N, k=k, eps=eps, elements=P)


def triple_net_size(N: int, eps: float, seed: int = 0) -> int:
    """Number of elements of the triple product net at resolution eps.

    The triple net is the union over rank triples (k, l, m) in [N]^3 of the
    elementwise tensor products X⊗Y⊗Z of the rank-k, rank-l and rank-m
    projector nets; summing the size products over all rank triples gives
    the cube of the summed net sizes.
    """
    return sum(len(projector_net(N, k, eps, seed=seed)) for k in range(1, N + 1)) ** 3


def lorentz_decompose(X: np.ndarray) -> HermDecomposition:
    """Write a Hermitian X with ||X||_F <= 1 as a signed sum of normalized projectors.

    Eigenvalues of each sign are treated separately.  Sorting the positive
    ones λ1 >= ... >= λp > 0, the telescoping terms are
    (λm - λ_{m+1}) sqrt(m) * (P_m / sqrt(m)), with P_m the projector onto the
    top-m eigenvectors; the negative side is symmetric with negated
    coefficients.  Reconstruction is exact, and the coefficient l1 mass equals
    the rank-weighted level-set integral of the spectrum, which is at most
    4 sqrt(ln N) in dimension N > 1.
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    if X.shape != (N, N):
        raise DimensionError("input must be square")
    if N < 2:
        raise ScaleError("decomposition needs dimension N > 1")
    if not np.abs(X - X.conj().T).max(initial=0.0) <= 1e-10:  # NaN fails both checks
        raise ValueError("input must be Hermitian")
    fro = np.linalg.norm(X)
    if not fro <= 1.0 + 1e-12:
        raise ValueError(
            f"input has Frobenius norm {fro:.6g} > 1; rescale before decomposing"
        )
    if fro == 0.0:
        return HermDecomposition(N=N, terms=[])
    w, V = np.linalg.eigh(X)
    cutoff = _EIG_CUTOFF * np.abs(w).max()
    terms = []
    for sign in (+1.0, -1.0):
        idx = np.where(sign * w > cutoff)[0]
        if idx.size == 0:
            continue
        order = idx[np.argsort(-sign * w[idx])]  # decreasing magnitude
        mags = sign * w[order]
        proj = np.zeros((N, N), dtype=complex)
        for m in range(len(order)):
            v = V[:, order[m]]
            proj = proj + np.outer(v, v.conj())
            nxt = mags[m + 1] if m + 1 < len(order) else 0.0
            lam = (mags[m] - nxt) * np.sqrt(m + 1)
            if lam <= 0.0:
                continue
            P = (proj + proj.conj().T) / 2.0
            terms.append((sign * lam, P / np.sqrt(m + 1)))
    return HermDecomposition(N=N, terms=terms)


def coefficient_bound(N: int) -> float:
    """The dimension-driven cap on the decomposition's coefficient l1 mass."""
    return 4.0 * np.sqrt(np.log(N))


def coefficient_bound_sharp(N: int) -> float:
    """Sharper per-sign-part estimate, doubled to cover both parts."""
    return 2.0 * (2.0 + np.sqrt(np.log(N) / 2.0))
