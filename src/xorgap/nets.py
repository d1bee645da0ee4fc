"""Constructive epsilon-nets and the signed-projector decomposition.

Every net here lives on C^2, the one dimension the net upper bound on the
trilinear norm is certified at, and is returned as one read-only array.
The sphere net, (m, 2) unit vectors, comes from greedy maximal packing:
seeded candidates are kept whenever they sit farther than eps from every
point kept so far, and construction stops after a long run of consecutive
rejections.  A maximal eps-packing is an eps-net, but the stopping rule is
probabilistic, so covering is additionally verified by sampling.  The
projector net of rank k, (m, 2, 2) normalized projectors, is the spans of
k-subsets of a sphere net at resolution eps/sqrt(2), in closed form: the
rank-1 net is v v^H for each sphere-net point v, and the rank-2 net is the
single element I/sqrt(2).  The triple net is the union over rank triples of
elementwise tensor products, and only its size is computed here (the net
upper bound on the trilinear norm streams the products itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ScaleError

PACKING_WINDOW = 10_000  # consecutive rejections that end a sphere-net packing
_PACKING_CAP = 100_000  # largest volumetric bound (1 + 2/eps)^4 a packing may reach
_SCREEN_MARGIN = 1e-9  # the GEMM screen rejects only below eps^2 minus this
_EIG_CUTOFF = 1e-12  # decomposition drops eigenvalues below this times the largest


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
def sphere_net(eps: float, seed: int = 0) -> np.ndarray:
    """Greedy maximal eps-packing of the unit sphere of C^2 (an eps-net), as
    one read-only (m, 2) complex array of its points.

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
    even mid-batch.  Deterministic for fixed (eps, seed); results are cached
    and shared.  An eps whose packing may exceed 1e5 points, by the
    volumetric bound (1 + 2/eps)^4, is a ScaleError before any point is
    drawn: there the window stop would wait on ever rarer rejections (0.5
    allows 625 and 0.1 about 1.9e5).
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    N = 2  # the dimension, also part of the seed's entropy
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
    return pts


@lru_cache(maxsize=32)
def projector_net(k: int, eps: float, seed: int = 0) -> np.ndarray:
    """Net over normalized rank-k projectors X/sqrt(k) on C^2, k in {1, 2},
    as one read-only (m, 2, 2) complex array, each element of Frobenius
    norm 1 (results are cached per argument tuple).

    The net is the spans of k-subsets of an eps/sqrt(2) sphere net,
    normalized by sqrt(k), in closed form.  For k = 2 every spanning subset
    spans C^2, so the net is the one element I/sqrt(2) and no sphere net is
    built.  For k = 1 the elements are the projectors v v^H of the sphere-net
    points, in point order.  Covering radius eps is verified empirically by
    the callers that need it.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k!r}")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    if k == 2:
        P = np.eye(2, dtype=np.complex128)[None] / np.sqrt(2.0)
    else:
        pts = sphere_net(eps / np.sqrt(2.0), seed=seed)
        P = pts[:, :, None] * pts[:, None, :].conj()
    P.setflags(write=False)
    return P


def triple_net_size(eps: float, seed: int = 0) -> int:
    """Number of elements of the triple product net at resolution eps.

    The triple net is the union over rank triples (k, l, m) in {1, 2}^3 of
    the elementwise tensor products X⊗Y⊗Z of the rank-k, rank-l and rank-m
    projector nets; summing the size products over all rank triples gives
    the cube of the summed net sizes.
    """
    return sum(len(projector_net(k, eps, seed=seed)) for k in (1, 2)) ** 3


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
