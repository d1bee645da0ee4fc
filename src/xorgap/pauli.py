"""The n-qubit Pauli observable basis and the tensor <-> coefficient transform.

The basis consists of the N^2 = 4^n tensor products of the four single-qubit
matrices I, X, Y, Z, ordered lexicographically with the leftmost qubit most
significant (index 0 is always the identity).  They are Hermitian, unitary,
and pairwise orthogonal with <P, Q> = tr(P Q†) = N δ.  Coefficients of a
tensor T are c(P,Q,R) = <T, P⊗Q⊗R> (Hilbert-Schmidt pairing, conjugate on the
basis side), and T = N^{-3} Σ c(P,Q,R) P⊗Q⊗R recovers the tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .tensor import Tensor3

_LETTERS = "IXYZ"
_PAULI_1Q = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

MAX_QUBITS = 4


@dataclass(frozen=True)
class PauliBasis:
    """Ordered n-qubit Pauli basis: the N^2 Hermitian unitaries as one
    read-only (N^2, N, N) complex array, with their string labels."""

    n: int
    N: int
    elements: np.ndarray
    labels: tuple

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class FourierTable:
    """Coefficients of a tensor in the triple Pauli basis, shape (N^2,)*3.

    The table of a sampled tensor (one given by its raw vector g) is real
    float64, computed from g; any other tensor's table is complex.
    """

    n: int
    N: int
    coefficients: np.ndarray


@lru_cache(maxsize=None)
def build_basis(n: int) -> PauliBasis:
    """All 4^n Pauli products for n qubits, lexicographic in I < X < Y < Z,
    as one read-only (4^n, N, N) array: each qubit appends its Kronecker
    factor to every element by one broadcast product, entry for entry `np.kron`'s."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be between 1 and {MAX_QUBITS}")
    E = _PAULI_1Q.copy()
    for _ in range(n - 1):
        Q, d = len(E), E.shape[1]
        # axes (p, s, i, a, j, b): element (p, s), row (i, a), column (j, b)
        E = (E[:, None, :, None, :, None] * _PAULI_1Q[:, None, :, None, :]).reshape(4 * Q, 2 * d, 2 * d)
    E.setflags(write=False)
    labels = tuple("".join(letters) for letters in itertools.product(_LETTERS, repeat=n))
    return PauliBasis(n=n, N=2**n, elements=E, labels=labels)


@lru_cache(maxsize=None)
def _mode_matrix(n: int) -> np.ndarray:
    """Row p holds conj(P_p) flattened over (i, i'): the per-mode transform,
    the basis array's conjugate reshaped to (4^n, N^2)."""
    B = build_basis(n).elements.conj().reshape(4**n, -1)
    B.setflags(write=False)
    return B


@lru_cache(maxsize=None)
def _real_mode_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real per-mode transform of a sampled tensor, as (R0, y).

    Row p of `_mode_matrix(n)` is (-i)^{y_p} R_p, where y_p counts the Y
    letters of P_p and R_p is real with entries 0 and +/-1.  R0 holds the
    R_p flattened over (i, i') with the collision entries (i, i) zeroed, so
    the collision mask rides on the transform.  y is the int8 vector of Y
    counts, from which each slab of :func:`_fourier_slabs` takes its phase.
    """
    B = _mode_matrix(n)
    y = np.array([label.count("Y") for label in build_basis(n).labels], dtype=np.int8)
    N = 2**n
    R0 = np.ascontiguousarray((B * np.array([1, 1j, -1, -1j])[y % 4][:, None]).real).reshape(-1, N, N)
    R0[:, np.arange(N), np.arange(N)] = 0.0
    R0 = R0.reshape(N * N, N * N)
    R0.setflags(write=False)
    y.setflags(write=False)
    return R0, y


_BLOCK_BYTES = 1 << 19  # budget of one block's largest intermediates


def _player1_slices(Q: int) -> list[slice]:
    """Consecutive slices of player 1's questions of a Q-question table: as
    many questions each as keep two real (Q, Q) float64 planes per question
    within _BLOCK_BYTES, and at least one.  8 questions at n = 3, 1 at
    n = 4, and the whole table in one slice at n <= 2."""
    step = _BLOCK_BYTES // (16 * Q * Q) or 1
    return [slice(p, min(p + step, Q)) for p in range(0, Q, step)]


def _fourier_slabs(n: int, g: np.ndarray):
    """Yield (ps, C[ps]) for the slices ps of :func:`_player1_slices`, in
    order, where C is the coefficient table of g g^T under the collision
    mask, real float64; each slab is fresh.

    c_pqr = Re((-i)^{y_p + y_q + y_r}) sum R0_p[i,i'] R0_q[j,j'] R0_r[k,k']
    g_ijk g_i'j'k' (see `_real_mode_matrix`).  Mode 1 is rank one: with
    G = g.reshape(N, N^2) it is G^T R0_p G for every p in ps, O(N^7) per
    table; modes 2 and 3 are one transpose and one real GEMM each, O(N^8),
    batched over ps, and the phase comes from the integer Y counts.  A
    slab's three intermediates share two buffers of len(ps) N^4 entries, so
    nothing with Q^3 entries is formed here.  Entries whose Y counts sum to
    an odd number, and entries with an I/Z-only string in any mode, are
    exactly 0.
    """
    R0, y = _real_mode_matrix(n)
    N = 2**n
    Q = N * N
    G = g.reshape(N, Q)
    phase = np.array([1, 0, -1, 0], dtype=np.int8)  # Re((-i)^s) by s mod 4
    for ps in _player1_slices(Q):
        b = ps.stop - ps.start
        H = np.matmul(G.T, R0[ps].reshape(b, N, N) @ G)  # (p, (j, k), (j', k'))
        X = np.empty_like(H)
        X.reshape(b, N, N, N, N)[...] = H.reshape(b, N, N, N, N).transpose(0, 1, 3, 2, 4)  # (p, j, j', k, k')
        np.matmul(X.reshape(b * Q, Q), R0.T, out=H.reshape(b * Q, Q))  # (p, (j, j'), r)
        np.matmul(R0, H, out=X)  # (p, q, r)
        X *= phase[(y[ps, None, None] + y[:, None] + y) % 4]
        yield ps, X


def fourier(T: Tensor3) -> FourierTable:
    """Coefficient table c(P,Q,R) = <T, P⊗Q⊗R> via three mode transforms.

    A sampled tensor's table comes from g in real arithmetic, slab by slab
    over player 1's questions (see :func:`_fourier_slabs`), each slab
    written into the one returned array, so its matrix is never built and
    the transient is one slab's two buffers.  Any other tensor's comes from
    its mode view W by three complex GEMMs with B = `_mode_matrix(n)`, one
    per mode, c = W ×1 B ×2 B ×3 B (see :func:`_mode_transform`), so the
    transient is two N^6 arrays.
    """
    if T.raw_g is not None:
        Q = T.N * T.N
        C = np.empty((Q, Q, Q))
        for ps, slab in _fourier_slabs(T.n, T.raw_g):
            C[ps] = slab
        return FourierTable(n=T.n, N=T.N, coefficients=C)
    return FourierTable(n=T.n, N=T.N, coefficients=_mode_transform(_mode_matrix(T.n), T.mode_view()))


def _mode_transform(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W ×1 A ×2 A ×3 A by one complex GEMM per mode (the middle one a batch
    of d), for a fresh (d, d, d) array W that it overwrites; W and the
    returned buffer hold every intermediate."""
    d = len(A)
    C = (A @ W.reshape(d, d * d)).reshape(d, d, d)  # (p, b, c)
    np.matmul(A, C, out=W)  # (p, q, c)
    np.matmul(W.reshape(d * d, d), A.T, out=C.reshape(d * d, d))  # (p, q, r)
    return C


def inverse_fourier(F: FourierTable) -> Tensor3:
    """Rebuild the tensor: T = N^{-3} Σ c(P,Q,R) P⊗Q⊗R, by the three mode
    GEMMs of :func:`fourier` with the per-mode inverse B^H / N."""
    Binv = _mode_matrix(F.n).conj().T / F.N  # the basis rows satisfy B† B = N I
    W = _mode_transform(Binv, F.coefficients.astype(np.complex128))
    return Tensor3.from_mode_view(F.n, W)


def _player_marginal(psi: np.ndarray, B: np.ndarray, Cm: np.ndarray) -> np.ndarray:
    """Player 1's marginals sigma[(a, x), (j, k)] = <psi| |a><x| ⊗ B_j ⊗ Cm_k |psi>.

    For psi of shape (d1, d2, d3), returns a (d1^2, Q2 Q3) matrix.  Player 3
    is contracted on ket and bra first, rho_k = (psi ×3 Cm_k) psi^H, then
    player 2, one matrix product each.  The largest intermediate has
    Q3 max(d1 d2 d3, d1^2 d2^2, d1^2 Q2) entries, so the correlations hand
    it one block of player 3's questions at a time (:func:`_correlation_blocks`).
    """
    d1, d2, d3 = psi.shape
    Q2, Q3 = len(B), len(Cm)
    psi = psi.reshape(d1 * d2, d3)
    # phi[xy, (k, c)] = sum_z psi[xy, z] C_k[c, z]; rho[(x, y, k), ab] = sum_c phi conj(psi[ab, c])
    phi = psi @ Cm.transpose(2, 0, 1).reshape(d3, Q3 * d3)
    rho = (phi.reshape(-1, d3) @ psi.conj().T).reshape(d1, d2, Q3, d1, d2)
    rho = rho.transpose(2, 0, 3, 4, 1).reshape(Q3 * d1 * d1, d2 * d2)  # ((k, x, a), (b, y))
    sigma = rho @ B.reshape(Q2, d2 * d2).T  # ((k, x, a), j)
    return sigma.reshape(Q3, d1, d1, Q2).transpose(2, 1, 3, 0).reshape(d1 * d1, Q2 * Q3)


def _correlation_blocks(psi: np.ndarray, A: np.ndarray, B: np.ndarray, Cm: np.ndarray):
    """Yield (ks, w) for consecutive slices ks of player 3's questions, where
    w = <psi| A_i ⊗ B_j ⊗ Cm_k |psi> for k in ks is the complex (Q1, Q2, len ks)
    slice w[:, :, ks] of the correlation table: one matrix product A_(1) sigma
    with player 1's marginals of that block (:func:`_player_marginal`).
    psi has shape (d1, d2, d3) and A, B, Cm are stacks of (d, d) matrices.

    A block holds as many questions as keep its largest complex intermediate,
    w or one of the marginal's, within _BLOCK_BYTES, and at least one; so no
    array with Q1 Q2 Q3 entries is formed.
    """
    (d1, d2, d3), Q1, Q2, Q3 = psi.shape, len(A), len(B), len(Cm)
    per_question = 16 * max(d1 * d2 * max(d3, d1 * d2), max(Q1, d1 * d1) * Q2)
    step = _BLOCK_BYTES // per_question or 1
    A1 = A.reshape(Q1, -1)
    for k in range(0, Q3, step):
        ks = slice(k, min(k + step, Q3))
        yield ks, (A1 @ _player_marginal(psi, B, Cm[ks])).reshape(Q1, Q2, ks.stop - k)


def pauli_expectations(n: int, state: np.ndarray) -> np.ndarray:
    """All triple-Pauli expectation values <ψ| P⊗Q⊗R |ψ> as a real (N^2,)*3 array.

    They are the correlations of three players who all measure the basis
    (:func:`_correlation_blocks`), so no density matrix |ψ><ψ| is formed.
    They are real: each block's real part is written into the one returned
    array and its rounding-level imaginary part dropped, so the largest
    intermediate is one block's, about _BLOCK_BYTES.
    """
    N = 2**n
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (N**3,):
        raise DimensionError(f"state must have length {N**3}")
    E = build_basis(n).elements
    w = np.empty((N * N,) * 3)
    for ks, block in _correlation_blocks(state.reshape(N, N, N), E, E, E):
        w[:, :, ks] = block.real
    return w
