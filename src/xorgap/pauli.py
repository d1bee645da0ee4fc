"""The n-qubit Pauli observable basis and the tensor <-> coefficient transform.

The basis consists of the N^2 = 4^n tensor products of the four single-qubit
matrices I, X, Y, Z, ordered lexicographically with the leftmost qubit most
significant (index 0 is always the identity).  They are Hermitian, unitary,
and pairwise orthogonal with <P, Q> = tr(P Q†) = N δ.  Coefficients of a
tensor T are c(P,Q,R) = <T, P⊗Q⊗R> (Hilbert-Schmidt pairing, conjugate on the
basis side), and T = N^{-3} Σ c(P,Q,R) P⊗Q⊗R recovers the tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .tensor import Tensor3

_LETTERS = "IXYZ"
_PAULI_1Q = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

MAX_QUBITS = 4


@dataclass(frozen=True)
class PauliBasis:
    """Ordered n-qubit Pauli basis: N^2 Hermitian unitaries with string labels."""

    n: int
    N: int
    elements: tuple
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
    """All 4^n Pauli products for n qubits, lexicographic in I < X < Y < Z."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be between 1 and {MAX_QUBITS}")
    N = 2**n
    elements = []
    labels = []
    for idx in range(N * N):
        digits = []
        v = idx
        for _ in range(n):
            digits.append(v % 4)
            v //= 4
        digits.reverse()  # leftmost qubit most significant
        M = _PAULI_1Q[digits[0]]
        for d in digits[1:]:
            M = np.kron(M, _PAULI_1Q[d])
        M = np.ascontiguousarray(M)
        M.setflags(write=False)
        elements.append(M)
        labels.append("".join(_LETTERS[d] for d in digits))
    return PauliBasis(n=n, N=N, elements=tuple(elements), labels=tuple(labels))


@lru_cache(maxsize=None)
def _mode_matrix(n: int) -> np.ndarray:
    """Row p holds conj(P_p) flattened over (i, i'): the per-mode transform."""
    basis = build_basis(n)
    B = np.array([E.conj().reshape(-1) for E in basis.elements])
    B.setflags(write=False)
    return B


@lru_cache(maxsize=None)
def _real_mode_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real per-mode transform of a sampled tensor, as (R0, phase).

    Row p of `_mode_matrix(n)` is (-i)^{y_p} R_p, where y_p counts the Y
    letters of P_p and R_p is real with entries 0 and +/-1.  R0 holds the
    R_p flattened over (i, i') with the collision entries (i, i) zeroed, so
    the collision mask rides on the transform.  phase[p, q, r] is
    Re((-i)^{y_p + y_q + y_r}) as int8, taken from the integer Y counts.
    """
    B = _mode_matrix(n)
    y = np.array([label.count("Y") for label in build_basis(n).labels], dtype=np.int8)
    N = 2**n
    R0 = np.ascontiguousarray((B * np.array([1, 1j, -1, -1j])[y % 4][:, None]).real).reshape(-1, N, N)
    R0[:, np.arange(N), np.arange(N)] = 0.0
    R0 = R0.reshape(N * N, N * N)
    phase = np.array([1, 0, -1, 0], dtype=np.int8)[(y[:, None, None] + y[:, None] + y) % 4]
    R0.setflags(write=False)
    phase.setflags(write=False)
    return R0, phase


def _fourier_from_g(n: int, g: np.ndarray) -> np.ndarray:
    """The coefficient table of g g^T under the collision mask, real float64.

    c_pqr = phase[p, q, r] sum R0_p[i,i'] R0_q[j,j'] R0_r[k,k'] g_ijk g_i'j'k'
    (see `_real_mode_matrix`).  Mode 1 is rank one: with G = g.reshape(N, N^2)
    it is G^T R0_p G for every p, O(N^7); modes 2 and 3 are one transpose
    and one real GEMM each, O(N^8).  The three intermediates all have N^6
    entries and share two buffers.  Entries whose Y counts sum to an odd
    number, and entries with an I/Z-only string in any mode, are exactly 0.
    """
    R0, phase = _real_mode_matrix(n)
    N = 2**n
    Q = N * N
    G = g.reshape(N, Q)
    H = np.matmul(G.T, R0.reshape(Q, N, N) @ G)  # (p, (j, k), (j', k'))
    X = np.empty_like(H)
    X.reshape(Q, N, N, N, N)[...] = H.reshape(Q, N, N, N, N).transpose(0, 1, 3, 2, 4)  # (p, j, j', k, k')
    np.matmul(X.reshape(Q * Q, Q), R0.T, out=H.reshape(Q * Q, Q))  # (p, (j, j'), r)
    np.matmul(R0, H, out=X)  # (p, q, r)
    X *= phase
    return X


def fourier(T: Tensor3) -> FourierTable:
    """Coefficient table c(P,Q,R) = <T, P⊗Q⊗R> via three mode transforms.

    A sampled tensor's table comes from g in real arithmetic (see
    `_fourier_from_g`), so its matrix is never built.  Any other tensor's
    comes from its mode view W by three complex GEMMs with
    B = `_mode_matrix(n)`, one per mode, c = W ×1 B ×2 B ×3 B (see
    :func:`_mode_transform`), so the transient is two N^6 arrays.
    """
    if T.raw_g is not None:
        return FourierTable(n=T.n, N=T.N, coefficients=_fourier_from_g(T.n, T.raw_g))
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


def pauli_expectations(n: int, state: np.ndarray) -> np.ndarray:
    """All triple-Pauli expectation values <ψ| P⊗Q⊗R |ψ> as a real (N^2,)*3 array.

    These are the coefficients of the density matrix |ψ><ψ|, whose
    Hermiticity makes them real.
    """
    N = 2**n
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (N**3,):
        raise DimensionError(f"state must have length {N**3}")
    rho = np.outer(state, state.conj())
    rho.setflags(write=False)  # handed over, so the tensor need not copy it
    return fourier(Tensor3(n, rho)).coefficients.real
