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
    """Coefficients of a tensor in the triple Pauli basis, shape (N^2,)*3."""

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


def _transform_modes(W: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = np.einsum("pa,qb,rc,abc->pqr", B, B, B, W, optimize=True)
    return out


def fourier(T: Tensor3) -> FourierTable:
    """Coefficient table c(P,Q,R) = <T, P⊗Q⊗R> via three mode transforms."""
    B = _mode_matrix(T.n)
    C = _transform_modes(T.mode_view(), B)
    return FourierTable(n=T.n, N=T.N, coefficients=C)


def inverse_fourier(F: FourierTable) -> Tensor3:
    """Rebuild the tensor: T = N^{-3} Σ c(P,Q,R) P⊗Q⊗R."""
    B = _mode_matrix(F.n)
    Binv = B.conj().T / F.N  # per-mode inverse; the basis rows satisfy B† B = N I
    W = np.einsum("ap,bq,cr,pqr->abc", Binv, Binv, Binv, F.coefficients, optimize=True)
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
