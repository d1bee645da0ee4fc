"""The n-qubit Pauli observable basis and the tensor <-> coefficient transform.

The basis consists of the N^2 = 4^n tensor products of the four single-qubit
matrices I, X, Y, Z, ordered lexicographically with the leftmost qubit most
significant (index 0 is always the identity).  They are Hermitian, unitary,
and pairwise orthogonal with <P, Q> = tr(P Q†) = N δ.  Coefficients of a
tensor T are c(P,Q,R) = <T, P⊗Q⊗R> (Hilbert-Schmidt pairing, conjugate on the
basis side), and T = N^{-3} Σ c(P,Q,R) P⊗Q⊗R recovers the tensor.

Every Pauli is a signed XOR shift: label P_p by n-bit strings x_p (set
for X and Y) and z_p (set for Y and Z), and y_p = |x_p ∧ z_p|; then
conj(P_p)[a, b] = (-i)^{y_p} (-1)^{z_p·b} δ(b = a ⊕ x_p).  Every transform
runs on that labelling (`_plan`), with no dense basis, at any n: a sampled
tensor's table from g, a general tensor's from XOR-offset blocks of its
matrix, and the inverse from the plan's matrices; `build_basis` is kept
for observables and explicit checks.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import DimensionError, ScaleError
from .tensor import Tensor3

_PAULI_1Q = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# the most qubits of a dense basis or a whole Q^3 table (4^(3n) entries,
# 134 MB of float64 at n = 4); the streamed transforms take any n
MAX_QUBITS = 4


@lru_cache(maxsize=None)
def build_basis(n: int) -> np.ndarray:
    """All 4^n Pauli products for n qubits, lexicographic in I < X < Y < Z
    with the leftmost qubit most significant, as one read-only (4^n, N, N)
    array: each qubit appends its Kronecker factor to every element by one
    broadcast product, entry for entry `np.kron`'s."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"a dense Pauli basis needs n between 1 and {MAX_QUBITS}")
    E = _PAULI_1Q.copy()
    for _ in range(n - 1):
        Q, d = len(E), E.shape[1]
        # axes (p, s, i, a, j, b): element (p, s), row (i, a), column (j, b)
        E = (E[:, None, :, None, :, None] * _PAULI_1Q[:, None, :, None, :]).reshape(4 * Q, 2 * d, 2 * d)
    E.setflags(write=False)
    return E


@lru_cache(maxsize=None)
def _plan(n: int) -> SimpleNamespace:
    """The (x, z) labelling of the n-qubit Paulis, as read-only arrays: x, z
    and y per index p, the phase (-i)^y, the Sylvester Hadamard matrix
    H[z, b] = (-1)^{z·b} and H2 = H ⊗ I_2, which applies it to interleaved
    (re, im) columns, pick[p] = x_p N + z_p and its inverse permutation
    place, and diag[x, b] = (b ⊕ x) N + b, which gathers an N x N matrix F
    into D[x, b] = F[b ⊕ x, b] and, being an involution, D back into F."""
    N = 2**n
    # p's letters (I, X, Y, Z = 0..3), leftmost qubit first and most significant
    letters = (np.arange(N * N)[:, None] >> (2 * np.arange(n - 1, -1, -1))) & 3
    bit = 1 << np.arange(n - 1, -1, -1)
    x, z = ((letters >> 1) ^ (letters & 1)) @ bit, (letters >> 1) @ bit
    y = np.bitwise_count(x & z)
    b = np.arange(N)
    H = 1.0 - 2.0 * (np.bitwise_count(b[:, None] & b) % 2)
    arrays = dict(x=x, z=z, y=y, phase=np.array([1, -1j, -1, 1j])[y % 4], H=H, H2=np.kron(H, np.eye(2)))
    arrays.update(pick=x * N + z, place=np.argsort(x * N + z), diag=(b ^ b[:, None]) * N + b)
    for a in arrays.values():
        a.setflags(write=False)
    return SimpleNamespace(N=N, **arrays)


def _coefficients(F: np.ndarray) -> np.ndarray:
    """c[..., p] = <F, P_p> = Σ conj(P_p) ∘ F for a stack F (..., N, N) of
    matrices, as a complex (..., N^2) stack: the XOR-diagonal gather
    D[., x, b], one real product with H_N, and the phase of each p."""
    N = F.shape[-1]
    plan = _plan(N.bit_length() - 1)
    D = np.take(F.reshape(-1, N * N), plan.diag, axis=1).astype(np.complex128, copy=False)  # F[., b ⊕ x, b]
    E = (D.view(np.float64).reshape(-1, 2 * N) @ plan.H2).view(np.complex128)
    return np.take(E.reshape(*F.shape[:-2], N * N), plan.pick, axis=-1) * plan.phase


def _matrices(c: np.ndarray) -> np.ndarray:
    """Σ_p c[..., p] conj(P_p) for a stack c (..., N^2) of coordinates, as a
    complex (..., N, N) stack: the phase, one real product with H_N, and
    the XOR-diagonal scatter that :func:`_coefficients` gathers by."""
    plan = _plan((c.shape[-1].bit_length() - 1) // 2)
    N = plan.N
    u = np.take(c, plan.place, axis=-1) * plan.phase[plan.place]  # u[., x, z]
    D = (u.view(np.float64).reshape(-1, 2 * N) @ plan.H2).view(np.complex128)
    return np.take(D.reshape(*c.shape[:-1], N * N), plan.diag, axis=-1)  # F[., a, b] = D[., a ⊕ b, b]


_BLOCK_BYTES = 1 << 19  # budget of one block's largest intermediates


def _player1_slices(Q: int) -> list[slice]:
    """Consecutive slices of player 1's questions of a Q-question table: as
    many questions each as keep two real (Q, Q) float64 planes per question
    within _BLOCK_BYTES, and at least one.  8 questions at n = 3, 1 at
    n = 4, and the whole table in one slice at n <= 2."""
    step = _BLOCK_BYTES // (16 * Q * Q) or 1
    return [slice(p, min(p + step, Q)) for p in range(0, Q, step)]


def _back_end(plan, rows_first: bool):
    """The index tables of the other two modes of a slab, (diag, xz): diag
    gathers a slab K (m, Q, Q) of player-1-transformed matrices into
    D[p, v2, x, v3] = R_p[v ⊕ x, v], R_p's row v ⊕ x against its column v,
    where K[p] is R_p (rows_first) or its transpose; xz gathers the
    transformed (p, z2, x, z3) into (p, q, r) order."""
    N, Q = plan.N, plan.N * plan.N
    v = np.arange(Q).reshape(N, 1, N)  # (v2, v3) of the other two modes
    u = v ^ np.arange(Q)[:, None]  # the row v ⊕ x, at [v2, x, v3]
    diag = u * Q + v if rows_first else v * Q + u
    xz = (plan.z[:, None] * Q + plan.x[:, None] * N + plan.x) * N + plan.z  # [z_q, (x_q, x_r), z_r] at [q, r]
    return diag, xz


def _rank_one_setup(n: int, masked: bool) -> SimpleNamespace:
    """The read-only set-up of :func:`_rank_one_slabs` at n qubits: the
    back end's (diag, xz), the planes wr and wi, Re and Im of
    (-i)^{y_q + y_r} (zero where x_q or x_r is 0 when masked), and the
    signed Hadamard rows lead[real][p] = (-1)^{z_p·v} times p's phase:
    (-i)^{y_p} itself (real = 0), or for real input (real = 1) the sign s
    with Re((-i)^{y_p} w) = s wr for even y_p and s wi for odd."""
    plan = _plan(n)
    diag, xz = _back_end(plan, False)
    phase = plan.phase * (plan.x != 0) if masked else plan.phase
    re, im = phase.real, phase.imag
    lead = (plan.H[plan.z] * phase[:, None], plan.H[plan.z] * (re - im)[:, None])
    wr, wi = np.outer(re, re) - np.outer(im, im), np.outer(re, im) + np.outer(im, re)
    for a in (diag, xz, wr, wi, *lead):
        a.setflags(write=False)
    return SimpleNamespace(diag=diag, xz=xz, wr=wr, wi=wi, lead=lead)


_cached_rank_one_setup = lru_cache(maxsize=None)(_rank_one_setup)


def _other_modes(K: np.ndarray, plan, diag: np.ndarray, xz: np.ndarray) -> None:
    """Transform a slab K (m, Q, Q) of player-1-transformed matrices on the
    other two modes, in place: the XOR-diagonal gather by diag into one
    fresh work array D of K's shape and dtype, two products with H_N and
    the gather by xz into (p, q, r) order, q's and r's phases left out (see
    :func:`_back_end`).  The indices are valid, so the gather back into K
    runs unbuffered (mode "clip")."""
    m, N, Q, H = len(K), plan.N, plan.N * plan.N, plan.H
    D = np.take(K.reshape(m, Q * Q), diag, axis=1)  # (p, v2, x, v3)
    np.matmul(D.reshape(-1, N), H, out=K.reshape(-1, N))  # (p, v2, x, z3)
    np.matmul(H, K.reshape(m, N, -1), out=D.reshape(m, N, -1))  # (p, z2, x, z3)
    np.take(D.reshape(m, Q * Q), xz, axis=1, out=K, mode="clip")  # (p, q, r)


def _rank_one_slabs(n: int, a: np.ndarray, masked: bool):
    """Yield (ps, Re C[ps]) for the slices ps of :func:`_player1_slices`, in
    order, each a fresh float64 array, where C is the coefficient table of
    the rank-one a a^H, under the collision mask (J - I)^{⊗3} when masked.

    c_pqr = (-i)^{y_p+y_q+y_r} Σ_v (-1)^{z·v} a_{v⊕x} conj(a_v) with x =
    (x_p, x_q, x_r) and z likewise, and the mask zeroes each entry with some
    x = 0.  Player 1's mode is one GEMM per question, the other two
    :func:`_other_modes`: O(N^7) per table, with no Q^3 array.  For a real
    a all of it is real, and odd-Y and masked entries are exactly 0.
    """
    plan = _plan(n)
    N = plan.N
    Q = N * N
    A = a.reshape(N, Q)
    Ac = np.conj(A)
    # built once per (n, masked) up to MAX_QUBITS; above it the set-up is
    # Q^2 indices, small against the table's O(N^7) work, and is not kept
    setup = (_cached_rank_one_setup if n <= MAX_QUBITS else _rank_one_setup)(n, masked)
    wr, wi = setup.wr, setup.wi
    real = not np.iscomplexobj(a)
    signs = setup.lead[real]  # p's phase rides on its GEMM
    for ps in _player1_slices(Q):
        P = A[plan.x[ps, None] ^ np.arange(N)] * signs[ps, :, None]  # (p, v1, u) = a[v1 ⊕ x_p, u], signed
        K = np.matmul(Ac.T, P)  # (p, v, u)
        _other_modes(K, plan, setup.diag, setup.xz)
        if real:
            for k, y in zip(K, plan.y[ps]):
                k *= wi if y % 2 else wr
            yield ps, K
        else:
            yield ps, K.real * wr - K.imag * wi


def _dense_slabs(T: Tensor3):
    """Yield (ps, C[ps]) for each XOR offset x of player 1, in order, where
    ps are the N questions p with x_p = x in increasing z_p and C[ps] is a
    complex (N, Q, Q) slab of T's coefficient table, in one work array that
    the next slab overwrites.

    The N^5 entries B[b, u, v] = M[(b ⊕ x, u), (b, v)] of T's matrix view
    are gathered once (`Tensor3._offset_block`, which reads a hermitized
    part from its parent), and one real product with H_N over b gives
    R_p[u, v] = Σ_b (-1)^{z_p·b} B[b, u, v] for all N of them; the other
    two modes are :func:`_other_modes`, and the phase (-i)^{y_p+y_q+y_r}
    is one product per question.  O(N^7) per table, and at most two N^5
    arrays are alive at once: B and the slab K it is transformed into, then
    K and the back end's work array, made after B is freed.
    """
    plan = _plan(T.n)
    N, H = plan.N, plan.H
    Q = N * N
    diag, xz = _back_end(plan, True)
    # (-i)^{y_p + y_q + y_r} at [y_p mod 4, q, r]
    w = np.array([1, -1j, -1, 1j])[:, None, None] * np.outer(plan.phase, plan.phase)
    K = np.empty((N, Q, Q), np.complex128)
    for x in range(N):
        ps = plan.place[x * N : (x + 1) * N]
        # B, as (b, (u, v, re/im)) floats, is freed before the back end runs
        np.matmul(H, T._offset_block(x).view(np.float64).reshape(N, -1), out=K.view(np.float64).reshape(N, -1))
        _other_modes(K, plan, diag, xz)
        for k, y in zip(K, plan.y[ps]):
            k *= w[y % 4]
        yield ps, K


def _table_slabs(T: Tensor3):
    """Yield (ps, C[ps]) over player 1's questions, covering T's coefficient
    table once: a sampled tensor's real slabs from g (:func:`_rank_one_slabs`,
    masked), any other tensor's complex ones (:func:`_dense_slabs`)."""
    if T.raw_g is not None:
        return _rank_one_slabs(T.n, T.raw_g, True)
    return _dense_slabs(T)


def fourier(T: Tensor3) -> np.ndarray:
    """Coefficient table c(P,Q,R) = <T, P⊗Q⊗R>, shape (N^2,)*3, written slab
    by slab over player 1's questions into the one returned array (see
    :func:`_table_slabs`).

    A sampled tensor's table is real float64: that of the rank-one g g^T
    under the collision mask, in real arithmetic, so its matrix is never
    built.  Any other tensor's is complex and comes from its matrix view by
    XOR offsets of player 1 (:func:`_dense_slabs`), with no reordered copy
    of the matrix and no second complex N^6 array.  ScaleError above
    MAX_QUBITS, before anything is allocated.
    """
    _check_table_size(T.n)
    Q = T.N * T.N
    C = np.empty((Q, Q, Q), np.float64 if T.raw_g is not None else np.complex128)
    for ps, slab in _table_slabs(T):
        C[ps] = slab
    return C


def _check_table_size(n: int) -> None:
    if n > MAX_QUBITS:
        raise ScaleError(f"a whole Pauli table needs n <= {MAX_QUBITS}, got n = {n} (4^{3 * n} entries)")


def _mode_transform(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """W ×1 A ×2 A ×3 A by one complex GEMM per mode (the middle one a batch
    of d), for a fresh (d, d, d) array W that it overwrites; W and the
    returned buffer hold every intermediate."""
    d = len(A)
    C = (A @ W.reshape(d, d * d)).reshape(d, d, d)  # (p, b, c)
    np.matmul(A, C, out=W)  # (p, q, c)
    np.matmul(W.reshape(d * d, d), A.T, out=C.reshape(d * d, d))  # (p, q, r)
    return C


def inverse_fourier(C: np.ndarray) -> Tensor3:
    """Rebuild the tensor from its coefficient table C, whose shape (4^n,)*3
    with n >= 1 gives n (any other shape is a DimensionError): T = N^{-3} Σ
    c(P,Q,R) P⊗Q⊗R, by three complex mode GEMMs (:func:`_mode_transform`)
    with the per-mode inverse B^H / N, where row p of B is conj(P_p)
    flattened.  Their (d, d, d) result, indexed ((i, i'), (j, j'), (k, k')),
    is copied into the GEMMs' other buffer as the matrix view, rows (i, j, k)
    and columns (i', j', k'), so the inverse holds two complex N^6 arrays at
    most."""
    shape = np.shape(C)
    n = (shape[0].bit_length() - 1) // 2 if shape else 0
    if n < 1 or shape != (4**n,) * 3:
        raise DimensionError(f"a coefficient table must have shape (4^n,)*3 with n >= 1, got {shape}")
    N, Q = 2**n, 4**n
    Binv = _matrices(np.eye(Q)).reshape(Q, Q).conj().T / N  # the rows of B satisfy B† B = N I
    W = np.array(C, dtype=np.complex128)
    V = _mode_transform(Binv, W)
    np.copyto(W.reshape((N,) * 6), V.reshape((N,) * 6).transpose(0, 2, 4, 1, 3, 5))
    M = W.reshape(N**3, N**3)
    M.setflags(write=False)
    return Tensor3(n, M)


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

    They are real, so each equals its conjugate, the coefficient of the
    rank-one ψψ^H: the table of :func:`_rank_one_slabs` without the mask,
    written slab by slab into the one returned array.  No density matrix
    |ψ><ψ| and no dense basis is formed, and the largest intermediate is
    one slab's, about _BLOCK_BYTES.  ScaleError above MAX_QUBITS.
    """
    _check_table_size(n)
    N = 2**n
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape != (N**3,):
        raise DimensionError(f"state must have length {N**3}")
    w = np.empty((N * N,) * 3)
    for ps, slab in _rank_one_slabs(n, state, False):
        w[ps] = slab
    return w
