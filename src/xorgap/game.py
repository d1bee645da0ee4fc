"""Three-player XOR games: construction from tensors, biases, and bound checks.

A game is a question distribution pi over triples together with a sign tensor.
Classical players answer with fixed signs per question; entangled players
share a state and measure +/-1-valued observables.  Games built from a
sampled tensor ask Pauli matrices as questions, and the explicit entangled
strategy answers question P by measuring P itself on the tensor's dominant
eigenvector; its bias on the built game has the closed form N^3 lambda / l1,
which the game build reports.
"""

from __future__ import annotations

import csv
import itertools
import json
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGameError, DimensionError, ScaleError
from .pauli import (
    MAX_QUBITS,
    _check_table_size,
    _coefficients,
    _correlation_blocks,
    _matrices,
    _player1_slices,
    _player_marginal,
    _rank_one_slabs,
    _table_slabs,
    build_basis,
)
from .tensor import (
    Tensor3,
    _array_maps,
    _lockstep_ascent,
    _mode_contraction,
    _read_only,
    hermitize,
    top_eigenpair,
)

GROTHENDIECK_REAL = 1.783
GROTHENDIECK_COMPLEX = 1.405

EXACT_ENUMERATION_LIMIT = 30  # largest 2Q handled by exact enumeration

_OBS_TOL = 1e-10

_RESTARTS = 32  # classical sign-ascent starts; classical_value matches the heuristic's default

_SEESAW_MAX_SWEEPS = 500  # per see-saw restart
_SEESAW_TOL = 1e-9  # a see-saw restart stops after a sweep that gains less


def _as_signs(arr) -> np.ndarray:
    """A float64 array of exact +/-1 from entries within 1e-12 of +/-1.

    Any other entry (NaN and infinities included) raises ValueError.  Input
    that is exact already passes one boolean test, s == 1 or s == -1, and
    is copied, unless it is a read-only float64 array, which is returned as
    it is (nothing the caller can still write is ever frozen).  Otherwise
    one scratch buffer holds ||s| - 1| and then np.sign(s), which it returns.
    """
    arr = np.asarray(arr, dtype=np.float64)
    exact = arr == 1.0
    exact |= arr == -1.0
    if exact.all():
        return arr.copy() if arr.flags.writeable else arr
    out = np.abs(arr)
    out -= 1.0
    np.abs(out, out=out)
    if not out.max() < 1e-12:  # NaN fails the comparison
        raise ValueError("sign entries must be +1 or -1")
    return np.sign(arr, out=out)


def _signed(pi, signs) -> np.ndarray:
    """copysign(pi, signs), a fresh float64 array, with the signs checked by
    :func:`_as_signs` and pi nonnegative (ValueError otherwise, NaN
    included); a pi of -0.0 is weight +0 with its sign."""
    signs = _as_signs(signs)
    pi = np.asarray(pi, dtype=np.float64)
    if not pi.min() >= 0.0:  # written so that NaN fails the check
        raise ValueError("pi must be nonnegative")
    return np.copysign(pi, signs)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class XorGame:
    """A game over [Q]^3, held as its one signed table cost = pi * signs.

    pi = |cost| and signs = copysign(1, cost) are derived on each access as
    fresh read-only arrays; a zero weight's sign is the sign of its zero, so
    (pi, signs) round-trip bit for bit.  cost is a read-only float64 array:
    a writeable input is copied, so the caller's array cannot change the
    game, and a read-only one is shared.  Its l1 mass, summed as
    :func:`_l1_norm` sums, must be 1 to 1e-12.  A game is nothing else: one
    built from a tensor keeps no reference to it (see :func:`classical_value`
    for the classical value of a sampled tensor's game taken from g).
    :meth:`from_weights` builds one from (pi, signs).
    """

    Q: int
    cost: np.ndarray

    def __post_init__(self):
        cost = _read_only(self.cost, np.float64)
        if cost.shape != (self.Q,) * 3:
            raise DimensionError(f"cost must have shape ({self.Q},)*3")
        total = sum(float(np.abs(cost[ps]).sum()) for ps in _player1_slices(self.Q))
        if not abs(total - 1.0) <= 1e-12:  # NaN fails the comparison
            raise ValueError(f"pi must sum to 1, got {total!r}")
        object.__setattr__(self, "cost", cost)

    @classmethod
    def from_weights(cls, Q: int, pi, signs) -> XorGame:
        """The game with question distribution pi and signs, both (Q, Q, Q)
        (DimensionError otherwise), checked by :func:`_signed`."""
        if np.shape(pi) != (Q,) * 3 or np.shape(signs) != (Q,) * 3:
            raise DimensionError(f"pi and signs must have shape ({Q},)*3")
        return cls(Q, _frozen(_signed(pi, signs)))

    @property
    def pi(self) -> np.ndarray:
        return _frozen(np.abs(self.cost))

    @property
    def signs(self) -> np.ndarray:
        return _frozen(np.copysign(1.0, self.cost))


@dataclass(frozen=True)
class ClassicalStrategy:
    """One +/-1 answer per question for each player."""

    chi: np.ndarray
    upsilon: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        for name in ("chi", "upsilon", "zeta"):
            object.__setattr__(self, name, _as_signs(getattr(self, name)))


def _observable_stack(obs, d: int, player: int) -> np.ndarray:
    """One player's observables as a read-only (Q, d, d) complex array, each
    d x d (DimensionError), Hermitian and squaring to I to _OBS_TOL
    (ValueError).  The checks run on the whole stack at once; an error
    names the first failing question and its first failing check."""
    bad = next((q for q, O in enumerate(obs) if np.shape(O) != (d, d)), None)
    if bad is not None:
        raise DimensionError(f"player {player} question {bad}: observable must be {d}x{d}")
    stack = _read_only(obs if len(obs) else np.empty((0, d, d)), np.complex128)
    herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= _OBS_TOL
    unitary = np.abs(stack @ stack - np.eye(d)).max(axis=(1, 2)) <= _OBS_TOL
    if not (herm & unitary).all():  # NaN fails both checks
        q = int(np.argmin(herm & unitary))
        what = "observable not Hermitian" if not herm[q] else "observable must square to I"
        raise ValueError(f"player {player} question {q}: {what}")
    return stack


@dataclass(frozen=True)
class EntangledStrategy:
    """Shared unit state plus per-question +/-1-observables for each player.

    The state is held as a read-only complex vector and each player's
    observables as one read-only (Q, d, d) complex array: a list of matrices
    is stacked and a writeable array copied, so the caller's arrays cannot
    change the strategy, and a read-only array is shared.  Each distinct
    input object is checked and frozen once per local dimension, so players
    handed the same object share one stack.
    """

    dims: tuple
    state: np.ndarray
    observables: tuple  # three (Q, d, d) stacks of Hermitian matrices

    def __post_init__(self):
        state = _read_only(self.state, np.complex128).reshape(-1)
        d1, d2, d3 = self.dims
        if state.shape != (d1 * d2 * d3,):
            raise DimensionError("state length must equal the product of dims")
        if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:  # NaN fails every check
            raise ValueError("state must be a unit vector")
        if len(self.observables) != 3:
            raise ValueError("need one observable list per player")
        stacks = {}
        for p, (d, obs) in enumerate(zip(self.dims, self.observables)):
            if (id(obs), d) not in stacks:
                stacks[id(obs), d] = _observable_stack(obs, d, p)
        observables = tuple(stacks[id(obs), d] for d, obs in zip(self.dims, self.observables))
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "observables", observables)


@dataclass(frozen=True)
class GameBuildReport:
    """Outcome of turning a tensor into a game.

    l1_norm is the l1 mass of the coefficient table normalized into the game;
    pauli_bias = N^3 lambda / l1_norm is the bias that the explicit Pauli
    strategy of the hermitized tensor, whose top eigenvalue is lambda,
    achieves on the game.
    """

    pauli_bias: float
    l1_norm: float
    game: XorGame


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bias inequality: lhs <= bound, with the slack observed."""

    name: str
    lhs: float
    bound: float
    slack: float
    ok: bool


def _l1_norm(abs_slabs) -> float:
    """The l1 mass of a coefficient table given as |c| over its consecutive
    slabs of player 1's questions (`pauli._player1_slices`): each slab's
    sum, added in slab order.  A table held whole and the same table
    streamed from g (:func:`l1_from_g`) therefore give the same float bit
    for bit.  DegenerateGameError when it is 0, exactly when the tensor is 0."""
    l1 = 0.0
    for a in abs_slabs:
        l1 += float(a.sum())
    if l1 == 0.0:
        raise DegenerateGameError("coefficient table vanishes")
    return l1


def _pauli_bias(H: Tensor3, l1: float) -> float:
    """N^3 lambda / l1, the explicit Pauli strategy's bias on the game of a
    Hermitian H with table l1 mass l1, lambda from the Lanczos top eigenpair
    that `hermitize` or `spectral_norm` already cached."""
    lam, _ = top_eigenpair(H)
    return H.N**3 * lam / l1


def l1_from_g(T: Tensor3) -> float:
    """The l1 mass of a sampled tensor's coefficient table, streamed from g.

    The table's slabs over player 1's questions come from
    `pauli._rank_one_slabs` one at a time, O(N^7) in all, and are summed as
    :func:`game_from_tensor` sums pi, so the value equals its `l1_norm` bit
    for bit, while nothing with Q^3 entries is formed: the largest
    intermediates are one slab's, about `pauli._BLOCK_BYTES`.  ValueError
    for a tensor without g; DegenerateGameError when the table vanishes.
    """
    if T.raw_g is None:
        raise ValueError("l1_from_g needs a sampled tensor, one given by its raw vector g")
    return _l1_norm(np.abs(slab, out=slab) for _, slab in _rank_one_slabs(T.n, T.raw_g, True))


def game_from_tensor(T: Tensor3) -> GameBuildReport:
    """Build the Pauli-question game of a tensor.

    The tensor is hermitized and its coefficient table, real for a Hermitian
    tensor, is written slab by slab (`pauli._table_slabs`) into the game's
    one signed table, with a zero coefficient as +0.0 (sign +1), then
    summed as |c| over the slabs of player 1's questions for l1
    (:func:`_l1_norm`, as :func:`l1_from_g` sums a sampled tensor's
    streamed table) and divided by it in place.  A sampled tensor's table
    comes from g in real arithmetic, so its matrix is never built; a
    general tensor's from the offset blocks of its hermitized part, read
    from T's matrix, so no hermitized matrix and no complex table is
    formed.  The explicit Pauli strategy's bias on that game is reported in
    closed form, N^3 lambda / l1 (see :func:`pauli_strategy`), from the
    Lanczos top eigenpair that `hermitize` or `spectral_norm` already cached
    (computed from g for a sampled tensor); no strategy is evaluated.
    l1 = 0 (DegenerateGameError) exactly when T = 0.  The table is made
    read-only, so the game takes it over without a copy; the game holds
    nothing of T.
    """
    _check_table_size(T.n)
    H = hermitize(T)
    Q = T.N * T.N
    cost = np.empty((Q, Q, Q))
    for ps, slab in _table_slabs(H):
        c = slab.real
        c += 0.0  # -0.0 + 0.0 is +0.0, and any other entry stays
        cost[ps] = c
    l1 = _l1_norm(np.abs(cost[ps]) for ps in _player1_slices(Q))
    cost /= l1
    game = XorGame(Q=Q, cost=_frozen(cost))
    return GameBuildReport(pauli_bias=_pauli_bias(H, l1), l1_norm=l1, game=game)


def _sign_vectors(Q: int) -> np.ndarray:
    """All 2^(Q-1) +/-1 vectors of length Q whose first entry is +1."""
    count = 1 << (Q - 1)
    bits = (np.arange(count)[:, None] >> np.arange(Q - 1)[None, :]) & 1
    return np.hstack([np.ones((count, 1)), 1.0 - 2.0 * bits])


def classical_bias_exact(G: XorGame) -> tuple[float, ClassicalStrategy]:
    """Exact classical bias by enumeration over two players.

    The third player's best response is closed form: zeta(k) is the sign of
    the partial sum over the first two answers, so only 2^(2Q) sign patterns
    are visited instead of 2^(3Q); global sign flips of a player leave the
    optimum unchanged, which pins the first answer of the enumerated players.
    """
    Q = G.Q
    if 2 * Q > EXACT_ENUMERATION_LIMIT:
        raise ScaleError(
            f"2Q = {2*Q} exceeds the enumeration limit "
            f"{EXACT_ENUMERATION_LIMIT}; use classical_bias_heuristic"
        )
    C = G.cost
    signs = _sign_vectors(Q)  # both enumerated players' candidate answers
    C2 = C.reshape(Q, Q * Q)
    best = -np.inf
    best_pair = None
    for chi in signs:
        A = (chi @ C2).reshape(Q, Q)  # A[j, k] = sum_i chi_i C[i, j, k]
        vals = np.abs(signs @ A).sum(axis=1)
        u = int(np.argmax(vals))
        if vals[u] > best:
            best = float(vals[u])
            best_pair = (chi.copy(), signs[u].copy())
    chi, upsilon = best_pair
    partial = np.einsum("ijk,i,j->k", C, chi, upsilon)
    zeta = np.where(partial < 0.0, -1.0, 1.0)
    return best, ClassicalStrategy(chi=chi, upsilon=upsilon, zeta=zeta)


def _pauli_partial_sums(T: Tensor3):
    """The partial sums of a sampled tensor's coefficient table c from g,
    as the held map of :func:`_lockstep_ascent` on stacks of sign vectors;
    :func:`classical_value` ascends on them.

    Player 1's partial sums are s_p = Re <A, P_p>, A the tensor's mode map
    (see :func:`_mode_contraction`) applied to the factors Σ_q upsilon_q
    conj(P_q) and Σ_r zeta_r conj(P_r); likewise for the other players.
    hold(h, v) holds the factor of v on mode h, and its image(m, w) returns
    player m + 1's sums given the factor of w on the third mode.  Factors
    come from `pauli._matrices` through the maps' `enter`, and sums from
    `pauli._coefficients`, O(N^3) per restart, with no Q^3 array.
    """
    enter, hold = _mode_contraction(T)

    def held(h, v):
        image = hold(h, enter(_matrices(v)))
        return lambda m, w: _coefficients(image(m, enter(_matrices(w)))).real

    return held


def _sign_update(s, old, valued):
    """The best response to partial sums s, zeros to +1, and its value
    where valued is set (None otherwise: the ascent reads no other)."""
    new = np.where(s < 0.0, -1.0, 1.0)
    return new, ((new * s).sum(axis=1) if valued else None)


def _no_answer_changed(prev, v, old, new):
    return np.all((new[0] == old[0]) & (new[1] == old[1]) & (new[2] == old[2]), axis=1)


def _sign_ascent(hold, Q: int, restarts: int, seed: int) -> tuple[float, ClassicalStrategy]:
    """The lockstep sign ascent on the partial sums `hold` of a Q-question
    table, from `restarts` starts seeded by `seed`, and its best value."""
    # each restart's three sign vectors are rng.choice([-1.0, 1.0], Q) three
    # times, drawn as one run of 3Q integers from the same stream (choice
    # indexes with rng.integers), so the starts are bit for bit the same
    signs = np.array([-1.0, 1.0])
    starts = np.array(
        [signs[np.random.default_rng(ss).integers(0, 2, 3 * Q)] for ss in np.random.SeedSequence(seed).spawn(restarts)]
    )
    starts = starts.reshape(restarts, 3, Q).transpose(1, 0, 2).copy()  # (3, restarts, Q)
    value, (chi, upsilon, zeta) = _lockstep_ascent(hold, _sign_update, starts, 1000, _no_answer_changed)
    return value, ClassicalStrategy(chi=chi, upsilon=upsilon, zeta=zeta)


def classical_bias_heuristic(
    G: XorGame, restarts: int = _RESTARTS, seed: int = 0
) -> tuple[float, ClassicalStrategy]:
    """Coordinate ascent over the three sign vectors from random starts.

    Each player's best response given the others is the sign of a partial
    sum; zero sums resolve to +1, which leaves the bias unchanged (those
    questions contribute nothing) while escaping balanced-sign saddles, so
    sweeps never decrease the bias.  Restart r starts from signs drawn from
    the r-th child of `seed` and stops after a sweep that changes none of
    its answers, or after 1000 sweeps.  All restarts advance in lockstep
    (see :func:`tensor._lockstep_ascent`, which the ALS shares).  The first
    restart whose value ties the largest to rounding (1e-12 relative) wins;
    the value is always a lower bound on the classical bias, and never
    exceeds the exact optimum.  The partial sums come from the game's signed
    table, read in place through `tensor._array_maps`, with the sign vectors
    as its factors, O(Q^2) per restart and player.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    return _sign_ascent(_array_maps(G.cost), G.Q, restarts, seed)


def classical_value(T: Tensor3, seed: int = 0) -> tuple[float, ClassicalStrategy]:
    """The classical value of a sampled tensor's Pauli coefficient table.

    The same ascent as :func:`classical_bias_heuristic` with its default
    `_RESTARTS` (32) restarts, from the same starts, with the partial sums
    taken from g (see :func:`_pauli_partial_sums`), O(N^4) per restart and
    player, so no Q^3 table is formed, at any n.  Returns (v, strategy)
    with v on the unnormalized table: the game that `game_from_tensor`
    builds from T has classical bias at least v / l1.  ValueError for a
    tensor without g.
    """
    if T.raw_g is None:
        raise ValueError("classical_value needs a sampled tensor, one given by its raw vector g")
    return _sign_ascent(_pauli_partial_sums(T), T.N * T.N, _RESTARTS, seed)


def classical_bias(
    G: XorGame, restarts: int = _RESTARTS, seed: int = 0
) -> tuple[float, ClassicalStrategy, str]:
    """Classical bias by the best method the game's size allows, and its name.

    A game with 2Q <= EXACT_ENUMERATION_LIMIT is enumerated ("exact");
    a larger one gets the coordinate ascent from `restarts` seeded starts
    ("heuristic"), whose value is a lower bound.  restarts < 1 is a
    ValueError for either method.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if 2 * G.Q <= EXACT_ENUMERATION_LIMIT:
        return (*classical_bias_exact(G), "exact")
    return (*classical_bias_heuristic(G, restarts=restarts, seed=seed), "heuristic")


def _real_correlation_blocks(S: EntangledStrategy):
    """Yield (ks, w) with w the real (Q1, Q2, len ks) slice w[:, :, ks] of
    the strategy's correlations, block by block (:func:`pauli._correlation_blocks`).
    ValueError as soon as a block's imaginary part exceeds 1e-9 (observables
    not Hermitian)."""
    for ks, w in _correlation_blocks(S.state.reshape(S.dims), *S.observables):
        if np.abs(w.imag).max(initial=0.0) > 1e-9:
            raise ValueError("correlations came out non-real; invalid strategy")
        yield ks, w.real


def strategy_correlations(S: EntangledStrategy) -> np.ndarray:
    """All correlations <psi| A_i ⊗ B_j ⊗ C_k |psi> as a real (Q1, Q2, Q3) array.

    The blocked contraction of the state with the three observable stacks,
    over consecutive blocks of player 3's questions, whose marginals the
    see-saw's best response shares.  Each block is written into the one
    returned array, so the largest intermediate is one block's complex
    slice.  ValueError when an imaginary part exceeds 1e-9 (observables not
    Hermitian).
    """
    w = np.empty(tuple(len(obs) for obs in S.observables))
    for ks, block in _real_correlation_blocks(S):
        w[:, :, ks] = block
    return w


def entangled_bias_eval(G: XorGame, S: EntangledStrategy) -> float:
    """Bias of a concrete entangled strategy: sum cost * correlation.

    The sum runs over the blocks of player 3's questions that
    :func:`strategy_correlations` contracts, one slice of the game's signed
    table at a time, so neither the correlation table nor pi or signs is formed:
    memory is O(block), each intermediate within `pauli._BLOCK_BYTES`
    (512 kB; the traced peak is 2.7 MB at n = 3).  Any value
    returned here is achievable, hence a lower bound on the game's entangled
    bias.
    """
    if any(len(obs) != G.Q for obs in S.observables):
        raise DimensionError("strategy must provide one observable per question")
    total = 0.0
    for ks, w in _real_correlation_blocks(S):
        total += float(np.sum(G.cost[:, :, ks] * w))
    return total


def pauli_strategy(T: Tensor3) -> EntangledStrategy:
    """The explicit strategy for the game of `game_from_tensor(T)`, any T.

    Question index p is answered by measuring the p-th basis element (all
    three players alike, local dimension N), on the top eigenvector of
    `hermitize(T)`, as the game build hermitizes T.  The three players
    share the basis's one read-only (N^2, N, N) array.  Summing
    coefficient(P,Q,R) times the correlation of (P,Q,R) over all questions
    telescopes to N^3 times the top eigenvalue, the game's `pauli_bias`.
    """
    E = build_basis(T.n)
    _, psi = top_eigenpair(hermitize(T))
    return EntangledStrategy(dims=(T.N, T.N, T.N), state=psi, observables=(E, E, E))


def _matrix_sign(H: np.ndarray) -> tuple[np.ndarray, float]:
    """Observables closest to a (Q, d, d) stack H, and sum_q tr(sign(H_q) H_q).

    Each Hermitian part's eigenvalues flip to +/-1 (zeros to +1); the trace
    sum is the sum of their magnitudes.
    """
    w, V = np.linalg.eigh((H + H.conj().transpose(0, 2, 1)) / 2.0)
    s = np.where(w >= 0.0, 1.0, -1.0)
    return (V * s[:, None, :]) @ V.conj().transpose(0, 2, 1), float(np.abs(w).sum())


def _best_response(C: np.ndarray, p3: np.ndarray, B: np.ndarray, Cm: np.ndarray):
    """Player 1's optimal observables given the state p3 (d, d, d), B and Cm.

    E_i[x, a] = sum_jk C_ijk sigma[(a, x), (j, k)] is one matrix product
    C_(1) sigma^T with the marginals of :func:`_player_marginal`; the bias
    sum_i tr(A_i E_i) is maximized by A_i = sign(E_i).  Returns those
    observables and that bias.  The other players call this with their axes
    of C and p3 moved to the front.  Unlike the correlations it takes all of
    player 3's questions as one block: at the see-saw's sizes (d <= 4,
    Q <= 16) the block loop costs more than it saves.  The largest
    intermediates are sigma, d^2 Q2 Q3 complex entries, and C_(1) itself,
    a copy of Q Q2 Q3 floats when C is a transposed view.
    """
    Q, d = len(C), p3.shape[0]
    E = C.reshape(Q, -1) @ _player_marginal(p3, B, Cm).T  # (i, (a, x))
    return _matrix_sign(E.reshape(Q, d, d).transpose(0, 2, 1))


def _game_operator(C: np.ndarray, A: np.ndarray, B: np.ndarray, Cm: np.ndarray):
    d = A.shape[1]
    D = np.einsum("ijk,kcz->ijcz", C, Cm, optimize=True)
    E2 = np.einsum("jby,ijcz->ibcyz", B, D, optimize=True)
    op = np.einsum("iax,ibcyz->abcxyz", A, E2, optimize=True).reshape(d**3, d**3)
    return (op + op.conj().T) / 2.0


def seesaw_entangled_bias(
    G: XorGame,
    d: int,
    restarts: int = 8,
    seed: int = 0,
    on_sweep=None,
) -> tuple[float, EntangledStrategy]:
    """Alternating lower-bound heuristic for the entangled bias at local dimension d.

    A sweep updates the shared state (top eigenvector of the current game
    operator) and then each player's observables in turn: with the rest
    fixed, the matrix sign of each question's effective operator, built
    from the marginals `strategy_correlations` contracts, is optimal, so the
    bias never decreases.  The sweep's bias is the one its last update
    reaches; a restart stops after a sweep that gains less than 1e-9, or
    after 500 sweeps.  Runs from several seeded starts and returns the best
    strategy found (the first, on a tie) with its explicitly evaluated bias,
    so the value is always achievable, hence a lower bound.
    """
    if not 1 <= d <= 2**MAX_QUBITS:
        raise ValueError(f"d must lie in 1..{2**MAX_QUBITS}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    Q = G.Q
    C = G.cost
    best = -np.inf
    best_strat = None
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(ss)

        def rand_obs():
            M = rng.standard_normal((Q, 2, d, d))
            M = M[:, 0] + 1j * M[:, 1]
            return _matrix_sign(M + M.conj().transpose(0, 2, 1))[0]

        A, B, Cm = rand_obs(), rand_obs(), rand_obs()
        prev = -np.inf
        for sweep in range(_SEESAW_MAX_SWEEPS):
            _, V = np.linalg.eigh(_game_operator(C, A, B, Cm))
            psi = V[:, -1]
            p3 = psi.reshape(d, d, d)
            A, _ = _best_response(C, p3, B, Cm)
            B, _ = _best_response(C.transpose(1, 0, 2), p3.transpose(1, 0, 2), A, Cm)
            Cm, val = _best_response(C.transpose(2, 0, 1), p3.transpose(2, 0, 1), A, B)
            if on_sweep is not None:
                on_sweep(r, sweep, val)
            if val - prev < _SEESAW_TOL:
                break
            prev = val
        if val > best:
            best, best_strat = val, EntangledStrategy(dims=(d, d, d), state=psi, observables=(A, B, Cm))
    return entangled_bias_eval(G, best_strat), best_strat


def _bound_report(name: str, lhs: float, bound) -> BoundReport:
    """lhs <= bound, to a 1e-9 tolerance, with the slack bound - lhs."""
    return BoundReport(name=name, lhs=lhs, bound=float(bound), slack=float(bound - lhs), ok=bool(lhs <= bound + 1e-9))


def check_question_bound(G: XorGame, beta_star_lb: float, beta: float) -> BoundReport:
    """Check beta_star_lb <= sqrt(Q) * K_R * beta (K_R the real constant)."""
    return _bound_report("question_bound", beta_star_lb, np.sqrt(G.Q) * GROTHENDIECK_REAL * beta)


def check_dimension_bound(G: XorGame, beta_star_lb: float, d: int, beta: float) -> BoundReport:
    """Check beta_star_lb <= sqrt(3d) * K_C^{3/2} * beta (K_C the complex constant)."""
    return _bound_report("dimension_bound", beta_star_lb, np.sqrt(3.0 * d) * GROTHENDIECK_COMPLEX**1.5 * beta)


# --- benchmark fixtures ----------------------------------------------------


def mermin_game() -> XorGame:
    """Benchmark fixture: uniform support on the four odd-parity question
    triples with signs (+,-,-,-); classical bias 1/2, entangled bias 1."""
    cost = np.zeros((2, 2, 2))
    cost[0, 0, 0] = 0.25
    cost[0, 1, 1] = cost[1, 0, 1] = cost[1, 1, 0] = -0.25
    return XorGame(Q=2, cost=cost)


def ghz_strategy() -> EntangledStrategy:
    """The standard qubit strategy for the Mermin fixture: GHZ state, X/Y answers."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    state = np.zeros(8, dtype=complex)
    state[0] = state[7] = 1.0 / np.sqrt(2.0)
    obs = ([X, Y], [X, Y], [X, Y])
    return EntangledStrategy(dims=(2, 2, 2), state=state, observables=obs)


def embedded_chsh_game() -> XorGame:
    """Benchmark fixture: two-player CHSH padded to a three-player game of 4 questions.

    Players one and two use questions {0, 1} uniformly; the third player is
    always asked question 0 and plays identity.  Remaining question triples
    have probability zero (signs +1 by convention).  Classical bias 1/2;
    qubit strategies reach sqrt(2)/2.
    """
    cost = np.zeros((4, 4, 4))
    cost[:2, :2, 0] = 0.25
    cost[1, 1, 0] = -0.25
    return XorGame(Q=4, cost=cost)


# --- io ---------------------------------------------------------------------


def save_game_csv(path, G: XorGame) -> None:
    """Write all question triples as rows q1,q2,q3,pi,sign, pi as its repr
    (which csv writes for a float) and the sign as +/-1."""
    Q = G.Q
    pi, signs = G.pi, G.signs.astype(np.int8)
    jk = list(itertools.product(range(Q), repeat=2))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q1", "q2", "q3", "pi", "sign"])
        for i in range(Q):  # flat lists one question of player 1 at a time
            w.writerows((i, j, k, p, s) for (j, k), p, s in zip(jk, pi[i].ravel().tolist(), signs[i].ravel().tolist()))


def load_game_csv(path) -> XorGame:
    """Read a game written by :func:`save_game_csv` into its signed table.

    Raises ValueError for a missing header, a row with fewer than five
    fields, a question index outside 0..4^MAX_QUBITS - 1 (no tensor here
    yields a larger game), a repeated triple, or no question rows, and for
    the checks of :func:`_signed` on the rows' pi and signs.  Rows are read
    into flat buffers, a triple packed into one integer, and checked line
    by line; repeated triples are found by one sort once every row is read,
    and the error names the line of the earliest row that repeats an
    earlier row's triple.  Unlisted triples have weight +0 and sign +1.
    """
    L = 4**MAX_QUBITS
    # each row as machine values: its triple packed in base L, pi, sign and
    # the line on which csv read it
    keys, pis, sgns, lines = array("q"), array("d"), array("d"), array("q")
    top = -1  # the largest question index seen
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, [])[:5] != ["q1", "q2", "q3", "pi", "sign"]:
            raise ValueError("not a game CSV")
        for row in r:
            if len(row) < 5:
                raise ValueError(f"game CSV line {r.line_num}: {len(row)} fields, need 5")
            i, j, k = int(row[0]), int(row[1]), int(row[2])
            if min(i, j, k) < 0:
                raise ValueError(f"game CSV line {r.line_num}: negative question index")
            hi = max(i, j, k)
            if hi >= L:
                raise ValueError(f"game CSV line {r.line_num}: question index above {L - 1}")
            if hi > top:
                top = hi
            keys.append((i * L + j) * L + k)
            pis.append(float(row[3]))
            sgns.append(float(row[4]))
            lines.append(r.line_num)
    if not keys:
        raise ValueError("game CSV has no question rows")
    packed = np.frombuffer(keys, np.int64)
    ordered = np.sort(packed)
    if np.any(ordered[1:] == ordered[:-1]):
        seen = set()
        for n, key in enumerate(keys):  # the earliest repeat
            if key in seen:
                triple = (key // (L * L), key // L % L, key % L)
                raise ValueError(f"game CSV line {lines[n]}: repeated question triple {triple}")
            seen.add(key)
    del ordered, lines
    # the signs read-only, so that _as_signs checks them without a copy
    values = _signed(np.frombuffer(pis), _frozen(np.frombuffer(sgns)))
    del pis, sgns
    Q = top + 1
    at = packed // (L * L) * (Q * Q)
    at += packed // L % L * Q
    at += packed % L
    del packed, keys
    cost = np.zeros(Q**3)
    cost[at] = values
    return XorGame(Q=Q, cost=_frozen(cost.reshape(Q, Q, Q)))


def strategy_to_json(S: EntangledStrategy) -> str:
    """Serialize a strategy (dims, state and observables as re/im pairs)."""

    def cvec(arr):
        arr = np.asarray(arr, dtype=complex).reshape(-1)
        return [[float(v.real), float(v.imag)] for v in arr]

    payload = {
        "dims": list(S.dims),
        "state": cvec(S.state),
        "observables": [[cvec(O) for O in obs] for obs in S.observables],
    }
    return json.dumps(payload)


def strategy_from_json(text: str) -> EntangledStrategy:
    """Read a strategy written by :func:`strategy_to_json`.

    Raises ValueError, naming the field, when the payload is not an object
    with dims (three positive integers), state (a list of [re, im] number
    pairs) and observables (three lists of such pair lists, one d x d matrix
    each), or when the strategy they describe is invalid.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("strategy JSON must be an object")
    missing = [key for key in ("dims", "state", "observables") if key not in payload]
    if missing:
        raise ValueError(f"strategy JSON lacks {', '.join(missing)}")
    dims = payload["dims"]
    if not (
        isinstance(dims, list)
        and len(dims) == 3
        and all(type(d) is int and d >= 1 for d in dims)
    ):
        raise ValueError("strategy JSON dims must be a list of three positive integers")
    dims = tuple(dims)

    def unvec(pairs, field, count=None):
        """[[re, im], ...] as a complex vector (of `count` entries when given)."""
        try:
            flat = np.array(pairs)
        except ValueError:  # ragged nesting
            flat = np.array(None)
        if flat.dtype.kind not in "iuf" or flat.ndim != 2 or flat.shape[1] != 2 or count not in (None, len(flat)):
            what = "[re, im] number pairs" if count is None else f"{count} [re, im] number pairs"
            raise ValueError(f"strategy JSON {field} must be a list of {what}")
        return flat[:, 0] + 1j * flat[:, 1]

    obs = payload["observables"]
    if not (isinstance(obs, list) and len(obs) == 3 and all(isinstance(o, list) for o in obs)):
        raise ValueError("strategy JSON observables must be a list of three lists")
    observables = tuple(
        [unvec(O, f"observables[{p}][{q}]", d * d).reshape(d, d) for q, O in enumerate(obs[p])]
        for p, d in enumerate(dims)
    )
    state = unvec(payload["state"], "state")
    return EntangledStrategy(dims=dims, state=state, observables=observables)
