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
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGameError, DimensionError, ScaleError
from .pauli import MAX_QUBITS, _mode_matrix, build_basis, fourier
from .tensor import Tensor3, _array_maps, _lockstep_ascent, _mode_contraction, _read_only, hermitize, top_eigenpair

GROTHENDIECK_REAL = 1.783
GROTHENDIECK_COMPLEX = 1.405

EXACT_ENUMERATION_LIMIT = 30  # largest 2Q handled by exact enumeration

_OBS_TOL = 1e-10

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


@dataclass(frozen=True)
class XorGame:
    """Question distribution pi over [Q]^3 and signs in {-1, +1}.

    Both are held as read-only float64 arrays: a writeable input is copied,
    so the caller's array stays writeable and cannot change the game, and a
    read-only one is shared.

    source is (T, l1) for a game that `game_from_tensor` built from the
    sampled tensor T: its cost tensor is T's Pauli coefficient table over
    l1, so the classical ascent can take its partial sums from g instead
    of the Q^3 table.  It plays no part in equality and is not saved.
    """

    Q: int
    pi: np.ndarray
    signs: np.ndarray
    source: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        pi = _read_only(self.pi, np.float64)
        signs = _as_signs(self.signs)
        if pi.shape != (self.Q,) * 3 or signs.shape != (self.Q,) * 3:
            raise DimensionError(f"pi and signs must have shape ({self.Q},)*3")
        if not pi.min() >= 0.0:  # written so that NaN fails both checks
            raise ValueError("pi must be nonnegative")
        if not abs(pi.sum() - 1.0) <= 1e-12:
            raise ValueError(f"pi must sum to 1, got {pi.sum()!r}")
        signs.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "signs", signs)

    def cost_tensor(self) -> np.ndarray:
        return self.pi * self.signs


@dataclass(frozen=True)
class ClassicalStrategy:
    """One +/-1 answer per question for each player."""

    chi: np.ndarray
    upsilon: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        for name in ("chi", "upsilon", "zeta"):
            object.__setattr__(self, name, _as_signs(getattr(self, name)))


@dataclass(frozen=True)
class EntangledStrategy:
    """Shared unit state plus per-question +/-1-observables for each player.

    The state and every observable are held as read-only complex arrays:
    a writeable input is copied, so the caller's arrays cannot change the
    strategy, and a read-only one is shared.
    """

    dims: tuple
    state: np.ndarray
    observables: tuple  # three tuples of (d, d) Hermitian matrices

    def __post_init__(self):
        state = _read_only(self.state, np.complex128).reshape(-1)
        d1, d2, d3 = self.dims
        if state.shape != (d1 * d2 * d3,):
            raise DimensionError("state length must equal the product of dims")
        if not abs(np.linalg.norm(state) - 1.0) <= 1e-12:  # NaN fails every check
            raise ValueError("state must be a unit vector")
        if len(self.observables) != 3:
            raise ValueError("need one observable list per player")
        observables = tuple(tuple(_read_only(O, np.complex128) for O in obs) for obs in self.observables)
        for player, (d, obs) in enumerate(zip(self.dims, observables)):
            for q, O in enumerate(obs):
                where = f"player {player} question {q}"
                if O.shape != (d, d):
                    raise DimensionError(f"{where}: observable must be {d}x{d}")
                if not np.abs(O - O.conj().T).max() <= _OBS_TOL:
                    raise ValueError(f"{where}: observable not Hermitian")
                if not np.abs(O @ O - np.eye(d)).max() <= _OBS_TOL:
                    raise ValueError(f"{where}: observable must square to I")
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


def game_from_tensor(T: Tensor3) -> GameBuildReport:
    """Build the Pauli-question game of a tensor.

    The tensor is hermitized and its coefficient table, real for a Hermitian
    tensor, is l1-normalized into (pi, signs): signs first, then pi as the
    table's absolute value in place, summed once for l1 and divided in
    place.  A sampled tensor's table comes from g in real arithmetic, so its
    matrix is never built.  The explicit Pauli strategy's
    bias on that game is reported in closed form, N^3 lambda / l1 (see
    :func:`pauli_strategy`), from the Lanczos top eigenpair that `hermitize`
    or `spectral_norm` already cached (computed from g for a sampled tensor);
    no strategy is evaluated.  l1 = 0 (DegenerateGameError) exactly when T = 0.
    A sampled tensor is its own hermitization, and the game keeps (T, l1)
    as its source for the classical ascent.  pi and the exact signs are
    made read-only, so the game takes them over without a copy.
    """
    H = hermitize(T)
    # the table is fresh: real for a sampled tensor, otherwise copied out of
    # the complex one, so pi can take it over in place
    pi = np.ascontiguousarray(fourier(H).coefficients.real)
    signs = np.less(pi, 0.0, out=np.empty_like(pi))
    signs *= -2.0
    signs += 1.0  # where(c < 0, -1, +1), in passes faster than np.where's
    np.abs(pi, out=pi)
    l1 = float(pi.sum())
    if l1 == 0.0:
        raise DegenerateGameError("coefficient table vanishes")
    lam, _ = top_eigenpair(H)
    pi /= l1
    source = (H, l1) if H.raw_g is not None else None
    # both are fresh and signs are exact, so the game takes them over as they are
    pi.setflags(write=False)
    signs.setflags(write=False)
    game = XorGame(Q=T.N * T.N, pi=pi, signs=signs, source=source)
    return GameBuildReport(pauli_bias=H.N**3 * lam / l1, l1_norm=l1, game=game)


def _sign_vectors(Q: int, fix_first: bool) -> np.ndarray:
    """All +/-1 vectors of length Q (first entry pinned to +1 when fix_first)."""
    free = Q - 1 if fix_first else Q
    count = 1 << free
    rows = np.arange(count)[:, None]
    bits = (rows >> np.arange(free)[None, :]) & 1
    vecs = 1.0 - 2.0 * bits
    if fix_first:
        vecs = np.hstack([np.ones((count, 1)), vecs])
    return vecs


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
    C = G.cost_tensor()
    chis = _sign_vectors(Q, fix_first=True)
    upsilons = _sign_vectors(Q, fix_first=True)
    C2 = C.reshape(Q, Q * Q)
    best = -np.inf
    best_pair = None
    for chi in chis:
        A = (chi @ C2).reshape(Q, Q)  # A[j, k] = sum_i chi_i C[i, j, k]
        vals = np.abs(upsilons @ A).sum(axis=1)
        u = int(np.argmax(vals))
        if vals[u] > best:
            best = float(vals[u])
            best_pair = (chi.copy(), upsilons[u].copy())
    chi, upsilon = best_pair
    partial = np.einsum("ijk,i,j->k", C, chi, upsilon)
    zeta = np.where(partial < 0.0, -1.0, 1.0)
    return best, ClassicalStrategy(chi=chi, upsilon=upsilon, zeta=zeta)


def _pauli_partial_sums(T: Tensor3):
    """The partial sums of a sampled tensor's coefficient table c from g,
    as the maps (hold_z, contract_z) of :func:`_lockstep_ascent` on stacks
    of sign vectors.

    With B = `pauli._mode_matrix(n)` (row p holds conj(P_p)), c_pqr =
    sum B[p, a] B[q, b] B[r, c] W[a, b, c], so player 1's partial sums are
    s = Re(A B^T), where A is the tensor's mode map (see
    :func:`_mode_contraction`) applied to the factors upsilon B and zeta B;
    likewise for the other players.  The sign vectors are real, so both
    transforms are real GEMMs on the (re, im) float view of B, and nothing
    of size Q^3 is formed.  The factor transform is B passed once through
    the maps' `enter`, so each factor v B0 enters as the maps read it; A
    comes out masked, so the sums read all of B.
    """
    N = T.N
    B = _mode_matrix(T.n)
    enter, hold, contract_z = _mode_contraction(T)
    # v -> v B0, interleaved re, im
    to_factor = enter(B.reshape(len(B), N, N)).view(np.float64).reshape(len(B), -1)
    to_sums = B.conj().view(np.float64).reshape(len(B), -1).T  # A -> Re(A B^T)

    def factor(v):
        return (v @ to_factor).view(np.complex128).reshape(-1, N, N)

    def sums(A):
        return A.view(np.float64).reshape(len(A), -1) @ to_sums

    def hold_z(z):
        given = hold(factor(z))
        return lambda mode, v: sums(given(mode, factor(v)))

    return hold_z, lambda x, y: sums(contract_z(factor(x), factor(y)))


def _sign_update(s, old):
    """The best response to partial sums s, zeros to +1, and its value."""
    new = np.where(s < 0.0, -1.0, 1.0)
    return new, (new * s).sum(axis=1)


def _no_answer_changed(prev, v, old, new):
    return np.all((new[0] == old[0]) & (new[1] == old[1]) & (new[2] == old[2]), axis=1)


def classical_bias_heuristic(
    G: XorGame, restarts: int = 32, seed: int = 0
) -> tuple[float, ClassicalStrategy]:
    """Coordinate ascent over the three sign vectors from random starts.

    Each player's best response given the others is the sign of a partial
    sum; zero sums resolve to +1, which leaves the bias unchanged (those
    questions contribute nothing) while escaping balanced-sign saddles, so
    sweeps never decrease the bias.  Restart r starts from signs drawn from
    the r-th child of `seed` and stops after a sweep that changes none of
    its answers, or after 1000 sweeps.  All restarts advance in lockstep
    (see :func:`tensor._lockstep_ascent`, which the ALS shares).  The first
    restart with the largest value wins; the value is always a lower bound
    on the classical bias, and never exceeds the exact optimum.

    The partial sums come from one of two map providers: a game built from
    a sampled tensor T (its `source` is (T, l1)) takes them from g (see
    :func:`_pauli_partial_sums`), O(N^4) per restart and player, and reports
    v / l1 for the value v on the coefficient table; any other game's dense
    cost tensor goes to `tensor._array_maps` with the sign vectors as its
    factors.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    Q = G.Q
    if G.source is None:
        hold_z, contract_z = _array_maps(G.cost_tensor())
        scale = 1.0
    else:
        T, scale = G.source
        hold_z, contract_z = _pauli_partial_sums(T)
    # each restart's three sign vectors are rng.choice([-1.0, 1.0], Q) three
    # times, drawn as one run of 3Q integers from the same stream (choice
    # indexes with rng.integers), so the starts are bit for bit the same
    signs = np.array([-1.0, 1.0])
    starts = np.array(
        [signs[np.random.default_rng(ss).integers(0, 2, 3 * Q)] for ss in np.random.SeedSequence(seed).spawn(restarts)]
    )
    starts = starts.reshape(restarts, 3, Q).transpose(1, 0, 2).copy()  # (3, restarts, Q)
    value, (chi, upsilon, zeta) = _lockstep_ascent(
        hold_z, contract_z, _sign_update, starts, 1000, _no_answer_changed
    )
    return value / scale, ClassicalStrategy(chi=chi, upsilon=upsilon, zeta=zeta)


def classical_bias(
    G: XorGame, restarts: int = 32, seed: int = 0
) -> tuple[float, ClassicalStrategy, str]:
    """Classical bias by the best method the game's size allows, and its name.

    A game with 2Q <= EXACT_ENUMERATION_LIMIT is enumerated ("exact");
    a larger one gets the coordinate ascent from `restarts` seeded starts
    ("heuristic"), whose value is a lower bound.
    """
    if 2 * G.Q <= EXACT_ENUMERATION_LIMIT:
        return (*classical_bias_exact(G), "exact")
    return (*classical_bias_heuristic(G, restarts=restarts, seed=seed), "heuristic")


def _player_marginal(psi: np.ndarray, B, Cm) -> np.ndarray:
    """Player 1's marginals sigma[(a, x), (j, k)] = <psi| |a><x| ⊗ B_j ⊗ Cm_k |psi>.

    For psi of shape (d1, d2, d3), returns a (d1^2, Q2 Q3) matrix.  Player 3
    is contracted on ket and bra first, rho_k = (psi ×3 Cm_k) psi^H, then
    player 2, one matrix product each; no intermediate exceeds Q2 Q3 d1^2
    or Q3 d1^2 d2^2 entries.
    """
    d1, d2, d3 = psi.shape
    Q2, Q3 = len(B), len(Cm)
    psi = psi.reshape(d1 * d2, d3)
    # phi[xy, (k, c)] = sum_z psi[xy, z] C_k[c, z]; rho[(x, y, k), ab] = sum_c phi conj(psi[ab, c])
    phi = psi @ np.asarray(Cm, dtype=complex).transpose(2, 0, 1).reshape(d3, Q3 * d3)
    rho = (phi.reshape(-1, d3) @ psi.conj().T).reshape(d1, d2, Q3, d1, d2)
    rho = rho.transpose(2, 0, 3, 4, 1).reshape(Q3 * d1 * d1, d2 * d2)  # ((k, x, a), (b, y))
    sigma = rho @ np.asarray(B, dtype=complex).reshape(Q2, d2 * d2).T  # ((k, x, a), j)
    return sigma.reshape(Q3, d1, d1, Q2).transpose(2, 1, 3, 0).reshape(d1 * d1, Q2 * Q3)


def strategy_correlations(S: EntangledStrategy) -> np.ndarray:
    """All correlations <psi| A_i ⊗ B_j ⊗ C_k |psi> as a real (Q1, Q2, Q3) array.

    One matrix product A_(1) sigma with player 1's marginals (shared with
    the see-saw's best response, :func:`_player_marginal`).  ValueError
    when an imaginary part exceeds 1e-9 (observables not Hermitian).
    """
    Q1, Q2, Q3 = (len(obs) for obs in S.observables)
    A = np.asarray(S.observables[0], dtype=complex).reshape(Q1, -1)  # (i, (a, x))
    w = (A @ _player_marginal(S.state.reshape(S.dims), *S.observables[1:])).reshape(Q1, Q2, Q3)
    if np.abs(w.imag).max(initial=0.0) > 1e-9:
        raise ValueError("correlations came out non-real; invalid strategy")
    return w.real


def entangled_bias_eval(G: XorGame, S: EntangledStrategy) -> float:
    """Bias of a concrete entangled strategy: sum pi * signs * correlation.

    Any value returned here is achievable, hence a lower bound on the game's
    entangled bias.
    """
    if any(len(obs) != G.Q for obs in S.observables):
        raise DimensionError("strategy must provide one observable per question")
    w = strategy_correlations(S)
    return float(np.sum(G.cost_tensor() * w))


def pauli_strategy(T: Tensor3) -> EntangledStrategy:
    """The explicit strategy for a hermitized tensor's game.

    Question index p is answered by measuring the p-th basis element (all
    three players alike, local dimension N), on the dominant eigenvector of
    the matrix view.  Summing coefficient(P,Q,R) times the correlation of
    (P,Q,R) over all questions telescopes to N^3 times the top eigenvalue,
    i.e. N^3 times the spectral norm whenever that eigenvalue is positive.
    """
    if not T.is_hermitian():
        raise ValueError("pauli_strategy needs a hermitized tensor")
    basis = build_basis(T.n)
    _, psi = top_eigenpair(T)
    return EntangledStrategy(
        dims=(T.N, T.N, T.N),
        state=psi,
        observables=(basis.elements, basis.elements, basis.elements),
    )


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
    of C and p3 moved to the front.
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
    C = G.cost_tensor()
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
            best, best_strat = val, EntangledStrategy(
                dims=(d, d, d), state=psi, observables=(list(A), list(B), list(Cm))
            )
    return entangled_bias_eval(G, best_strat), best_strat


def check_question_bound(G: XorGame, beta_star_lb: float, beta: float) -> BoundReport:
    """Check beta_star_lb <= sqrt(Q) * K_R * beta (K_R the real constant)."""
    bound = np.sqrt(G.Q) * GROTHENDIECK_REAL * beta
    slack = bound - beta_star_lb
    return BoundReport(
        name="question_bound",
        lhs=beta_star_lb,
        bound=float(bound),
        slack=float(slack),
        ok=bool(beta_star_lb <= bound + 1e-9),
    )


def check_dimension_bound(
    G: XorGame, beta_star_lb: float, d: int, beta: float
) -> BoundReport:
    """Check beta_star_lb <= sqrt(3d) * K_C^{3/2} * beta (K_C the complex constant)."""
    bound = np.sqrt(3.0 * d) * GROTHENDIECK_COMPLEX**1.5 * beta
    slack = bound - beta_star_lb
    return BoundReport(
        name="dimension_bound",
        lhs=beta_star_lb,
        bound=float(bound),
        slack=float(slack),
        ok=bool(beta_star_lb <= bound + 1e-9),
    )


# --- benchmark fixtures ----------------------------------------------------


def mermin_game() -> XorGame:
    """Benchmark fixture: uniform support on the four odd-parity question
    triples with signs (+,-,-,-); classical bias 1/2, entangled bias 1."""
    pi = np.zeros((2, 2, 2))
    signs = np.ones((2, 2, 2))
    for (i, j, k), s in {
        (0, 0, 0): 1.0,
        (0, 1, 1): -1.0,
        (1, 0, 1): -1.0,
        (1, 1, 0): -1.0,
    }.items():
        pi[i, j, k] = 0.25
        signs[i, j, k] = s
    return XorGame(Q=2, pi=pi, signs=signs)


def ghz_strategy() -> EntangledStrategy:
    """The standard qubit strategy for the Mermin fixture: GHZ state, X/Y answers."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    state = np.zeros(8, dtype=complex)
    state[0] = state[7] = 1.0 / np.sqrt(2.0)
    obs = ([X, Y], [X, Y], [X, Y])
    return EntangledStrategy(dims=(2, 2, 2), state=state, observables=obs)


def embedded_chsh_game(Q: int = 4) -> XorGame:
    """Benchmark fixture: two-player CHSH padded to a three-player game.

    Players one and two use questions {0, 1} uniformly; the third player is
    always asked question 0 and plays identity.  Remaining question triples
    have probability zero (signs +1 by convention).  Classical bias 1/2;
    qubit strategies reach sqrt(2)/2.
    """
    if Q < 2:
        raise ValueError("need at least the two CHSH questions")
    pi = np.zeros((Q, Q, Q))
    signs = np.ones((Q, Q, Q))
    for x in (0, 1):
        for y in (0, 1):
            pi[x, y, 0] = 0.25
            if x == 1 and y == 1:
                signs[x, y, 0] = -1.0
    return XorGame(Q=Q, pi=pi, signs=signs)


# --- io ---------------------------------------------------------------------


def save_game_csv(path, G: XorGame) -> None:
    """Write all question triples as rows q1,q2,q3,pi,sign."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q1", "q2", "q3", "pi", "sign"])
        for i in range(G.Q):
            for j in range(G.Q):
                for k in range(G.Q):
                    w.writerow(
                        [i, j, k, repr(float(G.pi[i, j, k])), int(G.signs[i, j, k])]
                    )


def load_game_csv(path) -> XorGame:
    """Read a game written by :func:`save_game_csv`.

    Raises ValueError for a missing header, a row with fewer than five
    fields, a question index outside 0..4^MAX_QUBITS - 1 (no tensor here
    yields a larger game), a repeated triple, or no question rows.
    """
    rows = {}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, [])[:5] != ["q1", "q2", "q3", "pi", "sign"]:
            raise ValueError("not a game CSV")
        for row in r:
            if len(row) < 5:
                raise ValueError(f"game CSV line {r.line_num}: {len(row)} fields, need 5")
            key = (int(row[0]), int(row[1]), int(row[2]))
            if min(key) < 0:
                raise ValueError(f"game CSV line {r.line_num}: negative question index")
            if max(key) >= 4**MAX_QUBITS:
                raise ValueError(f"game CSV line {r.line_num}: question index above {4**MAX_QUBITS - 1}")
            if key in rows:
                raise ValueError(f"game CSV line {r.line_num}: repeated question triple {key}")
            rows[key] = (float(row[3]), float(row[4]))
    if not rows:
        raise ValueError("game CSV has no question rows")
    Q = max(max(key) for key in rows) + 1
    pi = np.zeros((Q, Q, Q))
    signs = np.ones((Q, Q, Q))
    for key, (p, s) in rows.items():
        pi[key] = p
        signs[key] = s
    return XorGame(Q=Q, pi=pi, signs=signs)


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
