"""Game construction, biases, strategies, and bound checks."""

import csv
import dataclasses
import itertools

import numpy as np
import pytest

from xorgap import (
    ClassicalStrategy,
    DegenerateGameError,
    DimensionError,
    EntangledStrategy,
    SamplerConfig,
    ScaleError,
    Tensor3,
    XorGame,
    check_dimension_bound,
    check_question_bound,
    classical_bias,
    classical_bias_exact,
    classical_bias_heuristic,
    classical_value,
    embedded_chsh_game,
    entangled_bias_eval,
    fourier,
    game_from_tensor,
    ghz_strategy,
    hermitize,
    mermin_game,
    pauli_strategy,
    sample_tensor,
    seesaw_entangled_bias,
)
from xorgap.game import (
    _best_response,
    _game_operator,
    _matrix_sign,
    load_game_csv,
    save_game_csv,
    strategy_correlations,
    strategy_from_json,
    strategy_to_json,
)
from xorgap import game, pauli
from xorgap.pauli import build_basis, pauli_expectations
from xorgap.sweep import row_seed
from xorgap.tensor import top_eigenpair, trilinear_eval


@pytest.fixture(scope="module")
def general_n3_game():
    """The game of the general n = 3 tensor seeded (0, 0) as the benchmark's
    general inputs are, built once per module."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(0, 0)))
    M = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    return game_from_tensor(Tensor3(3, M)).game


def _traced_peak(f):
    import tracemalloc

    tracemalloc.start()
    try:
        out = f()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def cost_game(C):
    """The game with pi = |C| / sum |C| and signs = sign(C), +1 on zeros."""
    C = np.asarray(C, dtype=np.float64)
    return XorGame.from_weights(Q=len(C), pi=np.abs(C) / np.abs(C).sum(), signs=np.where(C < 0.0, -1.0, 1.0))


def brute_force_classical(C):
    """Independent oracle: full enumeration over all 2^(3Q) sign assignments."""
    Q = C.shape[0]
    best = -np.inf
    for chi in itertools.product((1.0, -1.0), repeat=Q):
        for ups in itertools.product((1.0, -1.0), repeat=Q):
            for zet in itertools.product((1.0, -1.0), repeat=Q):
                v = np.einsum("ijk,i,j,k->", C, chi, ups, zet)
                best = max(best, v)
    return float(best)


class TestXorGameType:
    def test_validation(self):
        pi = np.full((2, 2, 2), 1 / 8)
        XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="pi must sum to 1"):
            XorGame.from_weights(Q=2, pi=pi * 2, signs=np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="sign entries"):
            XorGame.from_weights(Q=2, pi=pi, signs=np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="pi must be nonnegative"):
            XorGame.from_weights(Q=2, pi=-pi, signs=np.ones((2, 2, 2)))
        with pytest.raises(DimensionError, match="pi and signs must have shape"):
            XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2)))
        # the signed table itself: its l1 mass is pi's, NaN fails
        XorGame(Q=2, cost=-pi)
        for bad in (pi * 2, np.full((2, 2, 2), np.nan)):
            with pytest.raises(ValueError, match="pi must sum to 1"):
                XorGame(Q=2, cost=bad)
        with pytest.raises(DimensionError, match="cost must have shape"):
            XorGame(Q=2, cost=np.full((2, 4), 1 / 8))

    def test_writeable_cost_copied_read_only_cost_shared(self):
        # the caller's writeable table or pi stays writeable and cannot
        # change the game; a read-only float64 table is shared
        cost = np.full((2, 2, 2), 1 / 8)
        G = XorGame(Q=2, cost=cost)
        assert cost.flags.writeable and not G.cost.flags.writeable
        cost[0, 0, 0] = 0.5
        assert G.cost[0, 0, 0] == 1 / 8
        pi = np.full((2, 2, 2), 1 / 8)
        G = XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2, 2)))
        assert pi.flags.writeable and not G.pi.flags.writeable and not G.cost.flags.writeable
        pi[0, 0, 0] = 0.5
        assert G.pi[0, 0, 0] == 1 / 8 and G.cost[0, 0, 0] == 1 / 8
        frozen = np.full((2, 2, 2), 1 / 8)
        frozen.setflags(write=False)
        assert XorGame(Q=2, cost=frozen).cost is frozen
        # pi is derived on each access, never stored
        assert XorGame(Q=2, cost=frozen).pi is not XorGame(Q=2, cost=frozen).pi

    def test_sign_predicate_pinned(self):
        # entries within 1e-12 of +/-1 are snapped to exactly +/-1, anything
        # else is rejected, through the game and the strategy alike
        near = np.array([1.0 + 5e-13, 1.0 - 5e-13, -1.0 + 5e-13, -1.0 - 5e-13])
        S = ClassicalStrategy(chi=near, upsilon=near, zeta=near)
        assert np.array_equal(S.chi, [1.0, 1.0, -1.0, -1.0]) and S.chi.dtype == np.float64
        signs = np.resize(near, (2, 2, 2))
        G = XorGame.from_weights(Q=2, pi=np.full((2, 2, 2), 1 / 8), signs=signs)
        assert np.array_equal(G.signs, np.sign(signs)) and not np.may_share_memory(G.signs, signs)
        for bad in (1.0 + 2e-12, 0.0, 2.0, np.nan, np.inf, -np.inf):
            v = np.array([1.0, bad, -1.0])
            with pytest.raises(ValueError, match="sign entries must be \\+1 or -1"):
                ClassicalStrategy(chi=v, upsilon=near[:3], zeta=near[:3])
            with pytest.raises(ValueError, match="sign entries must be \\+1 or -1"):
                XorGame.from_weights(Q=1, pi=np.ones((1, 1, 1)), signs=np.full((1, 1, 1), bad))

    def test_exact_signs_round_trip_read_only(self):
        # exact signs, float or int, come back from the table bit for bit
        # as a fresh read-only float64 array, a zero weight's sign too (as
        # the sign of its zero), and the caller's arrays stay writeable and
        # unshared; a pi of -0.0 is weight +0 with its row's sign
        pi = np.full((2, 2, 2), 0.2)
        pi[0, 0, 0], pi[0, 0, 1], pi[0, 1, 1] = 0.0, -0.0, -0.0  # signs +1, -1, +1
        signs = np.resize([1.0, -1.0, -1.0], (2, 2, 2))
        G = XorGame.from_weights(Q=2, pi=pi, signs=signs)
        assert signs.flags.writeable and not np.may_share_memory(G.signs, signs)
        assert np.array_equal(G.signs, signs) and not G.signs.flags.writeable and G.signs.dtype == np.float64
        assert np.array_equal(np.signbit(G.cost), signs < 0.0)
        assert np.array_equal(G.pi, np.abs(pi)) and not np.signbit(G.pi).any()
        frozen = signs.copy()
        frozen.setflags(write=False)
        assert np.array_equal(XorGame.from_weights(Q=2, pi=pi, signs=frozen).signs, frozen)
        ints = np.resize([1, -1, -1], (2, 2, 2))
        G = XorGame.from_weights(Q=2, pi=pi, signs=ints)
        assert G.signs.dtype == np.float64 and np.array_equal(G.signs, ints) and ints.flags.writeable

    def test_uniform_all_positive(self):
        pi = np.zeros((2, 2, 2))
        for i, j, k in itertools.product(range(2), repeat=3):
            pi[i, j, k] = 1 / 8
        C = XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2, 2))).cost
        assert np.abs(C - 1 / 8).max() == 0


def assert_built_from_real_table(rep, T):
    """pi and signs are the l1-normalized real coefficient table of hermitize(T)."""
    coeff = fourier(hermitize(T)).real
    l1 = np.abs(coeff).sum()
    assert rep.l1_norm == l1
    assert np.array_equal(rep.game.pi, np.abs(coeff) / l1)
    assert np.array_equal(rep.game.signs, np.where(coeff < 0.0, -1.0, 1.0))


class TestGameFromTensor:
    def test_sampled_tensor_picks_real_branch(self):
        for seed in (0, 1, 2):
            T = sample_tensor(1, SamplerConfig(seed=seed))
            rep = game_from_tensor(T)
            assert_built_from_real_table(rep, T)
            assert rep.game.Q == 4
            assert rep.game.pi.size == 64
            assert rep.game.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_game_is_questions_and_signs(self):
        # a game is its question count and one signed table, which the
        # build hands over without a copy; pi and signs are derived from it
        assert [f.name for f in dataclasses.fields(XorGame)] == ["Q", "cost"]
        T = sample_tensor(2, SamplerConfig(seed=row_seed(0, 2, 0)))
        G = game_from_tensor(T).game
        assert G.cost.dtype == np.float64 and G.cost.base is None and not G.cost.flags.writeable
        assert (G.pi * G.signs).tobytes() == G.cost.tobytes()

    def test_small_games_ascend_on_their_cost_tensor(self):
        # the ascent on a game's dense cost tensor and the one on g from the
        # same starts reach the same strategy, and the same value after l1
        for n in (2, 3):
            s = row_seed(0, n, 0)
            T = sample_tensor(n, SamplerConfig(seed=s))
            rep = game_from_tensor(T)
            dense, d = classical_bias_heuristic(rep.game, seed=s)
            from_g, g = classical_value(T, seed=s)
            assert from_g / rep.l1_norm == pytest.approx(dense, rel=1e-12, abs=0.0)
            for name in ("chi", "upsilon", "zeta"):
                assert np.array_equal(getattr(d, name), getattr(g, name))

    def test_classical_value_needs_g(self):
        with pytest.raises(ValueError, match="raw vector g"):
            classical_value(Tensor3(1, np.eye(8)))

    def test_all_ones_override_signs_match_recomputed_coefficients(self):
        T = Tensor3(1, raw_g=np.ones(8))
        rep = game_from_tensor(T)
        basis = build_basis(1)
        coeffs = np.zeros((4, 4, 4))
        for p, q, r in itertools.product(range(4), repeat=3):
            K = np.kron(np.kron(basis[p], basis[q]), basis[r])
            coeffs[p, q, r] = np.sum(T.matrix * K.conj()).real
        l1 = np.abs(coeffs).sum()
        assert rep.l1_norm == pytest.approx(l1, rel=1e-12)
        assert rep.game.pi.sum() == pytest.approx(1.0, abs=1e-12)
        for p, q, r in itertools.product(range(4), repeat=3):
            c = coeffs[p, q, r]
            if c != 0:
                assert rep.game.signs[p, q, r] == np.sign(c)
            assert rep.game.pi[p, q, r] == pytest.approx(abs(c) / l1, abs=1e-12)

    def test_zero_tensor_rejected(self):
        with pytest.raises(DegenerateGameError):
            game_from_tensor(Tensor3(1, np.zeros((8, 8))))

    def test_complex_input_hermitized_before_building(self):
        # anti-Hermitian input: only the rotated part carries spectral weight,
        # and the hermitized tensor again has a real coefficient table
        rng = np.random.default_rng(8)
        S = rng.standard_normal((8, 8))
        S = (S + S.T) / 2.0
        T = Tensor3(1, 1j * S)
        rep = game_from_tensor(T)
        assert_built_from_real_table(rep, T)
        assert rep.game.pi.sum() == pytest.approx(1.0, abs=1e-12)
        val, _ = classical_bias_exact(rep.game)
        assert 0.0 < val <= 1.0

    def test_bernoulli_variant_keeps_strategy_identity(self):
        T = sample_tensor(1, SamplerConfig(distribution="bernoulli", seed=11))
        H = hermitize(T)
        lam, psi = top_eigenpair(H)
        table = fourier(H)
        w = pauli_expectations(1, psi)
        assert complex(np.sum(table * w)) == pytest.approx(8.0 * lam, rel=1e-10)

    def test_general_tensor_build_memory(self):
        # a cold build at n = 3 hermitizes with one candidate matrix (4.19 MB)
        # at a time and writes its signed table slab by slab from the
        # hermitized part, so no hermitized matrix and no complex table is
        # held with it
        import tracemalloc

        rng = np.random.default_rng(0)
        T = Tensor3(3, rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
        tracemalloc.start()
        try:
            rep = game_from_tensor(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5e6
        assert rep.pauli_bias == pytest.approx(entangled_bias_eval(rep.game, pauli_strategy(T)), rel=1e-12)


class TestClassicalExact:
    def test_mermin_is_half(self):
        G = mermin_game()
        val, strat = classical_bias_exact(G)
        assert val == pytest.approx(0.5, abs=1e-15)
        assert brute_force_classical(G.cost) == pytest.approx(0.5, abs=1e-15)
        # returned strategy achieves the value
        achieved = np.einsum(
            "ijk,i,j,k->", G.cost, strat.chi, strat.upsilon, strat.zeta
        )
        assert achieved == pytest.approx(val, abs=1e-15)

    def test_embedded_chsh_is_half(self):
        G = embedded_chsh_game()
        assert G.Q == 4
        val, _ = classical_bias_exact(G)
        assert val == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("Q", [1, 2, 5])
    def test_sign_vectors_pin_first_answer(self, Q):
        from xorgap.game import _sign_vectors

        V = _sign_vectors(Q)
        assert V.shape == (2 ** (Q - 1), Q) and np.all(V[:, 0] == 1.0)
        assert np.all(np.abs(V) == 1.0) and len({tuple(v) for v in V}) == len(V)

    def test_all_positive_signs_gives_one(self):
        pi = np.full((2, 2, 2), 1 / 8)
        val, _ = classical_bias_exact(XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2, 2))))
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_single_question_negative_sign_gives_one(self):
        pi = np.ones((1, 1, 1))
        val, strat = classical_bias_exact(XorGame.from_weights(Q=1, pi=pi, signs=-np.ones((1, 1, 1))))
        assert val == pytest.approx(1.0, abs=1e-15)
        assert strat.chi[0] * strat.upsilon[0] * strat.zeta[0] == -1

    def test_matches_brute_force_on_random_games(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            C = rng.standard_normal((3, 3, 3))
            G = cost_game(C)
            val, _ = classical_bias_exact(G)
            assert val == pytest.approx(brute_force_classical(G.cost), rel=1e-12)

    def test_scale_guard(self):
        Q = 16
        pi = np.full((Q, Q, Q), 1.0 / Q**3)
        with pytest.raises(ScaleError):
            classical_bias_exact(XorGame.from_weights(Q=Q, pi=pi, signs=np.ones((Q, Q, Q))))


def per_restart_heuristic(G, restarts=32, seed=0):
    """Oracle: coordinate ascent one restart at a time, by einsum best responses."""
    Q = G.Q
    C = G.cost
    best, best_strat = -np.inf, None
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(ss)
        chi = rng.choice([-1.0, 1.0], Q)
        upsilon = rng.choice([-1.0, 1.0], Q)
        zeta = rng.choice([-1.0, 1.0], Q)
        for _ in range(1000):
            new_chi = np.where(np.einsum("ijk,j,k->i", C, upsilon, zeta) < 0.0, -1.0, 1.0)
            new_ups = np.where(np.einsum("ijk,i,k->j", C, new_chi, zeta) < 0.0, -1.0, 1.0)
            new_zeta = np.where(np.einsum("ijk,i,j->k", C, new_chi, new_ups) < 0.0, -1.0, 1.0)
            changed = (
                np.any(new_chi != chi) or np.any(new_ups != upsilon) or np.any(new_zeta != zeta)
            )
            chi, upsilon, zeta = new_chi, new_ups, new_zeta
            if not changed:
                break
        val = float(np.einsum("ijk,i,j,k->", C, chi, upsilon, zeta))
        if val > best:
            best, best_strat = val, (chi, upsilon, zeta)
    return best, best_strat


def held_pairs(d_hold, g_hold, factors):
    """(dense, from g) partial sums of both held maps, for every held mode and
    both images of each hold, each player's sums given the other two
    players' sign vectors in `factors`."""
    pairs = []
    for h in range(3):
        d_image, g_image = d_hold(h, factors[h]), g_hold(h, factors[h])
        for m in range(3):
            if m != h:
                other = factors[3 - m - h]
                pairs.append((d_image(m, other), g_image(m, other)))
    return pairs


class TestClassicalHeuristic:
    def test_lockstep_matches_per_restart_oracle(self):
        games = [
            game_from_tensor(sample_tensor(n, SamplerConfig(seed=row_seed(0, n, k)))).game
            for n, count in ((2, 8), (3, 2))
            for k in range(count)
        ]
        games.append(mermin_game())
        rng = np.random.default_rng(5)
        for _ in range(5):
            C = rng.standard_normal((3, 3, 3))
            C[rng.random((3, 3, 3)) < 0.4] = 0.0
            C[0] = 0.0  # a whole slice of zero sums
            games.append(cost_game(C))
        for idx, G in enumerate(games):
            want, (chi, ups, zeta) = per_restart_heuristic(G, restarts=32, seed=idx)
            got, strat = classical_bias_heuristic(G, restarts=32, seed=idx)
            assert np.array_equal(strat.chi, chi), idx
            assert np.array_equal(strat.upsilon, ups), idx
            assert np.array_equal(strat.zeta, zeta), idx
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), idx

    def test_partial_sum_oracles_agree(self):
        # the g oracle of a sampled tensor against the dense cost tensor of
        # its game, scaled by l1, on random sign stacks for every player
        from xorgap.game import _pauli_partial_sums
        from xorgap.tensor import _array_maps

        for n in (1, 2, 3):
            T = sample_tensor(n, SamplerConfig(seed=row_seed(0, n, 1)))
            rep = game_from_tensor(T)
            Q = rep.game.Q
            x, y, z = np.random.default_rng(n).choice([-1.0, 1.0], (3, 5, Q))
            d_hold, g_hold = _array_maps(rep.game.cost), _pauli_partial_sums(T)
            for dense, from_g in held_pairs(d_hold, g_hold, (x, y, z)):
                want = dense * rep.l1_norm
                assert from_g.shape == (5, Q)
                assert np.abs(from_g - want).max() <= 1e-12 * np.abs(want).max(), n

    @pytest.mark.parametrize("n", [2, 3])
    def test_partial_sum_oracles_agree_on_diagonal_strings(self, n):
        # sign vectors supported on the I/Z-only Pauli strings, whose factors
        # are diagonal: the g oracle's factor transform zeroes them as the
        # collision mask does, so both oracles give the dense cost tensor's sums
        from xorgap.game import _pauli_partial_sums
        from xorgap.tensor import _array_maps

        T = sample_tensor(n, SamplerConfig(seed=row_seed(0, n, 2)))
        rep = game_from_tensor(T)
        Q = rep.game.Q
        labels = ("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
        diagonal = np.array([set(label) <= {"I", "Z"} for label in labels])
        rng = np.random.default_rng(80 + n)
        full = rng.choice([-1.0, 1.0], (3, 4, Q))
        masked = full * diagonal
        d_hold, g_hold = _array_maps(rep.game.cost), _pauli_partial_sums(T)
        scale = np.abs(d_hold(0, full[0])(2, full[1])).max() * rep.l1_norm
        for factors in ((masked[0], full[1], full[2]), (full[0], masked[1], full[2]), (full[0], full[1], masked[2])):
            for dense, from_g in held_pairs(d_hold, g_hold, factors):
                assert np.abs(from_g - dense * rep.l1_norm).max() <= 1e-12 * scale, n

    def test_lockstep_reproducible_and_single_restart(self):
        G = game_from_tensor(sample_tensor(2, SamplerConfig(seed=row_seed(0, 2, 0)))).game
        a_val, a = classical_bias_heuristic(G, restarts=32, seed=7)
        b_val, b = classical_bias_heuristic(G, restarts=32, seed=7)
        assert a_val == b_val
        for name in ("chi", "upsilon", "zeta"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        val, strat = classical_bias_heuristic(G, restarts=1, seed=7)
        want, oracle = per_restart_heuristic(G, restarts=1, seed=7)
        for name, signs in zip(("chi", "upsilon", "zeta"), oracle):
            assert np.array_equal(getattr(strat, name), signs)
        assert val == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_mermin_reaches_exact(self):
        val, _ = classical_bias_heuristic(mermin_game(), restarts=32, seed=0)
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_all_positive_fixed_point_from_any_start(self):
        pi = np.full((2, 2, 2), 1 / 8)
        G = XorGame.from_weights(Q=2, pi=pi, signs=np.ones((2, 2, 2)))
        for seed in range(5):
            val, _ = classical_bias_heuristic(G, restarts=1, seed=seed)
            assert val == pytest.approx(1.0, abs=1e-15)

    def test_matches_exact_on_pauli_game(self):
        rep = game_from_tensor(sample_tensor(1, SamplerConfig(seed=42)))
        exact, _ = classical_bias_exact(rep.game)
        heur, _ = classical_bias_heuristic(rep.game, restarts=64, seed=0)
        assert heur == pytest.approx(exact, rel=1e-12)

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            G = cost_game(rng.standard_normal((3, 3, 3)))
            exact, _ = classical_bias_exact(G)
            heur, _ = classical_bias_heuristic(G, restarts=8, seed=trial)
            assert heur <= exact + 1e-12

    @pytest.mark.parametrize("n,method", [(1, "exact"), (2, "heuristic")])
    def test_classical_bias_picks_method_by_size(self, n, method):
        # n = 1 (2Q = 8) is within enumeration reach, n = 2 (2Q = 32) is not
        G = game_from_tensor(sample_tensor(n, SamplerConfig(seed=row_seed(0, n, 0)))).game
        val, strat, got = classical_bias(G, restarts=4, seed=3)
        if method == "exact":
            want, want_strat = classical_bias_exact(G)
        else:
            want, want_strat = classical_bias_heuristic(G, restarts=4, seed=3)
        assert got == method and val == want
        assert np.array_equal(strat.chi, want_strat.chi)

    def test_heuristic_reads_the_stored_table(self, general_n3_game):
        # the ascent's partial sums read the game's one signed table in
        # place: no Q^3 product of pi and signs (2.1 MB at n = 3) is formed,
        # and one held map of 32 restarts (1 MB) is alive at a time, where
        # keeping the previous one through the next hold took 2.23 MB
        peak, (value, _) = _traced_peak(lambda: classical_bias_heuristic(general_n3_game, restarts=32))
        assert peak < 1.5e6
        assert 0.0 < value <= 1.0


def _oracle_correlations(S):
    """The player-by-player einsum chain: <psi| A_i ⊗ B_j ⊗ C_k |psi>."""
    d1, d2, d3 = S.dims
    psi = S.state.reshape(d1, d2, d3)
    A, B, Cm = (np.array(obs) for obs in S.observables)
    t1 = np.einsum("iax,xbc->iabc", A, psi)
    t2 = np.einsum("jby,iayc->ijabc", B, t1)
    r = np.einsum("ijabz,abc->ijcz", t2, psi.conj())
    return np.einsum("kcz,ijcz->ijk", Cm, r)


def _random_strategy(rng, dims, Qs):
    observables = []
    for d, Q in zip(dims, Qs):
        M = rng.standard_normal((Q, d, d)) + 1j * rng.standard_normal((Q, d, d))
        observables.append(list(_matrix_sign(M + M.conj().transpose(0, 2, 1))[0]))
    state = rng.standard_normal(np.prod(dims)) + 1j * rng.standard_normal(np.prod(dims))
    return EntangledStrategy(
        dims=tuple(dims), state=state / np.linalg.norm(state), observables=tuple(observables)
    )


def _block_lengths(S):
    """How many of player 3's questions each block of the contraction holds."""
    return [w.shape[2] for _, w in pauli._correlation_blocks(S.state.reshape(S.dims), *S.observables)]


class TestEntangledEval:
    @pytest.mark.parametrize(
        "dims,Qs", [((2, 3, 4), (5, 6, 7)), ((4, 1, 3), (2, 3, 1)), ((3, 2, 2), (4, 4, 6))]
    )
    def test_correlations_match_einsum_chain(self, dims, Qs, monkeypatch):
        # one block, blocks of one question, and blocks of four that do not
        # divide Q3 (each question costs 576 or 768 bytes of budget here)
        rng = np.random.default_rng(sum(dims) + sum(Qs))
        S = _random_strategy(rng, dims, Qs)
        want = _oracle_correlations(S)
        assert np.abs(want.imag).max() <= 1e-12
        A, B, Cm = S.observables
        C = rng.standard_normal(Qs)
        for budget, lengths in [
            (pauli._BLOCK_BYTES, [Qs[2]]),
            (1, [1] * Qs[2]),
            (2304, {7: [4, 3], 1: [1], 6: [4, 2]}[Qs[2]]),
        ]:
            monkeypatch.setattr(pauli, "_BLOCK_BYTES", budget)
            assert _block_lengths(S) == lengths
            got = strategy_correlations(S)
            assert got.shape == Qs
            assert np.abs(got - want.real).max() <= 1e-12
            # player 1's best response reaches sum C w with its own observables
            A1, val = _best_response(C, S.state.reshape(dims), B, Cm)
            S1 = dataclasses.replace(S, observables=(A1, B, Cm))
            assert abs(val - float(np.sum(C * _oracle_correlations(S1).real))) <= 1e-12

    def test_blocked_bias_and_expectations_match_oracle(self, monkeypatch):
        # the Pauli strategy at n = 2 (Q = 16, 4096 bytes per question) in
        # one block, blocks of one, and blocks of three that leave one over
        T = sample_tensor(2, SamplerConfig(seed=row_seed(0, 2, 0)))
        rep = game_from_tensor(T)
        S = pauli_strategy(T)
        want = _oracle_correlations(S).real
        for budget, lengths in [(pauli._BLOCK_BYTES, [16]), (1, [1] * 16), (3 * 4096, [3] * 5 + [1])]:
            monkeypatch.setattr(pauli, "_BLOCK_BYTES", budget)
            assert _block_lengths(S) == lengths
            assert np.abs(pauli_expectations(2, S.state) - want).max() <= 1e-12
            bias = entangled_bias_eval(rep.game, S)
            assert abs(bias - float(np.sum(rep.game.cost * want))) <= 1e-12
            assert bias == pytest.approx(rep.pauli_bias, rel=1e-12)

    def test_non_real_last_block_raises(self, monkeypatch):
        # player 3's last observable times i makes only the last block's
        # correlations imaginary; both the table and the bias refuse it
        rng = np.random.default_rng(5)
        S = _random_strategy(rng, (2, 3, 2), (7, 7, 7))
        Cm = S.observables[2].copy()
        Cm[-1] *= 1j
        bad = dataclasses.replace(S)  # checked as valid, then the check is bypassed
        object.__setattr__(bad, "observables", (*S.observables[:2], Cm))
        G = cost_game(rng.standard_normal((7, 7, 7)))
        # each question costs 16 * 7 * 7 bytes of budget here
        for budget, lengths in [(1, [1] * 7), (2 * 16 * 7 * 7, [2, 2, 2, 1])]:
            monkeypatch.setattr(pauli, "_BLOCK_BYTES", budget)
            assert _block_lengths(bad) == lengths
            for call in (lambda: strategy_correlations(bad), lambda: entangled_bias_eval(G, bad)):
                with pytest.raises(ValueError, match="^correlations came out non-real; invalid strategy$"):
                    call()

    def test_bias_forms_neither_table_nor_cost_tensor(self, monkeypatch):
        T = sample_tensor(2, SamplerConfig(seed=row_seed(0, 2, 1)))
        rep = game_from_tensor(T)
        S = pauli_strategy(T)

        def forbidden(*args, **kwargs):
            raise AssertionError("entangled_bias_eval formed a Q^3 table")

        # the bias reads the game's stored signed table in place: deriving
        # pi or signs would form a Q^3 array
        monkeypatch.setattr(game, "strategy_correlations", forbidden)
        monkeypatch.setattr(XorGame, "pi", property(forbidden))
        monkeypatch.setattr(XorGame, "signs", property(forbidden))
        assert entangled_bias_eval(rep.game, S) == pytest.approx(rep.pauli_bias, rel=1e-12)

    def test_bias_memory_below_one_table(self):
        # at n = 3 one complex Q^3 table is 64^3 * 16 B = 4.19 MB; the
        # blocked evaluation, strategy included, stays below it
        import tracemalloc

        T = sample_tensor(3, SamplerConfig(seed=row_seed(0, 3, 0)))
        rep = game_from_tensor(T)
        tracemalloc.start()
        try:
            bias = entangled_bias_eval(rep.game, pauli_strategy(T))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bias == pytest.approx(rep.pauli_bias, rel=1e-12)
        assert peak < 64**3 * 16

    def test_identity_observables_sum_signed_mass(self):
        G = mermin_game()
        I2 = np.eye(2, dtype=complex)
        S = EntangledStrategy(
            dims=(2, 2, 2),
            state=np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
            observables=([I2, I2], [I2, I2], [I2, I2]),
        )
        assert entangled_bias_eval(G, S) == pytest.approx(
            float(np.sum(G.cost)), abs=1e-12
        )

    def test_chsh_optimal_qubit_strategy(self):
        G = embedded_chsh_game()
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Z = np.array([[1, 0], [0, -1]], dtype=complex)
        I2 = np.eye(2, dtype=complex)
        pad = [I2] * (G.Q - 2)
        S = EntangledStrategy(
            dims=(2, 2, 2),
            state=np.kron([1.0, 0.0, 0.0, 1.0], [1.0, 0.0]) / np.sqrt(2.0),
            observables=(
                [Z, X] + pad,
                [(Z + X) / np.sqrt(2.0), (Z - X) / np.sqrt(2.0)] + pad,
                [I2] * G.Q,
            ),
        )
        val = entangled_bias_eval(G, S)
        assert val == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
        beta, _ = classical_bias_exact(G)
        assert val >= np.sqrt(2.0) * beta - 1e-12

    def test_mermin_ghz_strategy_reaches_one(self):
        val = entangled_bias_eval(mermin_game(), ghz_strategy())
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_lifted_classical_strategy_matches_classical_formula(self):
        G = mermin_game()
        val, strat = classical_bias_exact(G)
        # sign vectors as 1x1 observables with a trivial shared state
        obs = tuple(
            [np.array([[v]], dtype=complex) for v in vec]
            for vec in (strat.chi, strat.upsilon, strat.zeta)
        )
        lifted = EntangledStrategy(dims=(1, 1, 1), state=np.array([1.0]), observables=obs)
        assert entangled_bias_eval(G, lifted) == pytest.approx(val, abs=1e-14)

    def test_invalid_observable_rejected(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.5]])  # eigenvalues not +/-1
        with pytest.raises(ValueError):
            EntangledStrategy(
                dims=(2, 1, 1),
                state=np.array([1.0, 0.0]),
                observables=([bad], [np.eye(1)], [np.eye(1)]),
            )

    def test_non_unit_state_rejected(self):
        with pytest.raises(ValueError):
            EntangledStrategy(
                dims=(1, 1, 1),
                state=np.array([2.0]),
                observables=([np.eye(1)], [np.eye(1)], [np.eye(1)]),
            )

    def test_writeable_state_copied(self):
        # a write into the caller's state after construction leaves the
        # strategy's state, whose unit norm was checked, as it was
        st = np.zeros(8, dtype=complex)
        st[0] = 1.0
        I2 = np.eye(2, dtype=complex)
        S = EntangledStrategy(dims=(2, 2, 2), state=st, observables=([I2], [I2], [I2]))
        st[0] = 5.0
        assert np.linalg.norm(S.state) == 1.0 and not S.state.flags.writeable
        frozen = st / 5.0
        frozen.setflags(write=False)
        shared = EntangledStrategy(dims=(2, 2, 2), state=frozen, observables=([I2], [I2], [I2])).state
        assert np.shares_memory(shared, frozen)

    def test_writeable_observables_copied(self):
        # the strategy keeps its own read-only observables, not the caller's
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        I2 = np.eye(2, dtype=complex)
        S = ghz_strategy()
        T = EntangledStrategy(dims=(2, 2, 2), state=S.state, observables=([X], [X], [X]))
        X[:] = I2
        for obs in T.observables:
            assert np.array_equal(obs[0], [[0, 1], [1, 0]]) and not obs[0].flags.writeable
        frozen = EntangledStrategy(dims=(2, 2, 2), state=S.state, observables=S.observables)
        assert all(a is b for a, b in zip(frozen.observables, S.observables))

    def test_observables_one_read_only_stack(self):
        # a read-only (Q, d, d) array is the player's stack itself; a list of
        # matrices is stacked into a read-only copy the caller cannot reach
        X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        I2 = np.eye(2, dtype=complex)
        frozen = np.array([X, I2])
        frozen.setflags(write=False)
        listed = [X, I2]
        S = EntangledStrategy(dims=(2, 2, 2), state=ghz_strategy().state, observables=(frozen, listed, frozen))
        assert S.observables[0] is frozen and S.observables[2] is frozen
        B = S.observables[1]
        assert B.shape == (2, 2, 2) and B.dtype == np.complex128 and not B.flags.writeable
        X[:] = I2
        assert np.array_equal(B, [[[0, 1], [1, 0]], np.eye(2)])
        E = build_basis(2)
        shared = pauli_strategy(sample_tensor(2, SamplerConfig(seed=1)))
        assert all(obs is E for obs in shared.observables)

    @pytest.mark.parametrize(
        "bad_q,bad,message",
        [
            (2, np.array([[1.0, 1.0], [0.0, 1.0]]), "player 1 question 2: observable not Hermitian"),
            (1, np.array([[1.0, 0.0], [0.0, 0.5]]), "player 1 question 1: observable must square to I"),
            (3, np.eye(3), "player 1 question 3: observable must be 2x2"),
        ],
    )
    def test_bad_observable_names_player_and_first_question(self, bad_q, bad, message):
        # the stack is checked at once; the error still names the first
        # failing question, here ahead of a later non-Hermitian one
        from xorgap import DimensionError

        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        obs = [X, X, X, X, np.array([[0.0, 1.0], [0.0, 0.0]])]
        obs[bad_q] = bad
        kind = DimensionError if bad.shape != (2, 2) else ValueError
        with pytest.raises(kind, match=f"^{message}$"):
            EntangledStrategy(dims=(2, 2, 2), state=ghz_strategy().state, observables=([X], obs, [X]))

    def test_shared_stack_checked_once(self, monkeypatch):
        # one object handed to several players is checked and frozen once
        checks = []
        check = game._observable_stack

        def counting(obs, d, player):
            checks.append(player)
            return check(obs, d, player)

        monkeypatch.setattr(game, "_observable_stack", counting)
        S = pauli_strategy(sample_tensor(2, SamplerConfig(seed=3)))
        assert checks == [0]
        assert S.observables[0] is S.observables[1] is S.observables[2]
        checks.clear()
        ghz_strategy()
        assert checks == [0, 1, 2]

    def test_bad_shared_stack_names_player_zero(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        obs = np.array([X, X, 2.0 * X, np.eye(2)])
        with pytest.raises(ValueError, match="^player 0 question 2: observable must square to I$"):
            EntangledStrategy(dims=(2, 2, 2), state=ghz_strategy().state, observables=(obs, obs, obs))

    def test_question_count_mismatch_rejected(self):
        from xorgap import DimensionError

        G = mermin_game()  # Q = 2
        I2 = np.eye(2, dtype=complex)
        S = EntangledStrategy(
            dims=(2, 2, 2),
            state=np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex),
            observables=([I2], [I2], [I2]),  # one question only
        )
        with pytest.raises(DimensionError):
            entangled_bias_eval(G, S)


class TestPauliStrategy:
    def test_zero_tensor_degenerate_but_valid(self):
        S = pauli_strategy(Tensor3(1, np.zeros((8, 8))))
        assert abs(np.linalg.norm(S.state) - 1.0) <= 1e-12
        w = pauli_expectations(1, S.state)
        assert np.abs(w).max() <= 1.0 + 1e-12

    def test_all_ones_override_prenormalization_value(self):
        T = Tensor3(1, raw_g=np.ones(8))
        H = hermitize(T)
        table = fourier(H).real
        _, psi = top_eigenpair(H)
        w = pauli_expectations(1, psi)
        assert float(np.sum(table * w)) == pytest.approx(8.0, rel=1e-10)

    def test_identity_ties_bias_to_top_eigenvalue(self):
        for n in (1, 2, 3):
            N = 2**n
            T = sample_tensor(n, SamplerConfig(seed=42))
            H = hermitize(T)
            lam, psi = top_eigenpair(H)
            table = fourier(H)
            w = pauli_expectations(n, psi)
            total = complex(np.sum(table * w))
            assert total == pytest.approx(N**3 * lam, rel=1e-12)
            rep = game_from_tensor(T)
            assert rep.pauli_bias == pytest.approx(N**3 * lam / rep.l1_norm, rel=1e-12)
            bias = entangled_bias_eval(rep.game, pauli_strategy(H))
            assert bias == pytest.approx(rep.pauli_bias, rel=1e-12)

    def test_requires_hermitian_input(self):
        # a non-Hermitian input is hermitized, as game_from_tensor does, so
        # the strategy is that of hermitize(T) and plays T's game at its
        # pauli_bias
        rng = np.random.default_rng(0)
        for n in (1, 2):
            D = 8**n
            T = Tensor3(n, rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
            assert not T.is_hermitian()
            S, want = pauli_strategy(T), pauli_strategy(hermitize(T))
            assert np.array_equal(S.state, want.state)
            assert all(
                np.array_equal(np.array(a), np.array(b)) for a, b in zip(S.observables, want.observables)
            )
            rep = game_from_tensor(T)
            assert abs(entangled_bias_eval(rep.game, S) - rep.pauli_bias) <= 1e-12

    def test_classical_reduction_identity_over_all_strategies(self):
        # every classical strategy's bias on the built game equals the
        # trilinear pairing with X = sum chi(P) P (etc.), scaled by 1/l1;
        # those aggregates sit on the sphere of radius N^{3/2}
        T = sample_tensor(1, SamplerConfig(seed=7))
        H = hermitize(T)
        rep = game_from_tensor(T)
        C = rep.game.cost
        basis = np.array(build_basis(1))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
        aggregates = np.einsum("cp,pab->cab", signs, basis)
        fro = np.linalg.norm(aggregates, axis=(1, 2))
        assert np.abs(fro - 2.0**1.5).max() <= 1e-12
        A = aggregates
        tri = np.einsum("ijkabc,xia,yjb,zkc->xyz", H.matrix.reshape((2,) * 6), A, A, A, optimize=True)
        bias = np.einsum("ijk,xi,yj,zk->xyz", C, signs, signs, signs, optimize=True)
        assert np.abs(tri.real / rep.l1_norm - bias).max() <= 1e-10
        assert np.abs(tri.imag).max() <= 1e-10


def oracle_matrix_sign(H):
    w, V = np.linalg.eigh((H + H.conj().T) / 2.0)
    s = np.where(w >= 0.0, 1.0, -1.0)
    return (V * s) @ V.conj().T


def oracle_best_responses(C, p3, A, B, Cm):
    """Each player's effective operators by the einsum chain, player by player."""
    t = np.einsum("jbp,kcq,apq->jkabc", B, Cm, p3, optimize=True)
    K = np.einsum("abc,jkxbc->jkax", p3.conj(), t, optimize=True)
    E1 = np.einsum("ijk,jkax->ixa", C, K, optimize=True)
    t = np.einsum("iap,kcq,pbq->ikabc", A, Cm, p3, optimize=True)
    K = np.einsum("abc,ikayc->ikby", p3.conj(), t, optimize=True)
    E2 = np.einsum("ijk,ikby->jyb", C, K, optimize=True)
    t = np.einsum("iap,jbq,pqc->ijabc", A, B, p3, optimize=True)
    K = np.einsum("abc,ijabz->ijcz", p3.conj(), t, optimize=True)
    E3 = np.einsum("ijk,ijcz->kzc", C, K, optimize=True)
    return E1, E2, E3


def oracle_seesaw(G, d, restarts=8, seed=0, on_sweep=None):
    """The see-saw loop written out, one start per question and an explicit
    evaluation every sweep (the per-player best responses are the package's,
    checked against the einsum chain separately); the packaged routine must
    retrace it sweep for sweep."""
    Q = G.Q
    C = G.cost
    best = -np.inf
    best_strat = None
    for r, ss in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(ss)

        def rand_obs():
            M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return oracle_matrix_sign(M + M.conj().T)

        A = np.array([rand_obs() for _ in range(Q)])
        B = np.array([rand_obs() for _ in range(Q)])
        Cm = np.array([rand_obs() for _ in range(Q)])
        prev = -np.inf
        for sweep in range(500):
            _, V = np.linalg.eigh(_game_operator(C, A, B, Cm))
            psi = V[:, -1]
            p3 = psi.reshape(d, d, d)
            A = _best_response(C, p3, B, Cm)[0]
            B = _best_response(C.transpose(1, 0, 2), p3.transpose(1, 0, 2), A, Cm)[0]
            Cm = _best_response(C.transpose(2, 0, 1), p3.transpose(2, 0, 1), A, B)[0]
            S = EntangledStrategy(dims=(d, d, d), state=psi, observables=(list(A), list(B), list(Cm)))
            val = entangled_bias_eval(G, S)
            on_sweep(r, sweep, val)
            if val - prev < 1e-9:
                break
            prev = val
        if val > best:
            best, best_strat = val, S
    return best, best_strat


def _seesaw_oracle_cases():
    n1 = [game_from_tensor(sample_tensor(1, SamplerConfig(seed=row_seed(0, 1, k)))).game for k in (0, 1)]
    return [
        (embedded_chsh_game(), 2, 6, 0),
        (mermin_game(), 2, 6, 0),
        (mermin_game(), 1, 8, 3),
        (n1[0], 2, 8, 0),
        (n1[1], 2, 8, 0),
    ]


class TestSeesaw:
    def test_matches_per_player_oracle(self):
        # the bias read off the last update, the lockstep random starts and
        # the stopping rule retrace the written-out see-saw: same sweeps per
        # restart, same values, and the returned value is the evaluated one
        for G, d, restarts, seed in _seesaw_oracle_cases():
            got, want = {}, {}
            val, strat = seesaw_entangled_bias(
                G, d, restarts=restarts, seed=seed,
                on_sweep=lambda r, s, v: got.setdefault(r, []).append(v),
            )
            ref, _ = oracle_seesaw(
                G, d, restarts=restarts, seed=seed,
                on_sweep=lambda r, s, v: want.setdefault(r, []).append(v),
            )
            assert sorted(got) == sorted(want) == list(range(restarts))
            for r in want:
                assert len(got[r]) == len(want[r])
                assert np.abs(np.subtract(got[r], want[r])).max() <= 1e-12
            assert abs(val - ref) <= 1e-12
            assert val == entangled_bias_eval(G, strat)

    def test_best_response_matches_einsum_chain(self):
        # each player's best response (through the marginals that
        # strategy_correlations contracts) gives the einsum chain's
        # observables and value, on the oracle cases' games and a Q = 16 game
        rng = np.random.default_rng(11)
        games = [(G, d) for G, d, _, _ in _seesaw_oracle_cases()]
        games.append((cost_game(rng.standard_normal((16, 16, 16))), 4))
        for G, d in games:
            C = G.cost
            S = _random_strategy(rng, (d, d, d), (G.Q,) * 3)
            A, B, Cm = (np.array(obs) for obs in S.observables)
            p3 = S.state.reshape(d, d, d)
            got = [
                _best_response(C, p3, B, Cm),
                _best_response(C.transpose(1, 0, 2), p3.transpose(1, 0, 2), A, Cm),
                _best_response(C.transpose(2, 0, 1), p3.transpose(2, 0, 1), A, B),
            ]
            for (obs, val), E in zip(got, oracle_best_responses(C, p3, A, B, Cm)):
                want = np.array([oracle_matrix_sign(E_q) for E_q in E])
                assert np.abs(obs - want).max() <= 1e-12
                assert abs(val - np.abs(np.linalg.eigvalsh((E + E.conj().transpose(0, 2, 1)) / 2)).sum()) <= 1e-12

    def test_best_response_memory(self):
        # the marginals keep one best response at Q = 64, d = 8 far below the
        # 71 MB that a (Q, Q, d, d, d) intermediate takes
        import tracemalloc

        rng = np.random.default_rng(0)
        C = rng.standard_normal((64, 64, 64))
        S = _random_strategy(rng, (8, 8, 8), (64, 64, 64))
        B, Cm = (np.array(obs) for obs in S.observables[1:])
        p3 = S.state.reshape(8, 8, 8)
        tracemalloc.start()
        try:
            _best_response(C, p3, B, Cm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    @pytest.mark.parametrize("Q,d", [(2, 2), (4, 3)])
    def test_game_operator_matches_unordered_einsum(self, Q, d):
        # the ordered contractions build the same operator as the plain
        # left-to-right einsums
        rng = np.random.default_rng(Q * 10 + d)
        C = rng.standard_normal((Q, Q, Q))

        def obs():
            M = rng.standard_normal((Q, d, d)) + 1j * rng.standard_normal((Q, d, d))
            return M + M.conj().transpose(0, 2, 1)

        A, B, Cm = obs(), obs(), obs()
        D = np.einsum("ijk,kcz->ijcz", C, Cm)
        E2 = np.einsum("jby,ijcz->ibcyz", B, D)
        op = np.einsum("iax,ibcyz->abcxyz", A, E2).reshape(d**3, d**3)
        want = (op + op.conj().T) / 2.0
        got = _game_operator(C, A, B, Cm)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_chsh_reaches_tsirelson_value(self):
        val, strat = seesaw_entangled_bias(embedded_chsh_game(), 2, restarts=6, seed=0)
        assert val >= np.sqrt(2.0) / 2.0 - 1e-4
        assert entangled_bias_eval(embedded_chsh_game(), strat) == pytest.approx(val, abs=1e-12)

    def test_mermin_reaches_one(self):
        val, _ = seesaw_entangled_bias(mermin_game(), 2, restarts=6, seed=0)
        assert val >= 1.0 - 1e-6

    def test_monotone_within_restart(self):
        hist = {}
        seesaw_entangled_bias(
            mermin_game(),
            2,
            restarts=3,
            seed=1,
            on_sweep=lambda r, s, v: hist.setdefault(r, []).append(v),
        )
        for vals in hist.values():
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_dimension_one_matches_classical_heuristic(self):
        G = mermin_game()
        ss, _ = seesaw_entangled_bias(G, 1, restarts=8, seed=3)
        heur, _ = classical_bias_heuristic(G, restarts=8, seed=3)
        assert ss == pytest.approx(heur, abs=1e-12)


class TestBoundChecks:
    def test_mermin_question_bound_worked_example(self):
        G = mermin_game()
        rep = check_question_bound(G, 1.0, 0.5)
        assert rep.bound == pytest.approx(np.sqrt(2.0) * 1.783 * 0.5, rel=1e-12)
        assert rep.ok and rep.slack == pytest.approx(rep.bound - 1.0, rel=1e-9)

    def test_chsh_question_bound_worked_example(self):
        G = embedded_chsh_game()  # Q = 4 after padding
        rep = check_question_bound(G, np.sqrt(2.0) / 2.0, 0.5)
        assert rep.bound == pytest.approx(2.0 * 1.783 * 0.5, rel=1e-12)
        assert rep.ok

    def test_mermin_dimension_bound_worked_example(self):
        rep = check_dimension_bound(mermin_game(), 1.0, 2, 0.5)
        assert rep.bound == pytest.approx(np.sqrt(6.0) * 1.405**1.5 * 0.5, rel=1e-12)
        assert rep.bound == pytest.approx(2.0397, abs=2e-4)
        assert rep.ok

    def test_classical_certificate_never_violates(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            G = cost_game(rng.standard_normal((3, 3, 3)))
            beta, _ = classical_bias_exact(G)
            qb = check_question_bound(G, beta, beta)
            db = check_dimension_bound(G, beta, 1, beta)
            assert qb.ok and qb.slack >= (np.sqrt(G.Q) * 1.783 - 1.0) * beta - 1e-12
            assert db.ok


class TestIo:
    def test_game_csv_round_trip(self, tmp_path):
        G = game_from_tensor(sample_tensor(1, SamplerConfig(seed=5))).game
        path = tmp_path / "g.csv"
        save_game_csv(path, G)
        back = load_game_csv(path)
        assert back.Q == G.Q
        assert back.cost.tobytes() == G.cost.tobytes()

    def test_game_csv_bytes_and_signed_zeros(self, tmp_path):
        # the writer's bytes are the per-entry writer's that defined the
        # format, and a zero weight keeps its sign through save -> load -> save
        def entrywise(pi, signs):
            Q = len(pi)
            lines = ["q1,q2,q3,pi,sign"]
            for i, j, k in itertools.product(range(Q), repeat=3):
                lines.append(f"{i},{j},{k},{float(pi[i, j, k])!r},{int(signs[i, j, k])}")
            return ("\r\n".join(lines) + "\r\n").encode()

        mermin_pi, mermin_signs = np.zeros((2, 2, 2)), np.ones((2, 2, 2))
        for key, sign in {(0, 0, 0): 1.0, (0, 1, 1): -1.0, (1, 0, 1): -1.0, (1, 1, 0): -1.0}.items():
            mermin_pi[key], mermin_signs[key] = 0.25, sign
        chsh_pi, chsh_signs = np.zeros((4, 4, 4)), np.ones((4, 4, 4))
        chsh_pi[:2, :2, 0] = 0.25
        chsh_signs[1, 1, 0] = -1.0
        built = game_from_tensor(sample_tensor(1, SamplerConfig(seed=5))).game
        path = tmp_path / "g.csv"
        for G, pi, signs in [
            (mermin_game(), mermin_pi, mermin_signs),
            (embedded_chsh_game(), chsh_pi, chsh_signs),
            (built, built.pi, built.signs),
        ]:
            save_game_csv(path, G)
            assert path.read_bytes() == entrywise(pi, signs)
        pi = np.full((2, 2, 2), 1 / 7)
        signs = np.ones((2, 2, 2))
        pi[1, 1, 1], signs[1, 1, 1] = 0.0, -1.0
        save_game_csv(path, XorGame.from_weights(Q=2, pi=pi, signs=signs))
        first = path.read_bytes()
        assert b"\r\n1,1,1,0.0,-1\r\n" in first
        back = load_game_csv(path)
        assert np.signbit(back.cost[1, 1, 1]) and back.signs[1, 1, 1] == -1.0
        save_game_csv(path, back)
        assert path.read_bytes() == first
        # a weight written as -0.0 is +0 with its row's sign
        for sign in (1, -1):
            path.write_text(f"q1,q2,q3,pi,sign\n0,0,0,1.0,1\n1,1,1,-0.0,{sign}\n")
            G = load_game_csv(path)
            assert G.pi[1, 1, 1] == 0.0 and not np.signbit(G.pi[1, 1, 1]) and G.signs[1, 1, 1] == sign

    def test_game_csv_load_memory(self, tmp_path):
        # rows are read into flat buffers, 32 bytes a row, and checked for
        # repeats by one sort: the load stays within 15 MB for an n = 3
        # file's 262 144 rows, here scaled to 16 384 rows (tracing a whole
        # n = 3 load takes seconds), where a dict of tuples took 230 bytes
        # a row (60 MB at n = 3)
        rng = np.random.default_rng(6)
        C = rng.standard_normal((32, 32, 32))
        C[16:] = 0.0  # rows are written for player 1's questions 0..15 only
        G = cost_game(C)
        path = tmp_path / "g.csv"
        pi, signs = G.pi[:16].ravel().tolist(), G.signs[:16].astype(int).ravel().tolist()
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["q1", "q2", "q3", "pi", "sign"])
            out.writerows((*ijk, p, s) for ijk, p, s in zip(np.ndindex(16, 32, 32), pi, signs))
        peak, back = _traced_peak(lambda: load_game_csv(path))
        assert peak < 15e6 / 64**3 * 16 * 32 * 32
        assert back.cost.tobytes() == G.cost.tobytes()

    def test_repeated_triple_names_its_first_repeat(self, tmp_path):
        # a repeated triple is found after the last row; the error names
        # the earliest row whose triple an earlier row has, by the line on
        # which csv read it (a quoted field may span lines)
        path = tmp_path / "g.csv"
        rows = ["0,0,0,0.25,1", "1,0,0,0.25,1", '"0\n",1,0,0.25,1', "1,0,0,0.25,1", "0,0,0,0.0,1"]
        path.write_text("q1,q2,q3,pi,sign\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"^game CSV line 6: repeated question triple \(1, 0, 0\)$"):
            load_game_csv(path)
        path.write_text("q1,q2,q3,pi,sign\n3,2,1,0.5,1\n0,0,0,0.5,1\n3,2,1,0.0,-1\n")
        with pytest.raises(ValueError, match=r"^game CSV line 4: repeated question triple \(3, 2, 1\)$"):
            load_game_csv(path)

    def test_strategy_json_round_trip(self):
        S = ghz_strategy()
        back = strategy_from_json(strategy_to_json(S))
        assert back.dims == S.dims
        assert np.array_equal(back.state, S.state)
        for obs_a, obs_b in zip(S.observables, back.observables):
            for A, B in zip(obs_a, obs_b):
                assert np.array_equal(np.asarray(A, dtype=complex), B)
        G = mermin_game()
        assert entangled_bias_eval(G, back) == entangled_bias_eval(G, S)
