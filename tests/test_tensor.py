"""Tensor sampling, norms, and binary io."""

import struct

import numpy as np
import pytest

from xorgap import (
    DimensionError,
    SamplerConfig,
    ScaleError,
    Tensor3,
    hermitize,
    load_tensor,
    sample_tensor,
    save_tensor,
    spectral_norm,
    trilinear_eval,
    trilinear_norm_lower,
    trilinear_norm_upper_net,
)
from xorgap.tensor import top_eigenpair


def random_hermitian(rng, N, unit=True):
    M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (M + M.conj().T) / 2.0
    return H / np.linalg.norm(H) if unit else H


def entry(T, i, ip, j, jp, k, kp):
    """Tensor entry at index pairs (i,i'), (j,j'), (k,k') of the matrix view."""
    N = T.N
    return complex(T.matrix[(i * N + j) * N + k, (ip * N + jp) * N + kp])


def naive_trilinear(T, X, Y, Z):
    """Independent six-index loop for <T, X x Y x Z>."""
    N = T.N
    total = 0.0 + 0.0j
    for i in range(N):
        for ip in range(N):
            for j in range(N):
                for jp in range(N):
                    for k in range(N):
                        for kp in range(N):
                            total += (
                                entry(T, i, ip, j, jp, k, kp)
                                * X[i, ip]
                                * Y[j, jp]
                                * Z[k, kp]
                            )
    return total


def _oracle_best_hermitian_factor(A):
    """Single-matrix closed-form mode update (the per-restart reference)."""
    B = A.conj()
    H1 = (B + B.conj().T) / 2.0
    H2 = (B - B.conj().T) / 2.0j
    g11 = np.vdot(H1, H1).real
    g12 = np.vdot(H1, H2).real
    g22 = np.vdot(H2, H2).real
    if g11 + g22 <= 0.0:
        return None, 0.0
    half = (g11 - g22) / 2.0
    r = float(np.hypot(half, g12))
    if half < 0.0:
        c0, c1 = g12, r - half
    elif r > 0.0:
        c0, c1 = half + r, g12
    else:
        c0, c1 = 1.0, 0.0
    X = c0 * H1 + c1 * H2
    nrm = np.linalg.norm(X)
    if nrm == 0.0:
        return None, 0.0
    X = (X + X.conj().T) / (2.0 * nrm)
    return X, abs(complex(np.vdot(B, X)))


def _oracle_contraction(T):
    """Single-restart mode map: O(N^4) from g when present, else the dense einsum."""
    N = T.N
    if T.raw_g is None:
        W = T.mode_view()
        patterns = ("abc,b,c->a", "abc,a,c->b", "abc,a,b->c")
        return lambda mode, F, H: np.einsum(patterns[mode], W, F.ravel(), H.ravel()).reshape(N, N)
    G = T.raw_g.reshape(N, N, N).astype(np.complex128)
    moved = [np.ascontiguousarray(G.transpose(axes)) for axes in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
    off = 1.0 - np.eye(N)

    def contract(mode, F, H):
        Gm = moved[mode]
        S = (Gm.reshape(N * N, N) @ (H * off).T).reshape(N, N, N)
        S = (F * off) @ S
        return (Gm.reshape(N, N * N) @ S.reshape(N, N * N).T) * off

    return contract


def oracle_trilinear_lower(T, restarts=8, max_iters=200, tol=1e-9, seed=0, on_sweep=None):
    """The per-restart ALS loop: restarts run one after another.  Returns
    (best value, winning restart)."""
    from xorgap.tensor import _anchor_factors

    N = T.N
    contract = _oracle_contraction(T)

    def rand_herm(rng):
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        H = (M + M.conj().T) / 2.0
        nrm = np.linalg.norm(H)
        return H / nrm if nrm > 0 else np.eye(N) / np.sqrt(N)

    best_val, best_r = -1.0, None
    for r in range(restarts):
        if r == 0:
            X, Y, Z = _anchor_factors(T)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, r)))
            X, Y, Z = rand_herm(rng), rand_herm(rng), rand_herm(rng)
        prev = 0.0
        val = 0.0
        for it in range(max_iters):
            Xn, v = _oracle_best_hermitian_factor(contract(0, Y, Z))
            if Xn is not None:
                X = Xn
            Yn, v = _oracle_best_hermitian_factor(contract(1, X, Z))
            if Yn is not None:
                Y = Yn
            Zn, v = _oracle_best_hermitian_factor(contract(2, X, Y))
            if Zn is not None:
                Z = Zn
            val = v
            if on_sweep is not None:
                on_sweep(r, it, val)
            if val - prev < tol * max(prev, 1e-300):
                break
            prev = val
        if val > best_val:
            best_val, best_r = val, r
    return best_val, best_r


def _lockstep_cases():
    """(name, tensor, ALS keyword arguments) for the lockstep-vs-oracle check."""
    from xorgap.sweep import row_seed

    cases = []
    for key in range(3):  # dense complex n = 3 tensors, short runs to bound the oracle's cost
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(17, key)))
        M = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        cases.append((f"dense-n3-{key}", Tensor3(3, M), dict(restarts=4, max_iters=40)))
    for n, count in ((1, 8), (2, 8), (3, 5)):
        for k in range(count):
            s = row_seed(0, n, k)
            cases.append((f"row-n{n}-{k}", sample_tensor(n, SamplerConfig(seed=s)), dict(seed=s)))
    rng = np.random.default_rng(3)
    A, B, C = (random_hermitian(rng, 2) for _ in range(3))
    W = np.einsum("ab,cd,ef->acebdf", A, B, C).reshape(8, 8)
    cases.append(("unit-product", Tensor3(1, W), dict(restarts=6, seed=5)))
    return cases


class TestSampling:
    def test_zero_pattern_on_colliding_pairs(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        N = T.N
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for ip in range(N):
                        for jp in range(N):
                            for kp in range(N):
                                if i == ip or j == jp or k == kp:
                                    assert entry(T, i, ip, j, jp, k, kp) == 0

    def test_bernoulli_nonzero_entries_are_signs(self):
        T = sample_tensor(1, SamplerConfig(distribution="bernoulli", seed=7))
        nz = T.matrix[T.matrix != 0]
        assert np.all(np.isin(nz.real, (-1.0, 1.0)))
        assert np.all(nz.imag == 0)

    def test_override_all_ones_is_hollow_cube(self):
        T = sample_tensor(1, SamplerConfig(distribution="override", override_g=np.ones(8)))
        J = np.ones((2, 2)) - np.eye(2)
        expected = np.kron(np.kron(J, J), J)
        assert np.abs(T.matrix - expected).max() == 0

    def test_matches_masked_outer_product(self):
        T = sample_tensor(1, SamplerConfig(seed=3))
        g = T.raw_g
        N = T.N
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    for ip in range(N):
                        for jp in range(N):
                            for kp in range(N):
                                want = 0.0
                                if i != ip and j != jp and k != kp:
                                    want = g[(i * N + j) * N + k] * g[(ip * N + jp) * N + kp]
                                got = entry(T, i, ip, j, jp, k, kp)
                                assert got == pytest.approx(want, abs=1e-15)

    def test_reproducible(self):
        a = sample_tensor(2, SamplerConfig(seed=11))
        b = sample_tensor(2, SamplerConfig(seed=11))
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.raw_g, b.raw_g)

    def test_override_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            sample_tensor(1, SamplerConfig(distribution="override", override_g=np.ones(7)))

    def test_sampled_tensor_is_hermitian(self):
        assert sample_tensor(2, SamplerConfig(seed=0)).is_hermitian()

    def test_hermiticity_marked_not_scanned(self, tmp_path, monkeypatch):
        # a sampled or loaded tensor is g g^T under the mask, exactly Hermitian,
        # so is_hermitian and hermitize never compare its N^6 entries; the same
        # matrix given as a general tensor is still compared
        T = sample_tensor(2, SamplerConfig(seed=0))
        save_tensor(tmp_path / "t.xgt", T)
        loaded = load_tensor(tmp_path / "t.xgt")
        direct = Tensor3(2, T.matrix)
        scans = set()
        absolute, array_equal = np.abs, np.array_equal

        def counting_abs(a, *args, **kwargs):
            if np.shape(a) == (64, 64):
                scans.add("is_hermitian")
            return absolute(a, *args, **kwargs)

        def counting_array_equal(a, b, *args, **kwargs):
            if np.shape(a) == (64, 64):
                scans.add("hermitize")
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "abs", counting_abs)
        monkeypatch.setattr(np, "array_equal", counting_array_equal)
        for marked in (T, loaded):
            assert marked.is_hermitian() and hermitize(marked) is marked
        assert scans == set()
        assert direct.is_hermitian() and hermitize(direct) is direct
        assert scans == {"is_hermitian", "hermitize"}

    def test_given_by_exactly_one_representation(self):
        T = sample_tensor(1, SamplerConfig(seed=0))
        with pytest.raises(ValueError, match="exactly one"):
            Tensor3(1, T.matrix, raw_g=T.raw_g)
        with pytest.raises(ValueError, match="exactly one"):
            Tensor3(1)
        assert Tensor3(1, raw_g=T.raw_g).raw_g is not None
        assert Tensor3(1, T.matrix).raw_g is None

    def test_caller_arrays_stay_writeable_and_detached(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        g = rng.standard_normal(8)
        T, S = Tensor3(1, M), Tensor3(1, raw_g=g)
        assert M.flags.writeable and g.flags.writeable
        want_M, want_g = T.matrix.copy(), S.raw_g.copy()
        M[:] = 0.0
        g[:] = 0.0
        assert np.array_equal(T.matrix, want_M) and np.array_equal(S.raw_g, want_g)
        assert not T.matrix.flags.writeable and not S.raw_g.flags.writeable
        # a read-only input is kept as it is, not copied
        want_M.setflags(write=False)
        assert Tensor3(1, want_M).matrix is want_M
        W = T.mode_view()
        F = Tensor3.from_mode_view(1, W)
        assert W.flags.writeable and not np.may_share_memory(F.matrix, W)
        assert np.array_equal(F.matrix, want_M)

    @pytest.mark.parametrize("n", [1, 2])
    def test_norms_leave_sampled_matrix_unbuilt(self, n, monkeypatch):
        # the norms of a sampled tensor work from g; its matrix is built on
        # the first read only, once, and kept read-only
        from xorgap import tensor

        built = []
        masked_outer = tensor._masked_outer

        def counting_masked_outer(g, N):
            built.append(N)
            return masked_outer(g, N)

        monkeypatch.setattr(tensor, "_masked_outer", counting_masked_outer)
        T = sample_tensor(n, SamplerConfig(seed=n))
        E = np.eye(T.N) / np.sqrt(T.N)
        assert T.is_hermitian() and hermitize(T) is T
        spectral_norm(T)
        top_eigenpair(T)
        trilinear_norm_lower(T, restarts=2, max_iters=5)
        trilinear_eval(T, E, E, E)
        T.frobenius_norm()
        if n == 1:
            trilinear_norm_upper_net(T, 0.9)
        assert built == []
        M = T.matrix
        assert T.matrix is M and not M.flags.writeable and M.dtype == np.complex128
        assert built == [T.N]


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frobenius_norm_from_g_matches_dense(self, n):
        # sqrt((g^2)^T (J - I)^{⊗3} g^2) against the norm of the built matrix
        for cfg in (SamplerConfig(seed=n), SamplerConfig(distribution="bernoulli", seed=n)):
            T = sample_tensor(n, cfg)
            want = float(np.linalg.norm(Tensor3(n, T.matrix).matrix))
            assert abs(T.frobenius_norm() - want) <= 1e-12 * want


class TestSpectralNorm:
    def test_zero_tensor(self):
        T = Tensor3(1, np.zeros((8, 8)))
        assert spectral_norm(T) == 0.0

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 27.0)])
    def test_all_ones_override(self, n, expected):
        N = 2**n
        T = sample_tensor(n, SamplerConfig(distribution="override", override_g=np.ones(N**3)))
        assert spectral_norm(T) == pytest.approx(expected, rel=1e-9)

    def test_unmasked_outer_product_is_rank_one(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(8)
        T = Tensor3(1, np.outer(g, g))
        assert spectral_norm(T) == pytest.approx(g @ g, rel=1e-12)

    def test_dominated_by_frobenius_and_homogeneous(self):
        T = sample_tensor(1, SamplerConfig(seed=9))
        sn = spectral_norm(T)
        assert sn <= T.frobenius_norm() + 1e-12
        T3 = Tensor3(1, 3.0 * T.matrix, raw_g=None)
        assert spectral_norm(T3) == pytest.approx(3.0 * sn, rel=1e-12)

    def test_non_hermitian_falls_back_to_singular_values(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        T = Tensor3(1, M)
        assert spectral_norm(T) == pytest.approx(
            np.linalg.svd(M, compute_uv=False)[0], rel=1e-12
        )

    def test_top_eigenpair_prefers_positive_branch(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        lam, psi = top_eigenpair(T)
        assert lam > 0
        assert lam == pytest.approx(spectral_norm(T), rel=1e-12)
        assert (psi.conj() @ T.matrix @ psi).real == pytest.approx(lam, rel=1e-10)


def _dense_top(M):
    """Top eigenpair of a dense eigh, ties to the positive branch."""
    w, V = np.linalg.eigh(M)
    sn = max(abs(w[0]), abs(w[-1]))
    j = -1 if w[-1] >= sn * (1.0 - 1e-12) else 0
    return w[j], V[:, j]


_SEED0_ROWS = [(n, k) for n, count in ((1, 8), (2, 8), (3, 5)) for k in range(count)]


class TestLanczosEigenpair:
    @pytest.mark.parametrize("n,k", _SEED0_ROWS)
    def test_seed0_rows_match_dense_eigh(self, n, k):
        from xorgap.sweep import row_seed

        T = sample_tensor(n, SamplerConfig(seed=row_seed(0, n, k)))
        lam, psi = top_eigenpair(T)
        ref, phi = _dense_top(T.matrix)
        assert abs(lam - ref) <= 1e-12 * abs(ref)
        assert abs(abs(np.vdot(phi, psi)) - 1.0) <= 1e-12
        assert np.linalg.norm(T.matrix @ psi - lam * psi) <= 1e-12 * abs(lam)
        if n == 1:  # J - I is sigma_x at N = 2: an exact +/-lambda pair
            assert np.linalg.eigvalsh(T.matrix)[0] == pytest.approx(-ref, rel=1e-12)
            assert lam > 0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dist", ["ones", "bernoulli"])
    def test_degenerate_spectra(self, n, dist):
        if dist == "ones":
            cfg = SamplerConfig("override", override_g=np.ones(8**n))
        else:
            cfg = SamplerConfig("bernoulli", seed=0)
        T = sample_tensor(n, cfg)
        lam, psi = top_eigenpair(T)
        ref, _ = _dense_top(T.matrix)
        assert lam > 0
        assert abs(lam - ref) <= 1e-12 * abs(ref)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert abs((psi.conj() @ T.matrix @ psi).real - ref) <= 1e-12 * abs(ref)

    def test_zero_tensor(self):
        T = Tensor3(1, np.zeros((8, 8)))
        lam, psi = top_eigenpair(T)
        assert lam == 0.0
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert spectral_norm(T) == 0.0

    @pytest.mark.parametrize("fixture", ["antihermitian", "random"])
    def test_dense_hermitize_candidates(self, fixture):
        if fixture == "antihermitian":  # the fixtures of TestHermitize
            rng = np.random.default_rng(4)
            Hm = rng.standard_normal((8, 8))
            M = 1j * (Hm + Hm.T) / 2.0
        else:
            rng = np.random.default_rng(6)
            M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for C in ((M + M.conj().T) / 2.0, 1j * (M - M.conj().T) / 2.0):
            lam, psi = top_eigenpair(Tensor3(1, C))
            ref, phi = _dense_top(C)
            assert abs(lam - ref) <= 1e-12 * abs(ref)  # exact for the zero candidate
            assert np.linalg.norm(C @ psi - lam * psi) <= 1e-12 * abs(lam)

    @pytest.mark.parametrize("given", ["raw_g", "matrix"])
    def test_wrong_vector_fails_residual_check(self, given, monkeypatch):
        # the residual is taken with the solver's own product, g or matrix
        from xorgap import tensor

        lanczos = tensor._lanczos_extremes

        def wrong(*args):
            low, u, high, v = lanczos(*args)
            return low, np.roll(u, 1), high, np.roll(v, 1)

        monkeypatch.setattr(tensor, "_lanczos_extremes", wrong)
        T = sample_tensor(1, SamplerConfig(seed=3))
        if given == "matrix":
            T = Tensor3(1, T.matrix)
        with pytest.raises(ValueError, match="eigenpair residual"):
            top_eigenpair(T)
        assert T._eig is None  # nothing cached from a failed check


class TestTrilinearEval:
    def test_identity_tensor_normalized_identity_factors(self):
        for n in (1, 2):
            N = 2**n
            T = Tensor3(n, np.eye(N**3))
            E = np.eye(N) / np.sqrt(N)
            assert trilinear_eval(T, E, E, E) == pytest.approx(N**1.5, rel=1e-12)

    def test_zero_factor_gives_zero(self):
        T = sample_tensor(1, SamplerConfig(seed=1))
        rng = np.random.default_rng(0)
        Y = random_hermitian(rng, 2)
        Z = random_hermitian(rng, 2)
        assert trilinear_eval(T, np.zeros((2, 2)), Y, Z) == 0

    def test_matches_naive_six_index_loop(self):
        rng = np.random.default_rng(12)
        T = sample_tensor(1, SamplerConfig(seed=12))
        X, Y, Z = (random_hermitian(rng, 2) for _ in range(3))
        fast = trilinear_eval(T, X, Y, Z)
        slow = naive_trilinear(T, X, Y, Z)
        assert fast == pytest.approx(slow, rel=1e-10)

    def test_multilinear_in_each_slot(self):
        rng = np.random.default_rng(21)
        T = sample_tensor(1, SamplerConfig(seed=4))
        X1, X2, Y, Z = (random_hermitian(rng, 2) for _ in range(4))
        a, b = rng.standard_normal(2)
        lhs = trilinear_eval(T, a * X1 + b * X2, Y, Z)
        rhs = a * trilinear_eval(T, X1, Y, Z) + b * trilinear_eval(T, X2, Y, Z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        T = sample_tensor(1, SamplerConfig(seed=0))
        with pytest.raises(DimensionError):
            trilinear_eval(T, np.eye(4), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_factor_dtypes_agree(self, n):
        # real float, complex and read-only Hermitian factors give the same
        # pairing and the same mode maps, on the sampled and the dense path
        from xorgap.tensor import _mode_contraction

        rng = np.random.default_rng(40 + n)
        T = sample_tensor(n, SamplerConfig(seed=n))
        N = T.N
        real = [rng.standard_normal((N, N)) for _ in range(3)]
        real = [(M + M.T) / 2.0 for M in real]
        frozen = [M.astype(np.complex128) for M in real]
        for M in frozen:
            M.setflags(write=False)
        E = np.eye(N) / np.sqrt(N)
        for tensor in (T, Tensor3(n, T.matrix)):
            want = trilinear_eval(tensor, *(M.astype(np.complex128) for M in real))
            for X, Y, Z in (real, frozen, (real[0], frozen[1], real[2])):
                assert abs(trilinear_eval(tensor, X, Y, Z) - want) <= 1e-12 * abs(want)
            e_want = trilinear_eval(tensor, *(E.astype(np.complex128),) * 3)
            assert trilinear_eval(tensor, E, E, E) == pytest.approx(e_want, rel=1e-12)
            enter, hold_z, contract_z = _mode_contraction(tensor)
            stack = np.array(real)
            frozen_stack = stack.astype(np.complex128)
            frozen_stack.setflags(write=False)
            for F in (stack, frozen_stack):
                F = enter(F)
                contract_xy = hold_z(F)
                got = [contract_xy(0, F), contract_xy(1, F), contract_z(F, F)]
                C = enter(stack.astype(np.complex128))
                ref_xy = hold_z(C)
                ref = [ref_xy(0, C), ref_xy(1, C), contract_z(C, C)]
                for a, b in zip(got, ref):
                    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_large_diagonals_masked_on_entry(self, n):
        # the sampled path masks each argument once where it enters; the
        # factors' diagonals, however large, pair with nothing
        rng = np.random.default_rng(60 + n)
        T = sample_tensor(n, SamplerConfig(seed=n))
        dense = Tensor3(n, T.matrix)
        N = T.N
        for scale in (1e3, -1e6):
            X, Y, Z = (random_hermitian(rng, N) + scale * np.diag(rng.standard_normal(N)) for _ in range(3))
            want = trilinear_eval(dense, X, Y, Z)
            assert abs(trilinear_eval(T, X, Y, Z) - want) <= 1e-12 * abs(want)
            offdiag = [M - np.diag(np.diag(M)) for M in (X, Y, Z)]
            assert trilinear_eval(T, *offdiag) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sampled_matches_dense(self, n):
        # the pairing from g against the same tensor given by its matrix, with
        # Hermitian and general complex factors
        rng = np.random.default_rng(30 + n)
        T = sample_tensor(n, SamplerConfig(seed=n))
        dense = Tensor3(n, T.matrix)
        N = T.N
        for _ in range(3):
            factors = [random_hermitian(rng, N) for _ in range(3)]
            factors += [rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)) for _ in range(3)]
            for X, Y, Z in (factors[:3], factors[3:]):
                want = trilinear_eval(dense, X, Y, Z)
                assert abs(trilinear_eval(T, X, Y, Z) - want) <= 1e-12 * abs(want)


class TestTrilinearLower:
    def test_zero_tensor(self):
        T = Tensor3(1, np.zeros((8, 8)))
        val, wit = trilinear_norm_lower(T, restarts=2)
        assert val == 0.0

    def test_unit_product_tensor_reaches_one(self):
        rng = np.random.default_rng(3)
        A, B, C = (random_hermitian(rng, 2) for _ in range(3))
        W = np.einsum("ab,cd,ef->acebdf", A, B, C).reshape(8, 8)
        T = Tensor3(1, W)
        val, wit = trilinear_norm_lower(T, restarts=6, seed=5)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_objective_nondecreasing_within_each_restart(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        hist = {}
        trilinear_norm_lower(
            T, restarts=4, seed=1, on_sweep=lambda r, i, v: hist.setdefault(r, []).append(v)
        )
        for vals in hist.values():
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_witness_is_feasible_and_consistent(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        val, wit = trilinear_norm_lower(T, restarts=8, seed=1)
        for M in (wit.X, wit.Y, wit.Z):
            assert np.abs(M - M.conj().T).max() <= 1e-12
            assert np.linalg.norm(M) <= 1.0 + 1e-12
        assert abs(wit.value) == pytest.approx(val, rel=1e-12)
        assert trilinear_eval(T, wit.X, wit.Y, wit.Z) == pytest.approx(wit.value, rel=1e-10)

    def test_beats_random_feasible_points(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        val, _ = trilinear_norm_lower(T, restarts=8, seed=1)
        rng = np.random.default_rng(99)
        best = max(
            abs(
                trilinear_eval(
                    T,
                    random_hermitian(rng, 2),
                    random_hermitian(rng, 2),
                    random_hermitian(rng, 2),
                )
            )
            for _ in range(2000)
        )
        assert val >= best - 1e-9

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_mode_update_is_exact_maximizer(self, N):
        # the single-mode subproblem max |sum A∘X| over unit-Frobenius
        # Hermitian X has a closed form; no sampled feasible point may beat it
        from xorgap.tensor import _best_hermitian_factor

        rng = np.random.default_rng(N)
        As = rng.standard_normal((20, N, N)) + 1j * rng.standard_normal((20, N, N))
        Xs, vals, ok = _best_hermitian_factor(As)
        assert ok.all()
        for A, X, val in zip(As, Xs, vals):
            assert np.abs(X - X.conj().T).max() <= 1e-12
            assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.sum(A * X)) == pytest.approx(val, rel=1e-12)
            for _t in range(200):
                H = random_hermitian(rng, N)
                assert abs(np.sum(A * H)) <= val + 1e-9


    @pytest.mark.parametrize(
        "A",
        [
            np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]]),  # Hermitian: H2 = 0
            1j * np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]]),  # anti-Hermitian: H1 = 0
        ],
    )
    def test_mode_update_one_sided_input(self, A):
        # conj(A) or i conj(A), normalized, attains Cauchy-Schwarz: ||A||_F
        from xorgap.tensor import _best_hermitian_factor

        (X,), (val,), (ok,) = _best_hermitian_factor(A[None])
        assert ok
        assert np.abs(X - X.conj().T).max() <= 1e-12
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(np.linalg.norm(A), rel=1e-12)
        assert abs(np.sum(A * X)) == pytest.approx(val, rel=1e-12)

    def test_mode_update_degenerate_gram(self):
        # H1, H2 orthogonal with equal norms: every unit c in the span is optimal
        from xorgap.tensor import _best_hermitian_factor

        H1 = np.diag([1.0, -1.0])
        H2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = (H1 + 1j * H2).conj()
        (X,), (val,), (ok,) = _best_hermitian_factor(A[None])
        assert ok
        assert np.abs(X - X.conj().T).max() <= 1e-12
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert abs(np.sum(A * X)) == pytest.approx(val, rel=1e-12)

    def test_mode_update_zero_input(self):
        from xorgap.tensor import _best_hermitian_factor

        X, val, ok = _best_hermitian_factor(np.zeros((1, 3, 3), dtype=complex))
        assert not ok[0] and val[0] == 0.0

    def test_mode_update_zero_slice_beside_nonzero(self):
        # one restart's A vanishes, the other's does not: only the first is flagged
        from xorgap.tensor import _best_hermitian_factor

        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X, val, ok = _best_hermitian_factor(np.stack([np.zeros((3, 3), dtype=complex), A]))
        assert ok.tolist() == [False, True]
        assert val[0] == 0.0 and np.all(X[0] == 0)
        (X1,), (v1,), _ = _best_hermitian_factor(A[None])
        assert val[1] == v1 and np.array_equal(X[1], X1)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_mode_update_matches_gram_oracle(self, N):
        # the phase-rotated update against the single-matrix Gram-eigenvector
        # rule: same value, same X up to a global sign; zero slices beside
        # non-zero ones and an exactly degenerate Gram matrix (u = tr(BB) = 0)
        # ride in the same stack
        from xorgap.tensor import _best_hermitian_factor

        rng = np.random.default_rng(100 + N)
        G = rng.standard_normal((6, N, N)) + 1j * rng.standard_normal((6, N, N))
        H = (G + G.conj().transpose(0, 2, 1)) / 2.0
        H1 = np.diag(np.resize([1.0, -1.0], N))  # ||H1|| = ||H2||, <H1, H2> = 0
        H2 = np.kron(np.eye(N // 2), [[0.0, 1.0], [1.0, 0.0]])
        zero = np.zeros((N, N), dtype=complex)
        As = np.concatenate(
            [G, H, 1j * H, [zero, (H1 + 1j * H2).conj(), zero, 2.5 * (H1 - 1j * H2).conj()]]
        )
        Xs, vals, ok = _best_hermitian_factor(As)
        for A, X, val, flag in zip(As, Xs, vals, ok):
            want_X, want_val = _oracle_best_hermitian_factor(A)
            if want_X is None:
                assert not flag and val == 0.0 and np.all(X == 0)
                continue
            assert flag
            assert val == pytest.approx(want_val, rel=1e-12)
            assert min(np.abs(X - want_X).max(), np.abs(X + want_X).max()) <= 1e-12
        assert vals[-3] == pytest.approx(np.sqrt(N), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structured_contraction_matches_dense(self, n):
        # modes 0 and 1 come from one hold_z closure, as the ALS loop calls
        # them, so the structured path's shared intermediate serves both
        from xorgap.tensor import _mode_contraction

        T = sample_tensor(n, SamplerConfig(seed=n))
        N = T.N
        W = T.mode_view()
        rng = np.random.default_rng(n)
        for tensor in (T, Tensor3(n, T.matrix)):  # structured, then dense
            enter, hold_z, contract_z = _mode_contraction(tensor)
            H = np.array([random_hermitian(rng, N) for _ in range(3)])
            contract_xy = hold_z(enter(H))
            for mode, pattern in enumerate(("abc,b,c->a", "abc,a,c->b", "abc,a,b->c")):
                F = np.array([random_hermitian(rng, N) for _ in range(3)])
                got = contract_z(enter(F), enter(H)) if mode == 2 else contract_xy(mode, enter(F))
                for r in range(3):
                    want = np.einsum(pattern, W, F[r].ravel(), H[r].ravel()).reshape(N, N)
                    assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_held_map_reused_across_modes(self, n):
        # one held map serves mode 0, mode 1 and mode 0 again, with the z
        # map run in between: the work arrays it keeps are not overwritten
        from xorgap.tensor import _mode_contraction

        T = sample_tensor(n, SamplerConfig(seed=10 + n))
        N, R = T.N, 3
        rng = np.random.default_rng(70 + n)
        oracle = _oracle_contraction(T)
        enter, hold_z, contract_z = _mode_contraction(T)
        H = np.array([random_hermitian(rng, N) for _ in range(R)])
        contract_xy = hold_z(enter(H))
        for mode in (0, 1, 2, 0):
            F = np.array([random_hermitian(rng, N) for _ in range(R)])
            if mode == 2:
                contract_z(enter(F), enter(F))
                continue
            got = contract_xy(mode, enter(F))
            for r in range(R):
                want = oracle(mode, F[r], H[r])
                assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), (mode, r)

    @pytest.mark.parametrize("n,seed", [(1, 0), (1, 3), (2, 0), (2, 5), (3, 0)])
    def test_structured_als_matches_dense(self, n, seed):
        T = sample_tensor(n, SamplerConfig(seed=seed))
        dense = Tensor3(n, T.matrix)  # no raw vector: dense mode view
        fast_sweeps, slow_sweeps = [], []
        fast, _ = trilinear_norm_lower(T, seed=seed, on_sweep=lambda *a: fast_sweeps.append(a))
        slow, _ = trilinear_norm_lower(dense, seed=seed, on_sweep=lambda *a: slow_sweeps.append(a))
        assert fast == pytest.approx(slow, rel=1e-12)
        assert len(fast_sweeps) == len(slow_sweeps)

    def test_lockstep_matches_per_restart_oracle(self):
        # same per-restart sweep counts, per-sweep values within 1e-12 and the
        # same winning restart as restarts run one after another; where
        # restarts tie to rounding (the unit product tensor: all reach 1
        # within 4e-16) the winner need only be one of the tied best
        for name, T, kw in _lockstep_cases():
            got, want = {}, {}
            val, wit = trilinear_norm_lower(
                T, on_sweep=lambda r, i, v: got.setdefault(r, []).append(v), **kw
            )
            best, best_r = oracle_trilinear_lower(
                T, on_sweep=lambda r, i, v: want.setdefault(r, []).append(v), **kw
            )
            assert {r: len(h) for r, h in got.items()} == {r: len(h) for r, h in want.items()}, name
            for r in want:
                assert np.allclose(got[r], want[r], rtol=1e-12, atol=0.0), name
            finals = np.array([got[r][-1] for r in sorted(got)])
            tied = np.flatnonzero(finals >= finals.max() * (1.0 - 1e-12))
            assert int(np.argmax(finals)) == best_r or (len(tied) > 1 and best_r in tied), name
            assert val == pytest.approx(best, rel=1e-12), name

    def test_on_sweep_is_iteration_major(self):
        T = sample_tensor(2, SamplerConfig(seed=3))
        calls = []
        trilinear_norm_lower(T, restarts=4, seed=3, on_sweep=lambda r, i, v: calls.append((i, r)))
        assert calls == sorted(calls)
        assert {r for _, r in calls} == {0, 1, 2, 3}

    def test_max_iters_below_one_rejected(self):
        T = sample_tensor(1, SamplerConfig(seed=1))
        with pytest.raises(ValueError, match="max_iters"):
            trilinear_norm_lower(T, max_iters=0)

    def test_value_not_matching_witness_raises(self, monkeypatch):
        # the winner is paired again with its own factors; a value the ALS
        # bookkeeping got wrong no longer matches, under either update rule:
        # the Hermitian one (a sampled tensor; the ALS calls it with the old
        # factors as well, which the patch passes on) and the phase rotation
        # (a non-Hermitian dense tensor)
        from xorgap import tensor

        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cases = [
            ("_hermitian_factor", sample_tensor(1, SamplerConfig(seed=1))),
            ("_best_hermitian_factor", Tensor3(1, M)),
        ]
        for name, T in cases:
            update = getattr(tensor, name)

            def doubled_value(*args, update=update):
                X, val, ok = update(*args)
                return X, 2.0 * val, ok

            with monkeypatch.context() as patch:
                patch.setattr(tensor, name, doubled_value)
                with pytest.raises(ValueError, match="does not match its witness"):
                    trilinear_norm_lower(T, restarts=2)
            trilinear_norm_lower(T, restarts=2)  # unpatched, the same run passes

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_hermitian_update_matches_phase_rotation(self, N):
        # on Hermitian images the phase rotation is the identity: the
        # Hermitian rule gives the same factor and value, and an exactly
        # Hermitian factor even where A is Hermitian only to rounding
        from xorgap.tensor import _best_hermitian_factor, _hermitian_factor

        rng = np.random.default_rng(200 + N)
        H = np.array([random_hermitian(rng, N, unit=False) for _ in range(6)])
        H[3] = 0.0  # a vanished slice beside non-zero ones
        H[4] += 1e-15 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        X, val, ok = _hermitian_factor(H)
        want_X, want_val, want_ok = _best_hermitian_factor(H)
        assert ok.tolist() == want_ok.tolist() == [True, True, True, False, True, True]
        assert val[3] == 0.0 and np.all(X[3] == 0)
        assert np.allclose(val, want_val, rtol=1e-12, atol=0.0)
        assert np.abs(X - want_X).max() <= 1e-12
        assert np.array_equal(X, X.conj().transpose(0, 2, 1))
        for A, Xr, v in zip(H[ok], X[ok], val[ok]):
            assert np.linalg.norm(Xr) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.sum(A * Xr)) == pytest.approx(v, rel=1e-12)

    def test_hermitian_update_keeps_old_factor_where_vanished(self):
        # given the old factors, a vanished slice keeps its old factor and the
        # others are the update without them, bit for bit
        from xorgap.tensor import _hermitian_factor

        rng = np.random.default_rng(210)
        H = np.array([random_hermitian(rng, 4, unit=False) for _ in range(3)])
        old = np.array([random_hermitian(rng, 4) for _ in range(3)])
        want_X, want_val, _ = _hermitian_factor(H)
        X, val, ok = _hermitian_factor(H, old)
        assert ok.all() and np.array_equal(X, want_X) and np.array_equal(val, want_val)
        H[1] = 0.0
        X, val, ok = _hermitian_factor(H, old)
        assert ok.tolist() == [True, False, True] and val[1] == 0.0
        assert np.array_equal(X[1], old[1]) and np.array_equal(X[[0, 2]], want_X[[0, 2]])


def _exhaustive_net_upper(T, eps):
    """The net bound with the maximum taken over every triple (the per-X loop
    of the unpruned implementation)."""
    from xorgap.nets import projector_net

    g, N = T.raw_g, T.N
    E = np.array([M.reshape(-1) for k in (1, 2) for M in projector_net(N, k, eps).elements])
    Wg = np.outer(g, g).reshape(N, N, N, N, N, N).transpose(0, 3, 1, 4, 2, 5)
    vec_i = np.eye(N).reshape(-1)
    Wg = Wg.reshape(N * N, N * N, N * N) - np.einsum("a,b,c->abc", vec_i, vec_i, vec_i)
    M1 = np.einsum("abc,pa->pbc", Wg, E)
    max_dev = max(float(np.abs(E @ M @ E.T).max()) for M in M1)
    return float(64.0 * np.log(N) ** 1.5 * (max_dev + 3.0 * eps * (N**1.5 + g @ g)))


class TestTrilinearUpperNet:
    @pytest.mark.parametrize("eps", [0.5, 0.9])
    def test_pruned_max_matches_exhaustive_oracle(self, eps):
        from xorgap.sweep import row_seed

        cases = [SamplerConfig(seed=row_seed(0, 1, k)) for k in range(8)]
        # zero g: the maximum sits on the rank-2 element; all-ones g: the hollow cube
        cases += [SamplerConfig(distribution="override", override_g=v) for v in (np.zeros(8), np.ones(8))]
        for cfg in cases:
            T = sample_tensor(1, cfg)
            assert trilinear_norm_upper_net(T, eps) == pytest.approx(
                _exhaustive_net_upper(T, eps), rel=1e-12, abs=0.0
            )

    def test_upper_dominates_lower_across_seeds(self):
        for seed in range(6):
            T = sample_tensor(1, SamplerConfig(seed=seed))
            lo, _ = trilinear_norm_lower(T, restarts=6, seed=seed)
            hi = trilinear_norm_upper_net(T, 0.5)
            assert hi >= lo

    def test_matches_independent_enumeration(self):
        from xorgap.nets import projector_net

        T = sample_tensor(1, SamplerConfig(seed=42))
        eps = 0.9
        got = trilinear_norm_upper_net(T, eps)
        g = T.raw_g
        elements = list(projector_net(2, 1, eps).elements) + list(
            projector_net(2, 2, eps).elements
        )
        Zs = np.array(elements)
        best = 0.0
        for X in elements:
            for Y in elements:
                K = np.kron(np.kron(X, Y), Zs)  # kron(X ⊗ Y, Z) for every Z, stacked
                dev = np.abs(np.einsum("i,zij,j->z", g, K, g) - np.trace(K, axis1=1, axis2=2))
                best = max(best, dev.max())
        expected = 64.0 * np.log(2) ** 1.5 * (best + 3 * eps * (2**1.5 + g @ g))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_vector_value(self):
        # With g = 0 the quadratic forms vanish but the trace terms survive:
        # the net maximum is max |tr X tr Y tr Z| = N^{3/2}, attained at the
        # rank-2 triple, on top of the additive slack.
        eps = 0.5
        T = sample_tensor(1, SamplerConfig(distribution="override", override_g=np.zeros(8)))
        got = trilinear_norm_upper_net(T, eps)
        pref = 64.0 * np.log(2) ** 1.5
        assert got == pytest.approx(pref * 2**1.5 * (1.0 + 3 * eps), rel=1e-12)
        assert got >= pref * 3 * eps * 2**1.5

    def test_reproducible(self):
        T = sample_tensor(1, SamplerConfig(seed=8))
        assert trilinear_norm_upper_net(T, 0.5) == trilinear_norm_upper_net(T, 0.5)

    def test_scale_and_input_guards(self):
        with pytest.raises(ScaleError):
            trilinear_norm_upper_net(sample_tensor(2, SamplerConfig(seed=0)), 0.5)
        bare = Tensor3(1, sample_tensor(1, SamplerConfig(seed=0)).matrix)
        with pytest.raises(ValueError):
            trilinear_norm_upper_net(bare, 0.5)


class TestHermitize:
    def test_fixes_already_hermitian_input(self):
        T = sample_tensor(1, SamplerConfig(seed=2))
        H = hermitize(T)
        assert H is T  # no copy: raw vector and cached eigenpair come along
        assert np.abs(H.matrix - T.matrix).max() == 0
        assert H.raw_g is not None

    def test_antihermitian_input_takes_imaginary_branch(self):
        rng = np.random.default_rng(4)
        Hm = rng.standard_normal((8, 8))
        Hm = (Hm + Hm.T) / 2.0
        T = Tensor3(1, 1j * Hm)
        out = hermitize(T)
        assert out.is_hermitian()
        assert spectral_norm(out) == pytest.approx(
            np.abs(np.linalg.eigvalsh(Hm)).max(), rel=1e-12
        )

    def test_random_complex_output_hermitian(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out = hermitize(Tensor3(1, M))
        assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-12
        assert out.raw_g is None  # certificate does not survive a real change

    def test_general_tensor_factored_once(self, monkeypatch):
        # a general-tensor pass: the game build and the Pauli strategy share one
        # hermitize (one eigenpair per candidate), and the norms share one
        # singular pair; no SVD runs
        from xorgap import tensor
        from xorgap.game import game_from_tensor, pauli_strategy

        rng = np.random.default_rng(10)
        T = Tensor3(2, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        counted = {"eigenpair": 0, "svd": 0}
        lanczos, svd = tensor._lanczos_extremes, np.linalg.svd

        def counting_lanczos(*args):
            counted["eigenpair"] += 1
            return lanczos(*args)

        def counting_svd(a, *args, **kwargs):
            if np.shape(a) == (64, 64):
                counted["svd"] += 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(tensor, "_lanczos_extremes", counting_lanczos)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        spectral_norm(T)
        trilinear_norm_lower(T, restarts=2)
        game_from_tensor(T)
        pauli_strategy(hermitize(T))
        # one Lanczos run for the singular pair, one per hermitize candidate
        assert counted == {"eigenpair": 3, "svd": 0}

    def test_candidates_exactly_hermitian_and_marked(self, monkeypatch):
        # both candidates are Hermitian bit for bit, so hermitize marks them
        # and spectral_norm never scans their entries
        from xorgap import tensor

        candidates = []

        def recording_spectral_norm(C):
            candidates.append(C)
            return spectral_norm(C)

        monkeypatch.setattr(tensor, "spectral_norm", recording_spectral_norm)
        rng = np.random.default_rng(12)
        for n in (1, 2):
            D = 8**n
            M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
            wide = M * 10.0 ** rng.integers(-200, 200, (D, D))  # wide exponents
            for C in ((wide + wide.conj().T) / 2.0, 1j * (wide - wide.conj().T) / 2.0):
                assert np.array_equal(C, C.conj().T)
            candidates.clear()
            out = hermitize(Tensor3(n, M))
            assert len(candidates) == 2 and any(C is out for C in candidates)
            for C in candidates:
                assert np.array_equal(C.matrix, C.matrix.conj().T)
                assert C._exact_herm is True


def _random_general(rng, D):
    return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))


class TestTopSingular:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "rank_one"])
    def test_matches_svd(self, n, kind):
        from xorgap.tensor import _top_singular

        rng = np.random.default_rng(20 + n)
        D = 8**n
        if kind == "random":
            M = _random_general(rng, D)
        else:
            a, b = _random_general(rng, D)[:2]
            M = np.outer(a, b.conj())
        sigma, u = _top_singular(Tensor3(n, M))
        U, s, _ = np.linalg.svd(M)
        assert abs(sigma - s[0]) <= 1e-12 * s[0]
        assert abs(np.vdot(U[:, 0], u)) >= 1.0 - 1e-10
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_vector_fails_residual_check(self, monkeypatch):
        from xorgap import tensor

        lanczos = tensor._lanczos_extremes

        def wrong(*args):
            low, u, high, v = lanczos(*args)
            return low, u, high, np.roll(v, 1)

        monkeypatch.setattr(tensor, "_lanczos_extremes", wrong)
        T = Tensor3(1, _random_general(np.random.default_rng(3), 8))
        with pytest.raises(ValueError, match="singular pair residual"):
            spectral_norm(T)
        assert T._sv is None  # nothing cached from a failed check


class TestBinaryFormat:
    def test_round_trip_with_raw_vector(self, tmp_path):
        T = sample_tensor(2, SamplerConfig(seed=13))
        path = tmp_path / "t.xgt"
        save_tensor(path, T)
        back = load_tensor(path)
        assert back.n == T.n
        assert np.array_equal(back.matrix, T.matrix)
        assert np.array_equal(back.raw_g, T.raw_g)

    def test_round_trip_without_raw_vector(self, tmp_path):
        T = Tensor3(1, np.eye(8, dtype=complex))
        path = tmp_path / "t.xgt"
        save_tensor(path, T)
        back = load_tensor(path)
        assert back.raw_g is None
        assert np.array_equal(back.matrix, T.matrix)

    def test_magic_and_layout(self, tmp_path):
        T = sample_tensor(1, SamplerConfig(seed=1))
        path = tmp_path / "t.xgt"
        save_tensor(path, T)
        raw = path.read_bytes()
        assert raw[:4] == b"XGT1"
        n = int.from_bytes(raw[4:8], "little")
        flags = int.from_bytes(raw[8:12], "little")
        assert n == 1 and flags == 1
        assert len(raw) == 12 + 8 * 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_both_layouts_from_hand_built_bytes(self, n, tmp_path):
        # each file kind built byte by byte, loaded, and compared with the
        # bytes save_tensor writes for the loaded tensor
        N = 2**n
        rng = np.random.default_rng(n)
        g = rng.standard_normal(N**3)
        M = rng.standard_normal((N**3, N**3)) + 1j * rng.standard_normal((N**3, N**3))
        entries = np.empty(2 * N**6)
        entries[0::2], entries[1::2] = M.real.ravel(), M.imag.ravel()
        sampled = b"XGT1" + struct.pack("<II", n, 1) + struct.pack(f"<{N**3}d", *g)
        general = b"XGT1" + struct.pack("<II", n, 0) + struct.pack(f"<{2 * N**6}d", *entries)
        assert len(sampled) == 12 + 8 * N**3 and len(general) == 12 + 16 * N**6
        path = tmp_path / "t.xgt"
        for data, matches in (
            (sampled, lambda T: np.array_equal(T.raw_g, g)),
            (general, lambda T: T.raw_g is None and np.array_equal(T.matrix, M)),
        ):
            path.write_bytes(data)
            T = load_tensor(path)
            assert matches(T)
            save_tensor(path, T)
            assert path.read_bytes() == data

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_truncated_file_rejected(self, tmp_path):
        T = sample_tensor(1, SamplerConfig(seed=1))
        path = tmp_path / "t.xgt"
        save_tensor(path, T)
        clipped = tmp_path / "clipped.xgt"
        clipped.write_bytes(path.read_bytes()[:60])  # the whole file is 76 bytes
        with pytest.raises(ValueError, match="does not match the file size"):
            load_tensor(clipped)

    def test_header_n_checked_against_file_size(self, tmp_path):
        T = sample_tensor(1, SamplerConfig(seed=1))
        path = tmp_path / "t.xgt"
        save_tensor(path, T)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (40).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="n=40"):
            load_tensor(path)

    def test_override_config_requires_vector(self):
        with pytest.raises(ValueError):
            SamplerConfig(distribution="override")
        with pytest.raises(ValueError):
            SamplerConfig(distribution="poisson")
