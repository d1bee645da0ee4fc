"""Tensor sampling, norms, and binary io."""

import struct

import numpy as np
import pytest

from xorgap import (
    DimensionError,
    SamplerConfig,
    ScaleError,
    Tensor3,
    fourier,
    hermitize,
    inverse_fourier,
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


def _hermitian_basis(N):
    """An orthonormal basis of the N x N Hermitian matrices, as (N^2, N, N)."""
    E = np.zeros((N, N, N, N), dtype=complex)
    for i in range(N):
        E[i, i, i, i] = 1.0
        for j in range(i + 1, N):
            E[i, j, i, j] = E[i, j, j, i] = 1.0 / np.sqrt(2.0)
            E[j, i, i, j], E[j, i, j, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    return E.reshape(N * N, N, N)


def phase_update(As):
    """`_phase_factor` on a stack of matrix images A[r], valued, with zero
    old factors: in the coordinates a_k = sum A∘E_k of an orthonormal
    Hermitian basis E the pairing sum A∘X is a·x for X = sum x_k E_k, so X
    comes back as sum x_k E_k (zero where A[r] vanishes)."""
    from xorgap.tensor import _phase_factor

    E = _hermitian_basis(As.shape[-1])
    a = np.einsum("rij,kij->rk", As, E)
    x, val = _phase_factor(np.stack([a.real, a.imag], axis=1), np.zeros(a.shape), True)
    return np.einsum("rk,kij->rij", x, E), val


def _check_keeps_old_factor(rule, images, old):
    """An update rule on three images, then with image 1 vanished: there it
    keeps old[1], valued 0; elsewhere it gives the same factors and values
    bit for bit.  Unvalued, it gives the same factors and None for values."""
    want_x, want_val = rule(images, old, True)
    assert np.all(want_val > 0.0)
    x, none = rule(images, old, False)
    assert none is None and np.array_equal(x, want_x)
    images[1] = 0.0
    x, val = rule(images, old, True)
    assert val[1] == 0.0 and np.array_equal(val[[0, 2]], want_val[[0, 2]])
    assert np.array_equal(x[1], old[1]) and np.array_equal(x[[0, 2]], want_x[[0, 2]])
    unvalued_x, none = rule(images, old, False)
    assert none is None and np.array_equal(unvalued_x, x)


# each mode's (row, column) index pair in a 6-index einsum over M.reshape((N,) * 6)
_MODE_INDICES = ("ia", "jb", "kc")


def _image_pattern(mode, other, held):
    """The einsum of the image on `mode`, given factors on `other` and `held`."""
    i = _MODE_INDICES
    return f"ijkabc,{i[other]},{i[held]}->{i[mode]}"


def _oracle_contraction(T):
    """Single-restart mode map: O(N^4) from g when present, else one
    6-index einsum over the matrix view."""
    N = T.N
    if T.raw_g is None:
        M6 = T.matrix.reshape((N,) * 6)
        others = ((1, 2), (0, 2), (0, 1))
        return lambda mode, F, H: np.einsum(_image_pattern(mode, *others[mode]), M6, F, H)
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
    for k in range(8):  # n = 1 rows given by their matrix: a sampled one takes the closed form
        s = row_seed(0, 1, k)
        M = sample_tensor(1, SamplerConfig(seed=s)).matrix
        cases.append((f"matrix-row-n1-{k}", Tensor3(1, M), dict(seed=s)))
    for n, count in ((2, 8), (3, 5)):
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
        T = Tensor3(1, raw_g=np.ones(8))
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
        with pytest.raises(DimensionError):
            Tensor3(1, raw_g=np.ones(7))

    def test_override_is_tensor_of_g(self):
        g = np.random.default_rng(0).standard_normal(64)
        T = sample_tensor(2, SamplerConfig(distribution="override", override_g=g))
        assert np.array_equal(T.raw_g, Tensor3(2, raw_g=g).raw_g)

    def test_sampled_tensor_is_hermitian(self):
        assert sample_tensor(2, SamplerConfig(seed=0)).is_hermitian()

    def test_hermiticity_marked_not_scanned(self, tmp_path, monkeypatch):
        # a sampled or loaded tensor is g g^T under the mask, exactly Hermitian,
        # so is_hermitian and hermitize never compare its N^6 entries; the same
        # matrix given as a general tensor is compared once, and both read
        # that one answer
        T = sample_tensor(2, SamplerConfig(seed=0))
        save_tensor(tmp_path / "t.xgt", T)
        loaded = load_tensor(tmp_path / "t.xgt")
        direct = Tensor3(2, T.matrix)
        scans = []
        array_equal = np.array_equal

        def counting_array_equal(a, b, *args, **kwargs):
            if np.shape(a) == (64, 64):
                scans.append(a)
            return array_equal(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counting_array_equal)
        for marked in (T, loaded):
            assert marked.is_hermitian() and hermitize(marked) is marked
        assert scans == []
        assert direct.is_hermitian() and hermitize(direct) is direct
        assert direct.is_hermitian()
        assert len(scans) == 1

    def test_given_by_exactly_one_representation(self):
        T = sample_tensor(1, SamplerConfig(seed=0))
        with pytest.raises(ValueError, match="exactly one"):
            Tensor3(1, T.matrix, raw_g=T.raw_g)
        with pytest.raises(ValueError, match="exactly one"):
            Tensor3(1)
        assert Tensor3(1, raw_g=T.raw_g).raw_g is not None
        assert Tensor3(1, T.matrix).raw_g is None

    def test_hermitized_part_is_rebuilt_from_its_parent(self):
        # a part is its parent's matrix and "sym" or "anti": every read builds
        # the expression's bytes afresh and stores nothing, and each offset
        # block is the built matrix's block bit for bit
        rng = np.random.default_rng(18)
        M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        parent = Tensor3(2, M)
        for part, want in (("sym", (M + M.conj().T) / 2.0), ("anti", 1j * (M - M.conj().T) / 2.0)):
            T = Tensor3(2, parent.matrix, part=part)
            assert T.is_hermitian() and T.raw_g is None
            first, second = T.matrix, T.matrix
            assert first is not second and not first.flags.writeable
            assert np.array_equal(first.view(np.uint64), want.view(np.uint64))
            M6, b = want.reshape(4, 16, 4, 16), np.arange(4)
            for x in range(4):
                assert np.array_equal(T._offset_block(x).view(np.uint64), M6[b ^ x, :, b, :].view(np.uint64))
        for bad in ("herm", ""):
            with pytest.raises(ValueError, match="hermitized part"):
                Tensor3(2, M, part=bad)
        with pytest.raises(ValueError, match="hermitized part"):
            Tensor3(1, raw_g=np.ones(8), part="sym")

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
        # the inverse Pauli transform builds its matrix in a buffer of its
        # own, read-only, and leaves the table it reads as it was
        table = fourier(T)
        coefficients = table.coefficients.copy()
        F = inverse_fourier(table)
        assert not F.matrix.flags.writeable and not np.may_share_memory(F.matrix, table.coefficients)
        assert np.array_equal(table.coefficients, coefficients)
        assert np.abs(F.matrix - want_M).max() <= 1e-12 * np.abs(want_M).max()

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
        T = Tensor3(n, raw_g=np.ones(N**3))
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
            T = Tensor3(n, raw_g=np.ones(8**n))
        else:
            T = sample_tensor(n, SamplerConfig("bernoulli", seed=0))
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

    @pytest.mark.parametrize("n,most", [(3, 16), (4, 12)])
    def test_seed0_rows_stop_once_lambda_is_certified(self, n, most, monkeypatch):
        # lambda ~ N^3 stands far above the rest of the spectrum, so the run
        # stops once it has converged, without waiting for the negative end
        from xorgap import tensor
        from xorgap.sweep import row_seed

        lanczos = tensor._lanczos_extremes
        products = []

        def counting(matvec, *args):
            products.append(0)

            def counted(x):
                products[-1] += 1
                return matvec(x)

            return lanczos(counted, *args)

        monkeypatch.setattr(tensor, "_lanczos_extremes", counting)
        for k in range(8):
            top_eigenpair(sample_tensor(n, SamplerConfig(seed=row_seed(0, n, k))))
        assert len(products) == 8 and max(products) <= most

    @pytest.mark.parametrize("n", [2, 3])
    def test_negated_tensor_returns_negative_end(self, n):
        from xorgap.sweep import row_seed

        T = sample_tensor(n, SamplerConfig(seed=row_seed(0, n, 0)))
        lam, psi = top_eigenpair(T)
        neg, phi = top_eigenpair(Tensor3(n, -T.matrix))
        assert abs(neg + lam) <= 1e-12 * lam
        assert abs(abs(np.vdot(psi, phi)) - 1.0) <= 1e-12

    def test_far_end_dominant_but_converging_later(self):
        # a lone -10 next to a cluster near -9.99, a bulk in [-9, 0] and an
        # isolated +9.9, in a random unitary basis adjusted so the Lanczos
        # start has weight 1e-6 on each of the eleven lowest eigenvectors:
        # +9.9 converges while the lowest Ritz value still sits near -9, and
        # only the Frobenius bound keeps the run going to -10
        from xorgap import tensor

        D = 64
        q0 = np.random.default_rng(0).standard_normal(D)  # the solver's start
        q0 /= np.linalg.norm(q0)
        rng = np.random.default_rng(7)
        V, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        spec = np.concatenate([[-10.0], -9.99 + 1e-3 * np.arange(10), np.linspace(-9.0, 0.0, D - 12), [9.9]])
        c = V.conj().T @ q0
        want = c.copy()
        want[:11] = 1e-6 * c[:11] / np.abs(c[:11])
        want[11:] *= np.sqrt(1.0 - 11e-12) / np.linalg.norm(c[11:])
        w = (c - want) / np.linalg.norm(c - want)
        V = V @ (np.eye(D) - 2.0 * np.outer(w, w.conj()))  # V^H q0 = want
        M = (V * spec) @ V.conj().T
        M = (M + M.conj().T) / 2.0
        # the positive semidefinite bound, unsound here, stops at +9.9
        low, _, high, _ = tensor._lanczos_extremes(M.dot, D, np.complex128, None)
        assert abs(low) < 9.9 and high == pytest.approx(9.9, rel=1e-12)
        lam, psi = top_eigenpair(Tensor3(2, M))
        assert lam == pytest.approx(-10.0, rel=1e-12)
        assert abs(abs(np.vdot(V[:, 0], psi)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("given", ["raw_g", "matrix"])
    def test_wrong_vector_fails_residual_check(self, given, monkeypatch):
        # the residual is taken with the solver's own product, g or matrix
        from xorgap import tensor

        lanczos = tensor._lanczos_extremes

        def wrong(*args):
            low, u, high, v = lanczos(*args)
            return low, np.roll(u, 1), high, np.roll(v, 1)

        monkeypatch.setattr(tensor, "_lanczos_extremes", wrong)
        T = sample_tensor(2, SamplerConfig(seed=3))  # n = 1 takes the closed form, no Lanczos
        if given == "matrix":
            T = Tensor3(2, T.matrix)
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
        # pairing on the sampled and the dense path, equal to the 6-index
        # einsum over the matrix, and the same g maps
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
        oracle = np.einsum("ijkabc,ia,jb,kc->", T.matrix.reshape((N,) * 6), *real)
        for tensor in (T, Tensor3(n, T.matrix)):
            want = trilinear_eval(tensor, *(M.astype(np.complex128) for M in real))
            assert abs(want - oracle) <= 1e-12 * abs(oracle)
            for X, Y, Z in (real, frozen, (real[0], frozen[1], real[2])):
                assert abs(trilinear_eval(tensor, X, Y, Z) - want) <= 1e-12 * abs(want)
            e_want = trilinear_eval(tensor, *(E.astype(np.complex128),) * 3)
            assert trilinear_eval(tensor, E, E, E) == pytest.approx(e_want, rel=1e-12)
        enter, hold = _mode_contraction(T)
        stack = np.array(real)
        frozen_stack = stack.astype(np.complex128)
        frozen_stack.setflags(write=False)
        C = enter(stack.astype(np.complex128))
        for F in (stack, frozen_stack):
            F = enter(F)
            for h in range(3):
                image = hold(h, F)
                got = [image(m, F) for m in range(3) if m != h]
                ref_image = hold(h, C)
                ref = [ref_image(m, C) for m in range(3) if m != h]
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
        # the value returned is the witness's own pairing, bit for bit: after
        # an ascent on the Pauli table from g (n = 1), on the g maps (n = 3)
        # and on a general tensor's table (n = 2)
        rng = np.random.default_rng(42)
        general = Tensor3(2, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        for T in (sample_tensor(1, SamplerConfig(seed=42)), sample_tensor(3, SamplerConfig(seed=42)), general):
            val, wit = trilinear_norm_lower(T, restarts=8, seed=1)
            for M in (wit.X, wit.Y, wit.Z):
                assert np.abs(M - M.conj().T).max() <= 1e-12
                assert np.linalg.norm(M) <= 1.0 + 1e-12
            value = trilinear_eval(T, wit.X, wit.Y, wit.Z)
            assert value == wit.value and val == abs(value), T.n

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
        rng = np.random.default_rng(N)
        As = rng.standard_normal((20, N, N)) + 1j * rng.standard_normal((20, N, N))
        Xs, vals = phase_update(As)
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
        (X,), (val,) = phase_update(A[None])
        assert np.abs(X - X.conj().T).max() <= 1e-12
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(np.linalg.norm(A), rel=1e-12)
        assert abs(np.sum(A * X)) == pytest.approx(val, rel=1e-12)

    def test_mode_update_degenerate_gram(self):
        # H1, H2 orthogonal with equal norms: every unit c in the span is optimal
        H1 = np.diag([1.0, -1.0])
        H2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        A = (H1 + 1j * H2).conj()
        (X,), (val,) = phase_update(A[None])
        assert np.abs(X - X.conj().T).max() <= 1e-12
        assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert abs(np.sum(A * X)) == pytest.approx(val, rel=1e-12)

    def test_mode_update_zero_input(self):
        X, val = phase_update(np.zeros((1, 3, 3), dtype=complex))
        assert val[0] == 0.0 and np.all(X[0] == 0)

    def test_mode_update_zero_slice_beside_nonzero(self):
        # one restart's A vanishes, the other's does not: only the first
        # keeps its old (zero) factor and values 0
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X, val = phase_update(np.stack([np.zeros((3, 3), dtype=complex), A]))
        assert val[0] == 0.0 and np.all(X[0] == 0)
        (X1,), (v1,) = phase_update(A[None])
        assert val[1] == v1 and np.array_equal(X[1], X1)

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_mode_update_matches_gram_oracle(self, N):
        # the phase-rotated update against the single-matrix Gram-eigenvector
        # rule: same value, same X up to a global sign; zero slices beside
        # non-zero ones and an exactly degenerate Gram matrix (u = tr(BB) = 0)
        # ride in the same stack
        rng = np.random.default_rng(100 + N)
        G = rng.standard_normal((6, N, N)) + 1j * rng.standard_normal((6, N, N))
        H = (G + G.conj().transpose(0, 2, 1)) / 2.0
        H1 = np.diag(np.resize([1.0, -1.0], N))  # ||H1|| = ||H2||, <H1, H2> = 0
        H2 = np.kron(np.eye(N // 2), [[0.0, 1.0], [1.0, 0.0]])
        zero = np.zeros((N, N), dtype=complex)
        As = np.concatenate(
            [G, H, 1j * H, [zero, (H1 + 1j * H2).conj(), zero, 2.5 * (H1 - 1j * H2).conj()]]
        )
        Xs, vals = phase_update(As)
        for A, X, val in zip(As, Xs, vals):
            want_X, want_val = _oracle_best_hermitian_factor(A)
            if want_X is None:
                assert val == 0.0 and np.all(X == 0)
                continue
            assert val == pytest.approx(want_val, rel=1e-12)
            assert min(np.abs(X - want_X).max(), np.abs(X + want_X).max()) <= 1e-12
        assert vals[-3] == pytest.approx(np.sqrt(N), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_structured_contraction_matches_dense(self, n):
        # both images of a hold come from one closure, as the ALS loop calls
        # them, so the structured path's held intermediate serves both, for
        # every held mode
        from xorgap.tensor import _mode_contraction

        T = sample_tensor(n, SamplerConfig(seed=n))
        N = T.N
        M6 = T.matrix.reshape((N,) * 6)
        rng = np.random.default_rng(n)
        enter, hold = _mode_contraction(T)
        for h in range(3):
            H = np.array([random_hermitian(rng, N) for _ in range(3)])
            image = hold(h, enter(H))
            for mode in range(3):
                if mode == h:
                    continue
                F = np.array([random_hermitian(rng, N) for _ in range(3)])
                got = image(mode, enter(F))
                pattern = _image_pattern(mode, 3 - mode - h, h)  # F on the third mode, H on the held one
                for r in range(3):
                    want = np.einsum(pattern, M6, F[r], H[r])
                    assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), (h, mode)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_held_map_reused_across_modes(self, n):
        # one held map serves one image mode, the other, and the first again:
        # an image does not overwrite the held work array the next one reads
        from xorgap.tensor import _mode_contraction

        T = sample_tensor(n, SamplerConfig(seed=10 + n))
        N, R = T.N, 3
        rng = np.random.default_rng(70 + n)
        oracle = _oracle_contraction(T)
        enter, hold = _mode_contraction(T)
        H = np.array([random_hermitian(rng, N) for _ in range(R)])
        image = hold(2, enter(H))
        for mode in (0, 1, 0):
            F = np.array([random_hermitian(rng, N) for _ in range(R)])
            got = image(mode, enter(F))
            for r in range(R):
                want = oracle(mode, F[r], H[r])
                assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), (mode, r)

    @pytest.mark.parametrize("n", [1, 3])
    def test_work_arrays_grow_with_restarts(self, n):
        # holding more restarts than any earlier hold regrows the maps' work
        # arrays; each image still matches the einsum oracle
        from xorgap.tensor import _mode_contraction

        T = sample_tensor(n, SamplerConfig(seed=20 + n))
        N = T.N
        M6 = T.matrix.reshape((N,) * 6)
        rng = np.random.default_rng(80 + n)
        enter, hold = _mode_contraction(T)
        for R in (1, 2, 3):
            for h in range(3):
                H = np.array([random_hermitian(rng, N) for _ in range(R)])
                image = hold(h, enter(H))
                for mode in {0, 1, 2} - {h}:
                    F = np.array([random_hermitian(rng, N) for _ in range(R)])
                    got = image(mode, enter(F))
                    assert got.shape == (R, N, N)
                    pattern = _image_pattern(mode, 3 - mode - h, h)
                    for r in range(R):
                        want = np.einsum(pattern, M6, F[r], H[r])
                        assert np.abs(got[r] - want).max() <= 1e-12 * np.abs(want).max(), (R, h, mode)

    @pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (2, 3), (2, 5), (3, 0)])
    def test_structured_als_matches_dense(self, n, seed):
        # a sampled n = 1 tensor runs no ALS (see TestQubitClosedForm)
        T = sample_tensor(n, SamplerConfig(seed=seed))
        dense = Tensor3(n, T.matrix)  # no raw vector: the Pauli table of the matrix
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["hermitian", "general"])
    def test_general_tensors_match_per_restart_oracle(self, n, kind):
        # a tensor given by its matrix ascends on its Pauli table (real for a
        # Hermitian tensor, two real planes otherwise); against the dense
        # per-restart oracle: the same sweep count per restart, values within
        # 1e-12, and Hermitian unit witnesses that pair to the value
        D = 8**n
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(23, n)))
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        if kind == "hermitian":
            M = (M + M.conj().T) / 2.0
        T = Tensor3(n, M)
        assert T.is_hermitian() == (kind == "hermitian")
        kw = dict(restarts=4, max_iters=40 if n == 3 else 200, seed=n)
        got, want = {}, {}
        val, wit = trilinear_norm_lower(T, on_sweep=lambda r, i, v: got.setdefault(r, []).append(v), **kw)
        best, _ = oracle_trilinear_lower(T, on_sweep=lambda r, i, v: want.setdefault(r, []).append(v), **kw)
        assert {r: len(h) for r, h in got.items()} == {r: len(h) for r, h in want.items()}
        for r in want:
            assert np.allclose(got[r], want[r], rtol=1e-12, atol=0.0), r
        assert val == pytest.approx(best, rel=1e-12)
        for F in (wit.X, wit.Y, wit.Z):
            assert np.abs(F - F.conj().T).max() <= 1e-12
            assert np.linalg.norm(F) == pytest.approx(1.0, abs=1e-12)
        assert abs(trilinear_eval(T, wit.X, wit.Y, wit.Z)) == pytest.approx(val, rel=1e-12)

    def test_holds_per_call_bounded(self, monkeypatch):
        # one hold serves two updates: a call of s sweeps makes ceil(1.5 s)
        # holds, also when restarts leave between the two updates of a hold,
        # whatever the provider: the Pauli table (real, or planes), the g
        # maps or a game's cost tensor
        from xorgap import game, tensor
        from xorgap.sweep import row_seed

        ascent, runs = tensor._lockstep_ascent, []

        def counting_ascent(hold, update, starts, max_sweeps, stop, on_sweep=None):
            holds, sweeps = [], {}

            def counted(*args):
                holds.append(args[0])
                return hold(*args)

            out = ascent(counted, update, starts, max_sweeps, stop, lambda r, i, v: sweeps.__setitem__(r, i + 1))
            most = max(sweeps.values())
            # a restart that leaves after an odd sweep, before the last, leaves
            # between the two updates of a hold
            runs.append((len(holds), most, any(c % 2 and c < most for c in sweeps.values())))
            return out

        monkeypatch.setattr(tensor, "_lockstep_ascent", counting_ascent)
        monkeypatch.setattr(game, "_lockstep_ascent", counting_ascent)
        rng = np.random.default_rng(31)
        M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        for T in (Tensor3(2, M), Tensor3(2, (M + M.conj().T) / 2.0)):
            trilinear_norm_lower(T, restarts=8)
        for n in (2, 3):
            T = sample_tensor(n, SamplerConfig(seed=row_seed(0, n, 0)))
            trilinear_norm_lower(T, restarts=8)
            G = game.game_from_tensor(T).game
            game.classical_bias_heuristic(G, restarts=32, seed=3)
        assert len(runs) == 6
        for holds, sweeps, _ in runs:
            assert holds == np.ceil(1.5 * sweeps)
        assert sum(mid_hold for *_, mid_hold in runs) >= 3

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
        # bookkeeping got wrong no longer matches, under each update rule:
        # the unit vector of the Pauli-table route (a small sampled tensor),
        # the Hermitian one (a sampled tensor ascending on g) and the
        # coordinate phase rotation (a non-Hermitian dense tensor's table)
        from xorgap import tensor

        rng = np.random.default_rng(4)
        M = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cases = [
            ("_unit_factor", sample_tensor(2, SamplerConfig(seed=1))),
            ("_hermitian_factor", sample_tensor(3, SamplerConfig(seed=1))),
            ("_phase_factor", Tensor3(1, M)),
        ]
        for name, T in cases:
            update = getattr(tensor, name)

            def doubled_value(*args, update=update):
                X, val = update(*args)
                return X, (None if val is None else 2.0 * val)

            with monkeypatch.context() as patch:
                patch.setattr(tensor, name, doubled_value)
                with pytest.raises(ValueError, match="does not match its witness"):
                    trilinear_norm_lower(T, restarts=2)
            trilinear_norm_lower(T, restarts=2)  # unpatched, the same run passes

    @pytest.mark.parametrize("n", [2, 3])
    def test_pauli_table_route_matches_g_maps(self, n, monkeypatch):
        # a sampled tensor ascends on its real Pauli table up to N =
        # _TABLE_MAX_N (n = 2; n = 3 with the crossover moved up to N = 8);
        # forced onto the g maps, the seed-0 rows give the same per-restart
        # sweep counts, values within 1e-12, and on both routes Hermitian
        # unit witnesses that pair to their value
        from xorgap import tensor
        from xorgap.sweep import row_seed

        calls = []
        unit_factor = tensor._unit_factor

        def counting_unit_factor(*args):
            calls.append(1)
            return unit_factor(*args)

        monkeypatch.setattr(tensor, "_unit_factor", counting_unit_factor)
        for k in range(8):
            s = row_seed(0, n, k)
            T = sample_tensor(n, SamplerConfig(seed=s))
            runs = []
            for table_max_n in (T.N, T.N // 2):  # the table route, then the g maps
                monkeypatch.setattr(tensor, "_TABLE_MAX_N", table_max_n)
                calls.clear()
                sweeps = {}
                val, wit = trilinear_norm_lower(T, seed=s, on_sweep=lambda r, i, v: sweeps.__setitem__(r, i + 1))
                assert bool(calls) == (T.N <= table_max_n)
                for M in (wit.X, wit.Y, wit.Z):
                    assert np.abs(M - M.conj().T).max() <= 1e-12
                    assert np.linalg.norm(M) == pytest.approx(1.0, abs=1e-12)
                assert abs(trilinear_eval(T, wit.X, wit.Y, wit.Z)) == pytest.approx(val, rel=1e-12)
                runs.append((val, sweeps))
            (table, table_sweeps), (from_g, g_sweeps) = runs
            assert table_sweeps == g_sweeps, k
            assert table == pytest.approx(from_g, rel=1e-12), k

    @pytest.mark.parametrize("N", [2, 4, 8])
    def test_hermitian_update_matches_phase_rotation(self, N):
        # on Hermitian images the phase rotation is the identity: the
        # Hermitian rule gives the same factor and value, and an exactly
        # Hermitian factor even where A is Hermitian only to rounding
        from xorgap.tensor import _hermitian_factor

        rng = np.random.default_rng(200 + N)
        H = np.array([random_hermitian(rng, N, unit=False) for _ in range(6)])
        H[3] = 0.0  # a vanished slice beside non-zero ones
        H[4] += 1e-15 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        X, val = _hermitian_factor(H, np.zeros_like(H), True)
        want_X, want_val = phase_update(H)
        ok = val > 0.0
        assert ok.tolist() == (want_val > 0.0).tolist() == [True, True, True, False, True, True]
        assert np.all(X[3] == 0)
        assert np.allclose(val, want_val, rtol=1e-12, atol=0.0)
        assert np.abs(X - want_X).max() <= 1e-12
        assert np.array_equal(X, X.conj().transpose(0, 2, 1))
        for A, Xr, v in zip(H[ok], X[ok], val[ok]):
            assert np.linalg.norm(Xr) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.sum(A * Xr)) == pytest.approx(v, rel=1e-12)

    def test_hermitian_update_keeps_old_factor_where_vanished(self):
        from xorgap.tensor import _hermitian_factor

        rng = np.random.default_rng(210)
        H = np.array([random_hermitian(rng, 4, unit=False) for _ in range(3)])
        old = np.array([random_hermitian(rng, 4) for _ in range(3)])
        _check_keeps_old_factor(_hermitian_factor, H, old)

    def test_coordinate_updates_keep_old_factor_where_vanished(self):
        # the unit rule on real images (R, d), the phase rule on planes (R, 2, d)
        from xorgap.tensor import _phase_factor, _unit_factor

        rng = np.random.default_rng(211)
        old = rng.standard_normal((3, 16))
        _check_keeps_old_factor(_unit_factor, rng.standard_normal((3, 16)), old)
        _check_keeps_old_factor(_phase_factor, rng.standard_normal((3, 2, 16)), old)


def _qubit_cases():
    """(name, sampled n = 1 tensor): 100 gaussian seeds, bernoulli g (every
    |g_v g_{7-v}| ties at 1), and g = 0."""
    cases = [(f"gaussian-{s}", sample_tensor(1, SamplerConfig(seed=s))) for s in range(100)]
    cases += [(f"bernoulli-{s}", sample_tensor(1, SamplerConfig("bernoulli", seed=s))) for s in range(4)]
    return cases + [("zero", Tensor3(1, raw_g=np.zeros(8)))]


def _dense_qubit_table(T):
    """The Pauli table of T's matrix view over N^{3/2}, by the dense basis."""
    from xorgap.pauli import build_basis

    Bc = build_basis(1).elements.conj()
    C = np.einsum("pia,qjb,rkc,ijkabc->pqr", Bc, Bc, Bc, T.matrix.reshape((2,) * 6)) / 2**1.5
    assert np.abs(C.imag).max() <= 1e-15 * max(1.0, np.abs(C).max())
    return C.real


class TestQubitClosedForm:
    """A sampled n = 1 tensor's top eigenpair and trilinear norm in closed form."""

    def test_eigenpair_matches_dense_eigh(self):
        for name, T in _qubit_cases():
            lam, psi = top_eigenpair(T)
            w, V = np.linalg.eigh(T.matrix)
            assert lam >= 0.0 and abs(lam - w[-1]) <= 1e-12 * abs(w[-1]), name
            assert abs(w[0] + w[-1]) <= 1e-12 * abs(w[-1]), name  # the exact +/-lambda pair
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-15, name
            assert np.linalg.norm(T.matrix @ psi - lam * psi) <= 1e-12 * abs(lam), name
            if w[-1] - w[-2] > 1e-9 * w[-1]:  # a simple top eigenvalue: the same vector
                assert abs(abs(np.vdot(V[:, -1], psi)) - 1.0) <= 1e-12, name

    def test_ties_take_first_block(self):
        # bernoulli g: every h_v = g_v g_{7-v} is +/-1, so v = 0 wins
        T = sample_tensor(1, SamplerConfig("bernoulli", seed=2))
        g = T.raw_g
        lam, psi = top_eigenpair(T)
        want = np.zeros(8)
        want[0], want[7] = 1.0, np.sign(g[0] * g[7])
        assert lam == 1.0 and np.array_equal(psi, want * np.sqrt(0.5))

    def test_trilinear_matches_dense_alpha_grid(self):
        # player 1's unit (X, Y) coordinates (cos a, sin a) over a dense grid,
        # the best (y, z) for each by an SVD of the whole 4 x 4 slice of the
        # table from the dense basis; the table has no other nonzero entry
        alpha = np.linspace(0.0, np.pi, 4001)
        live = np.zeros((4, 4, 4), dtype=bool)
        live[1, 1, 1] = live[1, 2, 2] = live[2, 1, 2] = live[2, 2, 1] = True
        for name, T in _qubit_cases():
            val, _ = trilinear_norm_lower(T)
            C = _dense_qubit_table(T)
            assert np.abs(C[~live]).max() <= 1e-13 * max(1.0, np.abs(C).max()), name
            slices = np.cos(alpha)[:, None, None] * C[1] + np.sin(alpha)[:, None, None] * C[2]
            grid = np.linalg.svd(slices, compute_uv=False)[:, 0].max()
            assert grid <= val * (1.0 + 1e-12) + 1e-300, name
            assert val <= grid * (1.0 + 1e-6), name

    def test_trilinear_never_below_long_table_als(self):
        # the table ALS on the same tensor given by its matrix (no g, so it
        # still ascends), with 16 restarts and 2000 sweeps, never beats it
        for name, T in _qubit_cases():
            val, _ = trilinear_norm_lower(T)
            als, _ = trilinear_norm_lower(Tensor3(1, T.matrix), restarts=16, max_iters=2000)
            assert als <= val * (1.0 + 1e-12), name

    def test_witness_is_feasible_and_pairs_to_value(self):
        for name, T in _qubit_cases():
            val, wit = trilinear_norm_lower(T)
            for M in (wit.X, wit.Y, wit.Z):
                assert np.abs(M - M.conj().T).max() <= 1e-15, name
                assert abs(np.linalg.norm(M) - 1.0) <= 1e-12, name
            value = trilinear_eval(T, wit.X, wit.Y, wit.Z)
            assert value == wit.value and val == abs(value), name
            dense = trilinear_eval(Tensor3(1, T.matrix), wit.X, wit.Y, wit.Z)
            assert abs(abs(dense) - val) <= 1e-12 * val, name

    def test_runs_no_ascent_and_no_lanczos(self, monkeypatch):
        # the options are still validated, and on_sweep is never called
        from xorgap import tensor

        def forbidden(*args, **kwargs):
            raise AssertionError("a solver ran on a sampled n = 1 tensor")

        monkeypatch.setattr(tensor, "_lockstep_ascent", forbidden)
        monkeypatch.setattr(tensor, "_lanczos_extremes", forbidden)
        T = sample_tensor(1, SamplerConfig(seed=9))
        calls = []
        val, _ = trilinear_norm_lower(T, restarts=3, seed=4, on_sweep=lambda *a: calls.append(a))
        assert val > 0.0 and calls == []
        assert spectral_norm(T) == top_eigenpair(T)[0] > 0.0
        for kw, match in ((dict(restarts=0), "restarts"), (dict(max_iters=0), "max_iters"), (dict(tol=-1.0), "tol")):
            with pytest.raises(ValueError, match=match):
                trilinear_norm_lower(T, **kw)

    def test_tampered_eigenpair_fails_residual_check(self, monkeypatch):
        from xorgap import tensor

        qubit = tensor._qubit_eigenpair

        def wrong(g):
            lam, vec = qubit(g)
            return lam, np.roll(vec, 1)

        monkeypatch.setattr(tensor, "_qubit_eigenpair", wrong)
        T = sample_tensor(1, SamplerConfig(seed=3))
        with pytest.raises(ValueError, match="eigenpair residual"):
            top_eigenpair(T)
        assert T._eig is None  # nothing cached from a failed check

    def test_tampered_value_fails_witness_check(self, monkeypatch):
        from xorgap import tensor

        qubit = tensor._qubit_trilinear

        def doubled(T):
            val, factors = qubit(T)
            return 2.0 * val, factors

        T = sample_tensor(1, SamplerConfig(seed=3))
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "_qubit_trilinear", doubled)
            with pytest.raises(ValueError, match="closed-form value .* does not match its witness"):
                trilinear_norm_lower(T)
        trilinear_norm_lower(T)  # unpatched, the same call passes


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

        cases = [sample_tensor(1, SamplerConfig(seed=row_seed(0, 1, k))) for k in range(8)]
        # zero g: the maximum sits on the rank-2 element; all-ones g: the hollow cube
        cases += [Tensor3(1, raw_g=v) for v in (np.zeros(8), np.ones(8))]
        for T in cases:
            assert trilinear_norm_upper_net(T, eps) == pytest.approx(
                _exhaustive_net_upper(T, eps), rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("eps", [0.5, 0.9])
    def test_pruning_bounds_match_spectral_norms(self, eps):
        # sigma_max from the Gram eigenvalues: within the pruning margin of
        # the SVD's value, and never below it by more than that margin
        from xorgap.sweep import row_seed
        from xorgap.tensor import _PRUNE_MARGIN, _net_forms

        for k in range(8):
            T = sample_tensor(1, SamplerConfig(seed=row_seed(0, 1, k)))
            _, M1, sigma = _net_forms(T, eps)
            want = np.linalg.norm(M1, ord=2, axis=(1, 2))
            assert np.all(np.abs(sigma - want) <= _PRUNE_MARGIN * want)
            assert np.all(sigma * (1.0 + _PRUNE_MARGIN) >= want)

    def test_second_row_builds_no_net(self):
        # the nets and the arrays made from them alone are built once per
        # (N, eps): a second n=1 row looks up neither net
        from xorgap import nets
        from xorgap.sweep import ROW_NET_EPS, compute_gap_row
        from xorgap.tensor import _net_frame

        compute_gap_row(1, 11)
        before = (nets.sphere_net.cache_info(), nets.projector_net.cache_info(), _net_frame.cache_info())
        frame = _net_frame(2, ROW_NET_EPS)
        compute_gap_row(1, 12)
        assert nets.sphere_net.cache_info() == before[0]
        assert nets.projector_net.cache_info() == before[1]
        assert _net_frame.cache_info().misses == before[2].misses
        assert _net_frame(2, ROW_NET_EPS) is frame

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
        T = Tensor3(1, raw_g=np.zeros(8))
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
        # singular pair; no SVD of the matrix runs (one Lanczos solver serves
        # both, the singular pair on M M^H)
        from xorgap import tensor
        from xorgap.game import game_from_tensor, pauli_strategy

        rng = np.random.default_rng(10)
        T = Tensor3(2, rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        counted = {"lanczos": 0, "svd": 0}
        lanczos, svd = tensor._lanczos_extremes, np.linalg.svd

        def counting_lanczos(*args):
            counted["lanczos"] += 1
            return lanczos(*args)

        def counting_svd(a, *args, **kwargs):
            if np.iscomplexobj(a) and np.shape(a) == (64, 64):
                counted["svd"] += 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(tensor, "_lanczos_extremes", counting_lanczos)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        spectral_norm(T)
        trilinear_norm_lower(T, restarts=2)
        game_from_tensor(T)
        pauli_strategy(T)
        # one Lanczos run for the singular pair, one per hermitize
        # candidate; pauli_strategy reads the cached winner
        assert counted == {"lanczos": 3, "svd": 0}

    def test_is_hermitian_iff_hermitize_returns_input(self):
        # Hermitian means bit for bit: a Hermitian matrix with one entry
        # moved by 1 ulp is not Hermitian, and hermitize does not return it
        rng = np.random.default_rng(16)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        H = (A + A.conj().T) / 2.0
        ulp = H.copy()
        ulp[1, 5] = complex(np.nextafter(ulp[1, 5].real, np.inf), ulp[1, 5].imag)
        cases = {
            "sampled": (sample_tensor(1, SamplerConfig(seed=3)), True),
            "hermitian": (Tensor3(1, H), True),
            "one ulp off": (Tensor3(1, ulp), False),
            "random": (Tensor3(1, A), False),
        }
        for name, (T, want) in cases.items():
            assert T.is_hermitian() is want, name
            assert (hermitize(T) is T) is want, name

    def test_is_hermitian_is_array_equal_to_the_adjoint(self):
        # compared in row blocks, the predicate is still np.array_equal(M, M^H):
        # -0 equals +0, a NaN entry is never Hermitian, and a mismatch in the
        # last block of a 512 x 512 matrix counts
        rng = np.random.default_rng(17)
        for n, (i, j) in ((1, (2, 6)), (3, (509, 3))):
            D = 8**n
            A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
            H = (A + A.conj().T) / 2.0
            zeros = H.copy()
            zeros[i, i] = complex(zeros[i, i].real, -0.0)  # its adjoint holds +0
            nan = H.copy()
            nan[i, i] = np.nan
            ulp = H.copy()
            ulp[i, j] = complex(ulp[i, j].real, np.nextafter(ulp[i, j].imag, np.inf))
            for M, want in ((H, True), (zeros, True), (nan, False), (ulp, False)):
                assert Tensor3(n, M).is_hermitian() is want
                assert Tensor3(n, M).is_hermitian() is bool(np.array_equal(M, M.conj().T))

    def test_candidates_match_expressions_bytewise(self, monkeypatch):
        # the in-place buffers give the expressions' bytes, signed zeros and
        # extreme exponents included
        from xorgap import tensor

        candidates = []
        monkeypatch.setattr(tensor, "spectral_norm", lambda C: candidates.append(C) or 0.0)
        rng = np.random.default_rng(14)
        D = 64
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        wide = M * 10.0 ** rng.integers(-300, 300, (D, D))
        zeros = M.copy()
        zeros.real[rng.random((D, D)) < 0.3] = -0.0
        zeros.imag[rng.random((D, D)) < 0.3] = 0.0
        zeros.imag[rng.random((D, D)) < 0.3] = -0.0
        for A in (M, wide, zeros):
            candidates.clear()
            hermitize(Tensor3(2, A))
            anti, sym = (C.matrix for C in candidates)  # the norms compare i(A - A^H) first
            for got, want in ((sym, (A + A.conj().T) / 2.0), (anti, 1j * (A - A.conj().T) / 2.0)):
                assert got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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
                # marked when built: reading the answer compares nothing
                with monkeypatch.context() as m:
                    m.setattr(np, "array_equal", None)
                    assert C.is_hermitian() and hermitize(C) is C

    def test_one_candidate_matrix_at_a_time(self):
        # at n = 3 a candidate's matrix is 512^2 * 16 B = 4.19 MB: hermitize
        # builds one, runs its Lanczos and drops it before the next, and the
        # winner it keeps holds its parent's matrix and its eigenpair, no
        # matrix of its own
        import tracemalloc

        rng = np.random.default_rng(0)
        T = Tensor3(3, rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
        tracemalloc.start()
        try:
            H = hermitize(T)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6
        assert held < 0.5e6
        assert H._matrix is T.matrix and H._eig is not None


_MiB = 2**20


@pytest.fixture(scope="module")
def general_n3():
    """Read-only 512 x 512 complex matrices of general n = 3 tensors, keyed
    by (seed, key) and seeded as the benchmark's general inputs are, each
    built once per module."""
    out = {}
    for seed, key in ((0, 0), (7, 0)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, key)))
        M = _random_general(rng, 512)
        M.setflags(write=False)
        out[seed, key] = M
    return out


def _traced_peak(f):
    import tracemalloc

    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGeneralStageMemory:
    """Traced peaks of the general-tensor stages at n = 3, the tensor's
    matrix (4.19 MB) built before tracing: each stage holds one N^6 work
    array, one Krylov basis and one slab of scratch besides it."""

    @pytest.mark.parametrize("seed, bound", [((0, 0), 5.6), ((7, 0), 6.2)])
    def test_hermitize_holds_one_basis(self, general_n3, seed, bound):
        # one candidate matrix (4.19 MB) plus a Lanczos basis that grows in
        # place by 32 rows: seed (7, 0)'s anti candidate takes 143 steps,
        # 160 rows (1.3 MB), where doubling held 128 and 256 rows at once
        # (8.28 MiB); seed (0, 0) peaked at 6.09 MiB with doubling
        T = Tensor3(3, general_n3[seed])
        assert _traced_peak(lambda: hermitize(T)) < bound * _MiB

    def test_pauli_table_holds_two_slab_buffers(self, general_n3):
        # the two-plane table (4.19 MB) and, per XOR offset, at most two N^5
        # complex arrays (0.52 MB each): the offset block and the slab, then
        # the slab and the back end's work array (5.82 MiB when that work
        # array was allocated while the block was alive)
        from xorgap.tensor import _pauli_table

        T = Tensor3(3, general_n3[0, 0])
        assert _traced_peak(lambda: _pauli_table(T)) < 5.5 * _MiB


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
            return low, np.roll(u, 1), high, np.roll(v, 1)

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

    def test_general_body_is_the_matrix_buffer(self, tmp_path):
        # the body is written from the matrix's own buffer: the same bytes as
        # a little-endian copy of it, and no N^6 copy at n = 3 (4.19 MB)
        import tracemalloc

        rng = np.random.default_rng(21)
        M = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        path = tmp_path / "t.xgt"
        save_tensor(path, Tensor3(2, M))
        assert path.read_bytes() == b"XGT1" + struct.pack("<II", 2, 0) + M.astype("<c16").tobytes()
        T = Tensor3(3, rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
        tracemalloc.start()
        try:
            save_tensor(path, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.array_equal(load_tensor(path).matrix, T.matrix)

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
