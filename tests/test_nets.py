"""Sphere, projector, and triple nets; signed-projector decomposition."""

import time

import numpy as np
import pytest

from xorgap import SamplerConfig, ScaleError, lorentz_decompose, projector_net, sample_tensor, sphere_net
from xorgap.tensor import trilinear_norm_upper_net
from xorgap.nets import PACKING_WINDOW, coefficient_bound, coefficient_bound_sharp, triple_net_size


def random_unit(rng, N):
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return v / np.linalg.norm(v)


def random_unit_hermitian(rng, N):
    M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    H = (M + M.conj().T) / 2.0
    return H / np.linalg.norm(H)


def nearest_distance(points, v):
    """The Frobenius distance from v to the nearest of a stack of points."""
    d2 = np.sum(np.abs(points.reshape(len(points), -1) - v.reshape(1, -1)) ** 2, axis=1)
    return float(np.sqrt(d2.min()))


def oracle_sphere_net(N, eps, seed, window=PACKING_WINDOW, events=None):
    """Greedy packing one candidate at a time, rebuilding the kept array on
    every acceptance; appends (batch, candidate, accepted) to `events`."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, N)))
    kept = []
    P = None
    rejects = 0
    b = 0
    while rejects < window:
        batch = rng.standard_normal((256, 2 * N))
        vecs = batch[:, :N] + 1j * batch[:, N:]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for j, v in enumerate(vecs):
            ok = P is None or np.sum(np.abs(P - v) ** 2, axis=1).min() > eps * eps
            if events is not None:
                events.append((b, j, ok))
            if ok:
                kept.append(v)
                P = np.array(kept)
                rejects = 0
            else:
                rejects += 1
                if rejects >= window:
                    break
        b += 1
    return np.array(kept)


def exact_screen_sphere_net(N, eps, seed):
    """The batched packing with every candidate screened by the exact
    distance sum, without the GEMM screen in front of it."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, N)))
    pts = np.empty((0, N), dtype=np.complex128)
    rejects = 0
    while rejects < PACKING_WINDOW:
        batch = rng.standard_normal((256, 2 * N))
        vecs = batch[:, :N] + 1j * batch[:, N:]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        d2 = sum(np.abs(vecs[:, i, None] - pts[:, i]) ** 2 for i in range(N))
        far = d2.min(axis=1, initial=np.inf) > eps * eps
        fresh = np.empty_like(vecs)
        m = 0
        for v, ok in zip(vecs, far):
            if ok and np.sum(np.abs(fresh[:m] - v) ** 2, axis=1).min(initial=np.inf) > eps * eps:
                fresh[m] = v
                m += 1
                rejects = 0
            else:
                rejects += 1
                if rejects >= PACKING_WINDOW:
                    break
        pts = np.concatenate([pts, fresh[:m]])
    return pts


class TestSphereNet:
    @pytest.mark.parametrize("eps", [0.5, 0.5 / np.sqrt(2.0)], ids=["2-0.5", "2-sweep"])
    def test_matches_per_candidate_oracle(self, eps):
        # screening a batch at once keeps the sequential accept rule exactly
        for seed in (0, 1, 7):
            assert np.array_equal(sphere_net(eps, seed=seed), oracle_sphere_net(2, eps, seed))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_window_ends_mid_batch_after_acceptances(self, monkeypatch, seed):
        # a short window ends inside a batch that accepted points before the
        # stop: those points are kept, and no later candidate is looked at
        from xorgap import nets

        window = 40
        events = []
        want = oracle_sphere_net(2, 0.5, seed, window=window, events=events)
        b_stop, j_stop, _ = events[-1]
        accepted = [(b, j) for b, j, ok in events if ok]
        assert accepted[-1][0] == b_stop and j_stop < 255  # the case this test is for
        monkeypatch.setattr(nets, "PACKING_WINDOW", window)
        assert np.array_equal(sphere_net.__wrapped__(0.5, seed), want)

    @pytest.mark.parametrize("eps", [0.5 / np.sqrt(2.0), 0.5], ids=["2-sweep", "2-0.5"])
    def test_gemm_screen_keeps_exact_points(self, eps):
        # the GEMM screen only rejects what the exact sum rejects as well
        for seed in (0, 1, 7):
            assert np.array_equal(sphere_net(eps, seed=seed), exact_screen_sphere_net(2, eps, seed))

    def test_points_are_unit(self):
        S = sphere_net(0.5, seed=1)
        assert S.shape == (len(S), 2) and not S.flags.writeable
        assert np.abs(np.linalg.norm(S, axis=1) - 1.0).max() <= 1e-12

    def test_packing_separation(self):
        P = sphere_net(0.5, seed=1)
        for i in range(len(P)):
            d2 = np.sum(np.abs(P - P[i]) ** 2, axis=1)
            d2[i] = np.inf
            assert np.sqrt(d2.min()) > 0.5

    def test_complex_dim2_covering(self):
        S = sphere_net(0.5, seed=0)
        rng = np.random.default_rng(4)
        worst = max(nearest_distance(S, random_unit(rng, 2)) for _ in range(10_000))
        assert worst <= 0.5

    def test_deterministic(self):
        assert np.array_equal(sphere_net(0.5, seed=7), sphere_net(0.5, seed=7))

    def test_eps_guard(self):
        with pytest.raises(ValueError):
            sphere_net(0.0)

    @pytest.mark.parametrize("eps", [1e-300, 0.15 / np.sqrt(2.0)], ids=["2-1e-300", "2-0.10606601717798211"])
    def test_packing_size_guard(self, eps):
        # a packing whose volumetric bound (1 + 2/eps)^4 exceeds 1e5 would
        # wait ever longer for its window of rejections; it fails at once
        start = time.perf_counter()
        with pytest.raises(ScaleError, match="use a larger eps"):
            sphere_net(eps)
        assert time.perf_counter() - start < 1.0

    def test_packing_size_guard_on_the_net_bound(self):
        T = sample_tensor(1, SamplerConfig(seed=1))
        start = time.perf_counter()
        with pytest.raises(ScaleError):
            trilinear_norm_upper_net(T, 1e-300)
        assert time.perf_counter() - start < 1.0


class TestProjectorNet:
    def test_elements_are_normalized_projectors(self):
        for k in (1, 2):
            net = projector_net(k, 0.5, seed=0)
            assert net.shape == (len(net), 2, 2) and not net.flags.writeable
            for X in net:
                assert np.abs(X - X.conj().T).max() <= 1e-12
                assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-10)
                P = np.sqrt(k) * X
                assert np.abs(P @ P - P).max() <= 1e-10
                assert np.linalg.matrix_rank(P, tol=1e-10) == k

    def test_net_member_distance_zero(self):
        net = projector_net(1, 0.5, seed=0)
        assert nearest_distance(net, net[3]) == pytest.approx(0.0, abs=1e-12)

    def test_rank1_covering(self):
        net = projector_net(1, 0.5, seed=0)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10_000):
            v = random_unit(rng, 2)
            worst = max(worst, nearest_distance(net, np.outer(v, v.conj())))
        assert worst <= 0.5

    def test_rank2_net_contains_normalized_identity(self):
        net = projector_net(2, 0.5, seed=0)
        target = np.eye(2) / np.sqrt(2.0)
        assert nearest_distance(net, target) <= 1e-9

    @pytest.mark.parametrize("eps", [0.5, 0.8])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_span_oracle(self, k, eps):
        # the closed forms equal the spans of k-subsets of the eps/sqrt(2)
        # sphere net, one QR per subset (batched), duplicates merged in
        # subset order
        from itertools import combinations

        pts = sphere_net(eps / np.sqrt(2.0), seed=0)
        subsets = np.array(list(combinations(range(len(pts)), k)))
        Q, R = np.linalg.qr(pts[subsets].transpose(0, 2, 1))
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        rank = np.sum(diag > 1e-10 * np.maximum(1.0, diag.max(axis=1, keepdims=True)), axis=1)
        assert np.all(rank == k)
        spans = Q @ Q.conj().transpose(0, 2, 1) / np.sqrt(k)
        keys = np.round(spans.reshape(len(spans), -1), 9).view(float)
        seen = {}
        for key, P in zip(map(tuple, keys.tolist()), spans):
            seen.setdefault(key, P)
        net = projector_net(k, eps, seed=0)
        assert len(net) == len(seen)
        for X, P in zip(net, seen.values()):
            assert np.abs(X - P).max() <= 1e-15

    def test_full_rank_net_is_normalized_identity_without_sphere_net(self):
        # no sphere-net call at all, so not even a cached one is looked up
        projector_net.cache_clear()
        hits, misses = sphere_net.cache_info()[:2]
        net = projector_net(2, 0.5, seed=0)
        assert projector_net.cache_info().misses == 1
        assert sphere_net.cache_info()[:2] == (hits, misses)
        assert len(net) == 1
        assert np.array_equal(net[0], np.eye(2) / np.sqrt(2.0))

    def test_scale_guard(self):
        # a projector on C^2 has rank 1 or 2
        for k in (0, -1, 3, 4, 1.5):
            with pytest.raises(ValueError, match="k must be 1 or 2"):
                projector_net(k, 0.5)


class TestTripleNet:
    def test_count_matches_product_formula(self):
        eps = 0.8
        sizes = {k: len(projector_net(k, eps, seed=0)) for k in (1, 2)}
        want = sum(
            sizes[k] * sizes[l] * sizes[m]
            for k in (1, 2)
            for l in (1, 2)
            for m in (1, 2)
        )
        assert triple_net_size(eps, seed=0) == want

    def test_product_covering(self):
        eps = 0.5
        nets = {k: projector_net(k, eps, seed=0) for k in (1, 2)}
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            factors, approx = [], []
            for _mode in range(3):
                if rng.random() < 0.5:
                    v = random_unit(rng, 2)
                    X = np.outer(v, v.conj())
                    k = 1
                else:
                    X = np.eye(2) / np.sqrt(2.0)
                    k = 2
                factors.append(X)
                net = nets[k]
                E = net.reshape(len(net), -1)
                i = int(np.argmin(np.sum(np.abs(E - X.reshape(-1)) ** 2, axis=1)))
                approx.append(net[i])
            prod = np.kron(np.kron(factors[0], factors[1]), factors[2])
            tilde = np.kron(np.kron(approx[0], approx[1]), approx[2])
            worst = max(worst, float(np.linalg.norm(prod - tilde)))
        assert worst <= 3 * eps


class TestLorentzDecomposition:
    def test_normalized_projector_is_single_term(self):
        rng = np.random.default_rng(1)
        v, w = random_unit(rng, 4), random_unit(rng, 4)
        w = w - (v.conj() @ w) * v
        w /= np.linalg.norm(w)
        P = (np.outer(v, v.conj()) + np.outer(w, w.conj())) / np.sqrt(2.0)
        dec = lorentz_decompose(P)
        assert len(dec.terms) == 1
        lam, X = dec.terms[0]
        assert lam == pytest.approx(1.0, rel=1e-12)
        assert np.abs(X - P).max() <= 1e-12

    def test_balanced_two_level_example(self):
        X = np.diag([1.0, -1.0]) / np.sqrt(2.0)
        dec = lorentz_decompose(X)
        assert len(dec.terms) == 2
        coeffs = sorted(lam for lam, _ in dec.terms)
        assert coeffs[0] == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-12)
        assert coeffs[1] == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert dec.coefficient_l1() == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert dec.coefficient_l1() <= coefficient_bound(2)

    def test_zero_matrix_empty(self):
        dec = lorentz_decompose(np.zeros((4, 4)))
        assert dec.terms == []
        assert np.abs(dec.reconstruct()).max() == 0

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_reconstruction_and_bounds_on_random_corpus(self, N):
        rng = np.random.default_rng(N)
        for trial in range(250):
            H = random_unit_hermitian(rng, N)
            if trial % 4:
                H = H * rng.random()  # also exercise strictly-interior inputs
            dec = lorentz_decompose(H)
            assert np.abs(dec.reconstruct() - H).max() <= 1e-10
            l1 = dec.coefficient_l1()
            assert l1 <= coefficient_bound(N)
            assert l1 <= coefficient_bound_sharp(N)
            for lam, X in dec.terms:
                assert np.linalg.norm(X) == pytest.approx(1.0, abs=1e-10)

    def test_norm_guard(self):
        with pytest.raises(ValueError):
            lorentz_decompose(np.eye(2) * 0.9)  # Frobenius norm > 1

    def test_dimension_guard(self):
        with pytest.raises(ScaleError):
            lorentz_decompose(np.ones((1, 1)) * 0.5)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            lorentz_decompose(np.array([[0.0, 0.5], [0.0, 0.0]]))

    @pytest.mark.parametrize("X", [[[np.nan, 0.0], [0.0, 0.5]], [[0.5, np.nan], [np.nan, 0.0]]])
    def test_nan_rejected(self, X):
        with pytest.raises(ValueError, match="Hermitian"):
            lorentz_decompose(np.array(X))
