"""Tail envelopes and their Monte-Carlo verifiers."""

import dataclasses

import numpy as np
import pytest

from xorgap import UnspecifiedConstantError, empirical_tail, envelope, verify_spectral_lb
from xorgap import concentration
from xorgap.tensor import Tensor3


def fixed_hermitian(N, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (M + M.conj().T) / 2.0


class TestEnvelopes:
    def test_gaussian_at_zero_is_trivial(self):
        assert envelope("gaussian")(0.0) == pytest.approx(2.0)

    def test_chi_square_at_zero_is_trivial(self):
        assert envelope("chi_square", {"N": 100})(0.0) == pytest.approx(2.0)

    def test_gaussian_value(self):
        assert envelope("gaussian")(3.0) == pytest.approx(2.0 * np.exp(-4.5), rel=1e-12)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("gaussian", {}),
            ("hoeffding", {"spans": np.full(10, 2.0)}),
            ("bernstein", {"K": 2.0, "a": np.ones(8)}),
            ("chi_square", {"N": 64}),
            ("bernoulli_projection", {"a": np.ones(8), "N": 8}),
            ("quad_form_gaussian", {"A": fixed_hermitian(16)}),
            ("hanson_wright", {"A": fixed_hermitian(16), "C": 0.05}),
        ],
    )
    def test_nonincreasing_on_grid(self, name, params):
        env = envelope(name, params)
        grid = np.linspace(0.0, 50.0, 200)
        vals = env(grid)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_identity_quad_form_params_match_chi_square_scales(self):
        # with A = I_N both bounds decay in min(t^2/N, t) up to constants
        N = 100
        env = envelope("quad_form_gaussian", {"A": np.eye(N)})
        assert env.params["fro"] ** 2 == pytest.approx(N)
        assert env.params["op"] == pytest.approx(1.0)

    def test_hanson_wright_requires_constant(self):
        with pytest.raises(UnspecifiedConstantError):
            envelope("hanson_wright", {"A": np.eye(4)})

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            envelope("cauchy", {})

    @pytest.mark.parametrize(
        "name,params,key",
        [
            ("hoeffding", {"spans": np.ones(4)}, "spans"),
            ("bernstein", {"K": 1.0, "a": np.ones(4)}, "K"),
            ("bernstein", {"K": 1.0, "a": np.ones(4)}, "a"),
            ("chi_square", {"N": 8}, "N"),
            ("bernoulli_projection", {"a": np.ones(4), "N": 8}, "a"),
            ("bernoulli_projection", {"a": np.ones(4), "N": 8}, "N"),
            ("quad_form_gaussian", {"A": np.eye(4)}, "A"),
            ("hanson_wright", {"A": np.eye(4), "C": 0.05}, "A"),
        ],
    )
    def test_missing_param_names_family_and_key(self, name, params, key):
        # every entry point reads the one family record, so each reports the
        # same ValueError, never a bare KeyError
        params = {k: v for k, v in params.items() if k != key}
        message = f"envelope '{name}' needs params\\['{key}'\\]"
        for call in (
            lambda: envelope(name, params),
            lambda: empirical_tail(name, params, trials=10_000),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_names_come_from_the_family_registry(self):
        assert concentration.ENVELOPE_NAMES == (
            "gaussian",
            "hoeffding",
            "bernstein",
            "chi_square",
            "bernoulli_projection",
            "quad_form_gaussian",
            "hanson_wright",
        )
        assert concentration.ENVELOPE_NAMES == tuple(concentration._FAMILIES)


class TestEmpiricalTails:
    def test_gaussian_at_three_sigma(self):
        rep = empirical_tail("gaussian", t_grid=[3.0], trials=100_000, seed=1)
        assert rep.passed
        assert rep.empirical[0] == pytest.approx(0.0027, abs=5e-4)
        assert rep.envelope[0] == pytest.approx(2.0 * np.exp(-4.5), rel=1e-12)

    def test_chi_square_default_grid(self):
        rep = empirical_tail("chi_square", {"N": 64}, trials=50_000, seed=2)
        assert rep.passed

    def test_quad_form_multiples_of_frobenius(self):
        A = fixed_hermitian(32, seed=3)
        fro = np.linalg.norm(A)
        rep = empirical_tail(
            "quad_form_gaussian", {"A": A}, t_grid=fro * np.array([1, 2, 4, 8]),
            trials=50_000, seed=3,
        )
        assert rep.passed

    def test_bernoulli_projection(self):
        rep = empirical_tail(
            "bernoulli_projection", {"a": np.arange(1.0, 9.0), "N": 8},
            trials=50_000, seed=4,
        )
        assert rep.passed

    def test_hoeffding_and_bernstein(self):
        rep = empirical_tail("hoeffding", {"spans": np.full(16, 2.0)}, trials=50_000, seed=5)
        assert rep.passed
        rep = empirical_tail(
            "bernstein", {"K": 1.5, "a": np.ones(8)}, trials=50_000, seed=6
        )
        assert rep.passed

    def test_hanson_wright_with_caller_constant(self):
        rep = empirical_tail(
            "hanson_wright", {"A": fixed_hermitian(16, seed=7), "C": 0.05},
            trials=50_000, seed=7,
        )
        assert rep.passed

    def test_reproducible(self):
        a = empirical_tail("chi_square", {"N": 16}, trials=20_000, seed=9)
        b = empirical_tail("chi_square", {"N": 16}, trials=20_000, seed=9)
        assert np.array_equal(a.empirical, b.empirical)
        assert np.array_equal(a.t_grid, b.t_grid)

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            empirical_tail("gaussian", trials=100, seed=0)

    def test_default_grids_exercise_both_regimes(self):
        grid = empirical_tail("chi_square", {"N": 64}, trials=10_000).t_grid
        assert grid.min() < 4 * np.e * 64 < grid.max() * 10  # quadratic side sampled
        assert np.all(np.diff(grid) > 0)

    def test_family_built_once_per_run(self, monkeypatch):
        # the params are read and converted once, not once per sampling chunk
        builds = []
        build = concentration._FAMILIES["quad_form_gaussian"]
        monkeypatch.setitem(
            concentration._FAMILIES, "quad_form_gaussian", lambda p: builds.append(1) or build(p)
        )
        empirical_tail("quad_form_gaussian", {"A": fixed_hermitian(8)}, trials=30_000, seed=0)
        assert builds == [1]

    def test_report_stores_only_its_samples(self):
        rep = empirical_tail("chi_square", {"N": 16}, trials=20_000, seed=9)
        fields = [f.name for f in dataclasses.fields(rep)]
        assert fields == ["name", "t_grid", "empirical", "envelope", "trials", "seed"]
        stderr = np.sqrt(rep.empirical * (1.0 - rep.empirical) / rep.trials)
        assert np.array_equal(rep.stderr, stderr)
        assert np.array_equal(rep.verdicts, rep.empirical <= rep.envelope + 3.0 * stderr)
        assert rep.passed == bool(np.all(rep.verdicts))


def fixed_g_sampler(g):
    """A stand-in for sample_tensor that returns the tensor of g on every trial."""

    def sample(n, cfg):
        return Tensor3(n, raw_g=g)

    return sample


class TestSpectralRatioReport:
    def test_all_ones_override_exact_ratio(self, monkeypatch):
        for n in (1, 2):
            N = 2**n
            monkeypatch.setattr(concentration, "sample_tensor", fixed_g_sampler(np.ones(N**3)))
            rep = verify_spectral_lb(n, trials=3, seed=0)
            assert np.abs(rep.ratios - (N - 1) ** 3 / N**3).max() <= 1e-12

    def test_zero_vector_reports_zero(self, monkeypatch):
        monkeypatch.setattr(concentration, "sample_tensor", fixed_g_sampler(np.zeros(8)))
        rep = verify_spectral_lb(1, trials=2, seed=0)
        assert np.all(rep.ratios == 0.0)

    def test_fraction_grid_monotone(self):
        rep = verify_spectral_lb(2, trials=40, seed=3)
        assert np.all(np.diff(rep.fraction_meeting) >= 0.0)
        assert 0.0 < rep.median < 1.0

    def test_reproducible(self):
        a = verify_spectral_lb(1, trials=20, seed=5)
        b = verify_spectral_lb(1, trials=20, seed=5)
        assert np.array_equal(a.ratios, b.ratios)

    def test_report_stores_only_its_ratios(self):
        rep = verify_spectral_lb(2, trials=12, seed=1)
        assert [f.name for f in dataclasses.fields(rep)] == ["n", "trials", "seed", "ratios"]
        assert rep.N == 4
        assert np.array_equal(rep.tau_grid, [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
        want = [rep.fraction_at(1.0 - tau / rep.N) for tau in rep.tau_grid]
        assert np.array_equal(rep.fraction_meeting, want)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_must_be_positive(self, trials, monkeypatch):
        def never(n, cfg):
            raise AssertionError("sampled before the trial count was checked")

        monkeypatch.setattr(concentration, "sample_tensor", never)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            verify_spectral_lb(1, trials=trials)

    @pytest.mark.parametrize("n", [0, 7])
    def test_n_outside_range_rejected_before_sampling(self, n, monkeypatch):
        def never(n, cfg):
            raise AssertionError("sampled before n was checked")

        monkeypatch.setattr(concentration, "sample_tensor", never)
        with pytest.raises(ValueError, match=r"n must lie in 1\.\.6"):
            verify_spectral_lb(n, trials=1)
