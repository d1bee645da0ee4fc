"""Closed-form tail envelopes and Monte-Carlo checks against them.

Every envelope is the exact right-hand side of a proven deviation inequality;
the empirical checkers sample the corresponding statistic with seeded
randomness and compare exceedance fractions against the envelope, allowing
three binomial standard errors of slack so that only genuine violations (and
not Monte-Carlo noise at tiny probabilities) trip the verdict.  Each family
is defined once, as a builder that turns its params into one `_Family`
record; `_FAMILIES` is the only place a family name is looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnspecifiedConstantError
from .tensor import SamplerConfig, sample_tensor, spectral_norm

_E = math.e

_TAU_GRID = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)  # SpectralRatioReport's tau values


@dataclass(frozen=True)
class TailEnvelope:
    """A named tail bound: a nonincreasing function t -> probability bound.

    bound(0) may exceed 1; the bound is simply trivial there.
    """

    name: str
    params: dict
    bound: object  # vectorized callable t -> envelope value

    def __call__(self, t):
        return self.bound(np.asarray(t, dtype=np.float64))


@dataclass
class TailReport:
    """Empirical exceedance fractions against an envelope on a t grid.

    Only the samples' outcome is stored; the binomial standard error of each
    fraction and the per-point verdicts (fraction at most the envelope plus
    three standard errors) follow from it.
    """

    name: str
    t_grid: np.ndarray
    empirical: np.ndarray
    envelope: np.ndarray
    trials: int
    seed: int

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(self.empirical * (1.0 - self.empirical) / self.trials)

    @property
    def verdicts(self) -> np.ndarray:
        return self.empirical <= self.envelope + 3.0 * self.stderr

    @property
    def passed(self) -> bool:
        return bool(np.all(self.verdicts))


@dataclass(frozen=True)
class _Family:
    """One tail family built from its params: the params its envelope keeps,
    the bound, the default t grid, a sampler of `count` absolute deviations
    of the statistic, and the trials drawn per sampling chunk."""

    params: dict
    bound: object  # t -> envelope value
    grid: np.ndarray
    sample: object  # (rng, count) -> absolute deviations
    chunk: int = 10_000


class _Params(dict):
    """A family's params; a missing key is a ValueError naming family and key."""

    def __init__(self, name: str, params: dict | None):
        super().__init__(params or {})
        self.name = name

    def __missing__(self, key):
        raise ValueError(f"envelope {self.name!r} needs params[{key!r}]")


def _gaussian(p):
    # P(|g| >= t) <= 2 exp(-t^2/2)
    return _Family(
        {},
        lambda t: 2.0 * np.exp(-(t**2) / 2.0),
        np.array([0.5, 1.0, 2.0, 3.0, 4.0]),
        lambda rng, count: np.abs(rng.standard_normal(count)),
        chunk=50_000,
    )


def _hoeffding(p):
    # P(|sum h_i| >= t) <= 2 exp(-2t^2 / sum (b_i-a_i)^2)
    spans = np.asarray(p["spans"], dtype=np.float64)  # b_i - a_i
    denom = float(np.sum(spans**2))
    return _Family(
        {"spans": spans},
        lambda t: 2.0 * np.exp(-2.0 * t**2 / denom),
        math.sqrt(denom) * np.array([0.25, 0.5, 1.0, 1.5]),
        # independent centered uniforms on [a_i, b_i]
        lambda rng, count: np.abs(((rng.random((count, spans.size)) - 0.5) * spans).sum(axis=1)),
        chunk=50_000,
    )


def _bernstein(p):
    # P(|sum a_i h_i| >= t) <= 2 exp(-(1/4e) min(t^2/(2e K^2 |a|_2^2), t/(K |a|_inf)))
    K = float(p["K"])
    a = np.asarray(p["a"], dtype=np.float64)
    l2 = float(np.sum(a**2))
    linf = float(np.abs(a).max())
    return _Family(
        {"K": K, "a": a},
        lambda t: 2.0 * np.exp(-np.minimum(t**2 / (2.0 * _E * K * K * l2), t / (K * linf)) / (4.0 * _E)),
        K * math.sqrt(l2) * np.array([1.0, 2.0, 4.0, 8.0]),
        lambda rng, count: np.abs(rng.laplace(scale=K, size=(count, a.size)) @ a),
    )


def _chi_square(p):
    # P(| |g|^2 - N | >= t) <= 2 exp(-(1/8e) min(t^2/(4eN), t))
    N = int(p["N"])
    return _Family(
        {"N": N},
        lambda t: 2.0 * np.exp(-np.minimum(t**2 / (4.0 * _E * N), t) / (8.0 * _E)),
        np.array([0.5 * math.sqrt(N), math.sqrt(N), 2 * math.sqrt(N), 4 * math.sqrt(N), N, 2.0 * N]),
        lambda rng, count: np.abs((rng.standard_normal((count, N)) ** 2).sum(axis=1) - N),
    )


def _bernoulli_projection(p):
    # P(|sum_j (sum_i a_i e_ij)^2 - N|a|^2| > t)
    #   <= 2 exp(-(1/4e) min(t^2/(8e |a|_2^4 N), t/(2 |a|_2^2)))
    a = np.asarray(p["a"], dtype=np.float64)
    N = int(p["N"])
    l2sq = float(np.sum(a**2))

    def sample(rng, count):
        eps = rng.integers(0, 2, (count, N, a.size)).astype(np.float64) * 2.0 - 1.0
        proj = np.einsum("tji,i->tj", eps, a)
        return np.abs((proj**2).sum(axis=1) - N * l2sq)

    return _Family(
        {"a": a, "N": N, "l2sq": l2sq},
        lambda t: 2.0 * np.exp(-np.minimum(t**2 / (8.0 * _E * l2sq**2 * N), t / (2.0 * l2sq)) / (4.0 * _E)),
        l2sq * math.sqrt(N) * np.array([1.0, 2.0, 4.0, 8.0]),
        sample,
    )


def _quadratic_form(p, draw, exponent, **kept):
    """The family of |<x|A|x> - tr A| over vectors x drawn by draw(rng, shape):
    bound 2 exp(-exponent(t, |A|_F, |A|_inf)), grid at multiples of |A|_F."""
    A = np.asarray(p["A"])
    fro = float(np.linalg.norm(A))
    op = float(np.linalg.svd(A, compute_uv=False)[0])
    Ac = np.asarray(A, dtype=complex)
    trace = np.trace(Ac).real

    def sample(rng, count):
        x = draw(rng, (count, len(Ac)))
        return np.abs(np.einsum("ti,ij,tj->t", x, Ac, x).real - trace)

    return _Family(
        {"A": A, **kept, "fro": fro, "op": op},
        lambda t: 2.0 * np.exp(-exponent(t, fro, op)),
        fro * np.array([1.0, 2.0, 4.0, 8.0]),
        sample,
    )


def _quad_form_gaussian(p):
    # P(|<g|A|g> - tr A| >= t) <= 2 exp(-(1/24e) min(t^2/(12e |A|_F^2), t/|A|_inf))
    return _quadratic_form(
        p,
        lambda rng, shape: rng.standard_normal(shape),
        lambda t, fro, op: np.minimum(t**2 / (12.0 * _E * fro**2), t / op) / (24.0 * _E),
    )


def _hanson_wright(p):
    # P(|e^T A e - tr A| >= t) <= 2 exp(-C min(t^2/|A|_F^2, t/|A|_inf)), C from the caller
    if "C" not in p:
        raise UnspecifiedConstantError(
            "the quadratic-form Bernoulli bound has a universal but "
            "unpinned constant; pass params['C'] explicitly"
        )
    C = float(p["C"])
    return _quadratic_form(
        p,
        lambda rng, shape: rng.integers(0, 2, shape).astype(np.float64) * 2.0 - 1.0,
        lambda t, fro, op: C * np.minimum(t**2 / fro**2, t / op),
        C=C,
    )


_FAMILIES = {
    "gaussian": _gaussian,
    "hoeffding": _hoeffding,
    "bernstein": _bernstein,
    "chi_square": _chi_square,
    "bernoulli_projection": _bernoulli_projection,
    "quad_form_gaussian": _quad_form_gaussian,
    "hanson_wright": _hanson_wright,
}

ENVELOPE_NAMES = tuple(_FAMILIES)


def _family(name: str, params: dict | None) -> _Family:
    if name not in _FAMILIES:
        raise ValueError(f"unknown envelope {name!r}; choose from {ENVELOPE_NAMES}")
    return _FAMILIES[name](_Params(name, params))


def envelope(name: str, params: dict | None = None) -> TailEnvelope:
    """The named closed-form tail bound, one of ENVELOPE_NAMES; each family's
    builder states its inequality.  ValueError for an unknown name or a
    missing parameter (naming family and key); hanson_wright without
    params['C'] raises UnspecifiedConstantError.
    """
    fam = _family(name, params)
    return TailEnvelope(name, fam.params, fam.bound)


def default_grid(name: str, params: dict | None = None) -> np.ndarray:
    """Grid of t values on the statistic's natural scale.

    Chosen so that min(.,.)-shaped bounds get exercised in both the quadratic
    and the linear regime.  Errors as for :func:`envelope`.
    """
    return _family(name, params).grid


def empirical_tail(
    name: str, params: dict | None = None, t_grid=None, trials: int = 100_000, seed: int = 0
) -> TailReport:
    """Sample the named statistic and compare its tail against the envelope.

    The family is built once from its params; its sampler draws the trials
    in chunks of the family's size.  A grid point passes when the empirical
    exceedance fraction is at most the envelope plus three binomial standard
    errors.  Reports are reproducible: the same seed yields the identical
    report.  ValueError below 1e4 trials; other errors as for :func:`envelope`.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a meaningful tail check")
    fam = _family(name, params)
    grid = fam.grid if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    rng = np.random.default_rng(seed)
    counts = np.zeros(grid.size, dtype=np.int64)
    for done in range(0, trials, fam.chunk):
        dev = fam.sample(rng, min(fam.chunk, trials - done))
        counts += (dev[:, None] >= grid[None, :]).sum(axis=0)
    return TailReport(name, grid, counts / float(trials), fam.bound(grid), trials, seed)


@dataclass
class SpectralRatioReport:
    """Distribution of spectral_norm / N^3 over sampled tensors.

    Only the ratios are stored.  N = 2^n; tau_grid is the constant
    0.5, 1, 1.5, 2, 3, 4, and fraction_meeting[i] = fraction_at(1 - tau_grid[i]/N),
    the share of samples with ratio >= 1 - tau/N.
    """

    n: int
    trials: int
    seed: int
    ratios: np.ndarray

    @property
    def N(self) -> int:
        return 2**self.n

    @property
    def tau_grid(self) -> np.ndarray:
        return np.array(_TAU_GRID)

    @property
    def fraction_meeting(self) -> np.ndarray:
        return np.array([self.fraction_at(1.0 - tau / self.N) for tau in _TAU_GRID])

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    def fraction_at(self, threshold: float) -> float:
        return float(np.mean(self.ratios >= threshold))


def verify_spectral_lb(n: int, trials: int = 200, seed: int = 0) -> SpectralRatioReport:
    """Sample tensors and report how close spectral_norm/N^3 stays to one.

    The construction guarantees the ratio approaches one only as N grows; this
    reports the desk-scale empirical distribution over gaussian g.  ValueError
    for n outside 1..6 or trials < 1, before anything is sampled.
    """
    if n not in range(1, 7):
        raise ValueError(f"n must lie in 1..6, got {n!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ratios = np.empty(trials)
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        T = sample_tensor(n, SamplerConfig(seed=int(ss.generate_state(1)[0])))
        ratios[i] = spectral_norm(T) / 2 ** (3 * n)
    return SpectralRatioReport(n=n, trials=trials, seed=seed, ratios=ratios)
