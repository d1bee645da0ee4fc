"""Closed-form tail envelopes and Monte-Carlo checks against them.

Every envelope is the exact right-hand side of a proven deviation inequality;
the empirical checkers sample the corresponding statistic with seeded
randomness and compare exceedance fractions against the envelope, allowing
three binomial standard errors of slack so that only genuine violations (and
not Monte-Carlo noise at tiny probabilities) trip the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnspecifiedConstantError
from .tensor import SamplerConfig, sample_tensor, spectral_norm

_E = math.e

ENVELOPE_NAMES = (
    "gaussian",
    "hoeffding",
    "bernstein",
    "chi_square",
    "bernoulli_projection",
    "quad_form_gaussian",
    "hanson_wright",
)


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
    """Empirical exceedance fractions against an envelope on a t grid."""

    name: str
    t_grid: np.ndarray
    empirical: np.ndarray
    envelope: np.ndarray
    stderr: np.ndarray
    verdicts: np.ndarray  # bool per grid point
    trials: int
    seed: int

    @property
    def passed(self) -> bool:
        return bool(np.all(self.verdicts))


def _norms(A: np.ndarray) -> tuple[float, float]:
    A = np.asarray(A)
    fro = float(np.linalg.norm(A))
    op = float(np.linalg.svd(A, compute_uv=False)[0])
    return fro, op


def envelope(name: str, params: dict | None = None) -> TailEnvelope:
    """Build the named closed-form tail bound.

    gaussian:             P(|g| >= t)                       <= 2 exp(-t^2/2)
    hoeffding:            P(|sum h_i| >= t)                 <= 2 exp(-2t^2 / sum (b_i-a_i)^2)
    bernstein:            P(|sum a_i h_i| >= t)             <= 2 exp(-(1/4e) min(t^2/(2e K^2 |a|_2^2), t/(K |a|_inf)))
    chi_square:           P(| |g|^2 - N | >= t)             <= 2 exp(-(1/8e) min(t^2/(4eN), t))
    bernoulli_projection: P(|sum_j (sum_i a_i e_ij)^2 - N|a|^2| > t)
                                                            <= 2 exp(-(1/4e) min(t^2/(8e |a|_2^4 N), t/(2 |a|_2^2)))
    quad_form_gaussian:   P(|<g|A|g> - tr A| >= t)          <= 2 exp(-(1/24e) min(t^2/(12e |A|_F^2), t/|A|_inf))
    hanson_wright:        P(|e^T A e - tr A| >= t)          <= 2 exp(-C min(t^2/|A|_F^2, t/|A|_inf))
                          with the constant C supplied by the caller.
    """
    params = dict(params or {})
    if name == "gaussian":
        return TailEnvelope(name, params, lambda t: 2.0 * np.exp(-(t**2) / 2.0))
    if name == "hoeffding":
        spans = np.asarray(params["spans"], dtype=np.float64)  # b_i - a_i
        denom = float(np.sum(spans**2))
        return TailEnvelope(
            name, {"spans": spans}, lambda t: 2.0 * np.exp(-2.0 * t**2 / denom)
        )
    if name == "bernstein":
        K = float(params["K"])
        a = np.asarray(params["a"], dtype=np.float64)
        l2 = float(np.sum(a**2))
        linf = float(np.abs(a).max())
        return TailEnvelope(
            name,
            {"K": K, "a": a},
            lambda t: 2.0
            * np.exp(
                -np.minimum(t**2 / (2.0 * _E * K * K * l2), t / (K * linf))
                / (4.0 * _E)
            ),
        )
    if name == "chi_square":
        N = int(params["N"])
        return TailEnvelope(
            name,
            {"N": N},
            lambda t: 2.0
            * np.exp(-np.minimum(t**2 / (4.0 * _E * N), t) / (8.0 * _E)),
        )
    if name == "bernoulli_projection":
        a = np.asarray(params["a"], dtype=np.float64)
        N = int(params["N"])
        l2sq = float(np.sum(a**2))
        return TailEnvelope(
            name,
            {"a": a, "N": N, "l2sq": l2sq},
            lambda t: 2.0
            * np.exp(
                -np.minimum(t**2 / (8.0 * _E * l2sq**2 * N), t / (2.0 * l2sq))
                / (4.0 * _E)
            ),
        )
    if name == "quad_form_gaussian":
        A = np.asarray(params["A"])
        fro, op = _norms(A)
        return TailEnvelope(
            name,
            {"A": A, "fro": fro, "op": op},
            lambda t: 2.0
            * np.exp(
                -np.minimum(t**2 / (12.0 * _E * fro**2), t / op) / (24.0 * _E)
            ),
        )
    if name == "hanson_wright":
        if "C" not in params:
            raise UnspecifiedConstantError(
                "the quadratic-form Bernoulli bound has a universal but "
                "unpinned constant; pass params['C'] explicitly"
            )
        A = np.asarray(params["A"])
        Cc = float(params["C"])
        fro, op = _norms(A)
        return TailEnvelope(
            name,
            {"A": A, "C": Cc, "fro": fro, "op": op},
            lambda t: 2.0 * np.exp(-Cc * np.minimum(t**2 / fro**2, t / op)),
        )
    raise ValueError(f"unknown envelope {name!r}; choose from {ENVELOPE_NAMES}")


def default_grid(name: str, params: dict | None = None) -> np.ndarray:
    """Grid of t values on the statistic's natural scale.

    Chosen so that min(.,.)-shaped bounds get exercised in both the quadratic
    and the linear regime.
    """
    params = dict(params or {})
    if name == "gaussian":
        return np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    if name == "hoeffding":
        s = math.sqrt(float(np.sum(np.asarray(params["spans"]) ** 2)))
        return s * np.array([0.25, 0.5, 1.0, 1.5])
    if name == "bernstein":
        a = np.asarray(params["a"], dtype=np.float64)
        s = float(params["K"]) * math.sqrt(float(np.sum(a**2)))
        return s * np.array([1.0, 2.0, 4.0, 8.0])
    if name == "chi_square":
        N = int(params["N"])
        return np.array(
            [0.5 * math.sqrt(N), math.sqrt(N), 2 * math.sqrt(N), 4 * math.sqrt(N), N, 2.0 * N]
        )
    if name == "bernoulli_projection":
        a = np.asarray(params["a"], dtype=np.float64)
        scale = float(np.sum(a**2)) * math.sqrt(int(params["N"]))
        return scale * np.array([1.0, 2.0, 4.0, 8.0])
    if name in ("quad_form_gaussian", "hanson_wright"):
        fro = float(np.linalg.norm(np.asarray(params["A"])))
        return fro * np.array([1.0, 2.0, 4.0, 8.0])
    raise ValueError(f"unknown envelope {name!r}")


def _sample_statistic(name: str, params: dict, rng, count: int) -> np.ndarray:
    """Draw `count` absolute deviations of the named statistic."""
    if name == "gaussian":
        return np.abs(rng.standard_normal(count))
    if name == "hoeffding":
        spans = np.asarray(params["spans"], dtype=np.float64)
        # independent centered uniforms on [a_i, b_i]
        u = rng.random((count, spans.size)) - 0.5
        return np.abs((u * spans).sum(axis=1))
    if name == "bernstein":
        K = float(params["K"])
        a = np.asarray(params["a"], dtype=np.float64)
        h = rng.laplace(scale=K, size=(count, a.size))
        return np.abs(h @ a)
    if name == "chi_square":
        N = int(params["N"])
        g = rng.standard_normal((count, N))
        return np.abs((g**2).sum(axis=1) - N)
    if name == "bernoulli_projection":
        a = np.asarray(params["a"], dtype=np.float64)
        N = int(params["N"])
        eps = rng.integers(0, 2, (count, N, a.size)).astype(np.float64) * 2.0 - 1.0
        proj = np.einsum("tji,i->tj", eps, a)
        return np.abs((proj**2).sum(axis=1) - N * float(np.sum(a**2)))
    if name == "quad_form_gaussian":
        A = np.asarray(params["A"], dtype=complex)
        N = A.shape[0]
        g = rng.standard_normal((count, N))
        quad = np.einsum("ti,ij,tj->t", g, A, g).real
        return np.abs(quad - np.trace(A).real)
    if name == "hanson_wright":
        A = np.asarray(params["A"], dtype=complex)
        N = A.shape[0]
        eps = rng.integers(0, 2, (count, N)).astype(np.float64) * 2.0 - 1.0
        quad = np.einsum("ti,ij,tj->t", eps, A, eps).real
        return np.abs(quad - np.trace(A).real)
    raise ValueError(f"unknown statistic {name!r}")


def empirical_tail(
    name: str,
    params: dict | None = None,
    t_grid=None,
    trials: int = 100_000,
    seed: int = 0,
) -> TailReport:
    """Sample the named statistic and compare its tail against the envelope.

    A grid point passes when the empirical exceedance fraction is at most the
    envelope plus three binomial standard errors.  Reports are reproducible:
    the same seed yields the identical report.
    """
    if trials < 10_000:
        raise ValueError("need at least 1e4 trials for a meaningful tail check")
    params = dict(params or {})
    env = envelope(name, params)
    grid = np.asarray(
        default_grid(name, params) if t_grid is None else t_grid, dtype=np.float64
    )
    rng = np.random.default_rng(seed)
    counts = np.zeros(grid.size, dtype=np.int64)
    done = 0
    chunk = 50_000 if name in ("gaussian", "hoeffding") else 10_000
    while done < trials:
        take = min(chunk, trials - done)
        dev = _sample_statistic(name, params, rng, take)
        counts += (dev[:, None] >= grid[None, :]).sum(axis=0)
        done += take
    emp = counts / float(trials)
    envv = env(grid)
    stderr = np.sqrt(emp * (1.0 - emp) / trials)
    verdicts = emp <= envv + 3.0 * stderr
    return TailReport(
        name=name,
        t_grid=grid,
        empirical=emp,
        envelope=envv,
        stderr=stderr,
        verdicts=verdicts,
        trials=trials,
        seed=seed,
    )


@dataclass
class SpectralRatioReport:
    """Distribution of spectral_norm / N^3 over sampled tensors.

    fraction_meeting[i] is the share of samples with ratio >= 1 - tau/N for
    tau_grid[i]; fraction_at(x) gives the share with ratio >= x directly.
    """

    n: int
    N: int
    trials: int
    seed: int
    ratios: np.ndarray
    tau_grid: np.ndarray
    fraction_meeting: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.ratios))

    def fraction_at(self, threshold: float) -> float:
        return float(np.mean(self.ratios >= threshold))


def verify_spectral_lb(n: int, trials: int = 200, seed: int = 0) -> SpectralRatioReport:
    """Sample tensors and report how close spectral_norm/N^3 stays to one.

    The construction guarantees the ratio approaches one only as N grows; this
    reports the desk-scale empirical distribution over gaussian g, plus the
    fraction clearing 1 - tau/N for each tau in 0.5, 1, 1.5, 2, 3, 4.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    N = 2**n
    tau_grid = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    children = np.random.SeedSequence(seed).spawn(trials)
    ratios = np.empty(trials)
    for i, ss in enumerate(children):
        T = sample_tensor(n, SamplerConfig(seed=int(ss.generate_state(1)[0])))
        ratios[i] = spectral_norm(T) / N**3
    fractions = np.array([np.mean(ratios >= 1.0 - tau / N) for tau in tau_grid])
    return SpectralRatioReport(
        n=n,
        N=N,
        trials=trials,
        seed=seed,
        ratios=ratios,
        tau_grid=tau_grid,
        fraction_meeting=fractions,
    )
