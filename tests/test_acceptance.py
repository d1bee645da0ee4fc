"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 7 and 10 encode fixed statistical thresholds that the honestly
measured desk-scale distributions do not meet (the spectral-ratio medians sit
near (1 - 1/N)^3, and the smallest size wins the ratio comparison against the
middle one); those tests report the measured values and fail rather than
loosening the thresholds.
"""

import itertools

import numpy as np
import pytest

from xorgap import (
    SamplerConfig,
    Tensor3,
    classical_bias_exact,
    empirical_tail,
    entangled_bias_eval,
    check_dimension_bound,
    check_question_bound,
    embedded_chsh_game,
    fourier,
    game_from_tensor,
    gap_sweep,
    ghz_strategy,
    hermitize,
    inverse_fourier,
    lorentz_decompose,
    mermin_game,
    pauli_strategy,
    projector_net,
    sample_tensor,
    seesaw_entangled_bias,
    spectral_norm,
    verify_spectral_lb,
)
from xorgap.nets import coefficient_bound
from xorgap.pauli import pauli_expectations
from xorgap.sweep import row_seed
from xorgap.tensor import top_eigenpair


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_exact_spectral_norm():
    got = {}
    for n, expected in ((1, 1.0), (2, 27.0), (3, 343.0)):
        N = 2**n
        T = Tensor3(n, raw_g=np.ones(N**3))
        got[N] = spectral_norm(T)
    ok = all(abs(got[2**n] - e) <= 1e-9 * e for n, e in ((1, 1.0), (2, 27.0), (3, 343.0)))
    verdict(1, "exact spectral norm", ok, f"measured {got} vs (N-1)^3")
    assert ok, got


def test_criterion_02_pauli_strategy_identity():
    worst = 0.0
    for n in (1, 2, 3):
        N = 2**n
        for idx in range(20):
            T = sample_tensor(n, SamplerConfig(seed=row_seed(2, n, idx)))
            sn = spectral_norm(T)
            lam, psi = top_eigenpair(T)
            table = fourier(T).coefficients
            w = pauli_expectations(n, psi)
            err = abs(complex(np.sum(table * w)) - N**3 * sn) / (N**3 * sn)
            worst = max(worst, err)
    ok = worst <= 1e-8
    verdict(2, "pauli strategy identity", ok, f"worst relative error {worst:.3e} <= 1e-8")
    assert ok, worst


def test_criterion_03_fourier_round_trip_and_parseval():
    worst_rt, worst_pars = 0.0, 0.0
    for n in (1, 2, 3):
        N = 2**n
        for idx in range(3):
            T = sample_tensor(n, SamplerConfig(seed=row_seed(3, n, idx)))
            table = fourier(T)
            back = inverse_fourier(table)
            worst_rt = max(worst_rt, float(np.abs(back.matrix - T.matrix).max()))
            fro2 = T.frobenius_norm() ** 2
            pars = abs(float(np.sum(np.abs(table.coefficients) ** 2)) - N**3 * fro2)
            worst_pars = max(worst_pars, pars / (N**3 * fro2))
    ok = worst_rt <= 1e-9 and worst_pars <= 1e-8
    verdict(
        3,
        "fourier round trip + parseval",
        ok,
        f"round trip {worst_rt:.3e} <= 1e-9, parseval rel {worst_pars:.3e} <= 1e-8",
    )
    assert ok, (worst_rt, worst_pars)


def test_criterion_04_lorentz_decomposition():
    rng = np.random.default_rng(4)
    failures = 0
    worst_rec = 0.0
    for N in (2, 4, 8, 16):
        bound = coefficient_bound(N)
        for trial in range(1000):
            M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            H = (M + M.conj().T) / 2.0
            H /= np.linalg.norm(H)
            if trial % 3 == 0:
                H = H * rng.random()
            dec = lorentz_decompose(H)
            rec = float(np.abs(dec.reconstruct() - H).max())
            worst_rec = max(worst_rec, rec)
            if rec > 1e-10 or dec.coefficient_l1() > bound:
                failures += 1
    ok = failures == 0
    verdict(
        4,
        "projector decomposition",
        ok,
        f"{failures} failures over 4000 draws, worst reconstruction {worst_rec:.2e}",
    )
    assert ok, failures


def test_criterion_05_net_covering():
    eps = 0.5
    rng = np.random.default_rng(5)
    net1 = projector_net(2, 1, eps)
    net2 = projector_net(2, 2, eps)
    elems = {
        1: np.array([M.reshape(-1) for M in net1.elements]),
        2: np.array([M.reshape(-1) for M in net2.elements]),
    }
    proj_failures = 0
    worst1 = 0.0
    for trial in range(10_000):
        if trial % 2:
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            X, k = np.outer(v, v.conj()), 1
        else:
            X, k = np.eye(2) / np.sqrt(2.0), 2
        d = np.sqrt(np.min(np.sum(np.abs(elems[k] - X.reshape(-1)) ** 2, axis=1)))
        worst1 = max(worst1, float(d)) if k == 1 else worst1
        if d > eps:
            proj_failures += 1
    trip_failures = 0
    worst3 = 0.0
    nets = {1: net1, 2: net2}
    for _ in range(1000):
        factors, approx = [], []
        for _mode in range(3):
            if rng.random() < 0.5:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                v /= np.linalg.norm(v)
                X, k = np.outer(v, v.conj()), 1
            else:
                X, k = np.eye(2) / np.sqrt(2.0), 2
            factors.append(X)
            i = int(np.argmin(np.sum(np.abs(elems[k] - X.reshape(-1)) ** 2, axis=1)))
            approx.append(nets[k].elements[i])
        prod = np.kron(np.kron(factors[0], factors[1]), factors[2])
        tilde = np.kron(np.kron(approx[0], approx[1]), approx[2])
        d = float(np.linalg.norm(prod - tilde))
        worst3 = max(worst3, d)
        if d > 3 * eps:
            trip_failures += 1
    ok = proj_failures == 0 and trip_failures == 0
    verdict(
        5,
        "net covering",
        ok,
        f"projector failures {proj_failures}/10000 (worst rank-1 dist {worst1:.3f}), "
        f"triple failures {trip_failures}/1000 (worst {worst3:.3f} <= {3*eps})",
    )
    assert ok, (proj_failures, trip_failures)


def test_criterion_06_concentration_envelopes():
    rng = np.random.default_rng(6)

    def herm(N):
        M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        return (M + M.conj().T) / 2.0

    cases = [
        ("gaussian", {}),
        ("chi_square", {"N": 16}),
        ("chi_square", {"N": 64}),
        ("quad_form_gaussian", {"A": herm(32)}),
        ("quad_form_gaussian", {"A": herm(32)}),
        ("bernoulli_projection", {"a": rng.standard_normal(16), "N": 16}),
    ]
    bad = []
    for i, (name, params) in enumerate(cases):
        rep = empirical_tail(name, params, trials=100_000, seed=60 + i)
        if not rep.passed:
            bad.append((name, rep.empirical, rep.envelope))
    ok = not bad
    verdict(6, "concentration envelopes", ok, f"{len(cases)-len(bad)}/{len(cases)} families pass at 1e5 trials")
    assert ok, bad


def test_criterion_07_spectral_ratio_thresholds():
    rep = verify_spectral_lb(3, trials=200, seed=7)
    med = rep.median
    frac80 = rep.fraction_at(0.80)
    ok = med >= 0.90 and frac80 >= 0.95
    verdict(
        7,
        "spectral ratio thresholds at N=8",
        ok,
        f"median {med:.4f} (needs >= 0.90), fraction >= 0.80 is {frac80:.3f} "
        f"(needs >= 0.95); the masked construction concentrates near "
        f"(1 - 1/N)^3 = {(7/8)**3:.4f} at N=8",
    )
    assert ok, (
        f"median {med:.4f} < 0.90 and/or P[ratio >= 0.80] = {frac80:.3f} < 0.95: "
        "the stated thresholds are above what the sampled construction attains "
        "at N=8; see the verdict line for the measured distribution"
    )


def test_criterion_08_game_benchmarks():
    mg = mermin_game()
    beta_m, _ = classical_bias_exact(mg)
    ghz = entangled_bias_eval(mg, ghz_strategy())
    ratio = ghz / beta_m
    cg = embedded_chsh_game()
    beta_c, _ = classical_bias_exact(cg)
    ss, _ = seesaw_entangled_bias(cg, 2, restarts=6, seed=8)
    ok = (
        beta_m == 0.5
        and ghz >= 1.0 - 1e-6
        and abs(ratio - 2.0) <= 1e-5
        and beta_c == 0.5
        and ss >= np.sqrt(2.0) / 2.0 - 1e-4
        and ss >= np.sqrt(2.0) * beta_c - 1e-4
    )
    verdict(
        8,
        "game benchmarks",
        ok,
        f"mermin beta={beta_m} ghz={ghz:.9f} ratio={ratio:.6f}; "
        f"chsh beta={beta_c} seesaw(d=2)={ss:.6f} >= sqrt(2)*beta - 1e-4",
    )
    assert ok


def test_criterion_09_theorem_consistency():
    pairs = []
    mg = mermin_game()
    beta, _ = classical_bias_exact(mg)
    pairs.append(("mermin/ghz", mg, entangled_bias_eval(mg, ghz_strategy()), 2, beta))
    cg = embedded_chsh_game()
    beta_c, _ = classical_bias_exact(cg)
    ss, _ = seesaw_entangled_bias(cg, 2, restarts=6, seed=9)
    pairs.append(("chsh/seesaw", cg, ss, 2, beta_c))
    for idx in range(10):
        T = sample_tensor(1, SamplerConfig(seed=row_seed(9, 1, idx)))
        rep = game_from_tensor(T)
        beta_i, _ = classical_bias_exact(rep.game)
        star = entangled_bias_eval(rep.game, pauli_strategy(hermitize(T)))
        pairs.append((f"sampled#{idx}", rep.game, star, 2, beta_i))
    violations = []
    for name, G, star_lb, d, beta_x in pairs:
        qb = check_question_bound(G, star_lb, beta_x)
        db = check_dimension_bound(G, star_lb, d, beta_x)
        if not (qb.ok and db.ok):
            violations.append((name, star_lb, beta_x))
    ok = not violations
    verdict(9, "theorem consistency", ok, f"{len(pairs)} (beta*, beta) pairs, {len(violations)} violations")
    assert ok, violations


def test_criterion_10_gap_trend():
    rows, token = gap_sweep([1, 2, 3], 20, seed=0)
    assert token is None, "sweep exceeded its runtime budget"
    by_n = {n: [r for r in rows if r.n == n] for n in (1, 2, 3)}
    row_cert_ok = all(
        r.prop31_lower <= r.ratio_estimate + 1e-9
        for r in by_n[1]
        if r.classical_method == "exact" and r.prop31_lower is not None
    )
    medians = {n: float(np.median([r.ratio_estimate for r in by_n[n]])) for n in (1, 2, 3)}
    trend_ok = medians[1] < medians[2] < medians[3]
    ok = row_cert_ok and trend_ok
    verdict(
        10,
        "gap trend",
        ok,
        f"medians {medians[1]:.4f} / {medians[2]:.4f} / {medians[3]:.4f} "
        f"(strict increase needed), row-level certified inequality at n=1: "
        f"{'holds' if row_cert_ok else 'VIOLATED'}",
    )
    assert row_cert_ok, "certified per-row inequality failed at n=1"
    assert trend_ok, (
        f"median ratio_estimate not strictly increasing: {medians}; the smallest "
        "size wins against the middle one at desk scale (its games have only "
        "four effective questions and the explicit strategy often saturates "
        "bias 1 there) even though the n=2 -> n=3 step does increase"
    )
