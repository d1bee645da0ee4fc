"""Pipeline sweeps, verification suites, and file summaries.

The gap sweep runs sample -> norms -> game -> biases per row and
emits CSV; verification suites re-run each module's invariant battery and
report pass/fail lines.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields

import numpy as np

from . import concentration, game, nets, pauli, tensor

RATIO_BOUND_FACTOR = 4.0  # loss budgeted for hermitization
ROW_NET_EPS = 0.5  # resolution of a row's net upper bound


@dataclass
class GapRow:
    """One sampled tensor's norms and biases.

    ratio_estimate is pauli_bias / classical_bias: a certified lower bound on
    the entangled-to-classical ratio exactly when the classical bias is exact
    (classical_method == "exact"); otherwise the denominator is itself a lower
    bound and the ratio is only an estimate.  prop31_lower, present when the
    net upper bound is, is spectral / (4 N^{3/2} trilinear_upper).
    """

    n: int
    N: int
    seed: int
    spectral: float
    trilinear_lower: float
    trilinear_upper: float | None
    classical_bias: float
    classical_method: str
    pauli_bias: float
    ratio_estimate: float
    prop31_lower: float | None

    def as_csv_row(self) -> list:
        return [_CSV_TYPES[f.type][0](getattr(self, f.name)) for f in fields(self)]


def _csv_float(v) -> str:
    return repr(float(v))


# a GapRow field's annotation -> (format, parse) of its CSV column
_CSV_TYPES = {
    "int": (str, int),
    "str": (str, str),
    "float": (_csv_float, float),
    "float | None": (lambda v: "" if v is None else _csv_float(v), lambda s: float(s) if s else None),
}

GAP_COLUMNS = [f.name for f in fields(GapRow)]


def row_seed(master_seed: int, n: int, index: int) -> int:
    """Deterministic per-row sampler seed."""
    return int(np.random.SeedSequence(entropy=(master_seed, n, index)).generate_state(1)[0])


def compute_gap_row(n: int, sample_seed: int) -> GapRow:
    """Full pipeline for one sampled tensor.

    The ALS lower bound and the classical heuristic run with their default
    restarts and stopping rules; the net upper bound (N = 2 only) uses
    resolution ROW_NET_EPS.  The game keeps the sampled tensor as its
    source, so at n >= 2 the heuristic's partial sums come from g, and
    classical_bias is v / l1; the n = 1 row is enumerated exactly.
    """
    N = 2**n
    T = tensor.sample_tensor(n, tensor.SamplerConfig(seed=sample_seed))
    spectral = tensor.spectral_norm(T)
    lower, _ = tensor.trilinear_norm_lower(T, seed=sample_seed)
    upper = None
    if N == 2:
        upper = tensor.trilinear_norm_upper_net(T, ROW_NET_EPS)
    report = game.game_from_tensor(T)
    classical, _, method = game.classical_bias(report.game, seed=sample_seed)
    ratio = report.pauli_bias / classical
    prop31 = None
    if upper is not None:
        prop31 = spectral / (RATIO_BOUND_FACTOR * N**1.5 * upper)
    return GapRow(
        n=n,
        N=N,
        seed=sample_seed,
        spectral=spectral,
        trilinear_lower=lower,
        trilinear_upper=upper,
        classical_bias=classical,
        classical_method=method,
        pauli_bias=report.pauli_bias,
        ratio_estimate=ratio,
        prop31_lower=prop31,
    )


def write_gap_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(GAP_COLUMNS)
        for row in rows:
            w.writerow(row.as_csv_row())


def read_gap_csv(path) -> list[GapRow]:
    parse = [_CSV_TYPES[f.type][1] for f in fields(GapRow)]
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        if next(r, None) != GAP_COLUMNS:
            raise ValueError("not a gap CSV")
        for row in r:
            if len(row) != len(GAP_COLUMNS):
                raise ValueError(
                    f"gap CSV line {r.line_num}: {len(row)} fields, need {len(GAP_COLUMNS)}"
                )
            out.append(GapRow(*(p(v) for p, v in zip(parse, row))))
    return out


def gap_sweep(
    n_list,
    samples_per_n: int,
    seed: int,
    out=None,
    budget_s: float = 1800.0,
    resume: bool = False,
) -> tuple[list[GapRow], tuple | None]:
    """One row per (n, sample index), deterministic given the master seed.

    With `out`, each row is appended and flushed to that CSV as soon as it
    finishes, so the file always holds a prefix of the (n, index) grid and is
    itself the resume state.  With resume=True the sweep first checks that
    `out` holds exactly the first k rows of this seed's grid, then continues
    at grid point k; a complete file is left as it is.  A sweep stops early
    when the time budget runs out.  Returns (rows computed by this call, the
    next (n, index) if the budget stopped it, else None).

    Raises ValueError, before computing any row, when n_list is empty, when
    samples_per_n < 1, when budget_s is negative or NaN (a NaN budget would
    never stop the sweep), or when resuming without `out` or from a file that
    is not a prefix of this seed's grid.
    """
    n_list = sorted(set(n_list))
    if not n_list:
        raise ValueError("n_list must name at least one n")
    if any(n not in (1, 2, 3) for n in n_list):
        raise ValueError("sweep sizes are limited to n in {1, 2, 3}")
    if samples_per_n < 1:
        raise ValueError("samples per n must be >= 1")
    if not budget_s >= 0.0:
        raise ValueError(f"budget must be a number of seconds >= 0, got {budget_s!r}")
    grid = [(n, idx) for n in n_list for idx in range(samples_per_n)]
    start = 0
    if resume:
        if out is None:
            raise ValueError("resuming a sweep needs its out CSV")
        kept = [(r.n, r.seed) for r in read_gap_csv(out)]
        start = len(kept)
        if kept != [(n, row_seed(seed, n, idx)) for n, idx in grid[:start]]:
            raise ValueError(
                f"{out} is not a prefix of the rows of seed {seed} "
                f"over n_list {n_list} x range({samples_per_n})"
            )
    elif out is not None:
        write_gap_csv(out, [])  # a fresh sweep starts from the header alone
    started = time.monotonic()
    rows = []
    token = None
    for n, idx in grid[start:]:
        if time.monotonic() - started > budget_s:
            token = (n, idx)
            break
        row = compute_gap_row(n, row_seed(seed, n, idx))
        rows.append(row)
        if out is not None:
            with open(out, "a", newline="") as fh:
                csv.writer(fh).writerow(row.as_csv_row())
    return rows, token


# --- verification suites -----------------------------------------------------


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list


def _suite_identities(seed: int) -> SuiteReport:
    lines = []
    ok = True
    for n in (1, 2, 3):
        N = 2**n
        T = tensor.sample_tensor(n, tensor.SamplerConfig(seed=row_seed(seed, n, 0)))
        table = pauli.fourier(T)
        dense_table = pauli.fourier(tensor.Tensor3(n, T.matrix)).coefficients
        from_g_err = float(np.abs(table.coefficients - dense_table).max())
        back = pauli.inverse_fourier(table)
        rt_err = float(np.abs(back.matrix - T.matrix).max())
        fro2 = T.frobenius_norm() ** 2
        pars_err = abs(float(np.sum(np.abs(table.coefficients) ** 2)) - N**3 * fro2)
        lam, psi = tensor.top_eigenpair(T)
        w = pauli.pauli_expectations(n, psi)
        ident_err = abs(float(np.sum(table.coefficients.real * w)) - N**3 * lam)
        sn = tensor.spectral_norm(T)
        rep = game.game_from_tensor(T)
        explicit = game.entangled_bias_eval(rep.game, game.pauli_strategy(T))
        checks = [
            ("fourier from g == fourier of the built matrix", from_g_err <= 1e-12 * np.abs(dense_table).max()),
            ("fourier round trip", rt_err <= 1e-9),
            ("parseval", pars_err <= 1e-8 * N**3 * fro2),
            ("pauli strategy identity", ident_err <= 1e-8 * N**3 * sn),
            (
                "explicit strategy bias == N^3 lambda/l1",
                abs(explicit - rep.pauli_bias) <= 1e-12 * abs(rep.pauli_bias),
            ),
        ]
        if n >= 2:
            # the structured paths against the dense ones, from the same
            # starts: the classical ascent on g against the cost tensor, and
            # the ALS from g against the ALS on the built matrix
            row_s = row_seed(seed, n, 0)
            from_g, _ = game.classical_bias_heuristic(rep.game, seed=row_s)
            unsourced = game.XorGame(rep.game.Q, rep.game.pi, rep.game.signs)
            dense, _ = game.classical_bias_heuristic(unsourced, seed=row_s)
            als_g, _ = tensor.trilinear_norm_lower(T, seed=row_s)
            als_dense, _ = tensor.trilinear_norm_lower(tensor.Tensor3(n, T.matrix), seed=row_s)
            checks += [
                ("classical ascent from g == from the cost tensor", abs(from_g - dense) <= 1e-12 * dense),
                ("ALS from g == ALS on the matrix", abs(als_g - als_dense) <= 1e-12 * als_dense),
            ]
        for label, good in checks:
            ok &= good
            lines.append(f"n={n}: {label}: {'pass' if good else 'FAIL'}")
    return SuiteReport("identities", ok, lines)


def _suite_nets(seed: int) -> SuiteReport:
    lines = []
    ok = True
    rng = np.random.default_rng(seed)
    eps = 0.5
    pnet1 = nets.projector_net(2, 1, eps, seed=seed)
    worst, witness = 0.0, None
    for _ in range(2000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        d = pnet1.nearest_distance(np.outer(v, v.conj()))
        if d > worst:
            worst, witness = d, v
    good = worst <= eps
    ok &= good
    lines.append(f"projector net covering (k=1): worst {worst:.3f} <= {eps}: {'pass' if good else 'FAIL'}")
    if not good:
        lines.append(f"  witness unit vector: {witness!r}")

    snet = nets.sphere_net(2, eps, seed=seed)
    for dim_count, label in ((2, "complex"), (4, "real")):
        ref = (1.0 + 2.0 / eps) ** dim_count
        lines.append(
            f"sphere net cardinality {len(snet)} vs (1+2/eps)^{dim_count} = {ref:.0f} "
            f"({label}-dimension reading; diagnostic only)"
        )
    pnets = {k: nets.projector_net(2, k, eps, seed=seed) for k in (1, 2)}
    for k in (1, 2):
        ref = 2.0 * (5.0 / eps) ** (k * 2)
        lines.append(
            f"projector net k={k} cardinality {len(pnets[k])} vs 2(5/eps)^(kN) = {ref:.0f} "
            f"(diagnostic only)"
        )
    count = sum(
        len(pnets[k]) * len(pnets[l]) * len(pnets[m])
        for k in (1, 2)
        for l in (1, 2)
        for m in (1, 2)
    )
    streamed = nets.triple_net_size(2, eps, seed=seed)
    good = streamed == count
    ok &= good
    lines.append(f"triple net size {streamed} == product formula {count}: {'pass' if good else 'FAIL'}")

    worst, witness = 0.0, None
    elems = {k: pnets[k].elements.reshape(len(pnets[k]), -1) for k in (1, 2)}
    for _ in range(300):
        picks = []
        for _mode in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            X = np.outer(v, v.conj()) if rng.random() < 0.5 else np.eye(2) / np.sqrt(2)
            picks.append(X)
        prod = np.kron(np.kron(picks[0], picks[1]), picks[2])
        # per-factor nearest net elements certify the 3-eps product distance
        approx = []
        for X in picks:
            flat = X.reshape(-1)
            best_d, best_e = np.inf, None
            for k in (1, 2):
                d2 = np.sum(np.abs(elems[k] - flat) ** 2, axis=1)
                i = int(np.argmin(d2))
                if d2[i] < best_d:
                    best_d, best_e = d2[i], pnets[k].elements[i]
            approx.append(best_e)
        tilde = np.kron(np.kron(approx[0], approx[1]), approx[2])
        d = float(np.linalg.norm(prod - tilde))
        if d > worst:
            worst, witness = d, picks
    good = worst <= 3 * eps
    ok &= good
    lines.append(f"triple net covering: worst {worst:.3f} <= {3*eps}: {'pass' if good else 'FAIL'}")
    if not good:
        lines.append(f"  witness factors: {witness!r}")

    # the pruned net maximum against every triple of the bound's own (seed-0)
    # net, with the traces kept apart
    T = tensor.sample_tensor(1, tensor.SamplerConfig(seed=row_seed(seed, 1, 0)))
    g = T.raw_g
    E = np.concatenate([nets.projector_net(2, k, eps).elements for k in (1, 2)]).reshape(-1, 4)
    tr = E @ np.eye(2).reshape(-1)
    W = np.outer(g, g).reshape(2, 2, 2, 2, 2, 2).transpose(0, 3, 1, 4, 2, 5).reshape(4, 4, 4)
    dev = max(
        float(np.abs(E @ M @ E.T - t * np.outer(tr, tr)).max())
        for M, t in zip(np.einsum("abc,pa->pbc", W, E), tr)
    )
    full = 64.0 * np.log(2) ** 1.5 * (dev + 3 * eps * (2**1.5 + g @ g))
    got = tensor.trilinear_norm_upper_net(T, eps)
    good = abs(got - full) <= 1e-12 * full
    ok &= good
    lines.append(
        f"net upper bound {got:.6f} == every-triple maximum {full:.6f}: {'pass' if good else 'FAIL'}"
    )
    return SuiteReport("nets", ok, lines)


def _suite_lorentz(seed: int) -> SuiteReport:
    lines = []
    ok = True
    rng = np.random.default_rng(seed)
    for N in (2, 4, 8, 16):
        worst_rec, worst_l1 = 0.0, 0.0
        for _ in range(200):
            M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            H = (M + M.conj().T) / 2.0
            H /= np.linalg.norm(H) * (1.0 + rng.random())
            dec = nets.lorentz_decompose(H)
            worst_rec = max(worst_rec, float(np.abs(dec.reconstruct() - H).max()))
            worst_l1 = max(worst_l1, dec.coefficient_l1())
        bound = min(nets.coefficient_bound(N), nets.coefficient_bound_sharp(N))
        good = worst_rec <= 1e-10 and worst_l1 <= bound
        ok &= good
        lines.append(
            f"N={N}: reconstruction {worst_rec:.2e}, l1 {worst_l1:.3f} <= {bound:.3f}: "
            f"{'pass' if good else 'FAIL'}"
        )
    return SuiteReport("lorentz", ok, lines)


def _suite_tails(seed: int) -> SuiteReport:
    lines = []
    ok = True
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    A = (M + M.conj().T) / 2.0
    cases = [
        ("gaussian", {}),
        ("chi_square", {"N": 16}),
        ("quad_form_gaussian", {"A": A}),
        ("bernoulli_projection", {"a": rng.standard_normal(8), "N": 8}),
    ]
    for name, params in cases:
        rep = concentration.empirical_tail(name, params, trials=20_000, seed=seed)
        ok &= rep.passed
        lines.append(f"{name}: {'pass' if rep.passed else 'FAIL'}")
    return SuiteReport("tails", ok, lines)


def _suite_theorems(seed: int) -> SuiteReport:
    lines = []
    ok = True
    fixtures = []
    mg = game.mermin_game()
    beta_m, _ = game.classical_bias_exact(mg)
    fixtures.append(("mermin", mg, game.entangled_bias_eval(mg, game.ghz_strategy()), 2, beta_m))
    cg = game.embedded_chsh_game()
    beta_c, _ = game.classical_bias_exact(cg)
    star_c, _ = game.seesaw_entangled_bias(cg, 2, restarts=6, seed=seed)
    fixtures.append(("embedded chsh", cg, star_c, 2, beta_c))
    for idx in range(10):
        T = tensor.sample_tensor(1, tensor.SamplerConfig(seed=row_seed(seed, 1, idx)))
        rep = game.game_from_tensor(T)
        beta, _ = game.classical_bias_exact(rep.game)
        fixtures.append((f"sampled n=1 #{idx}", rep.game, rep.pauli_bias, 2, beta))
    for name, G, star_lb, d, beta in fixtures:
        qb = game.check_question_bound(G, star_lb, beta)
        db = game.check_dimension_bound(G, star_lb, d, beta)
        good = qb.ok and db.ok
        ok &= good
        lines.append(
            f"{name}: beta*={star_lb:.4f} beta={beta:.4f} "
            f"Q-bound slack {qb.slack:.4f}, d-bound slack {db.slack:.4f}: "
            f"{'pass' if good else 'FAIL'}"
        )
    return SuiteReport("theorems", ok, lines)


def _suite_spectral_lb(seed: int) -> SuiteReport:
    lines = []
    ok = True
    for n, trials in ((1, 60), (2, 40), (3, 20)):
        rep = concentration.verify_spectral_lb(n, trials=trials, seed=seed)
        monotone = bool(np.all(np.diff(rep.fraction_meeting) >= 0.0))
        finite = bool(np.all(np.isfinite(rep.ratios)))
        good = monotone and finite
        ok &= good
        lines.append(
            f"n={n}: median ratio {rep.median:.3f}, fractions {np.round(rep.fraction_meeting, 2)}: "
            f"{'pass' if good else 'FAIL'}"
        )
    return SuiteReport("spectral_lb", ok, lines)


SUITES = {
    "identities": _suite_identities,
    "nets": _suite_nets,
    "lorentz": _suite_lorentz,
    "tails": _suite_tails,
    "theorems": _suite_theorems,
    "spectral_lb": _suite_spectral_lb,
}


def verify_suite(which: str, seed: int = 0) -> SuiteReport:
    """Run one named invariant battery."""
    if which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; choose from {sorted(SUITES)}")
    return SUITES[which](seed)


# --- file summaries ----------------------------------------------------------


def show(path) -> str:
    """Human-readable summary of a tensor file, game CSV, or gap CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == b"XGT1":
        T = tensor.load_tensor(path)
        return (
            f"tensor file: n={T.n} N={T.N} hermitian={T.is_hermitian()} "
            f"frobenius={T.frobenius_norm():.6g} raw_g={'yes' if T.raw_g is not None else 'no'}"
        )
    try:
        head.decode("ascii", errors="strict")
    except UnicodeDecodeError:
        raise ValueError(f"unrecognized file format: {path}")
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    if header == ["q1", "q2", "q3", "pi", "sign"]:
        G = game.load_game_csv(path)
        support = int(np.count_nonzero(G.pi))
        pos = G.pi[G.pi > 0]
        return (
            f"game CSV: Q={G.Q} support={support} "
            f"min_pi={pos.min():.6g} max_pi={pos.max():.6g}"
        )
    if header == GAP_COLUMNS:
        rows = read_gap_csv(path)
        out = ["gap CSV: ratio_estimate quantiles per n"]
        for n in sorted({r.n for r in rows}):
            vals = np.array([r.ratio_estimate for r in rows if r.n == n])
            out.append(
                f"  n={n}: count={vals.size} q25={np.quantile(vals, 0.25):.4f} "
                f"median={np.median(vals):.4f} q75={np.quantile(vals, 0.75):.4f}"
            )
        return "\n".join(out)
    raise ValueError(f"unrecognized file format: {path}")
