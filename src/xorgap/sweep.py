"""Pipeline sweeps, verification suites, and file summaries.

The gap sweep runs sample -> norms -> game -> biases per row and
emits CSV; verification suites re-run each module's invariant battery and
report pass/fail lines.
"""

from __future__ import annotations

import csv
import os
import tempfile
import time
from dataclasses import dataclass, fields

import numpy as np

from . import concentration, game, nets, pauli, tensor

RATIO_BOUND_FACTOR = 4.0  # loss budgeted for hermitization
ROW_NET_EPS = 0.5  # resolution of a row's net upper bound


@dataclass
class GapRow:
    """One sampled tensor's norms and biases.

    trilinear_lower is a certified lower bound on the trilinear norm, the
    value of an evaluated witness: at n = 1 it is the exact norm, solved in
    closed form, and above that the ALS's best value.  trilinear_upper is
    the net's certified upper bound.

    ratio_estimate is pauli_bias / classical_bias: a certified lower bound on
    the entangled-to-classical ratio exactly when the classical bias is exact
    (classical_method == "exact"); otherwise the denominator is itself a lower
    bound, so the ratio is an estimate that overstates the true one.
    prop31_lower, present when the net upper bound is, is
    spectral / (4 N^{3/2} trilinear_upper).
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
    resolution ROW_NET_EPS.  At n = 1 the top eigenpair and the trilinear
    norm are closed forms (see `tensor.top_eigenpair` and
    `tensor.trilinear_norm_lower`), so trilinear_lower is the exact norm and
    the row runs no Lanczos and no ALS.  At n = 2 the ALS runs on the
    tensor's real Pauli table, and above that it contracts g.  The classical bias is
    chosen here.  Up to N = `tensor._TABLE_MAX_N` the row builds the game
    (`game.game_from_tensor`): the n = 1 game is enumerated exactly and the
    n = 2 game gets the heuristic on its signed table.  Above that the
    row builds no game and forms no Q^3 array: the heuristic ascends on g
    (`game.classical_value`) for its value v on the unnormalized table, l1
    is streamed from g over blocks of player 1's questions
    (`game.l1_from_g`, equal bit for bit to the game's `l1_norm`), and
    classical_bias is v / l1.  pauli_bias is N^3 lambda / l1 either way,
    from the cached top eigenpair.
    """
    N = 2**n
    T = tensor.sample_tensor(n, tensor.SamplerConfig(seed=sample_seed))
    spectral = tensor.spectral_norm(T)
    lower, _ = tensor.trilinear_norm_lower(T, seed=sample_seed)
    upper = None
    if N == 2:
        upper = tensor.trilinear_norm_upper_net(T, ROW_NET_EPS)
    if N <= tensor._TABLE_MAX_N:
        report = game.game_from_tensor(T)
        pauli_bias = report.pauli_bias
        classical, _, method = game.classical_bias(report.game, seed=sample_seed)
    else:
        l1 = game.l1_from_g(T)
        pauli_bias = game._pauli_bias(T, l1)
        classical = game.classical_value(T, sample_seed)[0] / l1
        method = "heuristic"
    ratio = pauli_bias / classical
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
        pauli_bias=pauli_bias,
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

    Raises ValueError, before computing any row or touching `out`, when
    n_list is empty, when samples_per_n < 1, when seed < 0, when budget_s is
    negative or NaN (a NaN budget would never stop the sweep), or when
    resuming without `out` or from a file that is not a prefix of this
    seed's grid.
    """
    n_list = sorted(set(n_list))
    if not n_list:
        raise ValueError("n_list must name at least one n")
    if any(n not in (1, 2, 3, 4) for n in n_list):
        raise ValueError("sweep sizes are limited to n in {1, 2, 3, 4}")
    if samples_per_n < 1:
        raise ValueError("samples per n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        # the built matrix against the dense basis, independent of fourier
        Bc = pauli.build_basis(n).conj()
        dense_table = np.einsum("pia,qjb,rkc,ijkabc->pqr", Bc, Bc, Bc, T.matrix.reshape((N,) * 6), optimize=True)
        from_g_err = float(np.abs(table - dense_table).max())
        back = pauli.inverse_fourier(table)
        rt_err = float(np.abs(back.matrix - T.matrix).max())
        fro2 = T.frobenius_norm() ** 2
        pars_err = abs(float(np.sum(np.abs(table) ** 2)) - N**3 * fro2)
        lam, psi = tensor.top_eigenpair(T)
        w = pauli.pauli_expectations(n, psi)
        ident_err = abs(float(np.sum(table.real * w)) - N**3 * lam)
        sn = tensor.spectral_norm(T)
        rep = game.game_from_tensor(T)
        explicit = game.entangled_bias_eval(rep.game, game.pauli_strategy(T))
        checks = [
            ("fourier from g == dense basis contraction", from_g_err <= 1e-12 * np.abs(dense_table).max()),
            ("fourier round trip", rt_err <= 1e-9),
            ("parseval", pars_err <= 1e-8 * N**3 * fro2),
            ("pauli strategy identity", ident_err <= 1e-8 * N**3 * sn),
            (
                "explicit strategy bias == N^3 lambda/l1",
                abs(explicit - rep.pauli_bias) <= 1e-12 * abs(rep.pauli_bias),
            ),
        ]
        if n == 1:
            # the closed forms of a sampled N = 2 tensor (no Lanczos, no ALS)
            # against a dense eigensolve, and against the table ALS on the
            # built matrix (no g, so it ascends) and the net upper bound
            dense_top = float(np.linalg.eigvalsh(T.matrix)[-1])
            exact, _ = tensor.trilinear_norm_lower(T)
            als, _ = tensor.trilinear_norm_lower(tensor.Tensor3(n, T.matrix), seed=row_seed(seed, n, 0))
            upper = tensor.trilinear_norm_upper_net(T, ROW_NET_EPS)
            checks += [
                ("closed-form lambda == top of dense eigvalsh", abs(lam - dense_top) <= 1e-12 * abs(dense_top)),
                (
                    "closed-form trilinear norm >= table ALS on the built matrix, <= net upper bound",
                    exact >= als * (1.0 - 1e-12) and exact <= upper,
                ),
            ]
        if n <= 2:
            # the Lanczos on M M^H of a general tensor's sigma_1 against a
            # dense SVD, which runs here only
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, n)))
            M = rng.standard_normal((N**3, N**3)) + 1j * rng.standard_normal((N**3, N**3))
            G = tensor.Tensor3(n, M)
            sigma, _ = tensor._top_singular(G)
            svd_sigma = float(np.linalg.svd(M, compute_uv=False)[0])
            checks.append(
                ("sigma_1 of a general tensor by Lanczos on M M^H == SVD", abs(sigma - svd_sigma) <= 1e-12 * svd_sigma)
            )
        if n == 2:
            # the same general tensor's table by XOR offsets against the
            # dense basis, and its game's closed-form bias against the
            # explicit strategy evaluated on that game
            general_table = pauli.fourier(G)
            want = np.einsum("pia,qjb,rkc,ijkabc->pqr", Bc, Bc, Bc, M.reshape((N,) * 6), optimize=True)
            general_rep = game.game_from_tensor(G)
            g_explicit = game.entangled_bias_eval(general_rep.game, game.pauli_strategy(G))
            checks += [
                (
                    "fourier of a general tensor == dense basis contraction",
                    float(np.abs(general_table - want).max()) <= 1e-12 * np.abs(want).max(),
                ),
                (
                    "general tensor: explicit strategy bias == N^3 lambda/l1",
                    abs(g_explicit - general_rep.pauli_bias) <= 1e-12 * abs(general_rep.pauli_bias),
                ),
            ]
            # the game is its one signed table: pi and signs derived from it
            # give it back bit for bit, and so does a CSV save -> load
            cost = rep.game.cost
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "game.csv")
                game.save_game_csv(path, rep.game)
                loaded = game.load_game_csv(path).cost
            checks.append(
                (
                    "game: sum |cost| == 1, pi * signs == cost, CSV round trip == cost",
                    abs(float(np.abs(cost).sum()) - 1.0) <= 1e-12
                    and (rep.game.pi * rep.game.signs).tobytes() == cost.tobytes()
                    and loaded.tobytes() == cost.tobytes(),
                )
            )
        if n >= 2:
            # the structured paths against the dense ones, from the same
            # starts: the classical ascent on g against the game's signed
            # table, and the sampled tensor's ALS (on its Pauli table from
            # g at small N, on the g maps above) against the ALS on the
            # Pauli table of the built matrix
            row_s = row_seed(seed, n, 0)
            from_g = game.classical_value(T, seed=row_s)[0] / rep.l1_norm
            dense, _ = game.classical_bias_heuristic(rep.game, seed=row_s)
            als_s, _ = tensor.trilinear_norm_lower(T, seed=row_s)
            als_dense, _ = tensor.trilinear_norm_lower(tensor.Tensor3(n, T.matrix), seed=row_s)
            als_from = "on the Pauli table from g" if N <= tensor._TABLE_MAX_N else "on the g maps"
            checks += [
                ("gap row l1 from g blocks == game l1", game.l1_from_g(T) == rep.l1_norm),
                ("classical ascent from g == from the cost tensor", abs(from_g - dense) <= 1e-12 * dense),
                (
                    f"ALS {als_from} == ALS on the Pauli table of the built matrix",
                    abs(als_s - als_dense) <= 1e-12 * als_dense,
                ),
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
    flat1 = nets.projector_net(1, eps, seed=seed).reshape(-1, 4)  # the rank-1 elements, flattened
    worst, witness = 0.0, None
    for _ in range(2000):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        # the distance to the nearest rank-1 element
        d = float(np.sqrt(np.sum(np.abs(flat1 - np.outer(v, v.conj()).reshape(1, -1)) ** 2, axis=1).min()))
        if d > worst:
            worst, witness = d, v
    good = worst <= eps
    ok &= good
    lines.append(f"projector net covering (k=1): worst {worst:.3f} <= {eps}: {'pass' if good else 'FAIL'}")
    if not good:
        lines.append(f"  witness unit vector: {witness!r}")

    snet = nets.sphere_net(eps, seed=seed)
    for dim_count, label in ((2, "complex"), (4, "real")):
        ref = (1.0 + 2.0 / eps) ** dim_count
        lines.append(
            f"sphere net cardinality {len(snet)} vs (1+2/eps)^{dim_count} = {ref:.0f} "
            f"({label}-dimension reading; diagnostic only)"
        )
    pnets = {k: nets.projector_net(k, eps, seed=seed) for k in (1, 2)}
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
    streamed = nets.triple_net_size(eps, seed=seed)
    good = streamed == count
    ok &= good
    lines.append(f"triple net size {streamed} == product formula {count}: {'pass' if good else 'FAIL'}")

    worst, witness = 0.0, None
    elems = {k: pnets[k].reshape(len(pnets[k]), -1) for k in (1, 2)}
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
                    best_d, best_e = d2[i], pnets[k][i]
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
    E = np.concatenate([nets.projector_net(k, eps) for k in (1, 2)]).reshape(-1, 4)
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
    for n, trials in ((1, 60), (2, 40), (3, 20), (4, 16), (5, 8), (6, 4)):
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
        pi = G.pi
        pos = pi[pi > 0]
        return (
            f"game CSV: Q={G.Q} support={pos.size} "
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
