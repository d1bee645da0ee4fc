"""Workload definitions: inputs from the workload seed, one item, and its checks.

Each workload owns a fixed, ordered pool of item keys derived from the
workload seed.  A run computes the first key cold (set-up) and then goes
through the pool warm in whole passes, so every run weighs each item alike.
Items only call the public API of ``xorgap`` through module attributes
(``tensor.spectral_norm`` rather than a bound name), so the tracer can swap
those attributes.
"""

from __future__ import annotations

import math
import os

import numpy as np

from xorgap import game, sweep, tensor

WORKLOADS = ("sweep-small", "row-n3", "general-n3")
DEFAULT_SEED = 0

# Pool sizes: one warm pass takes about 15-21 s on a 2-core machine.  row-n3
# keeps a fixed set of row seeds because its ALS sweep count varies 3x from
# row to row (484-1518 sweeps measured) and a pass holds only five rows;
# fresh rows per seed would make input cost the largest spread.
SWEEP_POOL = 32
ROW_POOL = 5
ROW_MASTER_SEED = DEFAULT_SEED
GENERAL_POOL = 3

# Fixed key lists replayed by the traced run, so per-layer counts repeat
# exactly for a seed: about five seconds of work each on a 2-core machine.
TRACE_ITEMS = {"sweep-small": 12, "row-n3": 1, "general-n3": 1}

GENERAL_N = 3
GENERAL_ALS_RESTARTS = 8
GENERAL_HEURISTIC_RESTARTS = 32

REL_TOL = 1e-9


def pool(workload: str, seed: int) -> list[int]:
    """Ordered item keys; the first is the cold (set-up) item."""
    if workload == "sweep-small":
        return list(range(SWEEP_POOL))
    if workload == "row-n3":
        # row 0 always goes first so set-up times one fixed row; the seed
        # orders the rest
        rest = np.random.default_rng(seed).permutation(np.arange(1, ROW_POOL))
        return [0] + [int(k) for k in rest]
    if workload == "general-n3":
        return list(range(GENERAL_POOL))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warm_keys(workload: str, seed: int, count: int) -> list[int]:
    """The first `count` warm keys: the pool after the cold key, cycled."""
    keys = pool(workload, seed)
    order = keys[1:] + keys[:1]
    return [order[i % len(order)] for i in range(count)]


def needs_inputs(workload: str) -> bool:
    return workload == "general-n3"


def general_path(inputs_dir: str, key: int) -> str:
    return os.path.join(inputs_dir, f"general-{key}.xgt1")


def write_general_inputs(seed: int, inputs_dir: str) -> None:
    """Seeded non-Hermitian complex N^3 x N^3 tensors as XGT1 files (no raw g)."""
    N = 2**GENERAL_N
    for key in range(GENERAL_POOL):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, key)))
        M = rng.standard_normal((N**3, N**3)) + 1j * rng.standard_normal((N**3, N**3))
        tensor.save_tensor(general_path(inputs_dir, key), tensor.Tensor3(GENERAL_N, M))


def _row_values(row: sweep.GapRow) -> dict:
    return {
        "n": row.n,
        "seed": row.seed,
        "spectral": row.spectral,
        "trilinear_lower": row.trilinear_lower,
        "trilinear_upper": row.trilinear_upper,
        "classical_bias": row.classical_bias,
        "classical_method": row.classical_method,
        "pauli_bias": row.pauli_bias,
    }


def run_item(workload: str, seed: int, key: int, inputs_dir: str | None = None):
    """Compute one item.  Returns (row value dicts, GapRows for the CSV step)."""
    if workload == "sweep-small":
        rows = [sweep.compute_gap_row(n, sweep.row_seed(seed, n, key)) for n in (1, 2)]
        return [_row_values(r) for r in rows], rows
    if workload == "row-n3":
        row = sweep.compute_gap_row(3, sweep.row_seed(ROW_MASTER_SEED, 3, key))
        return [_row_values(row)], [row]
    # general-n3: the CLI's norms, game and bias steps on one file
    T = tensor.load_tensor(general_path(inputs_dir, key))
    spectral = tensor.spectral_norm(T)
    lower, _ = tensor.trilinear_norm_lower(T, restarts=GENERAL_ALS_RESTARTS)
    report = game.game_from_tensor(T)
    classical, _ = game.classical_bias_heuristic(
        report.game, restarts=GENERAL_HEURISTIC_RESTARTS
    )
    pauli_bias = game.entangled_bias_eval(report.game, game.pauli_strategy(tensor.hermitize(T)))
    values = {
        "n": GENERAL_N,
        "seed": key,
        "spectral": spectral,
        "trilinear_lower": lower,
        "trilinear_upper": None,
        "classical_bias": classical,
        "classical_method": "heuristic",
        "pauli_bias": pauli_bias,
    }
    return [values], []


def _source_tensor(workload: str, row: dict, inputs_dir: str | None):
    if workload == "general-n3":
        return tensor.load_tensor(general_path(inputs_dir, row["seed"]))
    return tensor.sample_tensor(row["n"], tensor.SamplerConfig(seed=row["seed"]))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def identity_failures(workload: str, rows: list, inputs_dir: str | None = None) -> list[str]:
    """Runtime identities of one item's rows; returns one message per failure.

    pauli_bias = N^3 lambda / l1 (lambda the top eigenvalue of the hermitized
    tensor, l1 the game's normalization), trilinear_lower <= trilinear_upper
    where the upper bound exists, and the question bound
    |pauli_bias| <= sqrt(Q) K_R classical_bias.
    """
    out = []
    for row in rows:
        T = _source_tensor(workload, row, inputs_dir)
        report = game.game_from_tensor(T)
        lam, _ = tensor.top_eigenpair(tensor.hermitize(T))
        expected = T.N**3 * lam / report.l1_norm
        tag = f"n={row['n']} seed={row['seed']}"
        if not _close(row["pauli_bias"], expected):
            out.append(f"{tag}: pauli_bias {row['pauli_bias']!r} != N^3 lambda/l1 {expected!r}")
        upper = row["trilinear_upper"]
        if upper is not None and not row["trilinear_lower"] <= upper:
            out.append(f"{tag}: trilinear_lower {row['trilinear_lower']!r} > upper {upper!r}")
        qb = game.check_question_bound(report.game, abs(row["pauli_bias"]), row["classical_bias"])
        if not qb.ok:
            out.append(f"{tag}: question bound fails (slack {qb.slack!r})")
    return out


def reference_failures(rows: list, ref_rows: list) -> list[str]:
    """Compare one item's rows with stored reference rows.

    Exact and certified columns match within REL_TOL relative; heuristic lower
    bounds may not fall below the reference by more than REL_TOL relative.
    """
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    out = []
    for row, ref in zip(rows, ref_rows):
        tag = f"n={row['n']} seed={row['seed']}"
        for col in ("n", "seed", "classical_method"):
            if row[col] != ref[col]:
                out.append(f"{tag}: {col} {row[col]!r} != reference {ref[col]!r}")
        exact = ["spectral", "trilinear_upper", "pauli_bias"]
        lower = ["trilinear_lower"]
        (exact if ref["classical_method"] == "exact" else lower).append("classical_bias")
        for col in exact:
            a, b = row[col], ref[col]
            if (a is None) != (b is None) or (a is not None and not _close(a, b)):
                out.append(f"{tag}: {col} {a!r} != reference {b!r}")
        for col in lower:
            a, b = row[col], ref[col]
            if a < b - REL_TOL * abs(b):
                out.append(f"{tag}: {col} {a!r} below reference {b!r}")
    return out


def references_apply(workload: str, seed: int) -> bool:
    """Stored references cover the default seed, and row-n3 at every seed."""
    return seed == DEFAULT_SEED or workload == "row-n3"


def tail_percentile(count: int) -> float | None:
    """Highest of the usual percentiles with at least ten items beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count - math.ceil(count * p / 100.0) >= 10:
            return p
    return None
