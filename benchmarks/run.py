"""The xorgap benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload sweep-small --seed 0 --seconds 12 --trace 0

Run from anywhere; paths resolve against this file.  --trace 0 times the
untraced program and reports the end-to-end metrics; --trace 1 runs each
item of a fixed list with and without the tracer and reports the per-layer
metrics.  Every item's rows are checked (stored references, runtime
identities, bit-identical repeats); any failure makes the exit code 1.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 3  # cold processes per run, the timed one included
DEADLINE_S = 170.0  # a run never outlives this


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Worker processes of one benchmark run, the items they ran and which failed."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.count = 0

    def worker(self, *extra):
        self.count += 1
        out = os.path.join(self.work, f"worker-{self.count}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--out", out,
            "--inputs", os.path.join(self.work, "inputs"),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark deadline passed")
        subprocess.run(cmd, check=True, timeout=remaining, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return json.load(fh)

    def fail(self, messages) -> None:
        """One failed item (or step), with its reasons."""
        self.failed += 1
        self.messages += messages

    def check(self, res, references) -> dict:
        """Count and check the items of one worker result; returns rows by key."""
        import workloads

        items = [res["cold"]] + res.get("warm", []) + res.get("plain", [])
        identity = res.get("identity_failures", {})
        self.attempted += len(items)
        self.messages += res["errors"]
        first = {}
        for rec in items:
            key = rec["key"]
            if rec["rows"] is None:
                self.failed += 1  # its exception is already in res["errors"]
                continue
            msgs = []
            if key in first:
                if rec["rows"] != first[key]:
                    msgs.append("repeat differs from first computation")
            else:
                first[key] = rec["rows"]
                msgs += identity.get(str(key), [])
                if references is not None:
                    ref = references.get(str(key))
                    msgs += ["no stored reference"] if ref is None else workloads.reference_failures(rec["rows"], ref)
            if msgs:
                self.fail([f"key {key}: {m}" for m in msgs])
        if "csv_ok" in res:
            self.attempted += 1
            if not res["csv_ok"]:
                self.fail(["gap CSV round trip changed rows"])
        return first

    def same_rows(self, a, b, what) -> None:
        for key in sorted(set(a) & set(b)):
            if a[key] != b[key]:
                self.fail([f"key {key}: {what} rows differ"])


def _metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _tail(times):
    import workloads

    p = workloads.tail_percentile(len(times))
    if p is None:
        return None
    return p, statistics.quantiles(times, n=1000, method="inclusive")[round(p * 10) - 1], len(times)


def untraced(run, references):
    """End-to-end metrics: set-up in fresh processes, then a timed warm window."""
    args = run.args
    setups = []
    cold_rows = []
    for _ in range(SETUP_SAMPLES - 1):
        res = run.worker()
        setups.append(res["setup_s"])
        cold_rows.append(run.check(res, references))
    res = run.worker("--seconds", str(args.seconds), "--check")
    setups.append(res["setup_s"])
    rows = run.check(res, references)
    for other in cold_rows:
        run.same_rows(other, rows, "set-up and timed process")
    times = [rec["s"] for rec in res["warm"]]
    if not times:
        run.fail(["no warm item ran"])
        times = [res["warm_wall_s"]]
    metrics = {
        "items_per_s": (len(res["warm"]) / res["warm_wall_s"], "1/s"),
        "item_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [f"{len(times)} warm items; setup samples {', '.join(f'{s:.4f}' for s in setups)} s"]
    tail = _tail(times)
    if tail is None:
        notes.append(f"item_s_tail omitted: {len(times)} items leave fewer than 10 beyond any percentile")
    else:
        p, value, count = tail
        notes.append(f"item_s_tail = {value:.6f} s (p{p:g} of {count} items)")
    return metrics, notes


def traced(run, references):
    """Per-layer metrics: a fixed key list, each item traced and untraced."""
    import tracing
    import workloads

    args = run.args
    keys = workloads.warm_keys(args.workload, args.seed, workloads.TRACE_ITEMS[args.workload])
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    res = run.worker("--keys", ",".join(str(k) for k in keys), "--trace", spans, "--check")
    # a traced item's rows must be bit-identical to the same item's untraced
    # rows; check() holds every repeat to the first computation of its key
    run.check(res, references)
    metrics = {name: (res["layers"].get(name, 0.0), unit) for name, unit, _ in tracing.layer_metric_names()}
    traced_s = sum(rec["s"] for rec in res["warm"])
    plain_s = sum(rec["s"] for rec in res["plain"])
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    notes = [f"{len(keys)} items, each traced and untraced; spans in {os.path.relpath(spans, ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "xorgap", "__init__.py")):
        print("benchmark: no xorgap sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    references = None
    if workloads.references_apply(args.workload, args.seed):
        with open(REFERENCE) as fh:
            references = json.load(fh)[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(os.path.join(work, "inputs"))
    run = Run(args, work)
    try:
        if workloads.needs_inputs(args.workload):
            workloads.write_general_inputs(args.seed, os.path.join(work, "inputs"))
        metrics, notes = (traced if args.trace else untraced)(run, references)
    except (subprocess.SubprocessError, TimeoutError, OSError) as exc:
        print(f"benchmark: run aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = _metadata(args)
    if references is None:
        notes.append("non-default seed: identity checks only, no stored references")
    print("meta " + json.dumps(meta))
    for line in notes:
        print(f"{args.workload}: {line}")
    failed = min(run.failed, run.attempted)
    fail_frac = failed / max(run.attempted, 1)
    for msg in run.messages:
        print(f"{args.workload}: FAIL {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(f"{args.workload}: fail_frac = {fail_frac:.6g} ratio ({failed} of {run.attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
