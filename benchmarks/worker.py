"""One benchmark process: import xorgap cold, run the first item, then warm items.

Usage (run.py starts it; it writes one JSON result file):

    python3 benchmarks/worker.py --workload W --seed S --out RESULT.json
        [--seconds X | --keys K1,K2,...] [--inputs DIR] [--check]
        [--trace SPANS.jsonl]

The clock for ``setup_s`` starts before ``import xorgap`` (which imports
numpy), so nothing here may import numpy ahead of it.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--keys", default=None, help="comma-separated warm keys (replaces --seconds)")
    p.add_argument("--inputs", default=None, help="directory of general-n3 input files")
    p.add_argument("--check", action="store_true", help="run the identity checks after timing")
    p.add_argument("--trace", default=None, help="trace every item; write spans to this file")
    return p.parse_args(argv)


def _attempt(run, item_id):
    """Run one item; returns (seconds, rows, csv rows, error message or None)."""
    t = time.perf_counter()
    try:
        rows, gap_rows = run()
    except Exception as exc:  # one failed item must not stop the run
        return time.perf_counter() - t, None, [], f"item {item_id}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - t, rows, gap_rows, None


def _passes(order, seconds):
    """Yield keys in whole passes over `order`, starting passes until `seconds` have passed."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        yield from order


def _items(args, wl, tracer, t0) -> dict:
    """The cold item, then the warm items; fills the result dict.

    With a tracer, each warm item runs twice, traced and untraced; the
    traced runs go to ``warm`` and the untraced ones to ``plain``.
    """

    def traced(label):
        """The tracer installed, its spans tagged `label`; nothing without one."""
        if tracer is None:
            return contextlib.nullcontext()
        tracer.item = label
        return tracer

    result = {"errors": []}
    inputs = args.inputs
    if tracer is not None and wl.needs_inputs(args.workload):
        # the traced process writes its own copy, so save_tensor is traced
        inputs = os.path.join(os.path.dirname(args.out), "traced-inputs")
        os.makedirs(inputs, exist_ok=True)
        with traced(tracer.INPUTS_ITEM):
            wl.write_general_inputs(args.seed, inputs)
    result["inputs"] = inputs

    def item(key):
        return lambda: wl.run_item(args.workload, args.seed, key, inputs)

    keys = wl.pool(args.workload, args.seed)
    with traced(tracer.SETUP_ITEM if tracer else None):
        cold_s, cold_rows, _, err = _attempt(item(keys[0]), "cold")
    result["setup_s"] = time.perf_counter() - t0
    result["cold"] = {"key": keys[0], "s": cold_s, "rows": cold_rows}
    if err:
        result["errors"].append(err)

    if args.keys is not None:
        plan = [int(k) for k in args.keys.split(",") if k]
    else:
        plan = _passes(wl.warm_keys(args.workload, args.seed, len(keys)), args.seconds)
    warm = []
    plain = []
    gap_rows = []
    start = time.perf_counter()
    for i, key in enumerate(plan):
        # with a tracer the item also runs untraced, first on even i and
        # second on odd i, so drift cancels in trace.overhead_frac
        runs = (False,) if tracer is None else (True, False) if i % 2 else (False, True)
        for with_tracer in runs:
            with traced(i) if with_tracer else contextlib.nullcontext():
                s, rows, grs, err = _attempt(item(key), i)
            rec = {"key": key, "s": s, "rows": rows}
            if with_tracer or tracer is None:
                warm.append(rec)
                gap_rows += grs
            else:
                plain.append(rec)
            if err:
                result["errors"].append(err)
    loop_s = time.perf_counter() - start

    csv_s = 0.0
    if args.workload == "sweep-small" and warm:
        path = os.path.join(os.path.dirname(args.out), f"gap-{os.getpid()}.csv")
        with traced("csv"):
            t = time.perf_counter()
            wl.sweep.write_gap_csv(path, gap_rows)
            back = wl.sweep.read_gap_csv(path)
            csv_s = time.perf_counter() - t
        os.remove(path)
        result["csv_ok"] = [r.as_csv_row() for r in back] == [r.as_csv_row() for r in gap_rows]
    result["warm"] = warm
    if tracer is None:
        result["warm_wall_s"] = loop_s + csv_s
    else:
        result["plain"] = plain
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    t0 = time.perf_counter()
    import xorgap  # noqa: F401  (timed: the package import is part of set-up)

    import_s = time.perf_counter() - t0
    import workloads as wl

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        result = _items(args, wl, tracer, t0)
        tracer.write_spans(args.trace)
        result["layers"] = tracer.layer_metrics()
    else:
        result = _items(args, wl, None, t0)
    result["import_s"] = import_s

    if args.check:
        # identities run after timing, once per distinct key
        seen = {}
        for rec in [result["cold"]] + result["warm"] + result.get("plain", []):
            if rec["rows"] is not None:
                seen.setdefault(rec["key"], rec["rows"])
        checks = {}
        for key, rows in seen.items():
            try:
                checks[str(key)] = wl.identity_failures(args.workload, rows, result["inputs"])
            except Exception as exc:  # a check that cannot run is a failed check
                checks[str(key)] = [f"identity check raised {type(exc).__name__}: {exc}"]
        result["identity_failures"] = checks

    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
