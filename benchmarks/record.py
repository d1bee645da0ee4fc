"""Run the benchmark over several seeds and record the spread as BENCH_<label>.json.

    python3 benchmarks/record.py --label baseline --seeds 1-10

Every workload in BENCHMARK.json is run.  Runs are sequential, so the load
comes from one benchmark process at a time.  For every metric the record
keeps each run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, beside the machine metadata of the first run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = {"label": args.label, "run_seconds": bench["run_seconds"], "workloads": {}}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
            record.setdefault("meta", {k: v for k, v in meta.items() if k not in ("workload", "seed")})
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        summary = {}
        for name in runs[0]["metrics"] if runs else []:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "values": vals,
            }
            print(f"  {workload} {name}: median {med:.6g} spread {summary[name]['spread']:.4f}", flush=True)
        record["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summary,
        }
    with open(os.path.join(HERE, f"BENCH_{args.label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
