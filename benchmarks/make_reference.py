"""Write reference.json: every pool item's rows for the default workload seed.

    python3 benchmarks/make_reference.py

Run it only when a change to the program is meant to change these values,
and say so in the change; the benchmark compares every run's rows with them.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads as wl

    inputs = os.path.join(ROOT, ".bench_out", "reference-inputs")
    os.makedirs(inputs, exist_ok=True)
    out = {}
    try:
        for workload in wl.WORKLOADS:
            if wl.needs_inputs(workload):
                wl.write_general_inputs(wl.DEFAULT_SEED, inputs)
            out[workload] = {
                str(key): wl.run_item(workload, wl.DEFAULT_SEED, key, inputs)[0]
                for key in wl.pool(workload, wl.DEFAULT_SEED)
            }
            print(f"{workload}: {len(out[workload])} items", flush=True)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
