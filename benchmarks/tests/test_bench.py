"""The benchmark's own tests.

    python3 -m pytest -q benchmarks/tests

They take about a minute and a half on a 2-core machine (each n=1 cold start
builds the projector net, each n=3 item runs the full ALS).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def _worker(tmp_path, workload, keys, *extra):
    out = tmp_path / "result.json"
    inputs = tmp_path / "inputs"
    inputs.mkdir(exist_ok=True)
    if wl.needs_inputs(workload):
        wl.write_general_inputs(wl.DEFAULT_SEED, str(inputs))
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", workload, "--seed", str(wl.DEFAULT_SEED), "--out", str(out),
        "--inputs", str(inputs), "--keys", ",".join(map(str, keys)), *extra,
    ]
    subprocess.run(cmd, check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_each_workload(tmp_path, workload):
    """Cold item plus one warm item in a worker process; rows match the references."""
    key = wl.warm_keys(workload, wl.DEFAULT_SEED, 1)[0]
    res = _worker(tmp_path, workload, [key], "--check")
    assert res["errors"] == []
    assert res["setup_s"] > res["import_s"] > 0
    assert res["peak_rss_mb"] > 0
    assert all(msgs == [] for msgs in res["identity_failures"].values())
    for rec in [res["cold"]] + res["warm"]:
        assert wl.reference_failures(rec["rows"], REFERENCE[workload][str(rec["key"])]) == []
    if workload == "sweep-small":
        assert res["csv_ok"] is True


def test_run_prints_every_end_to_end_metric():
    bench = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "sweep-small",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # three cold items, whole warm passes, the CSV step
    assert (result["attempted"] - 4) % wl.SWEEP_POOL == 0 and result["attempted"] > 4
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert any("fail_frac = 0" in ln for ln in lines)
    assert any("item_s_tail" in ln for ln in lines)


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == tracing.layer_metric_names()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "benchmarks/run.py", "--workload", "row-n3", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "xorgap"}


@pytest.mark.parametrize("workload", ["sweep-small", "general-n3"])
def test_traced_rows_are_bit_identical_and_originals_return(tmp_path, workload):
    wl.write_general_inputs(wl.DEFAULT_SEED, str(tmp_path))
    key = wl.pool(workload, wl.DEFAULT_SEED)[0]
    plain, _ = wl.run_item(workload, wl.DEFAULT_SEED, key, str(tmp_path))
    before = _namespaces()
    with tracing.Tracer() as tracer:
        tracer.item = 0
        traced, _ = wl.run_item(workload, wl.DEFAULT_SEED, key, str(tmp_path))
        assert wl.tensor.spectral_norm is not before["xorgap.tensor"]["spectral_norm"]
    assert traced == plain
    after = _namespaces()
    for name, attrs in before.items():
        for attr, val in attrs.items():
            assert after[name][attr] is val, f"{name}.{attr} not restored"

    metrics = tracer.layer_metrics()
    assert metrics["tensor.trilinear_norm_lower.calls"] >= 1
    assert metrics["tensor.trilinear_norm_lower.sweeps"] > 0
    assert 0 < metrics["tensor.trilinear_norm_lower.restart_agree_frac"] <= 1
    for mod, names in tracing.TRACED.items():
        for fn in names:
            s, self_s = metrics[f"{mod}.{fn}.s"], metrics[f"{mod}.{fn}.self_s"]
            assert 0 <= self_s <= s + 1e-12
    # self times partition the time spent under the root spans
    roots = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent is None)
    total_self = sum(metrics[f"{mod}.{fn}.self_s"] for mod, names in tracing.TRACED.items() for fn in names)
    assert total_self == pytest.approx(roots, rel=1e-9)


def test_traced_worker_runs_each_item_both_ways(tmp_path):
    """The traced process runs every listed item traced and untraced, with equal rows."""
    keys = wl.warm_keys("sweep-small", wl.DEFAULT_SEED, 2)
    spans = tmp_path / "spans.jsonl"
    res = _worker(tmp_path, "sweep-small", keys, "--trace", str(spans), "--check")
    assert res["errors"] == []
    assert [r["key"] for r in res["warm"]] == [r["key"] for r in res["plain"]] == keys
    for traced, plain in zip(res["warm"], res["plain"]):
        assert traced["rows"] == plain["rows"]
    assert res["layers"]["sweep.compute_gap_row.calls"] == 2 * len(keys)
    assert res["layers"]["sweep.write_gap_csv.calls"] == 1
    items = {json.loads(line)["item"] for line in spans.read_text().splitlines()}
    assert items == {tracing.Tracer.SETUP_ITEM, 0, 1, "csv"}


def test_tracer_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(ValueError):
        with tracing.Tracer():
            wl.tensor.sample_tensor(1, wl.tensor.SamplerConfig(distribution="override", override_g=[1.0]))
    after = _namespaces()
    for name, attrs in before.items():
        for attr, val in attrs.items():
            assert after[name][attr] is val


def test_reference_gate():
    ref = REFERENCE["row-n3"]["0"]
    assert wl.reference_failures(ref, ref) == []
    bumped = [dict(ref[0], spectral=ref[0]["spectral"] * (1 + 1e-8))]
    assert wl.reference_failures(bumped, ref)
    lower = [dict(ref[0], trilinear_lower=ref[0]["trilinear_lower"] * (1 - 1e-8))]
    assert wl.reference_failures(lower, ref)
    higher = [dict(ref[0], trilinear_lower=ref[0]["trilinear_lower"] * (1 + 1e-3))]
    assert wl.reference_failures(higher, ref) == []


def test_identity_check_catches_a_wrong_pauli_bias():
    rows, _ = wl.run_item("sweep-small", wl.DEFAULT_SEED, 0)
    assert wl.identity_failures("sweep-small", rows) == []
    wrong = [dict(rows[0], pauli_bias=rows[0]["pauli_bias"] * (1 + 1e-6))]
    assert wl.identity_failures("sweep-small", wrong)


def test_tail_percentile_keeps_ten_beyond():
    assert wl.tail_percentile(9) is None
    assert wl.tail_percentile(20) == 50.0
    assert wl.tail_percentile(44) == 75.0
    assert wl.tail_percentile(1000) == 99.0
