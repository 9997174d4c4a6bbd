"""Tests of the benchmark itself: result shape, oracle, determinism, sensitivity.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The sensitivity test reruns the workloads many times and takes minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import sensitivity  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

SIM_METRICS = (
    "ok_frac", "sim_ops_s", "sim_p50_us", "sim_tail_us", "write_amp",
    "space_amp", "slo_ok_frac",
)


def run(workload: str, trace: int, seconds: float = 0.4, cwd: str = ROOT, seed: int = 5):
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done) -> tuple:
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    details, out = result(done)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert details["seeds"]["workload"] == 5


@pytest.mark.parametrize("workload", ["scan_ldc", "serve_ldc"])
def test_traced_run_prints_every_layer_metric_and_cross_checks(workload):
    done = run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    details, out = result(done)
    assert out["correct"] is True
    expected = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(check["equal"] for check in details["cross_checks"].values())
    assert out["metrics"]["other.self_s"]["value"] >= 0
    assert os.path.isfile(os.path.join(ROOT, details["span_file"]))


def test_virtual_time_metrics_repeat_exactly_for_a_seed():
    first = result(run("scan_ldc", trace=0))
    second = result(run("scan_ldc", trace=0))
    for name in SIM_METRICS:
        assert first[1]["metrics"][name] == second[1]["metrics"][name], name
    assert first[0]["counts"] == second[0]["counts"]


def _tiny(query: str) -> workloads.Workload:
    return workloads.Workload(
        "tiny", "ldc", keys=2_000, write_ratio=0.3, ops_per_second=200,
        tail_pct=99.0, query=query,
    )


@pytest.mark.parametrize("query", ["get", "scan"])
def test_oracle_rejects_a_wrong_result(query):
    workload = _tiny(query)
    calibrator = Calibrator()
    store = workloads.build_store(workload, calibrator)
    # Same keys, different values: the first checked read must disagree.
    store.model = {key: b"not-the-value" for key in store.model}
    with pytest.raises(workloads.OracleError):
        workloads.measure_closed(workload, store, seed=1, num_ops=200, calibrator=calibrator)


def test_serve_oracle_rejects_a_wrong_result():
    workload = workloads.Workload(
        "tiny_serve", "ldc", keys=2_000, write_ratio=0.5, ops_per_second=200,
        tail_pct=99.0, serve_rate=1200.0,
    )
    calibrator = Calibrator()
    store = workloads.build_store(workload, calibrator)
    store.model = {key: b"not-the-value" for key in store.model}
    with pytest.raises(workloads.OracleError):
        workloads.measure_serve(
            workload, store, seed=1, num_ops=200, calibrator=calibrator,
            serve_call=workloads.serve_workload,
        )


def test_oracle_accepts_the_program_as_it_is():
    workload = _tiny("scan")
    calibrator = Calibrator()
    store = workloads.build_store(workload, calibrator)
    measured = workloads.measure_closed(workload, store, seed=1, num_ops=200, calibrator=calibrator)
    workloads.check_store(workload, store)
    assert measured.failed == 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("fill_ldc", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_each_layer_slowdown_moves_its_metric_and_only_there():
    assert sensitivity.check_all(seconds=8.0, seed=3) == []
