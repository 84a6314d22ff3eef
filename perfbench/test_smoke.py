"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and twice traced.  Every metric that
BENCHMARK.json names must be reported with its unit, no job may fail, and
the exact counts of the traced runs (calls, gflop, bytes, escalations,
per-cell ratios) must repeat exactly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny"]
        + ["--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def assert_reports(result: dict, specs: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present(workload):
    text, result = bench(workload, 0)
    assert_reports(result, SPEC["end_to_end"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "fail_frac" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    _, first = bench(workload, 1)
    _, second = bench(workload, 1)
    for result in (first, second):
        assert_reports(result, SPEC["per_layer"])
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first["metrics"][k]["value"] for k in exact} == {
        k: second["metrics"][k]["value"] for k in exact
    }
    if workload != "spectral_exact":
        assert first["metrics"]["lattice.build_laplacian.per_cell"]["value"] == 2.0
        assert first["metrics"]["separation.epsilon_delta.per_cell"]["value"] == 1.0
