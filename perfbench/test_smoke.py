"""Smoke test of the benchmark: every workload runs, checks pass, metrics print.

    python3 -m pytest -q perfbench/test_smoke.py

Each run is one second long, so the numbers are not measurements.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, _count = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload):
    printed, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert printed["fail_ratio"] == (0.0, "1")
    for entry in SPEC["end_to_end"]:
        assert printed[entry["name"]][1] == entry["unit"]
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert result["metrics"][entry["name"]]["value"] > 0.0
    if workload in ("qubit-report", "dense-session"):
        assert printed["exact_time_relerr.max"][0] < 1e-4


def test_traced_run_counts():
    printed, result = _run("qubit-report", 1)
    assert result["correct"]
    assert set(result["metrics"]) == {e["name"] for e in SPEC["per_layer"]}
    assert printed["liouville.validate_density_matrix.calls"][0] == 2002
    assert printed["liouville.normalize_state.calls"][0] == 2001
    assert printed["qsl.speed.calls"][0] == 4002
    assert printed["qsl.nonclassical_speed.calls"][0] == 2001
    assert printed["spectral.spectral_decompose.calls"][0] == 0
    assert "trace_overhead.frac" in printed
