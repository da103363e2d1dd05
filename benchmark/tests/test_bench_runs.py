"""Whole runs in subprocesses: the trace and fault self-checks, and the
agreement of BENCHMARK.json with what run.py prints."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import faults
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=5, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def counts(metrics):
    units = dict(tracer.PER_LAYER)
    return {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_pair(request):
    return request.param, [run_bench(request.param, 1) for _ in range(2)]


def test_traced_counts_repeat_exactly(traced_pair):
    _, (first, second) = traced_pair
    assert counts(first) == counts(second)
    assert first["trace.overhead_ratio"] > 0


def test_each_workload_bypasses_the_layers_it_claims_to(traced_pair):
    workload, (metrics, _) = traced_pair
    if workload == "domain_hardy":
        assert metrics["quad.integrate_measure.calls"] > 0
        assert all(v == 0 for k, v in counts(metrics).items()
                   if k.startswith("polyalg."))
    else:
        assert metrics["polyalg.divided_difference.calls"] > 0
        assert metrics["quad.integrate_measure.calls"] == 0


def test_metric_names_and_units_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "domain_hardy",
         "--seed", "5", "--seconds", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("fault, workload", faults.CATCHES)
def test_every_injected_fault_is_caught(fault, workload):
    code, result = faults.run_with_fault(fault, workload)
    assert code != 0
    assert result["metrics"]["pass_ratio"]["value"] < 1.0
    assert not result["correct"]
