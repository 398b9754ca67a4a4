"""All five workloads, end to end, at a fraction of their size."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from e2e import workloads

RUN = pathlib.Path(__file__).resolve().parents[1] / "run.py"
SPEC = json.loads((RUN.parents[2] / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--scale", "0.02", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_untraced_smoke_of_every_workload_is_correct_and_quick():
    started = time.perf_counter()
    for workload in workloads.NAMES:
        result = _run(workload, trace=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 100
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("workload", ["mixed_updates", "serve_unique_wide"])
def test_traced_smoke_reports_every_per_layer_metric(workload):
    result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["fail_ratio"]["value"] == 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert 0.3 < metrics["trace.coverage_ratio"]["value"] < 1.2
    moved = {
        "mixed_updates": ["cracking.ripple_ms", "engine.update_route_ms", "core.align_ms"],
        "serve_unique_wide": ["server.serve.encode_ms", "server.procpool.worker_s",
                              "server.executor.canonicalize_ms", "storage.shm_bytes"],
    }[workload]
    assert all(metrics[name]["value"] > 0 for name in moved)


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
