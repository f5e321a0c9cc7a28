"""Smoke test of the benchmark: one tiny run of each workload, untraced and traced.

Run from the root of the repository: python3 -m pytest benchmark/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--requests", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    if trace:
        assert result["metrics"]["failed_ratio"]["value"] == 0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
