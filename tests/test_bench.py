"""Smoke run of the benchmark harness on every workload.

The harness drives the CLI in-process and observes the package from
outside: it rebinds ``multi_start`` and ``synthesize_ec_maps`` in the
package modules, reads the plan steps' ``skippable``/``skipped`` flags, and
reads each EC map report's fields.  A change that breaks one of those
contracts makes a check fail, which this test reports.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failures(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.splitlines()[-1])
    assert summary["failed"] == 0, out.stdout
