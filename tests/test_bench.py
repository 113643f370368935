"""The benchmark harness's view of the package, and a smoke run of every workload.

The harness drives the CLI in-process and observes the package from
outside: it rebinds ``multi_start`` and ``synthesize_ec_maps`` in the
package modules, hooks and times named functions, reads the plan steps'
``skippable``/``skipped`` flags, and reads each EC map report's fields.  A
change that breaks one of those contracts makes a check fail, which the
smoke runs report; a renamed hook or probe target fails no check, since its
metric then reads 0, so the names are checked here without running a
workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unimap.cli  # noqa: F401  (imports every layer module)
from unimap.core import basis_state
from unimap.ec import ECMapSynthesis
from unimap.eigensynth import plan_unitary
from unimap.subspace import SubspaceMapSpec, plan_subspace_map

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: the package functions the harness rebinds, hooks or times, by layer
HARNESS_FUNCTIONS = {
    "search": ("multi_start", "search_state_map", "objective_state_prep", "gradient_state_prep"),
    "eigensynth": ("plan_unitary",),
    "subspace": ("plan_subspace_map",),
    "ec": ("synthesize_ec_maps",),
    "control": ("propagate", "segment_eigs"),
    "io": ("atomic_write_text",),
}


def test_harness_names_are_public_functions_of_their_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracing import package_modules, public_functions

    public = {(layer, name) for layer, name, _ in public_functions(package_modules(sys.modules))}
    wanted = {(layer, name) for layer, names in HARNESS_FUNCTIONS.items() for name in names}
    assert sorted(wanted - public) == []


def test_harness_reads_of_plans_and_ec_reports_still_resolve():
    assert [step.skippable for step in plan_unitary(np.diag(np.exp(-1j * np.array([0.0, 1.0]))))] == [True, False]
    e = [basis_state(3, k) for k in range(3)]
    assert [step.skipped for step in plan_subspace_map(SubspaceMapSpec((e[0], e[1]), (e[0], e[2])))] == [True, False]
    assert isinstance(ECMapSynthesis.subspace_fidelity, property)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failures(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.splitlines()[-1])
    assert summary["failed"] == 0, out.stdout
