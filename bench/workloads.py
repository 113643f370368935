"""The benchmark's workloads: generated inputs plus the CLI commands that use them.

Every input is written as the JSON file the CLI reads, from
``numpy.random.default_rng`` streams owned by the benchmark, before any
timing starts.  A command writes only files whose names start with its tag,
so each result file can be traced back to the command that wrote it.

The searched commands run on fixed targets with the CLI's default search
seed.  At goal 0.999 one state-map search takes from under 1 s to about 15 s
depending on its target and its random start, so a run that fits the
benchmark's time budget holds too few searches to average that tail; with
seed-dependent search inputs the run time of a workload would move by a
third from one seed to the next.  Fixing the searched inputs keeps the
searched work identical in every run, so run-to-run differences come from
the program and the machine.  The workload seed drives every input of the
search-free ``ec_analysis`` workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: the CLI's default --seed, used for every searched command
SEARCH_SEED = 0
#: stream for the fixed subspace n-sets of ``subspace_maps``
SUBSPACE_SET_SEED = 20090206
SYSTEM_DIM = 8
SPIN3_DIM = 7


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload pass."""

    tag: str  # prefix of every file the command writes
    kind: str  # which output checks apply; see checks.py
    argv: tuple[str, ...]
    goal: float | None = None  # state-map fidelity goal of searched commands


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).ravel()]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed by R's diagonal."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def orthonormal_set(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n orthonormal columns spanning a Haar-random subspace of C^d."""
    return haar_unitary(d, rng)[:, :n]


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def write_matrix(path: Path, u: np.ndarray) -> str:
    return _write_json(path, {"entries": [[[float(z.real), float(z.imag)] for z in row] for row in u]})


def write_state(path: Path, psi: np.ndarray) -> str:
    return _write_json(path, {"amplitudes": _pairs(psi)})


def write_spec(path: Path, source: np.ndarray, target: np.ndarray) -> str:
    return _write_json(path, {
        "source": [_pairs(source[:, i]) for i in range(source.shape[1])],
        "target": [_pairs(target[:, i]) for i in range(target.shape[1])],
    })


def unitary_d7(seed: int, inputs: Path) -> list[Command]:
    """The G:3 gate at d=7 in the 8-level cesium model, searched to goal 0.999."""
    goal = 0.999
    return [
        Command("g3", "unitary", (
            "build-unitary", "--gate", "G:3", "--d", "7", "--goal", str(goal), "--restarts", "1",
            "--seed", str(SEARCH_SEED), "--out-report", "g3.json",
        ), goal),
    ]


def subspace_maps(seed: int, inputs: Path) -> list[Command]:
    """Searched pi-rotation maps: a random n=2 map and the three EC maps.

    Goal 0.99 with the CLI's default three restarts per step.  The EC sweep
    uses the exact six-state average so nearly all of its time is synthesis.
    """
    goal = 0.99
    rng = np.random.default_rng(SUBSPACE_SET_SEED)
    spec = write_spec(inputs / "set2.json", orthonormal_set(SYSTEM_DIM, 2, rng), orthonormal_set(SYSTEM_DIM, 2, rng))
    search = ("--goal", str(goal), "--seed", str(SEARCH_SEED))
    return [
        Command("set2", "subspace", (
            "build-subspace-map", "--spec", spec, *search, "--out-report", "set2.json",
        ), goal),
        Command("ecsyn", "ec_synthesized", (
            "ec-sweep", "--maps", "synthesized", "--average", "axes", *search, "--out", "ecsyn.csv",
        ), goal),
    ]


def ec_analysis(seed: int, inputs: Path) -> list[Command]:
    """Search-free commands on inputs drawn from the workload seed."""
    rng = np.random.default_rng([seed, 3])
    commands = [
        Command("ecideal", "ec_ideal", (
            "ec-sweep", "--maps", "ideal", "--average", "haar", "--seed", str(seed), "--out", "ecideal.csv",
        )),
        Command("ecaxes", "ec_ideal", ("ec-sweep", "--maps", "ideal", "--average", "axes", "--out", "ecaxes.csv")),
    ]
    for k in range(8):
        matrix = write_matrix(inputs / f"haar{k}.json", haar_unitary(SYSTEM_DIM, rng))
        commands.append(Command(f"exact{k}", "unitary_exact", (
            "build-unitary", "--exact-mappers", "--matrix-file", matrix, "--out-report", f"exact{k}.json",
        )))
    for n in (2, 3, 4, 5):
        spec = write_spec(
            inputs / f"exactset{n}.json",
            orthonormal_set(SYSTEM_DIM, n, rng),
            orthonormal_set(SYSTEM_DIM, n, rng),
        )
        commands.append(Command(f"exactset{n}", "subspace_exact", (
            "build-subspace-map", "--exact", "--spec", spec, "--out-report", f"exactset{n}.json",
        )))
    for k in range(3):
        state = write_state(inputs / f"spin3_{k}.json", haar_state(SPIN3_DIM, rng))
        commands.append(Command(f"wigner{k}", "wigner", (
            "wigner", "--state", state, "--out", f"wigner{k}.csv",
        )))
    commands.append(Command("clifford", "clifford", ("verify-clifford", "--d", "7", "--out", "clifford.json")))
    return commands


WORKLOADS = {
    "unitary_d7": unitary_d7,
    "subspace_maps": subspace_maps,
    "ec_analysis": ec_analysis,
}
