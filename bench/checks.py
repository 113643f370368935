"""Output checks that rest on the CLI's files and on physics, not on the code's structure.

Each check reads what a command wrote.  Searched steps are checked by
reloading each written waveform CSV and propagating it again; the
recomputed state-map fidelity must equal the one the report states.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

STEP_FIDELITY_TOL = 1e-9
EXACT_FIDELITY = 1 - 1e-10
RELATION_TOL = 1e-9


@dataclass
class Outcome:
    """What the checks found for one command."""

    failures: list[str] = field(default_factory=list)
    missed_steps: int = 0
    fidelity: float | None = None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_steps(out: Outcome, modules, steps, waveform_files, fidelities, goal) -> None:
    """Re-propagate every written waveform and compare with the reported step fidelity."""
    if not len(steps) == len(waveform_files) == len(fidelities):
        out.failures.append(
            f"{len(steps)} searches, {len(waveform_files)} waveform files, {len(fidelities)} step fidelities"
        )
        return
    io, control = modules["io"], modules["control"]
    for path, reported, step in zip(waveform_files, fidelities, steps):
        u = control.propagate(step.system, io.load_waveform(path))
        psi_i = np.asarray(step.psi_i, dtype=complex)
        psi_f = np.asarray(step.psi_f, dtype=complex)
        recomputed = float(abs(np.vdot(psi_f, u @ psi_i)) ** 2)
        if not abs(recomputed - reported) <= STEP_FIDELITY_TOL:
            out.failures.append(f"{path}: re-propagated fidelity {recomputed!r} != reported {reported!r}")
        if not reported >= goal:
            out.missed_steps += 1


def _check_ec_csv(out: Outcome, path: str) -> None:
    """One finite row per error angle, every value in [0, 1]; no ordering is asserted."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        out.failures.append(f"{path}: no rows")
    for row in rows:
        values = [float(v) for v in row.values()]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values[1:]):
            out.failures.append(f"{path}: row {row} outside [0, 1] or not finite")
            return


def _searched_unitary(out, cmd, modules, steps, ec_maps):
    report = _load_json(f"{cmd.tag}.json")
    fids = report["step_fidelities"]
    _check_steps(out, modules, steps, report["waveform_files"], fids, cmd.goal)
    out.fidelity = report["trace_fidelity"]
    # each factor V†PV with |<0|V|phi>|^2 = J differs from the ideal factor by
    # 4(1 - cos lambda)(1 - J) <= 8(1 - J) in squared Frobenius norm; with at
    # most d factors, 1 - F <= (sum of norms)^2 / 2d <= 4 sum(1 - J)
    budget = 4 * sum(1 - j for j in fids)
    if not 1 - out.fidelity <= budget + 1e-12:
        out.failures.append(f"trace infidelity {1 - out.fidelity:.3e} exceeds 4 sum(1 - J) = {budget:.3e}")


def _searched_subspace(out, cmd, modules, steps, ec_maps):
    report = _load_json(f"{cmd.tag}.json")
    _check_steps(out, modules, steps, report["waveform_files"], report["step_fidelities"], cmd.goal)
    out.fidelity = report["subspace_fidelity"]


def _ec_synthesized(out, cmd, modules, steps, ec_maps):
    meta = _load_json(f"{cmd.tag}.meta.json")
    fids = [f for per_map in meta["map_step_fidelities"] for f in per_map]
    _check_steps(out, modules, steps, meta["waveform_files"], fids, cmd.goal)
    _check_ec_csv(out, f"{cmd.tag}.csv")
    if len(ec_maps) != 1:
        out.failures.append(f"expected one EC map synthesis, saw {len(ec_maps)}")
        return
    _, reports = ec_maps[0]
    out.fidelity = min(r.subspace_fidelity for r in reports)


def _ec_ideal(out, cmd, modules, steps, ec_maps):
    _check_ec_csv(out, f"{cmd.tag}.csv")


def _exact(field_name):
    def check(out, cmd, modules, steps, ec_maps):
        out.fidelity = _load_json(f"{cmd.tag}.json")[field_name]
        if not out.fidelity >= EXACT_FIDELITY:
            out.failures.append(f"exact construction reached {field_name} {out.fidelity!r} < 1 - 1e-10")
    return check


def _wigner(out, cmd, modules, steps, ec_maps):
    with open(f"{cmd.tag}.csv", "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != 61 * 120:
        out.failures.append(f"{cmd.tag}.csv: {len(rows)} grid points, expected 61 x 120")
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        out.failures.append(f"{cmd.tag}.csv: non-finite values")


def _clifford(out, cmd, modules, steps, ec_maps):
    deviations = _load_json(f"{cmd.tag}.json")["deviations"]
    # the literal S gate's SXS* relation is a reported discrepancy, not a defect
    for name, dev in deviations.items():
        if not name.startswith("S") and not dev <= RELATION_TOL:
            out.failures.append(f"relation {name} deviates by {dev:.3e}")


CHECKS = {
    "unitary": _searched_unitary,
    "subspace": _searched_subspace,
    "ec_synthesized": _ec_synthesized,
    "ec_ideal": _ec_ideal,
    "unitary_exact": _exact("trace_fidelity"),
    "subspace_exact": _exact("subspace_fidelity"),
    "wigner": _wigner,
    "clifford": _clifford,
}


def check_command(cmd, exit_code: int, modules, steps, ec_maps) -> Outcome:
    """Run the checks for one finished command in the directory it wrote to."""
    out = Outcome()
    if exit_code != 0:
        out.failures.append(f"exit code {exit_code}")
        return out
    try:
        CHECKS[cmd.kind](out, cmd, modules, steps, ec_maps)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.failures.append(f"{type(exc).__name__}: {exc}")
    return out
