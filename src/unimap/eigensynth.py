"""Assemble arbitrary unitaries from state maps and fiducial phase imprints.

Any unitary factors into commuting terms exp(-i lambda_j |phi_j><phi_j|),
one per eigenpair.  Each factor is realized as V† (imprint of lambda_j on
the fiducial state) V, where V is any map sending phi_j to the fiducial;
V comes either from a waveform search or from an algebraic reflection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlSystem, PhaseImprint, Waveform, phase_imprint_unitary, propagate
from .core import TWO_PI, as_state, assert_unitary, eig_unitary, trace_fidelity
from .search import SearchConfig, multi_start
from .subspace import pair_rotation

SKIP_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class EigenPlanStep:
    """One eigenpair of the target plus the mapper that sends it home."""

    phase: float
    eigenvector: np.ndarray
    skippable: bool
    mapper: np.ndarray | None = None  # unitary V with |<0|V|phi>|^2 = 1 (or close)
    waveform: Waveform | None = None
    map_fidelity: float | None = None

    def with_mapper(self, mapper, waveform=None, map_fidelity=None) -> "EigenPlanStep":
        return EigenPlanStep(
            phase=self.phase,
            eigenvector=self.eigenvector,
            skippable=self.skippable,
            mapper=mapper,
            waveform=waveform,
            map_fidelity=map_fidelity,
        )


@dataclass(frozen=True)
class SynthesisReport:
    """Outcome of one full-unitary synthesis."""

    target: np.ndarray
    assembled: np.ndarray
    fidelity: float
    step_fidelities: tuple[float, ...]
    skipped_steps: tuple[int, ...]
    searches_performed: int
    converged: tuple[bool, ...]
    waveforms: tuple[Waveform, ...]
    total_duration: float


def plan_unitary(w: np.ndarray) -> list[EigenPlanStep]:
    """Eigen-decomposition of the target as a list of plan steps.

    Steps whose phase vanishes (mod 2pi, within 1e-12) contribute identity
    factors and are marked skippable so no search is wasted on them.
    """
    decomp = eig_unitary(assert_unitary(w))
    steps = []
    for j in range(decomp.dim):
        lam = float(decomp.phases[j])
        skippable = lam <= SKIP_PHASE_TOL or TWO_PI - lam <= SKIP_PHASE_TOL
        steps.append(EigenPlanStep(phase=lam, eigenvector=decomp.vectors[:, j], skippable=skippable))
    return steps


def exact_mapper(phi, fiducial_index: int) -> np.ndarray:
    """Reflection-based unitary V with |<fiducial| V |phi>| = 1.

    Algebraic stand-in for a searched state map, used by the exact
    assembly path and as an oracle against waveform-backed mappers.
    """
    phi = as_state(phi)
    if not 0 <= fiducial_index < phi.size:
        raise ValueError(f"fiducial index {fiducial_index} out of range for d={phi.size}")
    fiducial = np.zeros(phi.size, dtype=complex)
    fiducial[fiducial_index] = 1.0
    s, _ = pair_rotation(phi, fiducial)
    return s


def assemble_unitary(steps: list[EigenPlanStep], d: int, fiducial_index: int) -> np.ndarray:
    """Product over steps of V_j† e^{-i lambda_j |0><0|} V_j.

    Factors commute in exact arithmetic, so index order is a convention;
    step 1 is applied first (rightmost).
    """
    u = np.eye(d, dtype=complex)
    for j, step in enumerate(steps):
        if step.skippable:
            continue
        if step.mapper is None:
            raise ValueError(f"step {j} has no mapper and is not skippable")
        imprint = phase_imprint_unitary(d, PhaseImprint(step.phase, fiducial_index))
        u = step.mapper.conj().T @ imprint @ step.mapper @ u
    return u


def synthesize_unitary_exact(w: np.ndarray, fiducial_index: int = 0) -> SynthesisReport:
    """Assembly with algebraic reflection mappers; no searches, exact result."""
    w = assert_unitary(w)
    d = w.shape[0]
    steps = plan_unitary(w)
    fidelities = []
    filled = []
    fiducial = np.zeros(d, dtype=complex)
    fiducial[fiducial_index] = 1.0
    for step in steps:
        if step.skippable:
            filled.append(step)
            continue
        v = exact_mapper(step.eigenvector, fiducial_index)
        fid = min(float(abs(np.vdot(fiducial, v @ step.eigenvector)) ** 2), 1.0)
        filled.append(step.with_mapper(v, map_fidelity=fid))
        fidelities.append(fid)
    assembled = assemble_unitary(filled, d, fiducial_index)
    return SynthesisReport(
        target=w,
        assembled=assembled,
        fidelity=trace_fidelity(w, assembled),
        step_fidelities=tuple(fidelities),
        skipped_steps=tuple(j for j, s in enumerate(steps) if s.skippable),
        searches_performed=0,
        converged=(True,) * len(fidelities),
        waveforms=(),
        total_duration=0.0,
    )


def synthesize_unitary(sys: ControlSystem, w: np.ndarray, cfg: SearchConfig) -> SynthesisReport:
    """Waveform-backed synthesis: one multi-start search per active eigenpair.

    Each search maps the eigenvector to the fiducial state; the inverse is
    the exact matrix adjoint of the searched propagator, never a second
    search.  Steps that miss the fidelity goal are reported through the
    converged flags rather than raised.
    """
    w = assert_unitary(w)
    if w.shape[0] != sys.dim:
        raise ValueError(f"target dimension {w.shape[0]} != system dimension {sys.dim}")
    steps = plan_unitary(w)
    fiducial = sys.fiducial_state()
    assembled = np.eye(sys.dim, dtype=complex)
    fidelities: list[float] = []
    converged: list[bool] = []
    waveforms: list[Waveform] = []
    searches = 0
    for step in steps:
        if step.skippable:
            continue
        result = multi_start(sys, step.eigenvector, fiducial, cfg)
        searches += 1
        v = propagate(sys, result.waveform)
        imprint = phase_imprint_unitary(sys.dim, PhaseImprint(step.phase, sys.fiducial_index))
        assembled = v.conj().T @ imprint @ v @ assembled
        fidelities.append(result.fidelity)
        converged.append(result.converged)
        waveforms.append(result.waveform)
    return SynthesisReport(
        target=w,
        assembled=assembled,
        fidelity=trace_fidelity(w, assembled),
        step_fidelities=tuple(fidelities),
        skipped_steps=tuple(j for j, s in enumerate(steps) if s.skippable),
        searches_performed=searches,
        converged=tuple(converged),
        waveforms=tuple(waveforms),
        total_duration=float(sum(wf.total_duration for wf in waveforms)),
    )
