"""Unitary maps between subspaces built from pi-rotations.

A single reflection S = I - 2|phi><phi| with phi proportional to a - b
sends a to b (after rephasing b so <b|a> is real positive) while acting as
the identity on the orthogonal complement of span{a, b}.  Chaining one
such rotation per basis vector, each retargeted through the rotations
before it, yields a map that is exact on the whole source basis: every
rotation leaves the previously mapped vectors untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlSystem, PhaseImprint, Waveform, phase_imprint_unitary, propagate
from .core import as_state
from .search import SearchConfig, multi_start

ORTHONORMAL_TOL = 1e-10
SKIP_TOL = 1e-9
ZERO_OVERLAP_TOL = 1e-12


@dataclass(frozen=True)
class SubspaceMapSpec:
    """Orthonormal source and target bases defining T: span{a_i} -> span{b_i}."""

    source: tuple[np.ndarray, ...]
    target: tuple[np.ndarray, ...]
    phase_correction: bool = True

    def __post_init__(self):
        source = tuple(as_state(a) for a in self.source)
        target = tuple(as_state(b) for b in self.target)
        if not source or len(source) != len(target):
            raise ValueError("source and target must be non-empty bases of equal size")
        d = source[0].size
        if len(source) > d:
            raise ValueError(f"basis size {len(source)} exceeds dimension {d}")
        for basis, label in ((source, "source"), (target, "target")):
            for v in basis:
                if v.size != d:
                    raise ValueError(f"{label} vectors have mixed dimensions")
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    if abs(np.vdot(basis[i], basis[j])) > ORTHONORMAL_TOL:
                        raise ValueError(
                            f"{label} vectors {i} and {j} are not orthogonal "
                            f"(|overlap| = {abs(np.vdot(basis[i], basis[j])):.3e})"
                        )
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    @property
    def dim(self) -> int:
        return self.source[0].size

    @property
    def n(self) -> int:
        return len(self.source)


@dataclass(frozen=True)
class RotationStep:
    """One retargeted pi-rotation: maps rotated_source to e^{i theta} target."""

    rotated_source: np.ndarray
    target: np.ndarray
    reflection: np.ndarray | None  # unit vector, or None when the step is skipped
    residual_phase: float

    @property
    def skipped(self) -> bool:
        return self.reflection is None

    def matrix(self) -> np.ndarray:
        """The rotation as a unitary: identity when skipped."""
        d = self.rotated_source.size
        if self.reflection is None:
            return np.eye(d, dtype=complex)
        phi = self.reflection
        return np.eye(d, dtype=complex) - 2.0 * np.outer(phi, phi.conj())


def pair_rotation(a, b) -> tuple[np.ndarray, float]:
    """Hermitian involution S with S a = e^{i theta} b, identity elsewhere.

    theta = arg<b|a> (zero when the overlap vanishes) rephases the target
    so the reflection vector (a - e^{i theta} b) is well defined; when a
    already equals the rephased target the identity is returned, since the
    normalization diverges there.
    """
    a = as_state(a)
    b = as_state(b)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    overlap = np.vdot(b, a)
    theta = 0.0 if abs(overlap) <= ZERO_OVERLAP_TOL else float(np.angle(overlap))
    b_re = np.exp(1j * theta) * b
    diff = a - b_re
    norm = np.linalg.norm(diff)
    if norm <= SKIP_TOL:
        return np.eye(a.size, dtype=complex), theta
    phi = diff / norm
    return np.eye(a.size, dtype=complex) - 2.0 * np.outer(phi, phi.conj()), theta


def plan_subspace_map(spec: SubspaceMapSpec) -> list[RotationStep]:
    """Retargeted rotation sequence, one step per basis vector.

    Step k rotates a_k as already moved by steps 1..k-1; the orthogonality
    lemma <rotated a_j | b_k> = 0 for j > k guarantees later steps leave
    earlier targets alone.
    """
    steps: list[RotationStep] = []
    accumulated = np.eye(spec.dim, dtype=complex)
    for a, b in zip(spec.source, spec.target):
        a_rot = accumulated @ a
        overlap = np.vdot(b, a_rot)
        theta = 0.0 if abs(overlap) <= ZERO_OVERLAP_TOL else float(np.angle(overlap))
        b_re = np.exp(1j * theta) * b
        diff = a_rot - b_re
        if np.linalg.norm(diff) <= SKIP_TOL:
            steps.append(RotationStep(a_rot, b_re, None, theta))
            continue
        phi = diff / np.linalg.norm(diff)
        steps.append(RotationStep(a_rot, b_re, phi, theta))
        s = np.eye(spec.dim, dtype=complex) - 2.0 * np.outer(phi, phi.conj())
        accumulated = s @ accumulated
    return steps


def phase_correction_factor(steps: list[RotationStep], spec: SubspaceMapSpec) -> np.ndarray:
    """Product of e^{-i theta_i |b_i><b_i|} undoing the recorded phases."""
    corr = np.eye(spec.dim, dtype=complex)
    for step, b in zip(steps, spec.target):
        if step.residual_phase != 0.0:
            factor = np.eye(spec.dim, dtype=complex)
            factor += (np.exp(-1j * step.residual_phase) - 1.0) * np.outer(b, b.conj())
            corr = factor @ corr
    return corr


def assemble_subspace_map(steps: list[RotationStep], spec: SubspaceMapSpec) -> np.ndarray:
    """T = s_n ... s_1, with per-vector phase corrections when requested.

    With phase correction on, T a_i = b_i exactly; with it off,
    T a_i = e^{i theta_i} b_i for the phases recorded in the steps.
    """
    t = np.eye(spec.dim, dtype=complex)
    for step in steps:
        if not step.skipped:
            t = step.matrix() @ t
    if spec.phase_correction:
        t = phase_correction_factor(steps, spec) @ t
    return t


@dataclass(frozen=True)
class SubspaceSynthesisReport:
    """Waveform-backed subspace map: achieved matrix plus per-step searches."""

    spec: SubspaceMapSpec
    assembled: np.ndarray
    subspace_fidelity: float
    step_fidelities: tuple[float, ...]
    skipped_steps: tuple[int, ...]
    searches_performed: int
    converged: tuple[bool, ...]
    waveforms: tuple[Waveform, ...]
    total_duration: float


def subspace_fidelity(t: np.ndarray, spec: SubspaceMapSpec) -> float:
    """|sum_i <b_i| T |a_i>| / n: phase-corrected domain overlap.

    Insensitive to one global phase but penalizes relative phase errors
    between the mapped basis vectors, which logical encodings care about.
    """
    total = sum(np.vdot(b, t @ a) for a, b in zip(spec.source, spec.target))
    return min(float(abs(total) / spec.n), 1.0)


def synthesize_subspace_map(
    sys: ControlSystem, spec: SubspaceMapSpec, cfg: SearchConfig
) -> SubspaceSynthesisReport:
    """Realize each rotation as V† (pi imprint) V with a searched V.

    One multi-start search per non-skipped step maps the reflection vector
    phi_k to the fiducial state; the pi imprint on the fiducial then acts
    as I - 2|phi_k><phi_k| after inverting through the exact adjoint.
    Phase corrections, when enabled, are applied analytically and cost no
    searches.
    """
    if spec.dim != sys.dim:
        raise ValueError(f"spec dimension {spec.dim} != system dimension {sys.dim}")
    steps = plan_subspace_map(spec)
    fiducial = sys.fiducial_state()
    pi_imprint = phase_imprint_unitary(sys.dim, PhaseImprint(np.pi, sys.fiducial_index))
    t = np.eye(sys.dim, dtype=complex)
    fidelities: list[float] = []
    converged: list[bool] = []
    waveforms: list[Waveform] = []
    skipped: list[int] = []
    for k, step in enumerate(steps):
        if step.skipped:
            skipped.append(k)
            continue
        result = multi_start(sys, step.reflection, fiducial, cfg)
        v = propagate(sys, result.waveform)
        s = v.conj().T @ pi_imprint @ v
        t = s @ t
        fidelities.append(result.fidelity)
        converged.append(result.converged)
        waveforms.append(result.waveform)
    if spec.phase_correction:
        t = phase_correction_factor(steps, spec) @ t
    return SubspaceSynthesisReport(
        spec=spec,
        assembled=t,
        subspace_fidelity=subspace_fidelity(t, spec),
        step_fidelities=tuple(fidelities),
        skipped_steps=tuple(skipped),
        searches_performed=len(fidelities),
        converged=tuple(converged),
        waveforms=tuple(waveforms),
        total_duration=float(sum(w.total_duration for w in waveforms)),
    )


def naive_sequential_map(spec: SubspaceMapSpec) -> np.ndarray:
    """Product of independent pair rotations without retargeting.

    The textbook wrong construction: each rotation is exact on its own
    pair but disturbs previously mapped vectors, so the product fails the
    basis conditions; kept as a witness for tests.
    """
    t = np.eye(spec.dim, dtype=complex)
    for a, b in zip(spec.source, spec.target):
        s, _ = pair_rotation(a, b)
        t = s @ t
    return t
