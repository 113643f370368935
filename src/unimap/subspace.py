"""The phase-about-a-vector builder, and subspace maps built from exact phase steps.

Both constructions of the paper are products of factors V† P(theta) V: a
phase theta imprinted on the fiducial state, conjugated by a map V that sends
phi to that state.  The factor equals I + (e^{-i theta} - 1)|chi><chi| with
chi = V†|fiducial>, so one vector fixes it.  ``phase_product`` multiplies
these factors over (phi, theta) steps, building every ``PhaseStep`` record;
a *mapper* only maps phi to (chi, the ``SearchResult`` behind V or None).
``ExactMapper`` gives chi = phi (no search), ``SearchedMapper`` the chi of a
multi-start search's propagator; ``ec`` adds a third that switches between
the two 8-level cesium systems.

A subspace map is one such product, one step per basis vector: step k
lands a_k exactly on t_k, which is b_k, or b_k rephased so that <t_k|a_k>
is real and positive when the spec's ``phase_correction`` is off (there
theta_k = pi and the factor is a reflection).  Chaining the steps, each
retargeted through the steps before it, yields a map that is exact on the
whole source basis, since every step leaves the previously mapped vectors
untouched; the map is the product of the played factors and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .control import ControlSystem
from .core import TWO_PI, _check_dim, _contraction, as_state
from .search import SearchConfig, SearchResult, multi_start

ORTHONORMAL_TOL = 1e-10
SKIP_TOL = 1e-9
ZERO_OVERLAP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
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
        d = _check_dim(source[0].size)
        if len(source) > d:
            raise ValueError(f"basis size {len(source)} exceeds dimension {d}")
        for basis, label in ((source, "source"), (target, "target")):
            if any(v.size != d for v in basis):
                raise ValueError(f"{label} vectors have mixed dimensions")
            # |<v_i|v_j>| above the diagonal of the Gram matrix; argwhere scans it row by row
            vecs = np.array(basis)
            overlaps = np.abs(np.triu(vecs.conj() @ vecs.T, 1))
            bad = np.argwhere(overlaps > ORTHONORMAL_TOL)
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"{label} vectors {i} and {j} are not orthogonal (|overlap| = {overlaps[i, j]:.3e})")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    @property
    def dim(self) -> int:
        return self.source[0].size

    @property
    def n(self) -> int:
        return len(self.source)


class RotationStep(NamedTuple):
    """One retargeted step: the phase theta about ``reflection`` lands rotated_source on target."""

    rotated_source: np.ndarray
    target: np.ndarray
    reflection: np.ndarray | None  # unit vector phi, or None when the step is skipped
    theta: float

    @property
    def skipped(self) -> bool:
        return self.reflection is None


def _rank_one(phi: np.ndarray, c: complex) -> np.ndarray:
    """I + c|phi><phi|: the reflection about phi at c = -2, e^{-i theta |phi><phi|} at c = e^{-i theta} - 1."""
    return np.eye(phi.size, dtype=complex) + c * np.outer(phi, phi.conj())


def _landing(a: np.ndarray, b: np.ndarray, rephase: bool) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(phi, t, theta) with (I + (e^{-i theta} - 1)|phi><phi|) a = t; phi None when a is already at t.

    t is b, or with ``rephase`` b times e^{i arg<b|a>} (1 when the overlap
    vanishes) and theta = pi.  Otherwise the factor moves a by c <phi|a> phi
    with c = -|a - t| / <phi|a>, a form that keeps its digits as a nears b.
    """
    t = b
    if rephase:
        overlap = np.vdot(b, a)
        t = np.exp(1j * (0.0 if abs(overlap) <= ZERO_OVERLAP_TOL else float(np.angle(overlap)))) * b
    diff = a - t
    norm = np.linalg.norm(diff)
    if norm <= SKIP_TOL:
        return None, t, 0.0
    phi = diff / norm
    return phi, t, np.pi if rephase else float(-np.angle(1.0 - norm / np.vdot(phi, a))) % TWO_PI


def pair_rotation(a, b) -> tuple[np.ndarray, float]:
    """Hermitian involution S with S a = e^{i theta} b, identity elsewhere.

    theta = arg<b|a> (zero when the overlap vanishes) rephases the target;
    S is the identity when a already equals the rephased target.
    """
    a = as_state(a)
    b = as_state(b)
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    phi, t, _ = _landing(a, b, rephase=True)
    s = np.eye(a.size, dtype=complex) if phi is None else _rank_one(phi, -2.0)
    return s, float(np.angle(np.vdot(b, t)))


class PhaseStep(NamedTuple):
    """One planned step: theta imprinted about chi = V†|fiducial>, and the search that gave V.

    chi is None for a skipped step; ``result`` is the kept ``SearchResult``, None for exact and skipped steps.
    """

    theta: float
    chi: np.ndarray | None
    result: SearchResult | None = None

    @property
    def skipped(self) -> bool:
        return self.chi is None


class ExactMapper(NamedTuple):
    """chi = phi: no map V, no search.

    Any exact V sending phi to a fiducial state has V†|fiducial> = phi up
    to a phase, so the step fidelity is 1.
    """

    dim: int

    def map(self, phi) -> tuple[np.ndarray, None]:
        return as_state(phi, self.dim), None


@dataclass(frozen=True, eq=False)
class SearchedMapper:
    """chi = V†|fiducial>, V the propagator of a multi-start search from phi to the fiducial state.

    chi is the conjugated fiducial row of the propagator the result carries,
    built by the forward pass that scored the waveform: never a second search
    or propagation.  The closed-form factor assumes that nothing acts between
    V and V† except the imprint, so a system with a nonzero drift is refused
    here, before any search.  ``multi_start`` keeps its results on the system,
    so a phi already given to a mapper on it (bit-equal) shares that step's
    search, and a phi that an exact symmetry onto the system
    (``sys.symmetries``, or its complex conjugation) maps from a kept one
    plays that result's signed waveform with no search.
    """

    sys: ControlSystem
    cfg: SearchConfig

    def __post_init__(self):
        if np.any(self.sys.drift):
            raise ValueError(
                f"searched builds need a drift-free system, but {self.sys.name!r} has drift norm "
                f"{np.linalg.norm(self.sys.drift, 2):.6g} rad/s: playing V, the imprint, then V reversed "
                f"gives V† P(theta) V only when no drift acts"
            )

    @property
    def dim(self) -> int:
        return self.sys.dim

    def map(self, phi) -> tuple[np.ndarray, SearchResult]:
        result = multi_start(self.sys, phi, self.sys.fiducial_state(), self.cfg)
        return result.propagator[self.sys.fiducial_index].conj(), result


class SynthesisReport(NamedTuple):
    """The builder's product, its fidelity, and one ``PhaseStep`` per planned step, in plan order.

    ``fidelity`` is the trace fidelity to a target unitary, or the subspace
    fidelity of a subspace map.  Skipped steps keep their place in ``steps``,
    and a step without a search result is exact, at fidelity 1.
    """

    assembled: np.ndarray
    fidelity: float
    steps: tuple[PhaseStep, ...]

    @property
    def step_fidelities(self) -> tuple[float, ...]:
        return tuple(1.0 if step.result is None else step.result.fidelity for step in self.steps if not step.skipped)

    @property
    def skipped_steps(self) -> tuple[int, ...]:
        return tuple(k for k, step in enumerate(self.steps) if step.skipped)

    @property
    def searches_performed(self) -> int:
        return sum(step.result is not None for step in self.steps)


def phase_product(dim: int, steps, mapper, score: Callable[[np.ndarray], float]) -> SynthesisReport:
    """Product of V† P(theta) V over the (phi, theta) steps of a dim-level target, first step rightmost.

    A mapper of another dimension is refused.  A step whose phi is None is
    skipped, its record's chi None; any other step's record is
    ``PhaseStep(theta, *mapper.map(phi))`` and its factor
    I + (e^{-i theta} - 1)|chi><chi|.  ``score`` gives the report's fidelity.
    """
    if dim != mapper.dim:
        raise ValueError(f"target dimension {dim} != mapper dimension {mapper.dim}")
    records = tuple(PhaseStep(theta, None) if phi is None else PhaseStep(theta, *mapper.map(phi))
                    for phi, theta in steps)
    acc = np.eye(dim, dtype=complex)
    for step in records:
        if not step.skipped:
            acc = _rank_one(step.chi, np.exp(-1j * step.theta) - 1.0) @ acc
    return SynthesisReport(assembled=acc, fidelity=score(acc), steps=records)


def plan_subspace_map(spec: SubspaceMapSpec) -> list[RotationStep]:
    """Retargeted step sequence, one step per basis vector.

    Step k lands a_k, as already moved by steps 1..k-1 (a rephased step
    moves it by the reflection I - 2|phi><phi|), on its target; the lemma
    <rotated a_j | t_k> = 0 for j > k keeps earlier targets in place.
    """
    steps: list[RotationStep] = []
    accumulated = np.eye(spec.dim, dtype=complex)
    for a, b in zip(spec.source, spec.target):
        a_rot = accumulated @ a
        phi, t, theta = _landing(a_rot, b, rephase=not spec.phase_correction)
        steps.append(RotationStep(a_rot, t, phi, theta))
        if phi is not None:
            c = np.exp(-1j * theta) - 1.0 if spec.phase_correction else -2.0
            accumulated = _rank_one(phi, c) @ accumulated
    return steps


def subspace_fidelity(t: np.ndarray, spec: SubspaceMapSpec) -> float:
    """|sum_i <b_i| T |a_i>| / n: phase-corrected domain overlap.

    Insensitive to one global phase but penalizes relative phase errors
    between the mapped basis vectors, which logical encodings care about.
    T must be a ``core._contraction``, so the fidelity is 1 only where T maps
    each a_i to b_i under one phase; an excess above 1 is rounding, clipped.
    """
    t = _contraction(t)
    return min(float(abs(sum(np.vdot(b, t @ a) for a, b in zip(spec.source, spec.target))) / spec.n), 1.0)


def synthesize_subspace_map(spec: SubspaceMapSpec, mapper) -> SynthesisReport:
    """T = s_n ... s_1 with each planned step s_k realized as V† P(theta_k) V.

    The mapper sends phi_k to its fiducial state, so the theta_k imprint
    there acts as I + (e^{-i theta_k} - 1)|phi_k><phi_k|.  ``assembled`` is
    the product of these played factors: T a_i = b_i with ``phase_correction``,
    else T a_i is the rephased target of step i and every theta_k is pi.
    """
    return phase_product(
        spec.dim,
        [(step.reflection, step.theta) for step in plan_subspace_map(spec)],
        mapper,
        score=lambda t: subspace_fidelity(t, spec),
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
