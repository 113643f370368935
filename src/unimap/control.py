"""Bilinear control systems H0 + sum_k u_k(t) H_k with piecewise-constant waveforms.

A ``ControlSystem`` bundles the drift generator, the control generators
(rad/s), per-control bounds on the dimensionless amplitudes, and the index
of the fiducial basis state.  A ``Waveform`` is an ordered list of
segments, each a duration in seconds plus one amplitude per control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI, assert_hermitian

AMPLITUDE_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ControlSystem:
    """Immutable bilinear control model H[u] = drift + sum_k u_k * controls[k]."""

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]
    amplitude_bounds: tuple[tuple[float, float], ...]
    fiducial_index: int
    reversible_drift: bool = False
    name: str = ""

    def __post_init__(self):
        drift = _readonly(assert_hermitian(self.drift))
        controls = tuple(_readonly(assert_hermitian(h)) for h in self.controls)
        d = drift.shape[0]
        for k, h in enumerate(controls):
            if h.shape != (d, d):
                raise ValueError(f"control {k} has shape {h.shape}, expected {(d, d)}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.amplitude_bounds)
        if len(bounds) != len(controls):
            raise ValueError("one bounds pair per control is required")
        for k, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise ValueError(f"bounds for control {k} are empty: [{lo}, {hi}]")
        if not 0 <= self.fiducial_index < d:
            raise ValueError(f"fiducial index {self.fiducial_index} out of range for d={d}")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "amplitude_bounds", bounds)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def with_negated_drift(self) -> "ControlSystem":
        """The same model with -H0, used when checking time-reversed waveforms."""
        return replace(self, drift=-np.asarray(self.drift))

    def fiducial_state(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.fiducial_index] = 1.0
        return v


@dataclass(frozen=True)
class Waveform:
    """Piecewise-constant control amplitudes: durations (M,) and amplitudes (M, K)."""

    durations: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        durations = _readonly(np.asarray(self.durations, dtype=float).reshape(-1))
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        if amplitudes.ndim != 2:
            raise ValueError(f"amplitudes must be 2-d (segments x controls), got {amplitudes.ndim}-d")
        if amplitudes.shape[0] != durations.size:
            raise ValueError(
                f"{durations.size} durations but {amplitudes.shape[0]} amplitude rows"
            )
        if not np.all(np.isfinite(durations) & (durations > 0)):
            raise ValueError("every segment duration must be finite and > 0")
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "amplitudes", _readonly(amplitudes))

    @property
    def n_segments(self) -> int:
        return self.durations.size

    @property
    def n_controls(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def n_variables(self) -> int:
        """Number of scalar control variables (segments x controls)."""
        return self.amplitudes.size

    @property
    def total_duration(self) -> float:
        return float(self.durations.sum())

    @staticmethod
    def empty(n_controls: int) -> "Waveform":
        return Waveform(np.zeros(0), np.zeros((0, n_controls)))

    @staticmethod
    def constant(duration: float, amplitudes) -> "Waveform":
        amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        return Waveform(np.array([duration]), amps.reshape(1, -1))

    def concatenate(self, other: "Waveform") -> "Waveform":
        if other.n_controls != self.n_controls:
            raise ValueError("control counts differ")
        return Waveform(
            np.concatenate([self.durations, other.durations]),
            np.vstack([self.amplitudes, other.amplitudes]),
        )


@dataclass(frozen=True)
class PhaseImprint:
    """A phase e^{-i angle} applied to one fiducial basis state."""

    angle: float
    fiducial_index: int = 0

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError("imprint angle must be finite")
        object.__setattr__(self, "angle", float(np.mod(self.angle, TWO_PI)))


def check_amplitudes(sys: ControlSystem, w: Waveform) -> None:
    """Reject waveforms whose amplitudes violate the system's bounds."""
    if w.n_controls != sys.n_controls:
        raise ValueError(f"waveform has {w.n_controls} controls, system has {sys.n_controls}")
    for k, (lo, hi) in enumerate(sys.amplitude_bounds):
        col = w.amplitudes[:, k]
        bad = np.where(~np.isfinite(col) | (col < lo - AMPLITUDE_TOL) | (col > hi + AMPLITUDE_TOL))[0]
        if bad.size:
            raise ValueError(
                f"amplitude {col[bad[0]]:g} of control {k} in segment {bad[0]} "
                f"violates bounds [{lo:g}, {hi:g}]"
            )


def segment_hamiltonians(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """(M, d, d) stack of per-segment generators H0 + sum_k u_k H_k."""
    hks = np.stack(sys.controls) if sys.controls else np.zeros((0, sys.dim, sys.dim))
    return sys.drift[None, :, :] + np.einsum("mk,kij->mij", w.amplitudes, hks)


def segment_eigs(sys: ControlSystem, w: Waveform):
    """Batched eigendecomposition of all segment generators."""
    return np.linalg.eigh(segment_hamiltonians(sys, w))


def segment_propagators(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """(M, d, d) stack of per-segment propagators exp(-i H_m tau_m)."""
    lam, v = segment_eigs(sys, w)
    phases = np.exp(-1j * lam * w.durations[:, None])
    return np.einsum("mij,mj,mkj->mik", v, phases, v.conj())


def propagate(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """Total propagator U = U_M ... U_1 (last segment applied leftmost)."""
    check_amplitudes(sys, w)
    u = np.eye(sys.dim, dtype=complex)
    for step in segment_propagators(sys, w):
        u = step @ u
    return u


def apply_adjoint(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """Conjugate transpose of the waveform's propagator.

    Synthesis pipelines invert state maps through this exact adjoint, so
    their correctness never rests on the physical reversibility flag.
    """
    return propagate(sys, w).conj().T


def reverse_waveform(sys: ControlSystem, w: Waveform) -> Waveform:
    """Time-reversed waveform: segments reversed, amplitudes negated.

    Valid only when the model declares a reversible drift (sign control in
    the rotating frame) or has no drift at all; the caller must pair the
    result with the negated-drift system for the adjoint identity
    propagate(sys', reverse) = propagate(sys, w)† to hold.
    """
    drift_free = bool(np.abs(sys.drift).max() == 0.0)
    if not (sys.reversible_drift or drift_free):
        raise ValueError("drift is not reversible and is nonzero; cannot time-reverse")
    check_amplitudes(sys, w)
    neg = -w.amplitudes
    for k, (lo, hi) in enumerate(sys.amplitude_bounds):
        col = neg[:, k]
        bad = np.where((col < lo - AMPLITUDE_TOL) | (col > hi + AMPLITUDE_TOL))[0]
        if bad.size:
            raise ValueError(
                f"negated amplitude of control {k} in segment {bad[0]} "
                f"falls outside bounds [{lo:g}, {hi:g}]"
            )
    return Waveform(w.durations[::-1].copy(), neg[::-1].copy())


def phase_imprint_unitary(d: int, imprint: PhaseImprint) -> np.ndarray:
    """Diagonal unitary with e^{-i angle} at the fiducial position, 1 elsewhere."""
    if not 0 <= imprint.fiducial_index < d:
        raise ValueError(f"fiducial index {imprint.fiducial_index} out of range for d={d}")
    diag = np.ones(d, dtype=complex)
    diag[imprint.fiducial_index] = np.exp(-1j * imprint.angle)
    return np.diag(diag)


def lie_algebra_dimension(generators, max_dim: int | None = None) -> int:
    """Real dimension of the Lie algebra generated by i*(Hermitian generators).

    Nested-commutator scan: maintain an orthonormal real basis of the span
    (Hermitian matrices as real vectors) and close it under commutators.
    Used as a numerical controllability witness.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    d = mats[0].shape[0]
    cap = max_dim if max_dim is not None else d * d

    def to_vec(h):
        return np.concatenate([h.real.ravel(), h.imag.ravel()])

    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []

    def try_add(h) -> bool:
        v = to_vec(h)
        for b in basis_vecs:
            v = v - np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm < 1e-9 * max(1.0, np.abs(h).max()):
            return False
        basis_vecs.append(v / norm)
        basis_mats.append(h)
        return True

    scale = max(np.abs(m).max() for m in mats) or 1.0
    for m in mats:
        try_add(m / scale)
    frontier = list(range(len(basis_mats)))
    while frontier and len(basis_mats) < cap:
        new_frontier = []
        for i in frontier:
            for j in range(len(basis_mats)):
                if len(basis_mats) >= cap:
                    break
                # i[A, B] is Hermitian for Hermitian A, B
                comm = 1j * (basis_mats[i] @ basis_mats[j] - basis_mats[j] @ basis_mats[i])
                top = np.abs(comm).max()
                if top < 1e-12:
                    continue
                if try_add(comm / top):
                    new_frontier.append(len(basis_mats) - 1)
        frontier = new_frontier
    return len(basis_mats)
