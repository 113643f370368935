"""Dense complex linear algebra primitives for small quantum systems.

States are unit-norm complex vectors, unitaries and Hermitian generators
are square complex ndarrays.  Everything here is a pure function; random
sampling takes an explicit ``numpy.random.Generator`` so results are
reproducible and streams are caller-owned.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

#: tolerances used to accept/reject inputs, matching the documented contracts
STATE_NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12


def as_state(psi, d: int | None = None) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size < 2:
        raise ValueError(f"state dimension must be >= 2, got {v.size}")
    if d is not None and v.size != d:
        raise ValueError(f"state has dimension {v.size}, expected {d}")
    norm = np.linalg.norm(v)
    # written as "not <=" so that a NaN norm fails the check too
    if not abs(norm - 1.0) <= STATE_NORM_TOL:
        if not np.isfinite(norm):
            raise ValueError("state has non-finite entries")
        raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
    return v


def basis_state(d: int, index: int) -> np.ndarray:
    """Standard basis vector |index> in dimension d."""
    if not 0 <= index < d:
        raise ValueError(f"basis index {index} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[index] = 1.0
    return v


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def assert_unitary(u) -> np.ndarray:
    """Validate and return a unitary matrix."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        if not np.isfinite(defect):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not unitary: U†U deviates from I by {defect:.3e}")
    return u


def assert_hermitian(h) -> np.ndarray:
    """Validate and return a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = float(np.abs(h - h.conj().T).max())
    if not defect <= HERMITIAN_TOL:
        if not np.isfinite(defect):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not Hermitian: H - H† deviates by {defect:.3e}")
    return h


def mat_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Diagonalizing keeps the result exactly unitary up to roundoff, with no
    step-size or squaring heuristics to tune at these dimensions.
    """
    h = assert_hermitian(h)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    return _eig_exp(*np.linalg.eigh(h), t)


def _eig_exp(lam: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) = V e^{-i lam t} V† for H = V diag(lam) V†; stacks (M, d), (M, d, d), (M,) give (M, d, d)."""
    phases = np.exp(-1j * lam * np.asarray(t)[..., None])
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


class SpectralDecomposition(NamedTuple):
    """Eigenphases and orthonormal eigenvectors of a unitary.

    The source unitary is ``sum_j exp(-i phases[j]) |v_j><v_j|`` with
    ``v_j = vectors[:, j]``; phases lie in [0, 2pi).
    """

    phases: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def eig_unitary(u: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a unitary with orthonormal eigenvectors.

    The unitary is first turned, W = e^{ia} U, so that -1 sits midway across
    the widest gap of its spectrum: no eigenvalue of W is then closer to -1
    than half that gap, which is at least pi/d, so I + W is well
    conditioned.  Its Cayley transform C = i (I + W)^{-1} (I - W) is
    Hermitian with eigenvalue tan(alpha/2) for each eigenvalue e^{i alpha}
    of W, alpha in (-pi, pi); the map is strictly increasing, so distinct
    phases stay distinct, and the Hermitian ``eigh`` of C returns
    orthonormal eigenvectors even when phases are degenerate or clustered.
    Each phase is then read from the Rayleigh quotient v†Uv of its vector,
    on U itself, so neither the turn nor the tan map costs digits.  Phases
    are returned in stable order of ascending phase.
    """
    u = assert_unitary(u)
    angles = sorted(np.angle(np.linalg.eigvals(u)).tolist())
    gap, below = max((b - a, a) for a, b in zip(angles, angles[1:] + [angles[0] + TWO_PI]))
    w = u * np.exp(1j * (np.pi - below - gap / 2))
    eye = np.eye(u.shape[0])
    c = 1j * np.linalg.solve(eye + w, eye - w)
    # C is Hermitian only up to rounding, and eigh would read just one triangle
    _, vectors = np.linalg.eigh((c + c.conj().T) / 2)
    phases = np.mod(-np.angle(np.einsum("ij,ij->j", vectors.conj(), u @ vectors)), TWO_PI)
    # 2pi-within-tolerance wraps back to phase 0
    phases[phases >= TWO_PI - 1e-15] = 0.0
    order = np.argsort(phases, kind="stable")
    return SpectralDecomposition(phases=phases[order], vectors=vectors[:, order])


def trace_fidelity(w: np.ndarray, u: np.ndarray) -> float:
    """|Tr(W†U)| / d, a global-phase-insensitive overlap of unitaries."""
    w = np.asarray(w, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if w.shape != u.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {u.shape}")
    d = w.shape[0]
    return min(float(abs(np.trace(w.conj().T @ u)) / d), 1.0)


def haar_random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: normalized vector of complex Gaussians."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))
