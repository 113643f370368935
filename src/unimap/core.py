"""Dense complex linear algebra primitives for small quantum systems.

States are unit-norm complex vectors, unitaries and Hermitian generators
are square complex ndarrays.  Everything here is a pure function; random
sampling takes an explicit ``numpy.random.Generator`` so results are
reproducible and streams are caller-owned.
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

#: tolerances used to accept/reject inputs, matching the documented contracts
STATE_NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12


def _refuse_deviation(value: float, tol: float, non_finite: str, deviation: str) -> None:
    """Raise ValueError unless value <= tol: ``non_finite`` for a non-finite value, else ``deviation`` filled in."""
    # written as "not <=" so that a NaN fails the check too
    if not value <= tol:
        raise ValueError(non_finite if not np.isfinite(value) else deviation.format(value))


def _refuse_non_finite(values, message: str) -> None:
    """Raise ValueError(message) if values has a NaN or infinite entry, before any arithmetic can warn on it."""
    if not np.isfinite(values).all():
        raise ValueError(message)


def _is_real(x) -> bool:
    """Whether x is a real number: a bool is not, nor is a numeric string, though numpy reads them as numbers."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _real_array(values) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, whose own errors propagate, refusing as TypeError an entry that is not
    ``_is_real`` but that the conversion reads as a number: None as nan, a bool as 0 or 1, a numeric string."""
    arr = np.asarray(values, dtype=float)
    entries = np.asarray(values, dtype=object).ravel().tolist()
    # _is_real depends on the type alone, and costs about 0.5 µs a call: check one entry per type
    if not all(map(_is_real, {type(x): x for x in entries}.values())):
        raise TypeError(f"{next(x for x in entries if not _is_real(x))!r} is not a real number")
    return arr


def _check_counts(record, **lows: int) -> None:
    """Refuse a field of ``record`` that is not an integer at or above its lower bound, naming the field."""
    for name, low in lows.items():
        value = getattr(record, name)
        if not (_is_real(value) and isinstance(value, Integral) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_dim(d: int) -> int:
    """d as an int, refusing a dimension below 2."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return int(d)


def as_state(psi, d: int | None = None) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size < 2:
        raise ValueError(f"state dimension must be >= 2, got {v.size}")
    if d is not None and v.size != d:
        raise ValueError(f"state has dimension {v.size}, expected {d}")
    deviation = abs(np.linalg.norm(v) - 1.0)
    _refuse_deviation(deviation, STATE_NORM_TOL, "state has non-finite entries", "state norm deviates from 1 by {:.3e}")
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


def _square(m, defect, tol: float, deviation: str) -> np.ndarray:
    """``m`` as a complex square matrix whose ``defect(m)`` is within ``tol``; a larger one raises ``deviation``."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _refuse_non_finite(m, "matrix has non-finite entries")
    _refuse_deviation(defect(m), tol, "matrix has non-finite entries", deviation)
    return m


def assert_unitary(u) -> np.ndarray:
    """Validate and return a unitary matrix."""
    return _square(u, unitarity_defect, UNITARY_TOL, "matrix is not unitary: U†U deviates from I by {:.3e}")


def assert_hermitian(h) -> np.ndarray:
    """Validate and return a Hermitian matrix."""
    return _square(h, lambda h: float(np.abs(h - h.conj().T).max()), HERMITIAN_TOL,
                   "matrix is not Hermitian: H - H† deviates by {:.3e}")


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
    _refuse_non_finite([w, u], "matrix has non-finite entries")
    d = w.shape[0]
    return min(float(abs(np.trace(w.conj().T @ u)) / d), 1.0)


def haar_random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: normalized vector of complex Gaussians."""
    _check_dim(d)
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
