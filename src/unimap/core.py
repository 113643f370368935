"""Dense complex linear algebra primitives for small quantum systems.

States are unit-norm complex vectors, unitaries and Hermitian generators
are square complex ndarrays.  Everything here is a pure function; random
sampling takes an explicit ``numpy.random.Generator`` so results are
reproducible and streams are caller-owned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi

#: tolerances used to accept/reject inputs, matching the documented contracts
STATE_NORM_TOL = 1e-12
UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12
PHASE_CLUSTER_TOL = 1e-9


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


def assert_unitary(u, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate and return a unitary matrix."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= tol:
        if not np.isfinite(defect):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix is not unitary: U†U deviates from I by {defect:.3e}")
    return u


def assert_hermitian(h, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate and return a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = float(np.abs(h - h.conj().T).max())
    if not defect <= tol:
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
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * lam * t)) @ v.conj().T


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenphases and orthonormal eigenvectors of a unitary.

    The source unitary is ``sum_j exp(-i phases[j]) |v_j><v_j|`` with
    ``v_j = vectors[:, j]``; phases lie in [0, 2pi).
    """

    phases: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def reassemble(self) -> np.ndarray:
        """Rebuild the unitary from phases and eigenvectors."""
        return (self.vectors * np.exp(-1j * self.phases)) @ self.vectors.conj().T


def eig_unitary(u: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a unitary with orthonormal eigenvectors.

    Uses the complex Schur form, which is diagonal for normal matrices and
    returns an orthonormal vector set even when eigenphases are degenerate
    or clustered; a QR pass re-orthonormalizes any phase cluster closer
    than ``PHASE_CLUSTER_TOL`` as a guard against Schur residue.
    """
    u = assert_unitary(u)
    t, z = scipy.linalg.schur(u, output="complex")
    eigvals = np.diag(t)
    phases = np.mod(-np.angle(eigvals), TWO_PI)
    # 2pi-within-tolerance wraps back to phase 0
    phases[phases >= TWO_PI - 1e-15] = 0.0
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    vectors = z[:, order]
    for start, stop in _phase_clusters(phases):
        if stop - start > 1:
            q, _ = np.linalg.qr(vectors[:, start:stop])
            vectors[:, start:stop] = q
    return SpectralDecomposition(phases=phases, vectors=vectors)


def _phase_clusters(phases: np.ndarray):
    """Index ranges of sorted phases closer than the degeneracy threshold.

    Wraparound clusters (phases near 0 and near 2pi) cannot occur because
    phases within tolerance of 2pi were already mapped to 0.
    """
    clusters = []
    start = 0
    for i in range(1, len(phases)):
        if phases[i] - phases[i - 1] > PHASE_CLUSTER_TOL:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(phases)))
    return clusters


def trace_fidelity(w: np.ndarray, u: np.ndarray) -> float:
    """|Tr(W†U)| / d, a global-phase-insensitive overlap of unitaries."""
    w = np.asarray(w, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if w.shape != u.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {u.shape}")
    d = w.shape[0]
    return min(float(abs(np.trace(w.conj().T @ u)) / d), 1.0)


def state_fidelity(psi: np.ndarray, chi: np.ndarray) -> float:
    """|<chi|psi>|^2 for unit-norm states."""
    psi = as_state(psi)
    chi = as_state(chi)
    if psi.size != chi.size:
        raise ValueError(f"dimension mismatch: {psi.size} vs {chi.size}")
    return min(float(abs(np.vdot(chi, psi)) ** 2), 1.0)


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
