"""Dense complex linear algebra primitives for small quantum systems.

States are unit-norm complex vectors, unitaries and Hermitian generators
are square complex ndarrays.  Everything here is a pure function; random
sampling takes an explicit ``numpy.random.Generator`` so results are
reproducible and streams are caller-owned.  The shared refusal rules live
here.  A state is a unit vector, so each entry point that takes one
refuses an entry above ``SQUARE_LIMIT`` at the door (``_refuse_non_finite``)
and then takes a plain ``np.linalg.norm``; the package's one overflow that
numpy is told to ignore (``np.errstate``) is the Hermitian defect's.  A
fidelity scores only maps that no vector grows under (``_contraction``),
so its score is 1 only for maps that agree.
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
#: entries up to this modulus square to at most 1e300, so the norms and matrix products here stay within float64
SQUARE_LIMIT = 1e150
#: largest |lambda t| (rad) a phase e^{-i lambda t} may reach: it is good to about |lambda t| 2^-52,
#: so this keeps every phase within about 1e-10 rad
PHASE_LIMIT = 4.5e5
#: largest dimension of a gate, map or random draw: a dense complex d x d matrix is then 16 MiB, so the few dozen
#: that a build or a Clifford check holds at once fit in a small machine's memory (at d = 100000 one alone is
#: 149 GiB); the paper's maps act on at most the 16 hyperfine ground levels of cesium
DIM_LIMIT = 1024


def _refuse_deviation(value: float, tol: float, non_finite: str, deviation: str) -> None:
    """Raise ValueError unless value <= tol: ``non_finite`` for a non-finite value, else ``deviation`` filled in."""
    # written as "not <=" so that a NaN fails the check too
    if not value <= tol:
        raise ValueError(non_finite if not np.isfinite(value) else deviation.format(value))


def _refuse_non_finite(values, message: str, oversized: str | None = None) -> None:
    """Raise ValueError(message) if values has a NaN or infinite entry, before any arithmetic can warn on it; given
    ``oversized``, raise that for an entry above ``SQUARE_LIMIT``, which no state, a unit vector, can have."""
    if not np.isfinite(values).all():
        raise ValueError(message)
    if oversized is not None and _peak(values) > SQUARE_LIMIT:
        raise ValueError(oversized)


def _peak(values) -> float:
    """The largest modulus of the real and imaginary parts of ``values``: NaN or inf for a non-finite entry."""
    values = np.asarray(values)
    return max(np.abs(values.real).max(initial=0.0), np.abs(values.imag).max(initial=0.0))


def _is_real(x) -> bool:
    """Whether x is a real number: a bool is not, nor is a numeric string, though numpy reads them as numbers."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    """Whether x is an integer: ``_is_real`` and ``Integral``, so neither a bool nor a float of integral value."""
    return _is_real(x) and isinstance(x, Integral)


def _real_number(value, name: str) -> float:
    """``value`` as a float, refusing one that is not ``_is_real``, or an integer too large for a float (Python and
    JSON integers are unbounded), with a message that starts with ``name``."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is an integer that overflows a float") from None


def _real_array(values) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, whose own errors propagate, refusing as TypeError an entry that is not
    ``_is_real`` but that the conversion reads as a number: None as nan, a bool as 0 or 1, a numeric string; and as
    ValueError an integer too large for a float."""
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError("an entry is an integer that overflows a float") from None
    entries = np.asarray(values, dtype=object).ravel().tolist()
    # _is_real depends on the type alone, and costs about 0.5 µs a call: check one entry per type
    if not all(map(_is_real, {type(x): x for x in entries}.values())):
        raise TypeError(f"{next(x for x in entries if not _is_real(x))!r} is not a real number")
    return arr


def _check_counts(record, **lows: int) -> None:
    """Refuse a field of ``record`` that is not an integer at or above its lower bound, naming the field."""
    for name, low in lows.items():
        value = getattr(record, name)
        if not (_is_integer(value) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_dim(d: int) -> int:
    """d as an int, refusing a dimension below 2 or above ``DIM_LIMIT`` before anything is allocated."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if d > DIM_LIMIT:
        raise ValueError(f"dimension must be <= {DIM_LIMIT}, got {d}")
    return int(d)


def as_state(psi, d: int | None = None) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size < 2:
        raise ValueError(f"state dimension must be >= 2, got {v.size}")
    if d is not None and v.size != d:
        raise ValueError(f"state has dimension {v.size}, expected {d}")
    _refuse_non_finite(v, "state has non-finite entries", f"state has an entry above {SQUARE_LIMIT:g} in modulus")
    deviation = "state norm deviates from 1 by {:.3e}"
    _refuse_deviation(abs(np.linalg.norm(v) - 1.0), STATE_NORM_TOL, deviation.format(np.inf), deviation)
    return v


def basis_state(d: int, index: int) -> np.ndarray:
    """Standard basis vector |index> in dimension d; a bool index, which numpy reads as a mask, is refused."""
    if not _is_integer(index):
        raise ValueError(f"basis index must be an integer, got {index!r}")
    if not 0 <= index < d:
        raise ValueError(f"basis index {index} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[index] = 1.0
    return v


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity: inf where an entry above ``SQUARE_LIMIT`` could overflow it."""
    u = np.asarray(u, dtype=complex)
    if _peak(u) > SQUARE_LIMIT:
        return np.inf
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def _square(m, defect, tol: float, deviation: str) -> np.ndarray:
    """``m`` as a complex square matrix whose ``defect(m)`` is within ``tol``; a larger one raises ``deviation``.

    The entries are finite by then, so an infinite defect is one that overflows float64.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _refuse_non_finite(m, "matrix has non-finite entries")
    _refuse_deviation(defect(m), tol, deviation.format(np.inf), deviation)
    return m


def assert_unitary(u) -> np.ndarray:
    """Validate and return a unitary matrix."""
    return _square(u, unitarity_defect, UNITARY_TOL, "matrix is not unitary: U†U deviates from I by {:.3e}")


def _hermitian_defect(h: np.ndarray) -> float:
    """Max-entry modulus of H - H†; inf, with no numpy warning, where the difference overflows."""
    with np.errstate(over="ignore"):
        return float(np.abs(h - h.conj().T).max())


def assert_hermitian(h) -> np.ndarray:
    """Validate and return a Hermitian matrix."""
    return _square(h, _hermitian_defect, HERMITIAN_TOL, "matrix is not Hermitian: H - H† deviates by {:.3e}")


def mat_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Diagonalizing keeps the result exactly unitary up to roundoff, with no
    step-size or squaring heuristics to tune at these dimensions.  A phase
    max|lambda| |t| above ``PHASE_LIMIT`` would carry no digits and is refused.
    """
    h = assert_hermitian(h)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    lam, v = np.linalg.eigh(h)
    # a product of Python floats overflows to inf without a numpy warning
    phase = float(np.abs(lam).max(initial=0.0)) * abs(float(t))
    deviation = ("phase max|lambda| |t| reaches {:.3g} rad, "
                 f"above the {PHASE_LIMIT:g} rad that keeps it accurate to 1e-10")
    _refuse_deviation(phase, PHASE_LIMIT, deviation.format(np.inf), deviation)
    return _eig_exp(lam, v, t)


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


def _contraction(m) -> np.ndarray:
    """``m`` as a complex matrix under which no vector grows: finite, with its largest singular value (inf where
    it overflows, with no numpy warning) within 1 + ``UNITARY_TOL``.  A unitary passes, and any block of one."""
    m = np.asarray(m, dtype=complex)
    _refuse_non_finite(m, "matrix has non-finite entries")
    deviation = "matrix is not a contraction: its largest singular value exceeds 1 by {:.3e}"
    _refuse_deviation(np.linalg.svd(m, compute_uv=False).max() - 1, UNITARY_TOL, deviation.format(np.inf), deviation)
    return m


def trace_fidelity(w: np.ndarray, u: np.ndarray) -> float:
    """|Tr(W†U)| / d of two ``_contraction``s, clipped at 1 for rounding: a global-phase-insensitive overlap."""
    if np.shape(w) != np.shape(u):
        raise ValueError(f"dimension mismatch: {np.shape(w)} vs {np.shape(u)}")
    w, u = _contraction(w), _contraction(u)
    return min(float(abs(np.trace(w.conj().T @ u)) / w.shape[0]), 1.0)


def haar_random_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure state: normalized vector of complex Gaussians."""
    _check_dim(d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    _check_dim(d)
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))
