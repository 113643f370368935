"""Bilinear control systems H0 + sum_k u_k(t) H_k with piecewise-constant waveforms.

A ``ControlSystem`` bundles the drift generator, the control generators
(rad/s), per-control bounds on the dimensionless amplitudes, and the index
of the fiducial basis state.  A ``Waveform`` is an ordered list of
segments, each a duration in seconds plus one amplitude per control.

Segment generators are diagonalized in one batched ``eigh``.  When the
couplings of drift and controls form a single chain (a path graph, as in
the cesium model), the generators are diagonalized in chain order, where a
diagonal phase gauge makes each one real symmetric tridiagonal, so the
real ``eigh`` is used; any other coupling pattern takes the complex
``eigh`` in the natural basis order.

The builder in ``subspace`` needs no matrix for the fiducial phase imprint
P(theta): its factor V† P(theta) V depends on V only through
chi = V†|fiducial>, the conjugated fiducial row of the propagator that
``propagate`` returns and that a search result carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _eig_exp, assert_hermitian, basis_state

AMPLITUDE_TOL = 1e-12
#: largest |lambda tau| (rad) a segment may reach: e^{-i lambda tau} is good to about
#: |lambda tau| 2^-52, so this keeps every segment phase within about 1e-10 rad
PHASE_LIMIT = 4.5e5


def _readonly(a) -> np.ndarray:
    """``a`` itself when it is a read-only array that owns its memory, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable:
        return a
    a = np.array(a)
    a.setflags(write=False)
    return a


def _path_walk(pattern: np.ndarray) -> np.ndarray | None:
    """Nodes of the graph with adjacency ``pattern`` in order from one end, if it is a path.

    The diagonal of ``pattern`` is ignored.  The graph is a path when it has
    d - 1 edges, no node of degree above 2, and is connected; otherwise None.
    """
    adj = np.array(pattern, dtype=bool)
    np.fill_diagonal(adj, False)
    d = adj.shape[0]
    degree = adj.sum(axis=1)
    if degree.sum() != 2 * (d - 1) or degree.max() > 2:
        return None
    # with d - 1 edges some node has degree below 2: start the walk there
    walk = [int(np.argmin(degree))]
    while len(walk) < d:
        step = [j for j in np.flatnonzero(adj[walk[-1]]) if j not in walk[-2:]]
        if not step:
            return None  # the walk ended early: the graph is not connected
        walk.append(int(step[0]))
    return _readonly(walk)


@dataclass(frozen=True, eq=False)
class ControlSystem:
    """Immutable bilinear control model H[u] = drift + sum_k u_k * controls[k].

    ``controls`` is a sequence of (d, d) generators or one (K, d, d) array;
    ``controls`` then holds read-only views into ``control_stack``.  A
    drift or stack given as a read-only array that owns its memory is
    shared, not copied.
    """

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]
    amplitude_bounds: tuple[tuple[float, float], ...]
    fiducial_index: int
    name: str = ""
    #: (K, d, d) stack of the control generators, built once per system
    control_stack: np.ndarray = field(init=False, repr=False)
    #: (2, K) lower and upper amplitude bounds, one column per control
    bound_array: np.ndarray = field(init=False, repr=False)
    #: basis indices in chain order from one end when the drift and controls
    #: couple the levels along a single path, else None
    chain_walk: np.ndarray | None = field(init=False, repr=False)
    #: ||H0|| + sum_k ||H_k|| max(|lo_k|, |hi_k|) (rad/s, spectral norms), a bound on
    #: every segment generator within the amplitude bounds
    generator_bound: float = field(init=False, repr=False)
    #: (K,) Fubini–Study speed (lam_max - lam_min) / 2 (rad/s) of each control generator, 1 for one of
    #: zero spread (zero, or a multiple of I): the units in which the search damps each amplitude
    control_speeds: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        drift = _readonly(assert_hermitian(self.drift))
        d = drift.shape[0]
        checked = [assert_hermitian(h) for h in self.controls]
        for k, h in enumerate(checked):
            if h.shape != (d, d):
                raise ValueError(f"control {k} has shape {h.shape}, expected {(d, d)}")
        # one copy of the generators, each control a read-only view into it; a read-only
        # (K, d, d) array given as ``controls`` is that copy already, and is shared
        stack = _readonly(np.asarray(self.controls, dtype=complex) if checked else np.zeros((0, d, d), dtype=complex))
        controls = tuple(stack)
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
        object.__setattr__(self, "control_stack", stack)
        object.__setattr__(self, "bound_array", _readonly(np.array(bounds, dtype=float).reshape(-1, 2).T))
        coupled = np.abs(drift) + np.abs(stack).sum(axis=0)
        object.__setattr__(self, "chain_walk", _path_walk(coupled != 0))
        # summed in Python floats, which overflow to inf without a numpy warning
        bound = float(np.linalg.norm(drift, 2)) + sum(
            float(np.linalg.norm(h, 2)) * max(abs(lo), abs(hi)) for h, (lo, hi) in zip(controls, bounds)
        )
        object.__setattr__(self, "generator_bound", bound)
        speeds = np.ptp(np.linalg.eigvalsh(stack), axis=-1) / 2
        object.__setattr__(self, "control_speeds", _readonly(np.where(speeds > 0, speeds, 1.0)))

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def fiducial_state(self) -> np.ndarray:
        return basis_state(self.dim, self.fiducial_index)


@dataclass(frozen=True, eq=False)
class Waveform:
    """Piecewise-constant control amplitudes: durations (M,) and amplitudes (M, K)."""

    durations: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        durations = np.asarray(self.durations, dtype=float)
        # a reshaped view would make ``_readonly`` copy an array it could share
        durations = _readonly(durations if durations.ndim == 1 else durations.reshape(-1))
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
    def total_duration(self) -> float:
        return float(self.durations.sum())


def _mirror_signs(
    src: ControlSystem, dst: ControlSystem, mirror: np.ndarray, conjugate: bool = False
) -> np.ndarray | None:
    """Signs sigma with image(H_k(src)) = sigma_k H_k(dst) for every control, when ``mirror`` S gives an exact map.

    The image of a generator H is S H Sᵀ, or -S H* Sᵀ when ``conjugate``
    (the antiunitary map psi -> S conj(psi)).  S must be a signed
    permutation matrix.  Every check is exact: the image must carry the
    drift onto the drift, each control onto plus or minus its counterpart,
    each bounds pair onto its counterpart's (reflected for sigma_k = -1),
    and the fiducial state onto plus or minus the other.  Then the src
    waveform with amplitudes u plays S U Sᵀ (S conj(U) Sᵀ when
    ``conjugate``) on dst with amplitudes sigma u, inside dst's bounds.
    With S = I and dst = src, ``conjugate`` gives the signs with
    conj(U(u)) = U(sigma u).  Returns None when any check fails.
    """
    if src.dim != dst.dim or src.n_controls != dst.n_controls:
        return None
    if abs(mirror[dst.fiducial_index, src.fiducial_index]) != 1:
        return None

    def image(h):
        return -(mirror @ h.conj() @ mirror.T) if conjugate else mirror @ h @ mirror.T

    if not np.array_equal(image(src.drift), dst.drift):
        return None
    signs = []
    for h, h_dst, (lo, hi), bounds_dst in zip(src.controls, dst.controls, src.amplitude_bounds, dst.amplitude_bounds):
        h_image = image(h)
        if np.array_equal(h_image, h_dst) and bounds_dst == (lo, hi):
            signs.append(1.0)
        elif np.array_equal(h_image, -h_dst) and bounds_dst == (-hi, -lo):
            signs.append(-1.0)
        else:
            return None
    return _readonly(signs)


def check_amplitudes(sys: ControlSystem, w: Waveform) -> None:
    """Reject waveforms whose amplitudes are non-finite or violate the system's bounds."""
    if w.n_controls != sys.n_controls:
        raise ValueError(f"waveform has {w.n_controls} controls, system has {sys.n_controls}")
    amps = w.amplitudes
    low, high = sys.bound_array
    ok = np.isfinite(amps) & (amps >= low - AMPLITUDE_TOL) & (amps <= high + AMPLITUDE_TOL)
    if not ok.all():
        k, m = np.argwhere(~ok.T)[0]  # control by control: the first bad segment of the lowest control
        lo, hi = sys.amplitude_bounds[k]
        raise ValueError(
            f"amplitude {amps[m, k]:g} of control {k} in segment {m} violates bounds [{lo:g}, {hi:g}]"
        )


def check_segment_phase(sys: ControlSystem, duration: float) -> None:
    """Reject a segment duration over which the system's generators may turn more than PHASE_LIMIT rad."""
    phase = sys.generator_bound * duration
    if not phase <= PHASE_LIMIT:
        raise ValueError(
            f"system {sys.name!r}: generator bound {sys.generator_bound:.6g} rad/s times segment duration "
            f"{duration:g} s reaches {phase:.3g} rad, above the {PHASE_LIMIT:g} rad that keeps segment phases "
            f"accurate to 1e-10"
        )


def segment_hamiltonians(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """(M, d, d) stack of per-segment generators H0 + sum_k u_k H_k."""
    d = sys.dim
    ctrl = w.amplitudes @ sys.control_stack.reshape(sys.n_controls, d * d)
    return sys.drift + ctrl.reshape(w.n_segments, d, d)


def _chain_gauged(h: np.ndarray, walk: np.ndarray):
    """The (M, d, d) generators ``h`` in chain order, gauged to real tridiagonal form.

    Returns (t, g): t_ab = conj(g_a) H_{walk_a, walk_b} g_b, real up to
    rounding, with the phases g = e^{i theta} (M, d), where theta is the
    negated running sum of the coupling phases along the chain.
    """
    h = h[:, walk[:, None], walk]
    theta = np.zeros(h.shape[:2])
    theta[:, 1:] = -np.cumsum(np.angle(np.diagonal(h, 1, axis1=1, axis2=2)), axis=1)
    g = np.exp(1j * theta)
    return g.conj()[:, :, None] * h * g[:, None, :], g


def segment_eigs(sys: ControlSystem, w: Waveform):
    """Batched eigendecomposition (lam, V) of all segment generators, H_m = V_m diag(lam_m) V_m†.

    A chain-coupled system is diagonalized in chain order, where the gauge
    of ``_chain_gauged`` makes every generator real symmetric tridiagonal,
    the textbook case of the real ``eigh`` (Golub & Van Loan, Matrix
    Computations, section 8.3).  Its eigenvector rows, times the phases g,
    are scattered back to the natural basis: V[walk] = diag(g) Q.
    """
    h = segment_hamiltonians(sys, w)
    walk = sys.chain_walk
    if walk is None:
        return np.linalg.eigh(h)
    t, g = _chain_gauged(h, walk)
    lam, q = np.linalg.eigh(t.real)
    v = np.empty(h.shape, dtype=complex)
    v[:, walk] = g[:, :, None] * q
    return lam, v


def _product(stack: np.ndarray) -> np.ndarray:
    """U = U_M ... U_1 of an (M, d, d) stack of segment propagators, the last applied leftmost."""
    u = np.eye(stack.shape[-1], dtype=complex)
    for step in stack:
        u = step.dot(u)
    return u


def propagate(sys: ControlSystem, w: Waveform) -> np.ndarray:
    """Total propagator U = U_M ... U_1 of the segments U_m = exp(-i H_m tau_m), the last applied leftmost."""
    check_amplitudes(sys, w)
    check_segment_phase(sys, float(w.durations.max(initial=0.0)))
    return _product(_eig_exp(*segment_eigs(sys, w), w.durations))

