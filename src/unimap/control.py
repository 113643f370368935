"""Bilinear control systems H0 + sum_k u_k(t) H_k with piecewise-constant waveforms.

A ``ControlSystem`` bundles the drift generator, the control generators
(rad/s), per-control bounds on the dimensionless amplitudes, and the index
of the fiducial basis state.  A ``Waveform`` is an ordered list of
segments, each a duration in seconds plus one amplitude per control.
``check_waveform`` is the one rule for a waveform a system plays: finite
amplitudes inside the bounds, then segment phases within ``PHASE_LIMIT``.
``segment_eigs``, ``propagate`` and the scorers in ``search`` call it;
``_segment_eigs`` checks nothing, for the search loop's own trial points.

Segment generators are diagonalized in one batched ``eigh``.  When the
couplings of drift and controls form a single chain (a path graph, as in
the cesium model), the generators are built and diagonalized in chain
order, where a diagonal phase gauge makes each one real symmetric
tridiagonal, so the real ``eigh`` is used; any other coupling pattern
takes the complex ``eigh`` in the natural basis order.

The builder in ``subspace`` needs no matrix for the fiducial phase imprint
P(theta): its factor V† P(theta) V depends on V only through
chi = V†|fiducial>, the conjugated fiducial row of the propagator that
``propagate`` returns and that a search result carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import PHASE_LIMIT, _eig_exp, _integer, _number_array, assert_hermitian, basis_state

AMPLITUDE_TOL = 1e-12


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

    ``controls``, given as a sequence of (d, d) generators or one (K, d, d)
    array, is kept as one read-only (K, d, d) array, and
    ``amplitude_bounds``, one (lower, upper) pair per control, as one
    read-only (K, 2) float array.  An array given as a read-only array that
    owns its memory is shared, not copied.
    """

    drift: np.ndarray
    controls: np.ndarray
    amplitude_bounds: np.ndarray
    fiducial_index: int
    name: str = ""
    #: basis indices in chain order from one end when the drift and controls
    #: couple the levels along a single path, else None
    chain_walk: np.ndarray | None = field(init=False, repr=False)
    #: ||H0|| + sum_k ||H_k|| max(|lo_k|, |hi_k|) (rad/s, spectral norms), a bound on
    #: every segment generator within the amplitude bounds
    generator_bound: float = field(init=False, repr=False)
    #: (K,) Fubini–Study speed (lam_max - lam_min) / 2 (rad/s) of each control generator, 1 for one of
    #: zero spread (zero, or a multiple of I): the units in which the search damps each amplitude
    control_speeds: np.ndarray = field(init=False, repr=False)
    #: state maps ``search.multi_start`` served on this system, keyed and stored as ``search`` does
    kept_results: dict = field(init=False, repr=False, default_factory=dict)
    #: exact symmetries onto this system, in the order ``search.add_symmetry`` added them
    symmetries: list = field(init=False, repr=False, default_factory=list)

    def __post_init__(self):
        drift = _readonly(assert_hermitian(self.drift))
        d = drift.shape[0]
        checked = [assert_hermitian(h) for h in self.controls]
        if not checked:
            raise ValueError(f"system {self.name!r} has no controls: at least one control generator is required")
        for k, h in enumerate(checked):
            if h.shape != (d, d):
                raise ValueError(f"control {k} has shape {h.shape}, expected {(d, d)}")
        controls = _readonly(_number_array(self.controls, complex))
        rule = "one (lower, upper) bounds pair per control is required"
        try:
            bounds = _readonly(_number_array(self.amplitude_bounds))
        except (TypeError, ValueError) as err:
            rows = sorted({np.shape(row) for row in self.amplitude_bounds})
            if len(rows) > 1:
                raise ValueError(f"{rule}: the rows are ragged, with shapes {rows} for {len(controls)} controls") from None
            raise ValueError(f"{rule} for {len(controls)} controls: {err}") from None
        if bounds.shape != (len(controls), 2):
            raise ValueError(f"{rule}: got shape {bounds.shape} for {len(controls)} controls")
        pairs = bounds.tolist()
        for k, (lo, hi) in enumerate(pairs):
            if not lo < hi:
                raise ValueError(f"bounds for control {k} are empty: [{lo}, {hi}]")
            if not -np.inf < lo < hi < np.inf:
                raise ValueError(f"bounds for control {k} are not finite: [{lo}, {hi}]")
        object.__setattr__(self, "fiducial_index", _integer(self.fiducial_index, "fiducial index", 0, d - 1))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "amplitude_bounds", bounds)
        object.__setattr__(self, "chain_walk", _path_walk((drift != 0) | (controls != 0).any(axis=0)))
        # spectral norms as largest |eigenvalue|, summed in Python floats, which overflow to inf without a numpy warning
        spectra = np.linalg.eigvalsh(np.concatenate((drift[None], controls)))
        norms = np.maximum(-spectra[:, 0], spectra[:, -1]).tolist()
        bound = norms[0] + sum(n * max(abs(lo), abs(hi)) for n, (lo, hi) in zip(norms[1:], pairs))
        if not np.isfinite(bound):
            raise ValueError(f"system {self.name!r}: generator bound ||H0|| + sum_k ||H_k|| max|u_k| overflows float64")
        object.__setattr__(self, "generator_bound", bound)
        speeds = np.ptp(spectra[1:], axis=-1) / 2
        object.__setattr__(self, "control_speeds", _readonly(np.where(speeds > 0, speeds, 1.0)))

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @property
    def n_controls(self) -> int:
        return len(self.controls)

    def fiducial_state(self) -> np.ndarray:
        return basis_state(self.dim, self.fiducial_index)

    @cached_property
    def conjugation_signs(self) -> np.ndarray | None:
        """Signs sigma with conj(U(u)) = U(sigma u), or None (``_mirror_signs`` with S = I), worked out on first use."""
        return _mirror_signs(self, self, np.eye(self.dim), conjugate=True)


@dataclass(frozen=True, eq=False)
class Waveform:
    """Piecewise-constant control amplitudes: durations (M,) and amplitudes (M, K)."""

    durations: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        durations = _readonly(_number_array(self.durations))
        if durations.ndim != 1:
            raise ValueError(f"durations must be 1-d (one per segment), got {durations.ndim}-d")
        amplitudes = _number_array(self.amplitudes)
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
    for h, h_dst, bounds, bounds_dst in zip(src.controls, dst.controls, src.amplitude_bounds, dst.amplitude_bounds):
        h_image = image(h)
        if np.array_equal(h_image, h_dst) and np.array_equal(bounds_dst, bounds):
            signs.append(1.0)
        elif np.array_equal(h_image, -h_dst) and np.array_equal(bounds_dst, -bounds[::-1]):
            signs.append(-1.0)
        else:
            return None
    return _readonly(signs)


def check_waveform(sys: ControlSystem, w: Waveform) -> None:
    """The rule for a waveform played on a system: finite amplitudes inside its bounds, then ``check_segment_phase``
    on the longest segment."""
    if w.n_controls != sys.n_controls:
        raise ValueError(f"waveform has {w.n_controls} controls, system has {sys.n_controls}")
    amps = w.amplitudes
    low, high = sys.amplitude_bounds.T
    ok = np.isfinite(amps) & (amps >= low - AMPLITUDE_TOL) & (amps <= high + AMPLITUDE_TOL)
    if not ok.all():
        k, m = np.argwhere(~ok.T)[0]  # control by control: the first bad segment of the lowest control
        lo, hi = sys.amplitude_bounds[k]
        raise ValueError(
            f"amplitude {amps[m, k]:g} of control {k} in segment {m} violates bounds [{lo:g}, {hi:g}]"
        )
    check_segment_phase(sys, float(w.durations.max(initial=0.0)))


def check_segment_phase(sys: ControlSystem, duration: float) -> None:
    """Reject a segment duration over which the system's generators may turn more than PHASE_LIMIT rad."""
    phase = sys.generator_bound * duration
    if not phase <= PHASE_LIMIT:
        raise ValueError(
            f"system {sys.name!r}: generator bound {sys.generator_bound:.6g} rad/s times segment duration "
            f"{duration:g} s reaches {phase:.3g} rad, above the {PHASE_LIMIT:g} rad that keeps segment phases "
            f"accurate to 1e-10"
        )


def _generators(sys: ControlSystem, amps: np.ndarray, walk: np.ndarray | None = None) -> np.ndarray:
    """(M, d, d) stack of the generators H0 + sum_k u_k H_k of the rows u of an (M, K) amplitude array.

    With ``walk``, in that basis order, from the drift and controls gathered into it.
    """
    drift, controls, d = sys.drift, sys.controls, sys.dim
    if walk is not None:
        drift, controls = drift[walk[:, None], walk], controls[:, walk[:, None], walk]
    return drift + (amps @ controls.reshape(sys.n_controls, d * d)).reshape(len(amps), d, d)


def _chain_gauged(h: np.ndarray):
    """The (M, d, d) generators ``h``, given in chain order, gauged to real tridiagonal form.

    Returns (t, g): t_ab = conj(g_a) h_ab g_b, real up to rounding, with
    the phases g = e^{i theta} (M, d), where theta is the negated running
    sum of the coupling phases h_{a, a+1} along the chain.
    """
    theta = np.zeros(h.shape[:2])
    theta[:, 1:] = -np.cumsum(np.angle(np.diagonal(h, 1, axis1=1, axis2=2)), axis=1)
    g = np.exp(1j * theta)
    return g.conj()[:, :, None] * h * g[:, None, :], g


def segment_eigs(sys: ControlSystem, w: Waveform):
    """Batched eigendecomposition (lam, V) of all segment generators, H_m = V_m diag(lam_m) V_m†."""
    check_waveform(sys, w)
    return _segment_eigs(sys, w.amplitudes)


def _segment_eigs(sys: ControlSystem, amps: np.ndarray):
    """``segment_eigs`` of an (M, K) amplitude array, with no ``check_waveform``.

    A chain-coupled system's generators are built in chain order, from the
    drift and controls gathered into it (``_generators``), and the gauge of
    ``_chain_gauged`` makes every one real symmetric tridiagonal, the
    textbook case of the real ``eigh`` (Golub & Van Loan, Matrix
    Computations, section 8.3).  Its eigenvector rows, times the phases g,
    are scattered back to the natural basis: V[walk] = diag(g) Q.
    """
    walk = sys.chain_walk
    h = _generators(sys, amps, walk)
    if walk is None:
        return np.linalg.eigh(h)
    t, g = _chain_gauged(h)
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
    check_waveform(sys, w)
    return _product(_eig_exp(*_segment_eigs(sys, w.amplitudes), w.durations))

