"""Projected Levenberg–Marquardt search for state-to-state control waveforms.

The objective is J = |<psi_f| U(T) |psi_i>|^2 over the segment amplitudes
of a piecewise-constant waveform.  The search minimizes the chordal
residual r = U(T)|psi_i> - e^{i alpha}|psi_f>, alpha = arg <psi_f|U(T)|psi_i>,
whose squared norm is 2(1 - sqrt J) at unit norm, so a state map is a
zero-residual least-squares problem, and each Levenberg–Marquardt trial
solves one damped (2d + 1) x (2d + 1) linear system for its step.
The loop scores plain (M, K) amplitude arrays, unchecked: the seed is drawn
inside the bounds, each trial is clipped to them, and a non-finite trial
stops the search.  One ``Waveform`` is built per result; the public entry
points (``objective_state_prep``, ``gradient_state_prep``) refuse what
``control.check_waveform`` refuses, segment phases included.
Each trial point diagonalizes its M segment generators once
(``control._segment_eigs``: built in chain order and diagonalized with a
real ``eigh`` when the system couples its levels in a single chain, as the
cesium model does; otherwise the complex ``eigh``) and builds the stacked
segment propagators U_m = V_m e^{-i lam_m tau_m} V_m† in one batched
product.  The forward pass (``_forward``) applies that stack to the initial
state.  A result carries the stack's product U = U_M ... U_1 as its
propagator, formed as ``control.propagate`` forms it, so no waveform a
search scored is diagonalized again.  One kernel differentiates a block of
n bras against those forward kets: its backward sweep applies the same
stack to all n bras at once, and the spectral divided-difference kernel of
the matrix exponential is contracted for all segments against the system's
cached stack of control generators.  The bra <psi_f| gives the exact
gradient of J; the d identity rows give d(U psi_i)/du, hence the
(2d + 1) x MK Jacobian of r.

``multi_start`` keeps its results on the system (``kept_results``), so
they go when the system goes.  On a miss it tries the all-zero waveform
(the identity on a drift-free system, as every searched build is, so
scored with no eigendecomposition; otherwise by ``_replayed``, which scores
every waveform no search ran), then the image of a kept result under an
exact symmetry onto the system, and only then searches.  Its restarts are
retries: the next one runs only when every earlier one missed the goal.
The symmetries are those a caller added to the system's ``symmetries``
with ``add_symmetry`` (a signed permutation S from one system onto another
that carries every control onto plus or minus a control), then the
system's own complex conjugation where conj(U(u)) = U(sigma u) (the cesium
model at zero rf detuning).  Either way a waveform that maps a to b maps
the image of a to the image of b once each control's amplitudes are
multiplied by its sign sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .control import (
    ControlSystem,
    Waveform,
    _mirror_signs,
    _product,
    _segment_eigs,
    check_segment_phase,
    check_waveform,
)
from .core import _check_counts, _eig_exp, _real_number, as_state

GRAD_NORM_STOP = 1e-9
#: the Levenberg–Marquardt damping mu starts at MU_START times the largest diagonal entry of
#: the Gram matrix J Jᵀ, and the search stops once a rejected step lifts it above MU_CAP times
#: that entry, where a step no longer moves the amplitudes past their rounding
MU_START = 1e-3
MU_CAP = 1e16
#: two unit states are one state up to a phase when |<a|b>| >= 1 - MATCH_TOL
MATCH_TOL = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one state-map search.

    ``restarts`` is the most searches ``multi_start`` tries: restart r + 1
    runs only when restarts 0..r all missed ``fidelity_goal``.  The
    defaults are the CLI's: its --segment-duration, --goal,
    --max-iterations, --seed and --restarts read them.
    """

    segment_count: int
    segment_duration: float = 10e-6
    fidelity_goal: float = 0.99
    max_iterations: int = 5000
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        _check_counts(self, segment_count=1, max_iterations=0, seed=0, restarts=1)
        for name in ("segment_duration", "fidelity_goal"):
            _real_number(getattr(self, name), name)
        if not 0 < self.segment_duration < math.inf:
            raise ValueError("segment_duration must be finite and > 0")
        if not 0 < self.fidelity_goal <= 1:
            raise ValueError("fidelity_goal must lie in (0, 1]")


def default_search_config(sys: ControlSystem, **overrides) -> SearchConfig:
    """Config sized so the variable count clears 2 d^2 for this system.

    Keeps the search comfortably above the d^2 - 1 variables needed for
    full-rank landscapes regardless of the control count.
    """
    n_vars = 2 * sys.dim * sys.dim
    return SearchConfig(**{"segment_count": math.ceil(n_vars / sys.n_controls), **overrides})


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search: best waveform found, its propagator and its trajectory.

    ``propagator`` is U = U_M ... U_1 of ``waveform``.  The search builds it
    from the segment stack of the forward pass that scored the waveform, in
    the order of ``control.propagate``, so the two are bit-identical.
    """

    waveform: Waveform
    fidelity: float
    iterations: int
    converged: bool
    objective_history: np.ndarray
    propagator: np.ndarray
    restart_index: int = 0

    def __post_init__(self):
        hist = np.asarray(self.objective_history, dtype=float)
        prop = np.asarray(self.propagator, dtype=complex)
        for name, a in (("objective_history", hist), ("propagator", prop)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def objective_state_prep(sys: ControlSystem, w: Waveform, psi_i, psi_f) -> float:
    """J = |<psi_f| U(T) |psi_i>|^2 for the waveform's propagator, at unit final-state norm (``_fidelity``)."""
    check_waveform(sys, w)
    return _fidelity(*_forward(sys, w.durations, w.amplitudes, as_state(psi_i, sys.dim), as_state(psi_f, sys.dim))[:2])


def gradient_state_prep(sys: ControlSystem, w: Waveform, psi_i, psi_f) -> np.ndarray:
    """dJ/du for every segment amplitude, flattened segment-major.

    Entry m*K + k is the derivative with respect to amplitude k of
    segment m, matching ``Waveform.amplitudes.ravel()`` order.
    """
    check_waveform(sys, w)
    psi_f = as_state(psi_f, sys.dim)
    overlap, _, *fwd = _forward(sys, w.durations, w.amplitudes, as_state(psi_i, sys.dim), psi_f)
    return 2 * np.real(np.conj(overlap) * _bra_derivatives(sys, w.durations, psi_f.conj()[None], *fwd)[0])


def _fidelity(overlap, residual) -> float:
    """J = |overlap|^2 / (|overlap|^2 + |residual|^2), the final state's J at unit norm.

    Rounding leaves the final state's norm a few ulps off 1, so |overlap|^2
    alone can rise above 1, or stall below it at an exact map.  The quotient
    lies in [0, 1], is exactly 0 at a zero overlap, and reaches 1 once
    |residual|^2 falls below the resolution of J.
    """
    a = float(abs(overlap) ** 2)
    return a / (a + float(np.vdot(residual, residual).real))


def _forward(sys: ControlSystem, durations: np.ndarray, amps: np.ndarray, psi_i, psi_f):
    """Overlap <psi_f|U|psi_i>, residual U|psi_i> - overlap |psi_f>, eigensystems, the (M, d, d) propagator
    stack and the kets U_j ... U_1|psi_i>, j = 0..M."""
    lam, v = _segment_eigs(sys, amps)
    u = _eig_exp(lam, v, durations)
    m = len(u)
    kets = np.empty((m + 1, psi_i.size), dtype=complex)
    kets[0] = psi_i
    for j in range(m):
        u[j].dot(kets[j], out=kets[j + 1])
    overlap = np.vdot(psi_f, kets[m])
    return overlap, kets[m] - overlap * psi_f, lam, v, u, kets


def _bra_derivatives(sys: ControlSystem, durations: np.ndarray, out_bras, lam, v, u, kets) -> np.ndarray:
    """d(b U psi_i)/du for each row b of the (n, d) bra block, as (n, M*K), from a forward pass over ``durations``.

    Column m*K + k is the derivative with respect to amplitude k of
    segment m, matching ``Waveform.amplitudes.ravel()`` order.
    """
    m, d, k = len(durations), sys.dim, sys.n_controls
    # backward pass: bras[j] = out_bras U_M ... U_{j+1}
    bras = np.empty((m + 1, len(out_bras), d), dtype=complex)
    bras[m] = out_bras
    for j in range(m - 1, -1, -1):
        bras[j + 1].dot(u[j], out=bras[j])
    left = bras[1:] @ v
    right = (kets[:-1, None, :] @ v.conj())[:, 0]
    # d(b U_m ket)/du_k = left · (K ⊙ V† H_k V) · right, where K is the divided-difference kernel
    # of exp(-i lam tau) in its sinc form,
    # K_ab = -i tau e^{-i lam_a tau / 2} e^{-i lam_b tau / 2} sinc((lam_a - lam_b) tau / 2),
    # which stays finite at coincident eigenvalues.  Summed over the right index first, that is
    # Σ_i left_i D_ki with D_ki = (V† H_k V (K diag(right))ᵀ)_ii, which no bra enters
    tau = durations[:, None]
    half = np.exp(-0.5j * lam * tau)
    x = (lam[:, :, None] - lam[:, None, :]) * (tau[:, :, None] / 2)
    x[x == 0] = 1e-20  # so that sin(x) / x = 1 there
    kernel_t = (half * right)[:, :, None] * (-1j * tau * half)[:, None, :] * (np.sin(x) / x)
    hv = sys.controls.reshape(k * d, d) @ (v @ kernel_t)
    diag = np.einsum("mai,mkai->mki", v.conj(), hv.reshape(m, k, d, d))
    return (left @ diag.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, m * k)


def _chordal_jacobian(sys: ControlSystem, durations: np.ndarray, psi_f, overlap, lam, v, u, kets) -> np.ndarray:
    """The (2d + 1) x MK real Jacobian of the chordal residual: Re and Im of D - psi_f (psi_f† D), then
    Re(e^{-i alpha} psi_f† D), e^{-i alpha} = conj(overlap) / |overlap| or 1, from D = d(U psi_i)/du."""
    d = sys.dim
    d_ket = _bra_derivatives(sys, durations, np.eye(d), lam, v, u, kets)
    along = psi_f.conj() @ d_ket
    phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    d_ket -= np.outer(psi_f, along)
    jac = np.empty((2 * d + 1, d_ket.shape[1]))
    jac[:d], jac[d:-1], jac[-1] = d_ket.real, d_ket.imag, (phase * along).real
    return jac


def _seed_amplitudes(sys: ControlSystem, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the middle 50% of each control's bounds."""
    lo, hi = sys.amplitude_bounds.T
    mid, half = (lo + hi) / 2, (hi - lo) / 4
    u = rng.uniform(-1.0, 1.0, size=(cfg.segment_count, sys.n_controls))
    return mid + half * u


def search_state_map(
    sys: ControlSystem,
    psi_i,
    psi_f,
    cfg: SearchConfig,
    restart_index: int = 0,
) -> SearchResult:
    """Projected Levenberg–Marquardt descent of the chordal residual from one random seed.

    r is U psi_i - <psi_f|U psi_i> psi_f in real and imaginary rows, then
    |<psi_f|U psi_i>| - 1, so |r|^2 = 2(1 - sqrt J).  A variable at a bound
    whose descent points outward is held fixed, as a zero column of J_s = J S^-1,
    the Jacobian in units of the controls' Fubini–Study speeds
    (``ControlSystem.control_speeds``).  Each trial solves the small dual
    system (J_s J_sᵀ + mu I) y = r once and takes -S^-1 J_sᵀ y, clipped to
    the box: (JᵀJ + mu S²) delta = -Jᵀ r (Moré, LNM 630, 1978).
    A step is accepted when it raises J, and its gain ratio against the
    linear model of |r|^2 sets the next mu (Madsen, Nielsen and Tingleff, Methods
    for Non-Linear Least Squares Problems, 2004, section 3.2); a rejected
    step raises mu and is retried.  Stops at the fidelity goal, at
    ``max_iterations``, at a vanishing projected gradient, when mu passes
    its cap, or at a non-finite trial point, J, residual or Jacobian,
    keeping the last finite accepted point.  Deterministic given (sys,
    psi_i, psi_f, cfg); non-convergence is reported through ``converged``,
    never raised.  A segment duration whose phases would lose their digits
    (``control.check_segment_phase``) is refused before the first step.
    """
    check_segment_phase(sys, cfg.segment_duration)
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    durations = np.full(cfg.segment_count, cfg.segment_duration)
    durations.setflags(write=False)  # shared by the result's waveform and its signed images
    amps = _seed_amplitudes(sys, cfg, np.random.default_rng([cfg.seed, restart_index]))
    shape = amps.shape
    lo, hi = (np.broadcast_to(b, shape).ravel() for b in sys.amplitude_bounds.T)
    speeds = np.tile(sys.control_speeds, cfg.segment_count)
    eye = np.eye(2 * sys.dim + 1)

    def evaluate(x):
        """The forward pass at the in-bounds point x, its J and the real chordal residual."""
        fwd = _forward(sys, durations, x.reshape(shape), psi_i, psi_f)
        return fwd, _fidelity(*fwd[:2]), np.concatenate((fwd[1].real, fwd[1].imag, [abs(fwd[0]) - 1]))

    x = amps.ravel()
    fwd, j_val, res = evaluate(x)
    history = [j_val]
    iterations, mu, nu, jac = 0, None, 2.0, None
    while j_val < cfg.fidelity_goal and iterations < cfg.max_iterations:
        if jac is None:
            jac = _chordal_jacobian(sys, durations, psi_f, fwd[0], *fwd[2:])
            if not np.isfinite(jac).all():
                break
            grad = -2 * (res @ jac)
            free = ~(((x >= hi) & (grad > 0)) | ((x <= lo) & (grad < 0)))
            if np.linalg.norm(grad[free]) < GRAD_NORM_STOP:
                break
            jac_s = jac * (free / speeds)  # a held column is zero, so its step is too
            gram = jac_s @ jac_s.T
            scale = gram.diagonal().max()
            mu = MU_START * scale if mu is None else mu
        if mu > MU_CAP * scale:
            break
        step = -(np.linalg.solve(gram + mu * eye, res) @ jac_s) / speeds
        trial = np.minimum(np.maximum(x + step, lo), hi)
        if not np.isfinite(trial).all():
            break
        trial_fwd, j_trial, trial_res = evaluate(trial)
        if not (math.isfinite(j_trial) and np.isfinite(trial_res).all()):
            break
        if j_trial <= j_val:
            mu, nu = mu * nu, 2 * nu
            continue
        model = res + jac @ (trial - x)
        predicted = res @ res - model @ model
        rho = min(res @ res - trial_res @ trial_res, predicted) / predicted if predicted > 0 else 0.0
        mu, nu = mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        iterations += 1
        history.append(j_trial)
        x, fwd, j_val, res, jac = trial, trial_fwd, j_trial, trial_res, None
    return SearchResult(Waveform(durations, x.reshape(shape)), j_val, iterations, j_val >= cfg.fidelity_goal,
                        np.array(history), _product(fwd[4]), restart_index)


def _zero_seed_result(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult | None:
    """The all-zero-amplitude waveform, when it already meets the goal.

    Catches targets the bare drift reaches (in particular an eigenvector
    that is the fiducial state itself), where the search would only add
    noise to an exact solution.  Every segment plays the drift alone: on a
    drift-free system (every searched build) the identity, so J0 comes from
    <psi_f|psi_i> with no eigendecomposition; otherwise from ``_replayed``.
    """
    if not all(lo <= 0.0 <= hi for lo, hi in sys.amplitude_bounds):
        return None
    zero = Waveform(np.full(cfg.segment_count, cfg.segment_duration), np.zeros((cfg.segment_count, sys.n_controls)))
    if sys.drift.any():
        result = _replayed(sys, zero, psi_i, psi_f, cfg)
    else:
        overlap = np.vdot(psi_f, psi_i)
        j0 = _fidelity(overlap, psi_i - overlap * psi_f)
        result = SearchResult(zero, j0, 0, j0 >= cfg.fidelity_goal, np.array([j0]), np.eye(sys.dim, dtype=complex))
    return result if result.converged else None


def _replayed(sys: ControlSystem, w: Waveform, psi_i, psi_f, cfg: SearchConfig) -> SearchResult:
    """A waveform the search did not run as a zero-iteration result: J and propagator from one forward pass."""
    fwd = _forward(sys, w.durations, w.amplitudes, psi_i, psi_f)
    j = _fidelity(*fwd[:2])
    return SearchResult(w, j, 0, j >= cfg.fidelity_goal, np.array([j]), _product(fwd[4]))


def add_symmetry(src: ControlSystem, dst: ControlSystem, mirror) -> bool:
    """Let ``multi_start`` on ``dst`` serve images of the results kept on ``src`` under S = ``mirror``.

    S is kept only when ``control._mirror_signs`` finds control signs sigma
    that make it exact: then a src waveform u that maps a to b maps S a to
    S b on dst as sigma u.  It is appended to ``dst.symmetries`` as (src's
    kept results, the map a -> S a, sigma): the entry holds src's results,
    not src.  Returns whether S was kept; a detuned pair, or one whose
    controls S does not carry onto plus or minus each other, adds nothing.
    """
    signs = _mirror_signs(src, dst, mirror)
    if signs is None:
        return False
    dst.symmetries.append((src.kept_results, partial(np.matmul, np.array(mirror)), signs))
    return True


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether unit states a and b are equal up to a phase, to ``MATCH_TOL``."""
    return abs(np.vdot(a, b)) >= 1 - MATCH_TOL


def _symmetric_image(sys: ControlSystem, psi_i: np.ndarray, psi_f: np.ndarray, cfg: SearchConfig) -> SearchResult | None:
    """The image of a kept result under an exact symmetry onto ``sys``, as a zero-iteration result.

    The symmetries are those added with ``add_symmetry``, in order, then
    the system's own conjugation psi -> conj(psi) (S = I, antiunitary),
    with the signs ``ControlSystem.conjugation_signs`` where
    conj(U(u)) = U(sigma u), as for the cesium model at zero rf detuning.
    A result kept under an equal config whose states S carries onto
    (psi_i, psi_f), up to a phase, is a source.  Its image keeps the
    durations and multiplies each control's amplitudes by its sign, which
    keeps them in bounds (``control._mirror_signs``); it is scored by
    ``_replayed`` on ``sys``, its J and propagator never copied.
    An image that misses a goal its source met is refused, and the next
    source is tried.  None when no source gives an image.
    """
    # the conjugation's signs are read on its first state match, and worked out once per system
    for results, image_of, signs in (*sys.symmetries, (sys.kept_results, np.conj, None)):
        for (kept_i, kept_f, kept_cfg), source in results.items():
            if not (
                kept_cfg == cfg
                and _same_ray(image_of(np.frombuffer(kept_i, dtype=complex)), psi_i)
                and _same_ray(image_of(np.frombuffer(kept_f, dtype=complex)), psi_f)
            ):
                continue
            signs = sys.conjugation_signs if signs is None else signs
            if signs is None:
                return None
            image = _replayed(sys, Waveform(source.waveform.durations, source.waveform.amplitudes * signs),
                              psi_i, psi_f, cfg)
            if not source.fidelity >= cfg.fidelity_goal > image.fidelity:
                return image
    return None


def multi_start(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult:
    """The first of at most cfg.restarts independent seeds to meet the goal, tried one after another.

    Restart r runs with the rng stream (cfg.seed, r), so adding restarts
    never changes earlier ones, and restart r + 1 runs only when restarts
    0..r all missed ``cfg.fidelity_goal``.  When every restart misses, the
    first restart achieving the maximum fidelity is returned.  The segment
    duration and both states are checked as in ``search_state_map`` before
    the zero-amplitude shortcut is tried.

    The search is deterministic, so the result is kept on the system
    (``sys.kept_results``) and a repeated call (the same system object,
    bit-equal states and an equal config) returns the same result object
    without searching again.  A separately built or ``dataclasses.replace``d
    system, even an equal one, starts with no kept result.

    When nothing is kept for these states and the zero-amplitude shortcut
    misses the goal, the image of a kept result under an exact symmetry
    onto this system (``_symmetric_image``) is kept and returned; only
    without one are the restarts searched.
    """
    check_segment_phase(sys, cfg.segment_duration)
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    done, key = sys.kept_results, (psi_i.tobytes(), psi_f.tobytes(), cfg)
    if key in done:
        return done[key]
    best = _zero_seed_result(sys, psi_i, psi_f, cfg) or _symmetric_image(sys, psi_i, psi_f, cfg)
    if best is None:
        for r in range(cfg.restarts):
            res = search_state_map(sys, psi_i, psi_f, cfg, restart_index=r)
            if best is None or res.fidelity > best.fidelity:
                best = res
            if best.converged:
                break
    done[key] = best
    return best
