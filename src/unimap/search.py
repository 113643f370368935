"""Projected quasi-Newton search for state-to-state control waveforms.

The objective is J = |<psi_f| U(T) |psi_i>|^2 over the segment amplitudes
of a piecewise-constant waveform.  Each trial point diagonalizes its M
segment generators once (``control.segment_eigs``: when the system couples
its levels in a single chain, as the cesium model does, a real ``eigh`` in
chain order, where a diagonal phase gauge makes each generator real
tridiagonal; otherwise the complex ``eigh``) and builds
the stacked segment propagators U_m = V_m e^{-i lam_m tau_m} V_m† in one
batched product.  The forward sweep applies that stack to the initial
state, and the backward sweep for the gradient applies the same stack to
the target bra, so no propagator is rebuilt.  Gradients are exact: the
spectral divided-difference kernel of the matrix exponential is contracted
for all segments at once against the forward kets and backward bras, and
then against the system's cached stack of control generators, so one
gradient costs about as much as one propagation.  The search is a box-projected
L-BFGS ascent (GRAPE with exact gradients in its quasi-Newton form) with a
projected Armijo backtracking step.

``multi_start`` keeps its results per system.  On a miss it tries the
all-zero waveform, then the image of a kept result under an exact symmetry
onto the system, and only then searches.  The symmetries are those a
caller added with ``add_symmetry`` (a signed permutation S from one system
onto another that carries every control onto plus or minus a control),
then the system's own complex conjugation where conj(U(u)) = U(sigma u)
(the cesium model at zero rf detuning).  Either way a waveform that maps
a to b maps the image of a to the image of b once each control's
amplitudes are multiplied by its sign sigma.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from .control import ControlSystem, Waveform, _mirror_signs, check_amplitudes, check_segment_phase, segment_eigs
from .core import _eig_exp, as_state

ARMIJO_C = 1e-4
GRAD_NORM_STOP = 1e-9
MIN_STEP = 1e-14
#: (s, y) pairs kept by the L-BFGS two-loop recursion
LBFGS_MEMORY = 10
#: two unit states are one state up to a phase when |<a|b>| >= 1 - MATCH_TOL
MATCH_TOL = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one state-map search."""

    segment_count: int
    segment_duration: float
    fidelity_goal: float = 0.99
    max_iterations: int = 2000
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        _check_counts(self, segment_count=1, max_iterations=0, seed=0, restarts=1)
        if not 0 < self.segment_duration < math.inf:
            raise ValueError("segment_duration must be finite and > 0")
        if not 0 < self.fidelity_goal <= 1:
            raise ValueError("fidelity_goal must lie in (0, 1]")


def _check_counts(record, **lows: int) -> None:
    """Refuse a field of ``record`` that is not an integer at or above its lower bound, naming the field."""
    for name, low in lows.items():
        value = getattr(record, name)
        if not (isinstance(value, Integral) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def default_search_config(sys: ControlSystem, **overrides) -> SearchConfig:
    """Config sized so the variable count clears 2 d^2 for this system.

    Keeps the search comfortably above the d^2 - 1 variables needed for
    full-rank landscapes regardless of the control count.
    """
    n_vars = 2 * sys.dim * sys.dim
    defaults = dict(
        segment_count=math.ceil(n_vars / sys.n_controls),
        segment_duration=10e-6,
    )
    defaults.update(overrides)
    return SearchConfig(**defaults)


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of a search: best waveform found and its trajectory."""

    waveform: Waveform
    fidelity: float
    iterations: int
    converged: bool
    objective_history: np.ndarray
    restart_index: int = 0

    def __post_init__(self):
        hist = np.asarray(self.objective_history, dtype=float)
        hist.setflags(write=False)
        object.__setattr__(self, "objective_history", hist)


def objective_state_prep(sys: ControlSystem, w: Waveform, psi_i, psi_f) -> float:
    """J = |<psi_f| U(T) |psi_i>|^2 for the waveform's propagator."""
    overlap = _forward(sys, w, as_state(psi_i, sys.dim), as_state(psi_f, sys.dim))[0]
    return _fidelity(overlap)


def gradient_state_prep(sys: ControlSystem, w: Waveform, psi_i, psi_f) -> np.ndarray:
    """dJ/du for every segment amplitude, flattened segment-major.

    Entry m*K + k is the derivative with respect to amplitude k of
    segment m, matching ``Waveform.amplitudes.ravel()`` order.
    """
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    _, grad = _objective_and_gradient(sys, w, psi_i, psi_f)
    return grad


def _fidelity(overlap) -> float:
    """|overlap|^2, clamped to 1: rounding can push an exact map a few ulps above."""
    return min(float(abs(overlap) ** 2), 1.0)


def _forward(sys: ControlSystem, w: Waveform, psi_i, psi_f):
    """Overlap <psi_f|U|psi_i>, the segment eigensystems and propagators, and the kets."""
    check_amplitudes(sys, w)
    lam, v = segment_eigs(sys, w)
    u = _eig_exp(lam, v, w.durations)
    m = w.n_segments
    kets = np.empty((m + 1, sys.dim), dtype=complex)
    kets[0] = psi_i
    for j in range(m):
        kets[j + 1] = u[j] @ kets[j]
    overlap = np.vdot(psi_f, kets[m])
    return overlap, lam, v, u, kets


def _gradient(sys: ControlSystem, w: Waveform, psi_f, overlap, lam, v, u, kets) -> np.ndarray:
    """dJ/du from a forward pass's overlap, eigensystems, propagators and kets."""
    m, d = w.n_segments, sys.dim
    if not m:
        return np.zeros(0)
    # backward pass: bras[j] = psi_f† U_M ... U_{j+1}
    bras = np.empty((m + 1, d), dtype=complex)
    bras[m] = psi_f.conj()
    for j in range(m - 1, -1, -1):
        bras[j] = bras[j + 1] @ u[j]
    left = (bras[1:, None, :] @ v)[:, 0]
    right = (kets[:-1, None, :] @ v.conj())[:, 0]
    # dC_mk = left_m · (K_m ⊙ V_m† H_k V_m) · right_m = Σ_ab H_k,ab C_m,ab with
    # C_m = conj(V_m) A_m V_mᵀ and A_m = left_m ⊙ K_m ⊙ right_m, where K_m is
    # the divided-difference kernel of exp(-i lam tau) in its sinc form,
    # K_ab = -i tau e^{-i lam_a tau / 2} e^{-i lam_b tau / 2} sinc((lam_a - lam_b) tau / 2),
    # which stays finite at coincident eigenvalues
    tau = w.durations[:, None]
    half = np.exp(-0.5j * lam * tau)
    x = (lam[:, :, None] - lam[:, None, :]) * (tau[:, :, None] / 2)
    x[x == 0] = 1e-20  # so that sin(x) / x = 1 there
    a = (-1j * tau * half * left)[:, :, None] * (half * right)[:, None, :] * (np.sin(x) / x)
    c = v.conj() @ a @ v.transpose(0, 2, 1)
    dc = c.reshape(m, d * d) @ sys.control_stack.reshape(sys.n_controls, d * d).T
    return (2 * np.real(np.conj(overlap) * dc)).ravel()


def _objective_and_gradient(sys: ControlSystem, w: Waveform, psi_i, psi_f):
    fwd = _forward(sys, w, psi_i, psi_f)
    return _fidelity(fwd[0]), _gradient(sys, w, psi_f, *fwd)


def _seed_amplitudes(sys: ControlSystem, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the middle 50% of each control's bounds."""
    lo, hi = sys.bound_array
    mid, half = (lo + hi) / 2, (hi - lo) / 4
    u = rng.uniform(-1.0, 1.0, size=(cfg.segment_count, sys.n_controls))
    return mid + half * u


def _lbfgs_direction(g: np.ndarray, memory) -> np.ndarray:
    """Two-loop recursion: the inverse-Hessian estimate applied to g.

    ``memory`` holds (s, y, s @ y, y @ y) per pair, oldest first, with the
    products the curvature check already took.  With no stored pairs the
    result is g scaled to unit norm.
    """
    if not memory:
        return g / np.linalg.norm(g)
    q = g.copy()
    alphas = []
    for s, y, sy, _ in reversed(memory):
        a = (s @ q) / sy
        q -= a * y
        alphas.append(a)
    _, _, sy, yy = memory[-1]
    r = (sy / yy) * q
    for (s, y, sy, _), a in zip(memory, reversed(alphas)):
        r += s * (a - (y @ r) / sy)
    return r


def search_state_map(
    sys: ControlSystem,
    psi_i,
    psi_f,
    cfg: SearchConfig,
    restart_index: int = 0,
) -> SearchResult:
    """Projected L-BFGS ascent of J from one random seed.

    A variable at a bound whose gradient points outward is held fixed and
    the quasi-Newton direction is taken on the rest.  Each step backtracks
    from the full direction (alpha = 1) until the projected point meets
    the Armijo condition; a failure clears the curvature memory once and
    retries along the gradient.  Stops at the fidelity goal, at
    ``max_iterations``, at a vanishing projected gradient, or when a
    gradient step fails too.  Deterministic given (sys, psi_i, psi_f,
    cfg); non-convergence is reported through ``converged``, never raised.
    A segment duration whose phases would lose their digits
    (``control.check_segment_phase``) is refused before the first step.
    """
    check_segment_phase(sys, cfg.segment_duration)
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    durations = np.full(cfg.segment_count, cfg.segment_duration)
    amps = _seed_amplitudes(sys, cfg, np.random.default_rng([cfg.seed, restart_index]))
    shape = amps.shape
    lo = np.broadcast_to(sys.bound_array[0], shape).ravel()
    hi = np.broadcast_to(sys.bound_array[1], shape).ravel()

    def make_wave(x):
        return Waveform(durations, x.reshape(shape))

    x = amps.ravel()
    wave = make_wave(x)
    j_val, grad = _objective_and_gradient(sys, wave, psi_i, psi_f)
    history = [j_val]
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    iterations = 0
    while j_val < cfg.fidelity_goal and iterations < cfg.max_iterations:
        free = ~(((x >= hi) & (grad > 0)) | ((x <= lo) & (grad < 0)))
        g = np.where(free, grad, 0.0)
        if np.linalg.norm(g) < GRAD_NORM_STOP:
            break
        p = np.where(free, _lbfgs_direction(g, memory), 0.0)
        alpha = 1.0
        while alpha > MIN_STEP:
            trial = np.clip(x + alpha * p, lo, hi)
            rise = float(grad @ (trial - x))
            trial_wave = make_wave(trial)
            fwd = _forward(sys, trial_wave, psi_i, psi_f)
            j_trial = _fidelity(fwd[0])
            if rise > 0 and j_trial >= j_val + ARMIJO_C * rise:
                break
            alpha /= 2
        else:
            # no acceptable step: retry once along the gradient, then stop
            if not memory:
                break
            memory.clear()
            continue
        iterations += 1
        history.append(j_trial)
        if j_trial >= cfg.fidelity_goal or iterations >= cfg.max_iterations:
            # the search stops at this point, so its gradient would go unused
            wave, j_val = trial_wave, j_trial
            break
        grad_new = _gradient(sys, trial_wave, psi_f, *fwd)
        s, y = trial - x, grad - grad_new
        sy, yy = s @ y, y @ y
        # keep only pairs with positive curvature, so the two-loop estimate
        # stays positive definite and its direction stays an ascent one
        if sy > 1e-10 * yy:
            memory.append((s, y, sy, yy))
        x, wave, j_val, grad = trial, trial_wave, j_trial, grad_new
    return SearchResult(
        waveform=wave,
        fidelity=j_val,
        iterations=iterations,
        converged=j_val >= cfg.fidelity_goal,
        objective_history=np.array(history),
        restart_index=restart_index,
    )


def _zero_seed_result(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult | None:
    """The all-zero-amplitude waveform, when it already meets the goal.

    Catches targets the bare drift reaches (in particular an eigenvector
    that is the fiducial state itself), where the search would only add
    noise to an exact solution.
    """
    if not all(lo <= 0.0 <= hi for lo, hi in sys.amplitude_bounds):
        return None
    w0 = Waveform(
        np.full(cfg.segment_count, cfg.segment_duration),
        np.zeros((cfg.segment_count, sys.n_controls)),
    )
    j0 = objective_state_prep(sys, w0, psi_i, psi_f)
    if j0 < cfg.fidelity_goal:
        return None
    return SearchResult(
        waveform=w0,
        fidelity=j0,
        iterations=0,
        converged=True,
        objective_history=np.array([j0]),
    )


#: finished multi-start results per system, keyed on (psi_i bytes, psi_f bytes, cfg); a
#: system hashes by identity, so its entries go when it does
_RESULTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
#: exact symmetries onto each system, in the order added, as (the source system's kept results,
#: the map a -> S a of its states, control signs); an entry holds no system, so it keeps neither
#: its key nor its source alive
_SYMMETRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _result_key(psi_i: np.ndarray, psi_f: np.ndarray, cfg: SearchConfig) -> tuple:
    """Key of a stored result within its system's entry, from states already through ``as_state``."""
    return (psi_i.tobytes(), psi_f.tobytes(), cfg)


def add_symmetry(src: ControlSystem, dst: ControlSystem, mirror) -> bool:
    """Let ``multi_start`` on ``dst`` serve images of the results kept on ``src`` under S = ``mirror``.

    S is kept only when ``control._mirror_signs`` finds control signs sigma
    that make it exact: then a src waveform u that maps a to b maps S a to
    S b on dst as sigma u.  Returns whether S was kept; a detuned pair, or
    one whose controls S does not carry onto plus or minus each other,
    adds nothing.
    """
    signs = _mirror_signs(src, dst, mirror)
    if signs is None:
        return False
    image_of = partial(np.matmul, np.array(mirror))
    _SYMMETRIES.setdefault(dst, []).append((_RESULTS.setdefault(src, {}), image_of, signs))
    return True


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether unit states a and b are equal up to a phase, to ``MATCH_TOL``."""
    return abs(np.vdot(a, b)) >= 1 - MATCH_TOL


def _symmetric_image(
    sys: ControlSystem, done: dict, psi_i: np.ndarray, psi_f: np.ndarray, cfg: SearchConfig
) -> SearchResult | None:
    """The image of a kept result under an exact symmetry onto ``sys``, as a zero-iteration result.

    The symmetries are those added with ``add_symmetry``, in order, then
    the system's own conjugation psi -> conj(psi) (S = I, antiunitary),
    whose signs ``control._mirror_signs`` gives where conj(U(u)) = U(sigma u),
    as for the cesium model at zero rf detuning.  A result kept under an
    equal config whose states S carries onto (psi_i, psi_f), up to a phase,
    is a source.  Its image keeps the durations and multiplies each
    control's amplitudes by its sign; its J is evaluated on ``sys``, never
    copied.  An image that misses a goal its source met is refused, and
    the next source is tried.  None when no source gives an image.
    """
    # the conjugation's signs are worked out on its first state match
    for results, image_of, signs in (*_SYMMETRIES.get(sys, ()), (done, np.conj, None)):
        for (kept_i, kept_f, kept_cfg), source in results.items():
            if not (
                kept_cfg == cfg
                and _same_ray(image_of(np.frombuffer(kept_i, dtype=complex)), psi_i)
                and _same_ray(image_of(np.frombuffer(kept_f, dtype=complex)), psi_f)
            ):
                continue
            if signs is None:
                signs = _mirror_signs(sys, sys, np.eye(sys.dim), conjugate=True)
                if signs is None:
                    return None
            image = Waveform(source.waveform.durations, source.waveform.amplitudes * signs)
            j = objective_state_prep(sys, image, psi_i, psi_f)
            if not source.fidelity >= cfg.fidelity_goal > j:
                return SearchResult(image, j, 0, j >= cfg.fidelity_goal, np.array([j]))
    return None


def multi_start(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult:
    """Best result over cfg.restarts independent seeds, run one after another.

    Restart r runs with the rng stream (cfg.seed, r), so adding restarts
    never changes earlier ones; the first restart achieving the maximum
    fidelity wins.  The segment duration and both states are checked as in
    ``search_state_map`` before the zero-amplitude shortcut is tried.

    The search is deterministic, so a repeated call (the same system
    object, bit-equal states and an equal config) returns the same result
    object for as long as the system lives, without searching again.  A
    separately built system, even an equal one, shares no result.

    When nothing is kept for these states and the zero-amplitude shortcut
    misses the goal, the image of a kept result under an exact symmetry
    onto this system (``_symmetric_image``) is kept and returned; only
    without one are the restarts searched.
    """
    check_segment_phase(sys, cfg.segment_duration)
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    done = _RESULTS.setdefault(sys, {})
    key = _result_key(psi_i, psi_f, cfg)
    if key in done:
        return done[key]
    best = _zero_seed_result(sys, psi_i, psi_f, cfg) or _symmetric_image(sys, done, psi_i, psi_f, cfg)
    if best is None:
        for r in range(cfg.restarts):
            res = search_state_map(sys, psi_i, psi_f, cfg, restart_index=r)
            if best is None or res.fidelity > best.fidelity:
                best = res
    done[key] = best
    return best
