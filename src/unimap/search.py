"""Projected quasi-Newton search for state-to-state control waveforms.

The objective is J = |<psi_f| U(T) |psi_i>|^2 over the segment amplitudes
of a piecewise-constant waveform.  Each trial point diagonalizes its M
segment generators once (``control.segment_eigs``: a real ``eigh`` after a
diagonal phase gauge when the system couples its levels in a single chain,
as the cesium model does, and the complex ``eigh`` otherwise) and builds
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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .control import ControlSystem, Waveform, _eig_propagators, check_amplitudes, segment_eigs
from .core import as_state

ARMIJO_C = 1e-4
GRAD_NORM_STOP = 1e-9
MIN_STEP = 1e-14
#: (s, y) pairs kept by the L-BFGS two-loop recursion
LBFGS_MEMORY = 10


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
        if not 1 <= self.segment_count < math.inf:
            raise ValueError("segment_count must be finite and >= 1")
        if not 0 < self.segment_duration < math.inf:
            raise ValueError("segment_duration must be finite and > 0")
        if not 0 < self.fidelity_goal <= 1:
            raise ValueError("fidelity_goal must lie in (0, 1]")
        if not 0 <= self.max_iterations < math.inf:
            raise ValueError("max_iterations must be finite and >= 0")
        if not 1 <= self.restarts < math.inf:
            raise ValueError("restarts must be finite and >= 1")


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


@dataclass(frozen=True)
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
    u = _eig_propagators(lam, v, w.durations)
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

    With no stored pairs the result is g scaled to unit norm.
    """
    if not memory:
        return g / np.linalg.norm(g)
    q = g.copy()
    alphas = []
    for s, y in reversed(memory):
        a = (s @ q) / (y @ s)
        q -= a * y
        alphas.append(a)
    s, y = memory[-1]
    r = ((s @ y) / (y @ y)) * q
    for (s, y), a in zip(memory, reversed(alphas)):
        r += s * (a - (y @ r) / (y @ s))
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
    """
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
        grad_new = _gradient(sys, trial_wave, psi_f, *fwd)
        s, y = trial - x, grad - grad_new
        # keep only pairs with positive curvature, so the two-loop estimate
        # stays positive definite and its direction stays an ascent one
        if s @ y > 1e-10 * (y @ y):
            memory.append((s, y))
        x, wave, j_val, grad = trial, trial_wave, j_trial, grad_new
        iterations += 1
        history.append(j_val)
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


def multi_start(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult:
    """Best result over cfg.restarts independent seeds, run one after another.

    Restart r runs with the rng stream (cfg.seed, r), so adding restarts
    never changes earlier ones; the first restart achieving the maximum
    fidelity wins.
    """
    zero = _zero_seed_result(sys, psi_i, psi_f, cfg)
    if zero is not None:
        return zero
    best = None
    for r in range(cfg.restarts):
        res = search_state_map(sys, psi_i, psi_f, cfg, restart_index=r)
        if best is None or res.fidelity > best.fidelity:
            best = res
    return best
