"""Projected Levenberg–Marquardt search for state-to-state control waveforms.

The objective is J = |<psi_f| U(T) |psi_i>|^2 over the segment amplitudes
of a piecewise-constant waveform.  The search minimizes the chordal
residual r = U(T)|psi_i> - e^{i alpha}|psi_f>, alpha = arg <psi_f|U(T)|psi_i>,
whose squared norm is 2(1 - sqrt J) at unit norm, so a state map is a
zero-residual least-squares problem.
Each trial point diagonalizes its M segment generators once
(``control.segment_eigs``: when the system couples its levels in a single
chain, as the cesium model does, a real ``eigh`` in chain order, where a
diagonal phase gauge makes each generator real tridiagonal; otherwise the
complex ``eigh``) and builds the stacked segment propagators
U_m = V_m e^{-i lam_m tau_m} V_m† in one batched product.  The forward
sweep (``_sweep``) applies that stack to the initial state.  A result
carries the stack's product U = U_M ... U_1 as its propagator, formed as
``control.propagate`` forms it, so no waveform a search scored is
diagonalized again.  One kernel differentiates a block of n bras against
those forward kets: its backward sweep applies the same stack to all n
bras at once, and the spectral divided-difference kernel of the matrix
exponential is contracted for all segments against the system's cached
stack of control generators.  The bra <psi_f| gives the exact gradient of
J; the d identity rows give d(U psi_i)/du, hence the (2d + 1) x MK Jacobian of r.

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
from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from .control import (
    ControlSystem,
    Waveform,
    _mirror_signs,
    _product,
    check_amplitudes,
    check_segment_phase,
    segment_eigs,
)
from .core import _eig_exp, as_state

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
    return _fidelity(*_forward(sys, w, as_state(psi_i, sys.dim), as_state(psi_f, sys.dim))[:2])


def gradient_state_prep(sys: ControlSystem, w: Waveform, psi_i, psi_f) -> np.ndarray:
    """dJ/du for every segment amplitude, flattened segment-major.

    Entry m*K + k is the derivative with respect to amplitude k of
    segment m, matching ``Waveform.amplitudes.ravel()`` order.
    """
    psi_f = as_state(psi_f, sys.dim)
    overlap, _, *fwd = _forward(sys, w, as_state(psi_i, sys.dim), psi_f)
    return 2 * np.real(np.conj(overlap) * _bra_derivatives(sys, w, psi_f.conj()[None], *fwd)[0])


def _fidelity(overlap, residual) -> float:
    """J = |overlap|^2 / (|overlap|^2 + |residual|^2), the final state's J at unit norm.

    Rounding leaves the final state's norm a few ulps off 1, so |overlap|^2
    alone can rise above 1, or stall below it at an exact map.  The quotient
    lies in [0, 1], is exactly 0 at a zero overlap, and reaches 1 once
    |residual|^2 falls below the resolution of J.
    """
    a = float(abs(overlap) ** 2)
    return a / (a + float(np.vdot(residual, residual).real))


def _forward(sys: ControlSystem, w: Waveform, psi_i, psi_f):
    """Overlap <psi_f|U|psi_i>, residual U|psi_i> - overlap |psi_f>, eigensystems, propagators and kets."""
    check_amplitudes(sys, w)
    lam, v = segment_eigs(sys, w)
    u = _eig_exp(lam, v, w.durations)
    overlap, residual, kets = _sweep(u, psi_i, psi_f)
    return overlap, residual, lam, v, u, kets


def _sweep(u: np.ndarray, psi_i, psi_f):
    """Overlap, residual and the kets U_j ... U_1|psi_i>, j = 0..M, of an (M, d, d) propagator stack."""
    m = len(u)
    kets = np.empty((m + 1, psi_i.size), dtype=complex)
    kets[0] = psi_i
    for j in range(m):
        u[j].dot(kets[j], out=kets[j + 1])
    overlap = np.vdot(psi_f, kets[m])
    return overlap, kets[m] - overlap * psi_f, kets


def _bra_derivatives(sys: ControlSystem, w: Waveform, out_bras, lam, v, u, kets) -> np.ndarray:
    """d(b U psi_i)/du for each row b of the (n, d) bra block, as (n, M*K), from a forward pass.

    Column m*K + k is the derivative with respect to amplitude k of
    segment m, matching ``Waveform.amplitudes.ravel()`` order.
    """
    m, d, k = w.n_segments, sys.dim, sys.n_controls
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
    tau = w.durations[:, None]
    half = np.exp(-0.5j * lam * tau)
    x = (lam[:, :, None] - lam[:, None, :]) * (tau[:, :, None] / 2)
    x[x == 0] = 1e-20  # so that sin(x) / x = 1 there
    kernel_t = (half * right)[:, :, None] * (-1j * tau * half)[:, None, :] * (np.sin(x) / x)
    hv = sys.control_stack.reshape(k * d, d) @ (v @ kernel_t)
    diag = np.einsum("mai,mkai->mki", v.conj(), hv.reshape(m, k, d, d))
    return (left @ diag.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, m * k)


def _chordal_jacobian(sys: ControlSystem, w: Waveform, psi_f, overlap, lam, v, u, kets) -> np.ndarray:
    """The (2d + 1) x MK real Jacobian of the chordal residual: Re and Im of D - psi_f (psi_f† D), then
    Re(e^{-i alpha} psi_f† D), e^{-i alpha} = conj(overlap) / |overlap| or 1, from D = d(U psi_i)/du."""
    d_ket = _bra_derivatives(sys, w, np.eye(sys.dim), lam, v, u, kets)
    along = psi_f.conj() @ d_ket
    phase = overlap.conjugate() / abs(overlap) if overlap else 1.0
    off = d_ket - np.outer(psi_f, along)
    return np.concatenate((off.real, off.imag, (phase * along).real[None]))


def _seed_amplitudes(sys: ControlSystem, cfg: SearchConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the middle 50% of each control's bounds."""
    lo, hi = sys.bound_array
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
    whose descent points outward is held fixed; on the rest the step solves
    the small dual system (J_s J_sᵀ + mu I) y = r, with J_s = J S^-1 in units
    of the controls' Fubini–Study speeds (``ControlSystem.control_speeds``),
    through the eigensystem of J_s J_sᵀ and takes -S^-1 J_sᵀ y, clipped to the
    box: (JᵀJ + mu S²) delta = -Jᵀ r (Moré, LNM 630, 1978).
    A step is accepted when it raises J, and its gain ratio against the
    linear model of |r|^2 sets the next mu (Madsen, Nielsen and Tingleff, Methods
    for Non-Linear Least Squares Problems, 2004, section 3.2); a rejected
    step raises mu and is retried.  Stops at the fidelity goal, at
    ``max_iterations``, at a vanishing projected gradient, when mu passes
    its cap, or at a non-finite J, residual or Jacobian, keeping the last
    finite accepted point.  Deterministic given (sys, psi_i, psi_f, cfg);
    non-convergence is reported through ``converged``, never raised.  A
    segment duration whose phases would lose their digits
    (``control.check_segment_phase``) is refused before the first step.
    """
    check_segment_phase(sys, cfg.segment_duration)
    psi_i = as_state(psi_i, sys.dim)
    psi_f = as_state(psi_f, sys.dim)
    durations = np.full(cfg.segment_count, cfg.segment_duration)
    durations.setflags(write=False)  # shared by every trial waveform, the result and its signed images
    amps = _seed_amplitudes(sys, cfg, np.random.default_rng([cfg.seed, restart_index]))
    shape = amps.shape
    lo = np.broadcast_to(sys.bound_array[0], shape).ravel()
    hi = np.broadcast_to(sys.bound_array[1], shape).ravel()
    speeds = np.tile(sys.control_speeds, cfg.segment_count)

    def evaluate(x):
        """The waveform at x, its forward pass, J and the real chordal residual."""
        wave = Waveform(durations, x.reshape(shape))
        fwd = _forward(sys, wave, psi_i, psi_f)
        return wave, fwd, _fidelity(*fwd[:2]), np.concatenate((fwd[1].real, fwd[1].imag, [abs(fwd[0]) - 1]))

    x = amps.ravel()
    wave, fwd, j_val, res = evaluate(x)
    history = [j_val]
    iterations, mu, nu, jac = 0, None, 2.0, None
    while j_val < cfg.fidelity_goal and iterations < cfg.max_iterations:
        if jac is None:
            jac = _chordal_jacobian(sys, wave, psi_f, fwd[0], *fwd[2:])
            if not np.isfinite(jac).all():
                break
            grad = -2 * (res @ jac)
            free = ~(((x >= hi) & (grad > 0)) | ((x <= lo) & (grad < 0)))
            if np.linalg.norm(grad[free]) < GRAD_NORM_STOP:
                break
            jac_free = jac[:, free] / speeds[free]
            gram = jac_free @ jac_free.T
            scale = gram.diagonal().max()
            mu = MU_START * scale if mu is None else mu
            # (J Jᵀ + mu I)^-1 = Q (Lambda + mu)^-1 Qᵀ, so one eigensystem serves every retried mu
            gram_eigs, q = np.linalg.eigh(gram)
            gram_eigs, res_q, jac_q = np.maximum(gram_eigs, 0.0), q.T @ res, jac_free.T @ q
        if mu > MU_CAP * scale:
            break
        step = np.zeros_like(x)
        step[free] = -(jac_q @ (res_q / (gram_eigs + mu))) / speeds[free]
        trial = np.clip(x + step, lo, hi)
        trial_wave, trial_fwd, j_trial, trial_res = evaluate(trial)
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
        x, wave, fwd, j_val, res, jac = trial, trial_wave, trial_fwd, j_trial, trial_res, None
    return SearchResult(
        waveform=wave,
        fidelity=j_val,
        iterations=iterations,
        converged=j_val >= cfg.fidelity_goal,
        objective_history=np.array(history),
        propagator=_product(fwd[4]),
        restart_index=restart_index,
    )


def _zero_seed_result(sys: ControlSystem, psi_i, psi_f, cfg: SearchConfig) -> SearchResult | None:
    """The all-zero-amplitude waveform, when it already meets the goal.

    Catches targets the bare drift reaches (in particular an eigenvector
    that is the fiducial state itself), where the search would only add
    noise to an exact solution.  Every segment plays the drift alone, so
    one segment is checked and diagonalized and its propagator stands for
    all M in the sweep and the product.
    """
    if not all(lo <= 0.0 <= hi for lo, hi in sys.amplitude_bounds):
        return None
    one = Waveform([cfg.segment_duration], np.zeros((1, sys.n_controls)))
    check_amplitudes(sys, one)
    u = np.broadcast_to(_eig_exp(*segment_eigs(sys, one), one.durations), (cfg.segment_count, sys.dim, sys.dim))
    j0 = _fidelity(*_sweep(u, psi_i, psi_f)[:2])
    if j0 < cfg.fidelity_goal:
        return None
    w0 = Waveform(
        np.full(cfg.segment_count, cfg.segment_duration),
        np.zeros((cfg.segment_count, sys.n_controls)),
    )
    return SearchResult(
        waveform=w0,
        fidelity=j0,
        iterations=0,
        converged=True,
        objective_history=np.array([j0]),
        propagator=_product(u),
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
    control's amplitudes by its sign; its J and propagator come from its
    own forward pass on ``sys``, never copied.  An image that misses a
    goal its source met is refused, and the next source is tried.  None
    when no source gives an image.
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
            fwd = _forward(sys, image, psi_i, psi_f)
            j = _fidelity(*fwd[:2])
            if not source.fidelity >= cfg.fidelity_goal > j:
                return SearchResult(image, j, 0, j >= cfg.fidelity_goal, np.array([j]), _product(fwd[4]))
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
