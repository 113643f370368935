"""Embedded-qubit phase-error correction on the cesium ground manifold.

A qubit stored in the stretched pair {|4,4_z>, |3,3_z>} is encoded into
the x-stretched states {|3,3_x>, |3,-3_x>}, where a small z-rotation
error moves amplitude into |3,+-2_x>.  Subspace maps shuttle that error
amplitude to the F=4 stretched states, a QND measurement of F diagnoses
the syndrome without touching the qubit coherence, and a conditional map
brings triggered states back, followed by decoding.  A protocol round
sums both measurement branches instead of sampling one, so its corrected
fidelity and syndrome rate are expectations.

The simulation lives on 9 levels: the seven F=3 sublevels (indices 0..6,
m = 3..-3) plus |4,4_z> at index 7 and |4,-4_z> at index 8.  The three
protocol maps come from the phase-about-a-vector builder of ``subspace``:
``ec_maps`` uses its exact mapper, and ``synthesize_ec_maps`` a searched
mapper that switches between the two 8-level cesium systems (aux +4 or -4)
and runs each rotation on the one that holds its reflection vector.  Its
step record carries the chi written into the 9 levels, and the ``result``
of the 8-level search.  At zero rf detuning a signed reversal of the F=3
levels (a pi rotation about y, ``cesium.AUX_MIRRORS``) maps the +4 system
exactly onto the -4 one.  Each such mirror is added to the -4 system's
symmetries (``search.add_symmetry``) with the +4 system's kept results as
source, so ``multi_start`` serves an aux -4 rotation that is the image of
a +4 rotation already run as that waveform with each control's amplitudes
times the control's sign, with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cesium import AUX_MIRRORS, CesiumParams, _level_state, build_restricted_system, x_basis_states
from .control import ControlSystem
from .core import STATE_NORM_TOL, _check_counts, _is_real, _refuse_deviation, _refuse_non_finite
from .search import SearchConfig, add_symmetry
from .subspace import ExactMapper, PhaseStep, SearchedMapper, SubspaceMapSpec, SynthesisReport, synthesize_subspace_map

SIM_DIM = 9
IDX_44Z = 7
IDX_4M4Z = 8

#: z-rotation generator on the simulation space; the fiducial levels keep
#: their physical magnetic numbers +-4
FZ_SIM = np.diag(np.array([3, 2, 1, 0, -1, -2, -3, 4, -4], dtype=float))
#: the largest |eps| whose dephasing phases 2 eps m are all finite
EPS_LIMIT = float(np.finfo(float).max / (2 * np.abs(FZ_SIM).max()))


def sim_z_state(m: float) -> np.ndarray:
    """|3, m_z> (|m|<=3) or |4, +-4_z> on the 9-level simulation space."""
    return _level_state(np.diag(FZ_SIM), m, f"m_z={m}: no simulation level has it")


def ec_map_specs() -> tuple[SubspaceMapSpec, SubspaceMapSpec, SubspaceMapSpec]:
    """The three protocol maps: encode, error extraction, and recovery.

    Their four x-states |3, m_x> (m_x = 3, -3, 2, -2), padded to 9 levels,
    share one F=3 rotation exp(-i pi/2 Fy), computed once per call.
    """
    plus3, minus3, plus2, minus2 = (np.pad(x, (0, SIM_DIM - 7)) for x in x_basis_states(3, 3, -3, 2, -2))
    encode = SubspaceMapSpec(source=(sim_z_state(4), sim_z_state(3)), target=(plus3, minus3))
    extract = SubspaceMapSpec(source=(plus2, minus2), target=(sim_z_state(4), sim_z_state(-4)))
    recover = SubspaceMapSpec(source=(sim_z_state(4), sim_z_state(-4)), target=(plus3, minus3))
    return encode, extract, recover


def ec_maps():
    """The three protocol maps as ideal 9x9 unitaries, from the exact mapper."""
    mapper = ExactMapper(SIM_DIM)
    return tuple(synthesize_subspace_map(spec, mapper).assembled for spec in ec_map_specs())


def run_ec_trials(qubits, epsilon, maps):
    """One protocol round on n qubit states at once, summed over both QND outcomes.

    Row i of ``qubits`` (n, 2) is encoded, dephased by each error angle of
    ``epsilon`` and error-extracted.  ``epsilon`` is one angle or a sequence
    of E angles; the angle axis comes from broadcasting the dephasing
    phases (E, 1, 9) against the encoded states (n, 9), so one angle is the
    same arithmetic as a grid of them.  The QND measurement of F splits the
    state into its F=3 part, decoded as it stands, and its F=4 part,
    recovered and then decoded; the expected corrected fidelity is the sum
    of the two branches' |<psi|K_o|psi>|^2, with no renormalization.
    Returns the arrays (expected corrected fidelity, uncorrected fidelity,
    P(F=4)), of shape (n,) for one angle and (E, n) for a sequence.  The
    uncorrected curve keeps the qubit in the physical stretched pair,
    where it only dephases.
    """
    q = np.asarray(qubits, dtype=complex)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"need qubits of shape (n, 2), got {q.shape}")
    _refuse_norms(q, "qubit states must be finite with unit norm")
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1 or not np.all(np.abs(eps) <= EPS_LIMIT):
        raise ValueError(f"epsilon must be one finite angle or a sequence of them, none above {EPS_LIMIT:.6g} in size")
    # the diagonal of the dephasing unitary exp(-2 i eps Fz), one row per angle
    phases = np.exp(-2j * eps[..., None] * np.diag(FZ_SIM))[..., None, :]
    psi0 = q @ np.array([sim_z_state(4), sim_z_state(3)])
    uncorrected = _overlap_fidelity(psi0, psi0 * phases)

    encode, extract, recover = maps
    psi = ((psi0 @ encode.T) * phases) @ extract.T
    _refuse_norms(psi, "protocol maps do not preserve the state norm")
    in_f4 = np.arange(SIM_DIM) >= IDX_44Z
    f3, f4 = np.where(in_f4, 0.0, psi), np.where(in_f4, psi, 0.0)
    corrected = _overlap_fidelity(psi0, f3 @ encode.conj(), f4 @ recover.T @ encode.conj())
    return corrected, uncorrected, np.sum(np.abs(f4) ** 2, axis=-1)


def _refuse_norms(states: np.ndarray, message: str) -> None:
    """Refuse with ``message`` unless every row of ``states`` has unit norm; zero rows pass."""
    _refuse_non_finite(states, message)
    _refuse_deviation(np.abs(np.linalg.norm(states, axis=-1) - 1.0).max(initial=0.0), STATE_NORM_TOL, message, message)


def _overlap_fidelity(psi0: np.ndarray, *finals: np.ndarray) -> np.ndarray:
    """Row-wise sum of |<psi0|final>|^2 over the finals, clipped at 1 against rounding."""
    return np.minimum(sum(np.abs(np.sum(psi0.conj() * f, axis=-1)) ** 2 for f in finals), 1.0)


#: the six Bloch-axis qubit states, a 2-design for exact averaging
BLOCH_AXIS_STATES = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
    np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
)


@dataclass(frozen=True)
class ECConfig:
    """Sweep settings: error angles and sampling."""

    epsilon_grid: tuple[float, ...]
    samples: int = 200
    seed: int = 0
    average: str = "haar"  # "haar" (Monte Carlo) or "axes" (exact 2-design)

    def __post_init__(self):
        if np.asarray(self.epsilon_grid, dtype=object).ndim != 1:
            raise ValueError(f"epsilon_grid must be one sequence of angles, got {self.epsilon_grid!r}")
        odd = [e for e in self.epsilon_grid if not _is_real(e)]
        if odd:
            raise ValueError(f"epsilon_grid must hold numbers, got {odd[0]!r}")
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid or not all(np.isfinite(grid)):
            raise ValueError("epsilon_grid must be non-empty and finite")
        huge = [e for e in grid if not abs(e) <= EPS_LIMIT]
        if huge:
            raise ValueError(f"epsilon {huge[0]!r} overflows the phases 2 eps m: |epsilon| must be <= {EPS_LIMIT:.6g}")
        _check_counts(self, samples=1, seed=0)
        if self.average not in ("haar", "axes"):
            raise ValueError(f"average must be 'haar' or 'axes', got {self.average!r}")
        object.__setattr__(self, "epsilon_grid", grid)

    @property
    def n_states(self) -> int:
        """Qubit states averaged per error angle."""
        return len(BLOCH_AXIS_STATES) if self.average == "axes" else self.samples


class ECResult(NamedTuple):
    """Averaged fidelities and syndrome rates, one row per error angle."""

    epsilon: tuple[float, ...]
    corrected: tuple[float, ...]
    uncorrected: tuple[float, ...]
    trigger_rate: tuple[float, ...]


def ec_sweep(cfg: ECConfig, maps) -> ECResult:
    """Haar (Monte Carlo) or exact 2-design average of both curves over the grid.

    Each trial sums over both measurement outcomes, so only the qubit
    states are sampled, and only once per sweep: haar mode draws
    ``cfg.samples`` states from one generator seeded with ``cfg.seed``, and
    axes mode takes the six Bloch-axis states and builds no rng.  One
    ``run_ec_trials`` call takes the whole grid as its angle axis, so every
    error angle averages those same states; row i of each (E, n) result is
    bit-identical to a call with the i-th angle alone.  The trigger rate is
    the mean P(F=4).
    """
    if cfg.average == "axes":
        qubits = np.array(BLOCH_AXIS_STATES)
    else:
        # the draws of cfg.samples haar_random_state(2, rng) calls; each 1x2 @ 2x1 sums as that call's norm does
        re, im = np.random.default_rng(cfg.seed).normal(size=(cfg.samples, 2, 2)).transpose(1, 0, 2)
        norms = np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0] + (im[:, None, :] @ im[:, :, None])[:, 0, 0])
        qubits = (re + 1j * im) / norms[:, None]
    corrected, uncorrected, trigger = (
        tuple(rows.mean(axis=1).tolist()) for rows in run_ec_trials(qubits, cfg.epsilon_grid, maps))
    return ECResult(cfg.epsilon_grid, corrected, uncorrected, trigger)


def _aux_levels(aux: int) -> list[int]:
    """Simulation-space indices of the 8-level system with this aux level."""
    return list(range(7)) + [IDX_44Z if aux == +4 else IDX_4M4Z]


class ECMapSynthesis(SynthesisReport):
    """A protocol map's synthesis report; its fidelity is the subspace fidelity."""

    __slots__ = ()

    @property
    def subspace_fidelity(self) -> float:
        return self.fidelity


def _aux_for_reflection(phi: np.ndarray) -> int:
    """Which auxiliary system can realize a rotation with this reflection.

    The 8-level model holds one F=4 level at a time, so the reflection may
    touch |4,4_z> or |4,-4_z| but never both; the protocol's maps satisfy
    this by construction (the aux state is switched between rotations).
    """
    on_p4 = abs(phi[IDX_44Z]) > 1e-9
    on_m4 = abs(phi[IDX_4M4Z]) > 1e-9
    if on_p4 and on_m4:
        raise ValueError("rotation touches both F=4 stretched states; no single aux system fits")
    return -4 if on_m4 else +4


class _AuxSwitchingMapper(NamedTuple):
    """Searched mapper on whichever 8-level system holds the reflection.

    The search runs on the reflection restricted to that system's levels; its
    record comes back with the 8-level chi written into those levels of a zero
    9-vector, so the factor is the identity on the other aux level, while the
    record's ``result`` stays the 8-level search's.  An aux -4 rotation that
    is the image of a +4 rotation already run is served by ``multi_start``
    through the aux mirrors added as symmetries (``_aux_switching_mapper``);
    chi then comes from the propagator that the image's own forward pass on
    the -4 system built, and the step gets its own record.
    """

    searched: dict[int, SearchedMapper]
    dim = SIM_DIM

    def phase_about(self, phi, theta: float) -> PhaseStep:
        aux = _aux_for_reflection(phi)
        levels = _aux_levels(aux)
        step8 = self.searched[aux].phase_about(phi[levels] / np.linalg.norm(phi[levels]), theta)
        chi = np.zeros(SIM_DIM, dtype=complex)
        chi[levels] = step8.chi
        return step8._replace(chi=chi)


def _aux_switching_mapper(plus: ControlSystem, minus: ControlSystem, cfg: SearchConfig) -> _AuxSwitchingMapper:
    """Searched mappers on the aux +4 and -4 systems, each aux mirror from one onto the other added as a symmetry."""
    mapper = _AuxSwitchingMapper({+4: SearchedMapper(plus, cfg), -4: SearchedMapper(minus, cfg)})
    for mirror in AUX_MIRRORS.values():
        add_symmetry(plus, minus, mirror)
    return mapper


def synthesize_ec_maps(params: CesiumParams, cfg: SearchConfig):
    """Waveform-backed protocol maps with the aux-switching convention.

    Rotations are planned on the 9-level space; each one is realized on
    whichever 8-level control system (aux = +4 or -4) contains its
    reflection vector.  The six rotations run three searches: step 1 of
    ``recover`` repeats step 1 of ``encode`` (``multi_start`` returns its
    result again), and step 2 of ``extract`` and of ``recover`` are the
    mirror images S_- of step 1 of ``extract`` and S_+ of step 1 of
    ``encode``, derived with no search.
    """
    mapper = _aux_switching_mapper(
        build_restricted_system(params, aux=+4), build_restricted_system(params, aux=-4), cfg
    )
    reports = tuple(ECMapSynthesis(*synthesize_subspace_map(spec, mapper)) for spec in ec_map_specs())
    return tuple(rep.assembled for rep in reports), reports
