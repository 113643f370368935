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
mapper that switches between the two 8-level cesium systems (aux +4 or
-4), runs each rotation on the one that holds its reflection vector, and
writes that search's 8-level chi into the 9 levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cesium import CesiumParams, build_restricted_system, x_basis_state
from .core import STATE_NORM_TOL, haar_random_state
from .search import SearchConfig
from .subspace import ExactMapper, SearchedMapper, SubspaceMapSpec, SynthesisReport, synthesize_subspace_map

SIM_DIM = 9
IDX_44Z = 7
IDX_4M4Z = 8

#: z-rotation generator on the simulation space; the fiducial levels keep
#: their physical magnetic numbers +-4
FZ_SIM = np.diag(np.array([3, 2, 1, 0, -1, -2, -3, 4, -4], dtype=float))


def sim_z_state(m: float) -> np.ndarray:
    """|3, m_z> (|m|<=3) or |4, +-4_z> on the 9-level simulation space."""
    v = np.zeros(SIM_DIM, dtype=complex)
    if abs(m) <= 3:
        v[round(3 - m)] = 1.0
    elif m == 4:
        v[IDX_44Z] = 1.0
    elif m == -4:
        v[IDX_4M4Z] = 1.0
    else:
        raise ValueError(f"no simulation level with m_z={m}")
    return v


def sim_x_state(m_x: float) -> np.ndarray:
    """|3, m_x> embedded in the 9-level simulation space."""
    v = np.zeros(SIM_DIM, dtype=complex)
    v[:7] = x_basis_state(3, m_x)
    return v


def ec_map_specs() -> tuple[SubspaceMapSpec, SubspaceMapSpec, SubspaceMapSpec]:
    """The three protocol maps: encode, error extraction, and recovery."""
    encode = SubspaceMapSpec(
        source=(sim_z_state(4), sim_z_state(3)),
        target=(sim_x_state(3), sim_x_state(-3)),
    )
    extract = SubspaceMapSpec(
        source=(sim_x_state(2), sim_x_state(-2)),
        target=(sim_z_state(4), sim_z_state(-4)),
    )
    recover = SubspaceMapSpec(
        source=(sim_z_state(4), sim_z_state(-4)),
        target=(sim_x_state(3), sim_x_state(-3)),
    )
    return encode, extract, recover


def ec_maps():
    """The three protocol maps as ideal 9x9 unitaries, from exact pi-rotations."""
    mapper = ExactMapper(SIM_DIM)
    return tuple(synthesize_subspace_map(spec, mapper).assembled for spec in ec_map_specs())


def error_channel(epsilon: float) -> np.ndarray:
    """Dephasing unitary exp(-2 i epsilon Fz) on the simulation space."""
    if not np.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    return np.diag(np.exp(-2j * epsilon * np.diag(FZ_SIM)))


def run_ec_trials(qubits, epsilon: float, maps):
    """One protocol round on n qubit states at once, summed over both QND outcomes.

    Row i of ``qubits`` (n, 2) is encoded, dephased by ``epsilon`` and
    error-extracted.  The QND measurement of F splits the state into its
    F=3 part, decoded as it stands, and its F=4 part, recovered and then
    decoded; the expected corrected fidelity is the sum of the two
    branches' |<psi|K_o|psi>|^2, with no renormalization.  Returns the (n,)
    arrays (expected corrected fidelity, uncorrected fidelity, P(F=4)).
    The uncorrected curve keeps the qubit in the physical stretched pair,
    where it only dephases.
    """
    q = np.asarray(qubits, dtype=complex)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError(f"need qubits of shape (n, 2), got {q.shape}")
    # written as "not <=" so that a NaN norm fails the check too
    if not np.all(np.abs(np.linalg.norm(q, axis=1) - 1.0) <= STATE_NORM_TOL):
        raise ValueError("qubit states must be finite with unit norm")
    phases = np.diag(error_channel(epsilon))
    psi0 = q @ np.array([sim_z_state(4), sim_z_state(3)])
    uncorrected = _overlap_fidelity(psi0, psi0 * phases)

    encode, extract, recover = maps
    psi = ((psi0 @ encode.T) * phases) @ extract.T
    if not np.all(np.abs(np.linalg.norm(psi, axis=1) - 1.0) <= STATE_NORM_TOL):
        raise ValueError("protocol maps do not preserve the state norm")
    in_f4 = np.arange(SIM_DIM) >= IDX_44Z
    f3, f4 = np.where(in_f4, 0.0, psi), np.where(in_f4, psi, 0.0)
    corrected = _overlap_fidelity(psi0, f3 @ encode.conj(), f4 @ recover.T @ encode.conj())
    return corrected, uncorrected, np.sum(np.abs(f4) ** 2, axis=1)


def _overlap_fidelity(psi0: np.ndarray, *finals: np.ndarray) -> np.ndarray:
    """Row-wise sum of |<psi0|final>|^2 over the finals, clipped at 1 against rounding."""
    return np.minimum(sum(np.abs(np.sum(psi0.conj() * f, axis=1)) ** 2 for f in finals), 1.0)


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
        grid = tuple(float(e) for e in self.epsilon_grid)
        if not grid or not all(np.isfinite(grid)):
            raise ValueError("epsilon_grid must be non-empty and finite")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.average not in ("haar", "axes"):
            raise ValueError(f"average must be 'haar' or 'axes', got {self.average!r}")
        object.__setattr__(self, "epsilon_grid", grid)

    @property
    def n_states(self) -> int:
        """Qubit states averaged per error angle."""
        return len(BLOCH_AXIS_STATES) if self.average == "axes" else self.samples


@dataclass(frozen=True)
class ECResult:
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
    axes mode takes the six Bloch-axis states and builds no rng.  Every
    error angle averages those same states in one ``run_ec_trials`` batch;
    the trigger rate is the mean P(F=4).
    """
    if cfg.average == "axes":
        qubits = np.array(BLOCH_AXIS_STATES)
    else:
        rng = np.random.default_rng(cfg.seed)
        qubits = np.array([haar_random_state(2, rng) for _ in range(cfg.samples)])
    means = np.array([[row.mean() for row in run_ec_trials(qubits, eps, maps)] for eps in cfg.epsilon_grid])
    corrected, uncorrected, trigger = (tuple(col) for col in means.T.tolist())
    return ECResult(cfg.epsilon_grid, corrected, uncorrected, trigger)


def _aux_levels(aux: int) -> list[int]:
    """Simulation-space indices of the 8-level system with this aux level."""
    return list(range(7)) + [IDX_44Z if aux == +4 else IDX_4M4Z]


@dataclass(frozen=True)
class ECMapSynthesis(SynthesisReport):
    """A protocol map's synthesis report; its fidelity is the subspace fidelity."""

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


@dataclass(frozen=True)
class _AuxSwitchingMapper:
    """Searched mapper on whichever 8-level system holds the reflection.

    The search runs on the reflection restricted to that system's levels,
    and its 8-level chi is written into those levels of a zero 9-vector,
    so the factor acts as the identity on the other aux level.
    """

    searched: dict[int, SearchedMapper]
    dim = SIM_DIM

    def phase_about(self, phi):
        aux = _aux_for_reflection(phi)
        levels = _aux_levels(aux)
        phi8 = phi[levels]
        chi8, fidelity, converged, waveform = self.searched[aux].phase_about(phi8 / np.linalg.norm(phi8))
        chi = np.zeros(SIM_DIM, dtype=complex)
        chi[levels] = chi8
        return chi, fidelity, converged, waveform


def synthesize_ec_maps(params: CesiumParams, cfg: SearchConfig):
    """Waveform-backed protocol maps with the aux-switching convention.

    Rotations are planned on the 9-level space; each one is realized on
    whichever 8-level control system (aux = +4 or -4) contains its
    reflection vector.  Phase corrections are analytic.
    """
    mapper = _AuxSwitchingMapper(
        {aux: SearchedMapper(build_restricted_system(params, aux=aux), cfg) for aux in (+4, -4)}
    )
    reports = tuple(ECMapSynthesis(**vars(synthesize_subspace_map(spec, mapper))) for spec in ec_map_specs())
    return tuple(rep.assembled for rep in reports), reports
