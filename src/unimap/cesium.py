"""Restricted 8-level cesium hyperfine control model.

The system is the seven F=3 ground-manifold sublevels of 133Cs plus one
stretched F=4 sublevel serving as the fiducial state: rf magnetic fields
rotate the F=3 manifold, resonant microwaves couple the adjacent stretched
pair, and an off-resonant light shift imprints a phase on the fiducial
alone.  Basis order is |3,3>, |3,2>, ..., |3,-3>, then the auxiliary
|4,+4> (or |4,-4>) at index 7.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .control import ControlSystem
from .core import _real_number, basis_state, mat_exp

DIM = 8
FIDUCIAL_INDEX = 7
F_GROUND = 3

#: control channel order used throughout: rf-x, rf-y, uw-x, uw-y, light shift
CONTROL_NAMES = ("rf_x", "rf_y", "uw_x", "uw_y", "light_shift")


class SpinOperators(NamedTuple):
    """Angular momentum matrices for spin F, with Fz diagonal F..-F."""

    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray


def spin_operators(F: float) -> SpinOperators:
    """Standard ladder-operator construction of Fx, Fy, Fz (hbar = 1)."""
    two_f = round(2 * F)
    if two_f < 0 or abs(2 * F - two_f) > 1e-12:
        raise ValueError(f"invalid spin F={F}; 2F must be a nonnegative integer")
    F = two_f / 2.0
    m = F - np.arange(two_f + 1)  # F, F-1, ..., -F
    fz = np.diag(m).astype(complex)
    # <m+1| F+ |m> = sqrt(F(F+1) - m(m+1)); basis is descending in m
    raise_amp = np.sqrt(F * (F + 1) - m[1:] * (m[1:] + 1))
    f_plus = np.zeros((two_f + 1, two_f + 1), dtype=complex)
    f_plus[np.arange(two_f), np.arange(1, two_f + 1)] = raise_amp
    fx = (f_plus + f_plus.conj().T) / 2
    fy = (f_plus - f_plus.conj().T) / 2j
    return SpinOperators(fx=fx, fy=fy, fz=fz)


@dataclass(frozen=True)
class CesiumParams:
    """Rates (rad/s) bounding each control channel, and the rf detuning of the frame.

    The default frame sits on the rf resonance (zero detuning), where the
    drift vanishes and the light shift acts on the fiducial state alone.
    """

    rf_rabi_max: float = 2 * np.pi * 25e3
    uw_rabi_max: float = 2 * np.pi * 25e3
    lightshift_max: float = 2 * np.pi * 25e3
    rf_detuning: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            _real_number(getattr(self, name), f"cesium parameter {name}")
        for name in ("rf_rabi_max", "uw_rabi_max", "lightshift_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not math.isfinite(self.rf_detuning):
            raise ValueError("rf_detuning must be finite")

    @staticmethod
    def from_dict(data: dict) -> "CesiumParams":
        if not isinstance(data, dict):
            raise ValueError(f"cesium parameters must be a JSON object, got {type(data).__name__}")
        known = {f for f in CesiumParams.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown cesium parameter field: {sorted(unknown)[0]}")
        return CesiumParams(**data)


def build_restricted_system(params: CesiumParams | None = None, aux: int = +4) -> ControlSystem:
    """8-level control system with the auxiliary |4,+4> or |4,-4> as fiducial.

    The microwave couples the fiducial only to the adjacent stretched state
    (|3,3> for aux=+4, |3,-3> for aux=-4); rf and drift act on the F=3
    block alone, the light shift on the fiducial alone.
    """
    params = params or CesiumParams()
    if aux not in (+4, -4):
        raise ValueError(f"aux must be +4 or -4, got {aux}")
    drift, controls = _generators(params, aux)
    return ControlSystem(
        drift=drift,
        controls=controls,
        amplitude_bounds=((-1.0, 1.0),) * len(controls),
        fiducial_index=FIDUCIAL_INDEX,
        name=f"cs133-f3-aux{aux:+d}".replace("+", ""),
    )


@functools.lru_cache(maxsize=8)
def _generators(params: CesiumParams, aux: int) -> tuple[np.ndarray, np.ndarray]:
    """The drift and the (5, 8, 8) control stack for one parameter set, read-only.

    Built once per parameter set and shared by every system built from
    equal parameters, which then stores no generator of its own.
    """
    ops = spin_operators(F_GROUND)

    def embed_f3(block: np.ndarray) -> np.ndarray:
        h = np.zeros((DIM, DIM), dtype=complex)
        h[:7, :7] = block
        return h

    ground = 0 if aux == +4 else 6  # |3,3> or |3,-3>
    uw_x = np.zeros((DIM, DIM), dtype=complex)
    uw_x[FIDUCIAL_INDEX, ground] = 0.5
    uw_x[ground, FIDUCIAL_INDEX] = 0.5
    uw_y = np.zeros((DIM, DIM), dtype=complex)
    uw_y[FIDUCIAL_INDEX, ground] = 0.5j
    uw_y[ground, FIDUCIAL_INDEX] = -0.5j

    light = np.zeros((DIM, DIM), dtype=complex)
    light[FIDUCIAL_INDEX, FIDUCIAL_INDEX] = 1.0

    rates = (params.rf_detuning,) + (params.rf_rabi_max,) * 2 + (params.uw_rabi_max,) * 2 + (params.lightshift_max,)
    unit = (embed_f3(ops.fz), embed_f3(ops.fx), embed_f3(ops.fy), uw_x, uw_y, light)
    # ||H0|| + sum_k ||H_k|| bounds every segment generator at the amplitude bounds +-1; summed
    # in Python floats, which overflow to inf without a numpy warning
    bound = sum(abs(rate) * float(np.linalg.norm(h, 2)) for rate, h in zip(rates, unit))
    if not math.isfinite(bound):
        raise ValueError(f"cesium rates {asdict(params)} (rad/s) overflow the bound ||H0|| + sum_k ||H_k||")
    drift = params.rf_detuning * unit[0]
    controls = np.stack([rate * h for rate, h in zip(rates[1:], unit[1:])])
    drift.setflags(write=False)
    controls.setflags(write=False)
    return drift, controls


def _aux_mirror(sign: int) -> np.ndarray:
    """S_s = D R on the 8-level basis: R swaps |3,m> with |3,-m>, D puts (-1)^i on F=3 level i and s on the aux."""
    s = np.zeros((DIM, DIM))
    s[np.arange(7), np.arange(6, -1, -1)] = (-1.0) ** np.arange(7)
    s[FIDUCIAL_INDEX, FIDUCIAL_INDEX] = sign
    s.setflags(write=False)
    return s


#: the two signed level reversals S_+ and S_- (a pi rotation about y on F=3, the aux level
#: kept or negated), by sign s; at zero rf detuning each maps the aux +4 system onto the
#: aux -4 system with every control going to plus or minus itself
AUX_MIRRORS = {s: _aux_mirror(s) for s in (+1, -1)}


def _level_state(levels: np.ndarray, m: float, where: str) -> np.ndarray:
    """Basis vector of the level whose magnetic number in ``levels`` is m to 1e-12; any other m raises ValueError."""
    hit = np.flatnonzero(np.abs(levels - m) <= 1e-12)
    if hit.size == 0:
        raise ValueError(f"invalid magnetic number {where}")
    return basis_state(len(levels), int(hit[0]))


def x_basis_state(F: float, m_x: float) -> np.ndarray:
    """Eigenvector of Fx with eigenvalue m_x: exp(-i pi/2 Fy) |F, m_z = m_x>."""
    return x_basis_states(F, m_x)[0]


def x_basis_states(F: float, *m_x: float) -> list[np.ndarray]:
    """``x_basis_state`` of each m_x, with the rotation exp(-i pi/2 Fy) computed once."""
    ops = spin_operators(F)
    rotation = mat_exp(ops.fy, np.pi / 2)
    return [rotation @ _level_state(ops.fz.diagonal().real, m, f"m_x={m} for F={F}") for m in m_x]


PRESETS = {
    "cs133-f3-aux4": lambda params=None: build_restricted_system(params, aux=+4),
    "cs133-f3-aux-4": lambda params=None: build_restricted_system(params, aux=-4),
}
