"""Shared fixtures and helpers: the cesium presets, small generic test
systems, the exact adjoint of a waveform's propagator, and diagonal phase
targets."""

import numpy as np
import pytest

from unimap.cesium import CesiumParams, build_restricted_system, spin_operators
from unimap.control import ControlSystem, propagate


@pytest.fixture(scope="session")
def cesium():
    return build_restricted_system(CesiumParams())


@pytest.fixture(scope="session")
def cesium_minus():
    return build_restricted_system(CesiumParams(), aux=-4)


def apply_adjoint(sys, w) -> np.ndarray:
    """Conjugate transpose of the waveform's propagator, from its own propagation.

    The builder forms each factor V† P(theta) V from chi = V†|fiducial>
    alone; tests write the factor out as full matrices with this adjoint
    and compare the builder's rank-one form against it.
    """
    return propagate(sys, w).conj().T


def diag_phase(d: int, index: int, angle: float) -> np.ndarray:
    """Diagonal unitary with e^{-i angle} on basis level ``index`` and 1 elsewhere."""
    diag = np.ones(d, dtype=complex)
    diag[index] = np.exp(-1j * angle)
    return np.diag(diag)


def make_spin_system(two_f: int, rate: float = 2 * np.pi * 25e3) -> ControlSystem:
    """Controllable spin system: Fx, Fy rotations plus a quadratic shift.

    The quadratic Fz^2 control breaks the rotation symmetry, which is what
    lifts {Fx, Fy} from the spin irrep to the full unitary algebra.
    """
    ops = spin_operators(two_f / 2)
    return ControlSystem(
        drift=np.zeros_like(ops.fz),
        controls=(rate * ops.fx, rate * ops.fy, rate * (ops.fz @ ops.fz)),
        amplitude_bounds=((-1.0, 1.0),) * 3,
        fiducial_index=0,
        name=f"spin-{two_f}/2",
    )


@pytest.fixture(scope="session")
def spin4():
    """Generic 4-level system (spin 3/2)."""
    return make_spin_system(3)


@pytest.fixture(scope="session")
def two_level():
    """Single qubit with one sigma_x/2 control (1 rad/s scale), no drift."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    return ControlSystem(
        drift=np.zeros((2, 2), dtype=complex),
        controls=(sx / 2,),
        amplitude_bounds=((-1.0, 1.0),),
        fiducial_index=0,
        name="two-level",
    )


@pytest.fixture
def fixed_search(monkeypatch):
    """Replace ``multi_start`` in a module by a seeded stand-in search.

    ``fixed_search(module)`` patches the module and returns the list of
    (system, waveform) pairs the stand-in handed out, in call order.  Each
    waveform is a fixed random draw inside the bounds, so a synthesis built
    on it is deterministic without running any search.
    """
    from unimap.control import Waveform
    from unimap.search import SearchResult

    def install(module):
        handed_out = []

        def stand_in(sys, psi_i, psi_f, cfg):
            rng = np.random.default_rng([2024, len(handed_out)])
            amps = 0.8 * rng.uniform(-1, 1, size=(cfg.segment_count, sys.n_controls))
            w = Waveform(np.full(cfg.segment_count, cfg.segment_duration), amps)
            handed_out.append((sys, w))
            return SearchResult(w, 0.5, 0, False, np.array([0.5]))

        monkeypatch.setattr(module, "multi_start", stand_in)
        return handed_out

    return install
