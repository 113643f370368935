"""Shared fixtures and helpers: the cesium presets, small generic test
systems, the exact adjoint of a waveform's propagator, diagonal phase
targets, and the Lie-algebra rank used as a controllability witness."""

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


def assert_carries_its_propagator(sys, result) -> None:
    """The result's propagator is ``propagate`` of its waveform, bit for bit, and read-only."""
    assert result.propagator.tobytes() == propagate(sys, result.waveform).tobytes()
    assert not result.propagator.flags.writeable


def searches_run(result, cfg) -> int:
    """The searches ``multi_start`` ran for a searched ``result``: through the first restart that met the goal, else all."""
    return result.restart_index + 1 if result.converged else cfg.restarts


def diag_phase(d: int, index: int, angle: float) -> np.ndarray:
    """Diagonal unitary with e^{-i angle} on basis level ``index`` and 1 elsewhere."""
    diag = np.ones(d, dtype=complex)
    diag[index] = np.exp(-1j * angle)
    return np.diag(diag)


def lie_algebra_dimension(generators) -> int:
    """Real dimension of the Lie algebra generated by i*(Hermitian generators).

    Nested-commutator scan: maintain an orthonormal real basis of the span
    (Hermitian matrices as real vectors) and close it under commutators.
    Used as a numerical controllability witness.
    """
    mats = [np.asarray(g, dtype=complex) for g in generators]
    cap = mats[0].shape[0] ** 2  # the dimension of u(d)

    def to_vec(h):
        return np.concatenate([h.real.ravel(), h.imag.ravel()])

    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []

    def try_add(h) -> bool:
        v = to_vec(h)
        for b in basis_vecs:
            v = v - np.dot(b, v) * b
        norm = np.linalg.norm(v)
        if norm < 1e-9 * max(1.0, np.abs(h).max()):
            return False
        basis_vecs.append(v / norm)
        basis_mats.append(h)
        return True

    scale = max(np.abs(m).max() for m in mats) or 1.0
    for m in mats:
        try_add(m / scale)
    frontier = list(range(len(basis_mats)))
    while frontier and len(basis_mats) < cap:
        new_frontier = []
        for i in frontier:
            for j in range(len(basis_mats)):
                if len(basis_mats) >= cap:
                    break
                # i[A, B] is Hermitian for Hermitian A, B
                comm = 1j * (basis_mats[i] @ basis_mats[j] - basis_mats[j] @ basis_mats[i])
                top = np.abs(comm).max()
                if top < 1e-12:
                    continue
                if try_add(comm / top):
                    new_frontier.append(len(basis_mats) - 1)
        frontier = new_frontier
    return len(basis_mats)


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
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.<name>`` for the test.

    Each call still runs, and appends its positional arguments to the list
    returned.
    """

    def install(module, name):
        calls, inner = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or inner(*a, **k))
        return calls

    return install


@pytest.fixture
def returned_results(monkeypatch):
    """``returned_results(module)`` wraps ``module.multi_start`` for the test.

    Each call still runs, and appends its (system, result) pair to the list
    returned.
    """

    def install(module):
        returned, inner = [], module.multi_start

        def wrapper(sys, *args):
            result = inner(sys, *args)
            returned.append((sys, result))
            return result

        monkeypatch.setattr(module, "multi_start", wrapper)
        return returned

    return install


@pytest.fixture
def keep_result():
    """``keep_result(sys, psi_i, psi_f, cfg, result)`` makes ``multi_start`` keep ``result`` for those arguments.

    It calls ``multi_start`` with each restart's search standing in as
    ``result``, so a result whose waveform misses the fidelity it claims
    can be kept; the real search is put back afterwards.
    """
    import unimap.search

    def keep(sys, psi_i, psi_f, cfg, result):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(unimap.search, "search_state_map", lambda *args, **kwargs: result)
            assert unimap.search.multi_start(sys, psi_i, psi_f, cfg) is result

    return keep


@pytest.fixture
def fixed_search(monkeypatch):
    """Replace ``multi_start`` in a module by a seeded stand-in search.

    ``fixed_search(module)`` patches the module and returns the list of
    (system, waveform) pairs the stand-in handed out, in call order.  Each
    waveform is a fixed random draw inside the bounds, so a synthesis built
    on it is deterministic without running any search.
    """
    from unimap.control import Waveform, propagate
    from unimap.search import SearchResult

    def install(module):
        handed_out = []

        def stand_in(sys, psi_i, psi_f, cfg):
            rng = np.random.default_rng([2024, len(handed_out)])
            amps = 0.8 * rng.uniform(-1, 1, size=(cfg.segment_count, sys.n_controls))
            w = Waveform(np.full(cfg.segment_count, cfg.segment_duration), amps)
            handed_out.append((sys, w))
            return SearchResult(w, 0.5, 0, False, np.array([0.5]), propagate(sys, w))

        monkeypatch.setattr(module, "multi_start", stand_in)
        return handed_out

    return install
