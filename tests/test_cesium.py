"""The restricted 8-level cesium model: spin operators, couplings, states."""

import dataclasses

import numpy as np
import pytest

from unimap.cesium import (
    AUX_MIRRORS,
    CONTROL_NAMES,
    CesiumParams,
    PRESETS,
    build_restricted_system,
    spin_operators,
    x_basis_state,
)
from conftest import diag_phase, lie_algebra_dimension
from unimap.control import ControlSystem, Waveform, _mirror_signs, propagate
from unimap.core import basis_state


class TestSpinOperators:
    def test_spin_half_is_pauli(self):
        ops = spin_operators(0.5)
        assert np.allclose(ops.fx, np.array([[0, 1], [1, 0]]) / 2)
        assert np.allclose(ops.fy, np.array([[0, -1j], [1j, 0]]) / 2)
        assert np.allclose(ops.fz, np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("F", [0.5, 1, 1.5, 3, 3.5])
    def test_commutators(self, F):
        ops = spin_operators(F)
        for a, b, c in ((ops.fx, ops.fy, ops.fz), (ops.fy, ops.fz, ops.fx), (ops.fz, ops.fx, ops.fy)):
            assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12

    def test_fz_descending(self):
        ops = spin_operators(3)
        assert np.allclose(np.diag(ops.fz), [3, 2, 1, 0, -1, -2, -3])

    def test_casimir(self):
        ops = spin_operators(3)
        casimir = ops.fx @ ops.fx + ops.fy @ ops.fy + ops.fz @ ops.fz
        assert np.abs(casimir - 12 * np.eye(7)).max() < 1e-12

    def test_rejects_invalid_spin(self):
        with pytest.raises(ValueError):
            spin_operators(0.3)


class TestRestrictedSystem:
    def test_dimensions_and_hermiticity(self, cesium):
        assert cesium.dim == 8
        assert cesium.n_controls == 5
        # ControlSystem validates hermiticity on construction; spot-check anyway
        for h in cesium.controls:
            assert np.abs(h - np.conj(h).T).max() < 1e-12

    def test_aux_selection(self, cesium, cesium_minus):
        # aux=+4 couples index 7 to |3,3> (index 0); aux=-4 to |3,-3> (index 6)
        assert abs(cesium.controls[2][7, 0]) > 0
        assert cesium.controls[2][7, 6] == 0
        assert abs(cesium_minus.controls[2][7, 6]) > 0
        assert cesium_minus.controls[2][7, 0] == 0

    def test_rejects_bad_aux(self):
        with pytest.raises(ValueError, match="aux"):
            build_restricted_system(CesiumParams(), aux=3)

    def test_controllability_rank(self, cesium):
        gens = [cesium.drift, *cesium.controls]
        assert lie_algebra_dimension(gens) >= 63

    def test_lightshift_segment_matches_imprint(self, cesium):
        # the imprint as played: one light-shift segment of lam / lightshift_max at amplitude 1
        lam = 1.234
        light = np.eye(len(CONTROL_NAMES))[CONTROL_NAMES.index("light_shift")]
        w = Waveform([lam / CesiumParams().lightshift_max], [light])
        target = diag_phase(8, 7, lam)
        assert np.abs(propagate(cesium, w) - target).max() < 1e-10

    def test_rf_never_populates_fiducial(self, cesium):
        rng = np.random.default_rng(0)
        amps = rng.uniform(-1, 1, size=(20, 5))
        amps[:, 2:4] = 0.0  # no microwaves
        u = propagate(cesium, Waveform(np.full(20, 1e-5), amps))
        for k in range(7):
            assert abs(u[7, k]) < 1e-12

    def test_microwave_identity_on_uncoupled(self, cesium):
        amps = np.zeros((4, 5))
        amps[:, 2] = 0.7
        amps[:, 3] = -0.4
        u = propagate(cesium, Waveform(np.full(4, 1e-5), amps))
        for k in range(1, 7):  # all F=3 levels except |3,3>
            assert abs(u[k, k] - 1) < 1e-12

    def test_presets(self):
        assert set(PRESETS) == {"cs133-f3-aux4", "cs133-f3-aux-4"}
        assert PRESETS["cs133-f3-aux4"]().name == "cs133-f3-aux4"


def test_equal_parameters_share_generators_not_systems():
    # each generator is stored once per parameter set: equal systems share it read-only,
    # yet stay distinct systems, so no stored search result passes between them
    a, b = build_restricted_system(CesiumParams()), build_restricted_system(CesiumParams(), aux=+4)
    assert a is not b and a.drift is b.drift and a.controls is b.controls
    assert not a.controls.flags.writeable and a.controls.shape == (5, 8, 8)
    minus, detuned = build_restricted_system(aux=-4), build_restricted_system(CesiumParams(rf_detuning=1.0))
    assert not np.shares_memory(minus.controls, a.controls)
    assert not np.shares_memory(detuned.drift, a.drift) and np.array_equal(detuned.controls, a.controls)


class TestAuxMirrors:
    # control signs of S_+ and S_-, in CONTROL_NAMES order (rf_x, rf_y, uw_x, uw_y, light_shift)
    SIGNS = {+1: (-1.0, 1.0, 1.0, 1.0, 1.0), -1: (-1.0, 1.0, -1.0, -1.0, 1.0)}

    @pytest.mark.parametrize("s", [+1, -1])
    def test_presets_mirror_exactly_with_the_listed_signs(self, s):
        plus, minus = PRESETS["cs133-f3-aux4"](), PRESETS["cs133-f3-aux-4"]()
        mirror = AUX_MIRRORS[s]
        for h_plus, h_minus, sign in zip(plus.controls, minus.controls, self.SIGNS[s], strict=True):
            assert np.array_equal(mirror @ h_plus @ mirror.T, sign * h_minus)
        assert np.array_equal(mirror @ plus.drift @ mirror.T, minus.drift)
        assert tuple(_mirror_signs(plus, minus, mirror)) == self.SIGNS[s]

    @pytest.mark.parametrize("s", [+1, -1])
    def test_mirror_reverses_f3_with_alternating_signs(self, s):
        mirror = AUX_MIRRORS[s]
        assert np.array_equal(mirror @ mirror.T, np.eye(8))
        for i in range(7):
            assert np.array_equal(mirror @ basis_state(8, i), (-1) ** (6 - i) * basis_state(8, 6 - i))
        assert np.array_equal(mirror @ basis_state(8, 7), s * basis_state(8, 7))

    def test_bounds_must_map_onto_bounds(self, cesium, cesium_minus):
        # rf_x changes sign under both mirrors, so its bounds must be reflected
        def with_rf_x_bounds(sys, bounds):
            return dataclasses.replace(sys, amplitude_bounds=[bounds, *sys.amplitude_bounds[1:]])

        mirror, plus = AUX_MIRRORS[+1], with_rf_x_bounds(cesium, (0.0, 1.0))
        assert _mirror_signs(plus, cesium_minus, mirror) is None
        assert tuple(_mirror_signs(plus, with_rf_x_bounds(cesium_minus, (-1.0, 0.0)), mirror)) == self.SIGNS[+1]

    def test_fiducial_must_map_onto_fiducial(self, cesium, cesium_minus):
        moved = ControlSystem(cesium_minus.drift, cesium_minus.controls, cesium_minus.amplitude_bounds, 0)
        assert _mirror_signs(cesium, moved, AUX_MIRRORS[+1]) is None


def conjugation_signs(sys):
    """Signs sigma with conj(U(u)) = U(sigma u) on ``sys``: the antiunitary case of ``_mirror_signs`` with S = I."""
    return _mirror_signs(sys, sys, np.eye(sys.dim), conjugate=True)


class TestConjugationSigns:
    # rf_x, uw_x and the light shift are real generators, rf_y and uw_y imaginary
    SIGNS = (-1.0, 1.0, -1.0, 1.0, -1.0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_conjugate_exactly_with_the_listed_signs(self, name):
        sys = PRESETS[name]()
        assert tuple(conjugation_signs(sys)) == self.SIGNS
        for h, sign in zip(sys.controls, self.SIGNS, strict=True):
            assert np.array_equal(-h.conj(), sign * h)

    def test_signed_waveform_plays_the_conjugate_propagator(self, cesium):
        amps = np.random.default_rng(5).uniform(-1, 1, size=(6, 5))
        u = propagate(cesium, Waveform(np.full(6, 10e-6), amps))
        image = propagate(cesium, Waveform(np.full(6, 10e-6), amps * np.array(self.SIGNS)))
        assert np.abs(image - u.conj()).max() < 1e-12

    @pytest.mark.parametrize("aux", [+4, -4])
    def test_detuned_preset_has_none(self, aux):
        # the drift delta Fz is real, so its image -delta Fz is not the drift
        assert conjugation_signs(build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 100), aux=aux)) is None

    def test_asymmetric_bound_on_a_real_control_has_none(self):
        # sigma_x is real (sign -1), so its bounds must be symmetric; sigma_y is
        # imaginary (sign +1) and keeps any bounds
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])

        def two_level(bounds):
            return ControlSystem(np.zeros((2, 2), dtype=complex), (sx, sy), bounds, fiducial_index=0)

        assert tuple(conjugation_signs(two_level(((-1.0, 1.0), (0.0, 1.0))))) == (-1.0, 1.0)
        assert conjugation_signs(two_level(((0.0, 1.0), (-1.0, 1.0)))) is None


class TestXBasisStates:
    def test_spin_half(self):
        got = x_basis_state(0.5, 0.5)
        want = np.array([1, 1]) / np.sqrt(2)
        phase = np.vdot(want, got)
        assert abs(abs(phase) - 1) < 1e-12
        assert np.abs(got - phase * want).max() < 1e-12

    def test_eigenvector_of_fx(self):
        ops = spin_operators(3)
        v = x_basis_state(3, 2)
        assert np.linalg.norm(ops.fx @ v - 2 * v) < 1e-10

    def test_zero_fz_expectation(self):
        ops = spin_operators(3)
        v = x_basis_state(3, 3)
        assert abs(np.vdot(v, ops.fz @ v)) < 1e-12

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m_x"):
            x_basis_state(3, 4)

    def test_orthonormal_family(self):
        vs = np.array([x_basis_state(3, m) for m in range(3, -4, -1)])
        gram = vs.conj() @ vs.T
        assert np.abs(gram - np.eye(7)).max() < 1e-10


class TestParams:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            CesiumParams(rf_rabi_max=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "name", ["rf_rabi_max", "uw_rabi_max", "lightshift_max", "rf_detuning"]
    )
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=name):
            CesiumParams(**{name: bad})

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "name", ["rf_rabi_max", "uw_rabi_max", "lightshift_max", "rf_detuning"]
    )
    def test_rejects_integers_beyond_float(self, name, sign):
        # built directly, as from_dict does, so both paths give the same error
        with pytest.raises(ValueError, match=f"^cesium parameter {name} is an integer that overflows a float$"):
            CesiumParams(**{name: sign * 10**400})

    def test_round_trip(self):
        p = CesiumParams(rf_rabi_max=1e5, rf_detuning=0.0)
        q = CesiumParams.from_dict(dataclasses.asdict(p))
        assert q == p

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            CesiumParams.from_dict({"bogus": 1})

    @pytest.mark.parametrize("value", ["1e5", None, True, [1.0]])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(ValueError, match="rf_rabi_max must be a number"):
            CesiumParams.from_dict({"rf_rabi_max": value})

    @pytest.mark.parametrize("value", ["5", True, None, [1.0]])
    @pytest.mark.parametrize("name", ["rf_rabi_max", "rf_detuning"])
    def test_built_directly_refuses_non_numbers_as_from_dict_does(self, name, value):
        with pytest.raises(ValueError, match=rf"^cesium parameter {name} must be a number, got "):
            CesiumParams(**{name: value})

    @pytest.mark.parametrize("data", [5, [["rf_detuning", 1.0]], "rf_detuning"])
    def test_rejects_non_objects(self, data):
        with pytest.raises(ValueError, match="JSON object"):
            CesiumParams.from_dict(data)

    def test_accepts_ints(self):
        assert CesiumParams.from_dict({"rf_detuning": 0}).rf_detuning == 0


def test_fiducial_state(cesium):
    assert np.array_equal(cesium.fiducial_state(), basis_state(8, 7))
