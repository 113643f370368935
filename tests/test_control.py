"""Propagation, time reversal, and the fiducial phase imprint."""

import numpy as np
import pytest

from unimap.control import (
    ControlSystem,
    PhaseImprint,
    Waveform,
    apply_adjoint,
    check_amplitudes,
    lie_algebra_dimension,
    phase_imprint_unitary,
    propagate,
    reverse_waveform,
)
from unimap.core import mat_exp, unitarity_defect


def random_waveform(sys, n_segments, rng, duration=10e-6, scale=0.8):
    return Waveform(
        np.full(n_segments, duration),
        scale * rng.uniform(-1, 1, size=(n_segments, sys.n_controls)),
    )


class TestPropagate:
    def test_empty_waveform_identity(self, cesium):
        u = propagate(cesium, Waveform.empty(cesium.n_controls))
        assert np.array_equal(u, np.eye(8))

    def test_zero_amplitudes_gives_drift(self):
        from unimap.cesium import CesiumParams, build_restricted_system

        detuned = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3))
        tau = 7e-6
        w = Waveform.constant(tau, np.zeros(detuned.n_controls))
        drift_only = mat_exp(detuned.drift, tau)
        assert np.abs(drift_only - np.eye(8)).max() > 0.01  # drift actually acts
        assert np.abs(propagate(detuned, w) - drift_only).max() < 1e-12

    def test_composition(self, cesium):
        rng = np.random.default_rng(1)
        w1 = random_waveform(cesium, 3, rng)
        w2 = random_waveform(cesium, 4, rng)
        u = propagate(cesium, w2) @ propagate(cesium, w1)
        assert np.abs(propagate(cesium, w1.concatenate(w2)) - u).max() < 1e-12

    def test_unitary_output(self, cesium):
        rng = np.random.default_rng(2)
        u = propagate(cesium, random_waveform(cesium, 12, rng))
        assert unitarity_defect(u) < 1e-10

    def test_segment_splitting_invariance(self, cesium):
        rng = np.random.default_rng(3)
        w = random_waveform(cesium, 5, rng)
        # split segment 2 into two equal halves
        durations = np.concatenate([w.durations[:2], [w.durations[2] / 2] * 2, w.durations[3:]])
        amps = np.vstack([w.amplitudes[:3], w.amplitudes[2:]])
        assert np.abs(propagate(cesium, Waveform(durations, amps)) - propagate(cesium, w)).max() < 1e-12

    def test_rejects_out_of_bounds(self, cesium):
        w = Waveform.constant(1e-6, [1.5, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="bounds"):
            propagate(cesium, w)

    def test_rejects_wrong_control_count(self, cesium):
        with pytest.raises(ValueError, match="controls"):
            propagate(cesium, Waveform.constant(1e-6, [0.1]))


class TestReverseWaveform:
    def test_zero_amplitude_driftless(self, two_level):
        w = Waveform.constant(0.5, [0.0])
        rev = reverse_waveform(two_level, w)
        assert np.array_equal(rev.amplitudes, -w.amplitudes)
        assert np.abs(propagate(two_level, rev) - np.eye(2)).max() < 1e-12

    def test_single_segment_inverse(self, two_level):
        w = Waveform.constant(0.8, [0.63])
        prod = propagate(two_level, reverse_waveform(two_level, w)) @ propagate(two_level, w)
        assert np.abs(prod - np.eye(2)).max() < 1e-12

    def test_cesium_adjoint_check(self):
        from unimap.cesium import CesiumParams, build_restricted_system

        detuned = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3))
        rng = np.random.default_rng(4)
        w = random_waveform(detuned, 40, rng)
        rev = reverse_waveform(detuned, w)
        u_rev = propagate(detuned.with_negated_drift(), rev)
        assert np.abs(u_rev - propagate(detuned, w).conj().T).max() < 1e-10

    def test_involution(self, cesium):
        rng = np.random.default_rng(5)
        w = random_waveform(cesium, 7, rng)
        back = reverse_waveform(cesium, reverse_waveform(cesium, w))
        assert np.array_equal(back.durations, w.durations)
        assert np.array_equal(back.amplitudes, w.amplitudes)

    def test_rejects_asymmetric_bounds(self):
        sys = ControlSystem(
            drift=np.zeros((2, 2)),
            controls=(np.diag([1.0, -1.0]).astype(complex),),
            amplitude_bounds=((-0.2, 1.0),),
            fiducial_index=0,
        )
        w = Waveform(np.array([1e-6, 1e-6]), np.array([[0.1], [0.9]]))
        with pytest.raises(ValueError, match="segment 1"):
            reverse_waveform(sys, w)

    def test_rejects_irreversible_drift(self):
        sys = ControlSystem(
            drift=np.diag([1.0, -1.0]).astype(complex),
            controls=(np.array([[0, 1], [1, 0]], dtype=complex),),
            amplitude_bounds=((-1.0, 1.0),),
            fiducial_index=0,
            reversible_drift=False,
        )
        with pytest.raises(ValueError, match="reversible"):
            reverse_waveform(sys, Waveform.constant(1e-6, [0.5]))


class TestPhaseImprint:
    def test_zero_angle_identity(self):
        assert np.array_equal(phase_imprint_unitary(4, PhaseImprint(0.0, 0)), np.eye(4))

    def test_pi_on_first_level(self):
        got = phase_imprint_unitary(2, PhaseImprint(np.pi, 0))
        assert np.abs(got - np.diag([-1.0, 1.0])).max() < 1e-14

    def test_matches_mat_exp_oracle(self):
        lam = 2 * np.pi / 7
        proj = np.zeros((8, 8), dtype=complex)
        proj[7, 7] = 1.0
        got = phase_imprint_unitary(8, PhaseImprint(lam, 7))
        assert np.abs(got - mat_exp(proj, lam)).max() < 1e-10

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="index"):
            phase_imprint_unitary(3, PhaseImprint(0.5, 3))

    def test_angle_wrapped(self):
        p = PhaseImprint(2 * np.pi + 0.5, 1)
        assert p.angle == pytest.approx(0.5)


class TestApplyAdjoint:
    def test_empty(self, cesium):
        assert np.array_equal(apply_adjoint(cesium, Waveform.empty(5)), np.eye(8))

    def test_is_inverse(self, cesium):
        rng = np.random.default_rng(6)
        w = random_waveform(cesium, 9, rng)
        prod = apply_adjoint(cesium, w) @ propagate(cesium, w)
        assert np.abs(prod - np.eye(8)).max() < 1e-12

    def test_matches_reversed_waveform(self, cesium):
        rng = np.random.default_rng(7)
        w = random_waveform(cesium, 6, rng)
        via_reversal = propagate(cesium.with_negated_drift(), reverse_waveform(cesium, w))
        assert np.abs(apply_adjoint(cesium, w) - via_reversal).max() < 1e-10

    def test_bit_identical_to_conjugate_transpose(self, cesium):
        rng = np.random.default_rng(8)
        w = random_waveform(cesium, 4, rng)
        assert np.array_equal(apply_adjoint(cesium, w), propagate(cesium, w).conj().T)


class TestWaveformValidation:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            Waveform(np.array([0.0]), np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match="duration"):
            Waveform(np.array([1e-6, bad]), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_amplitudes_rejects_non_finite(self, cesium, bad):
        amps = np.zeros((3, cesium.n_controls))
        amps[1, 2] = bad
        with pytest.raises(ValueError, match="control 2 in segment 1"):
            check_amplitudes(cesium, Waveform(np.full(3, 1e-5), amps))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="durations"):
            Waveform(np.array([1e-6]), np.zeros((2, 3)))

    def test_variable_count(self):
        w = Waveform(np.full(4, 1e-6), np.zeros((4, 5)))
        assert w.n_variables == 20


def test_lie_algebra_dimension_su2():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    assert lie_algebra_dimension([sx, sy]) == 3
