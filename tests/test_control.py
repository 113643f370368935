"""Propagation, the waveform rule, and the fiducial phase imprint as the builder forms it."""

import re
import warnings

import numpy as np
import pytest

from conftest import apply_adjoint, lie_algebra_dimension
from unimap.cesium import CesiumParams, build_restricted_system
from unimap.cli import main
from unimap.control import (
    AMPLITUDE_TOL,
    PHASE_LIMIT,
    ControlSystem,
    Waveform,
    _chain_gauged,
    _generators,
    _mirror_signs,
    check_waveform,
    propagate,
    segment_eigs,
)
from unimap.core import _eig_exp, basis_state, mat_exp, unitarity_defect
from unimap.io import save_waveform
from unimap.search import gradient_state_prep, objective_state_prep
from unimap.subspace import ExactMapper, phase_product


def scan_message(sys, w):
    """The per-control scan the amplitude check used before it was vectorized."""
    for k, (lo, hi) in enumerate(sys.amplitude_bounds):
        col = w.amplitudes[:, k]
        bad = np.where(~np.isfinite(col) | (col < lo - AMPLITUDE_TOL) | (col > hi + AMPLITUDE_TOL))[0]
        if bad.size:
            return (
                f"amplitude {col[bad[0]]:g} of control {k} in segment {bad[0]} "
                f"violates bounds [{lo:g}, {hi:g}]"
            )
    return None


def random_waveform(sys, n_segments, rng, duration=10e-6, scale=0.8):
    return Waveform(
        np.full(n_segments, duration),
        scale * rng.uniform(-1, 1, size=(n_segments, sys.n_controls)),
    )


class TestPropagate:
    def test_empty_waveform_identity(self, cesium):
        u = propagate(cesium, Waveform(np.zeros(0), np.zeros((0, cesium.n_controls))))
        assert np.array_equal(u, np.eye(8))

    def test_zero_amplitudes_gives_drift(self):
        from unimap.cesium import CesiumParams, build_restricted_system

        detuned = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3))
        tau = 7e-6
        w = Waveform([tau], np.zeros((1, detuned.n_controls)))
        drift_only = mat_exp(detuned.drift, tau)
        assert np.abs(drift_only - np.eye(8)).max() > 0.01  # drift actually acts
        assert np.abs(propagate(detuned, w) - drift_only).max() < 1e-12

    def test_composition(self, cesium):
        rng = np.random.default_rng(1)
        w1 = random_waveform(cesium, 3, rng)
        w2 = random_waveform(cesium, 4, rng)
        u = propagate(cesium, w2) @ propagate(cesium, w1)
        joined = Waveform(np.concatenate([w1.durations, w2.durations]), np.vstack([w1.amplitudes, w2.amplitudes]))
        assert np.abs(propagate(cesium, joined) - u).max() < 1e-12

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
        w = Waveform([1e-6], [[1.5, 0, 0, 0, 0]])
        with pytest.raises(ValueError, match="bounds"):
            propagate(cesium, w)

    def test_cesium_generator_bound(self, cesium):
        # rf 2 x ||F_x|| = 6, microwave 2 x 0.5, light shift 1, each times 2 pi 25 kHz
        assert cesium.generator_bound == pytest.approx(8 * 2 * np.pi * 25e3, rel=1e-12)

    @pytest.mark.parametrize("model", ["cesium", "dense"])
    def test_generator_bound_is_the_spectral_norm_sum(self, cesium, model):
        # read from one batched eigvalsh, the bound equals the sum of SVD spectral norms
        sys_m = cesium if model == "cesium" else dense_system()
        norms = [np.linalg.norm(h, 2) for h in (sys_m.drift, *sys_m.controls)]
        reach = np.abs(sys_m.amplitude_bounds).max(axis=1)
        expected = norms[0] + sum(n * r for n, r in zip(norms[1:], reach))
        assert sys_m.generator_bound == pytest.approx(expected, rel=1e-12)

    def test_refuses_a_segment_whose_phase_carries_no_digits(self, cesium):
        # the longest segment decides: 0.35 s reaches 4.4e5 rad, 0.36 s 4.52e5 rad
        assert cesium.generator_bound * 0.35 < PHASE_LIMIT < cesium.generator_bound * 0.36
        amps = np.full((2, cesium.n_controls), 0.5)
        propagate(cesium, Waveform([1e-5, 0.35], amps))
        with pytest.raises(ValueError, match=r"'cs133-f3-aux4': generator bound 1\.25664e\+06 rad/s times "
                                             r"segment duration 0\.36 s reaches 4\.52e\+05 rad"):
            propagate(cesium, Waveform([1e-5, 0.36], amps))

    def test_rejects_wrong_control_count(self, cesium):
        with pytest.raises(ValueError, match="controls"):
            propagate(cesium, Waveform([1e-6], [[0.1]]))


def test_controls_are_read_only_views_of_the_one_stack(cesium):
    # each generator is stored once, in the read-only (K, d, d) stack ``controls``, and no caller array is aliased
    assert isinstance(cesium.controls, np.ndarray) and cesium.controls.shape == (5, 8, 8)
    assert not cesium.controls.flags.writeable
    for h in cesium.controls:
        assert np.shares_memory(h, cesium.controls) and not h.flags.writeable
    mine = np.array(cesium.controls[0])
    sys_m = ControlSystem(cesium.drift, (mine,), ((-1.0, 1.0),), fiducial_index=0)
    mine[0, 0] = 7.0
    assert not np.shares_memory(sys_m.controls, mine) and sys_m.controls[0, 0, 0] == cesium.controls[0, 0, 0]
    # a (K, d, d) stack or (K, 2) bounds array is shared when read-only and owning its memory, copied when writable
    stack, bounds = np.array(cesium.controls), np.array(cesium.amplitude_bounds)
    copied = ControlSystem(cesium.drift, stack, bounds, fiducial_index=0)
    stack.setflags(write=False)
    bounds.setflags(write=False)
    shared = ControlSystem(cesium.drift, stack, bounds, fiducial_index=0)
    assert shared.controls is stack and not np.shares_memory(copied.controls, stack)
    assert shared.amplitude_bounds is bounds and not np.shares_memory(copied.amplitude_bounds, bounds)
    assert np.array_equal(copied.controls, stack) and not copied.controls.flags.writeable
    assert np.array_equal(copied.amplitude_bounds, bounds) and not copied.amplitude_bounds.flags.writeable


@pytest.mark.parametrize("controls", [(), np.zeros((0, 8, 8))])
def test_refuses_a_system_without_controls(cesium, controls):
    # nothing to search over: refused when built, not inside the first config or search
    with pytest.raises(ValueError, match="system 'bare' has no controls"):
        ControlSystem(cesium.drift, controls, (), 0, name="bare")


@pytest.mark.parametrize(
    "bounds, shape",
    [(((-1.0, 1.0),) * 4, (4, 2)), ((-1.0, 1.0) * 5, (10,)), (((-1.0, 0.0, 1.0),) * 5, (5, 3))],
    ids=["four-pairs", "flat", "triples"],
)
def test_refuses_bounds_that_are_not_one_pair_per_control(cesium, bounds, shape):
    message = f"one (lower, upper) bounds pair per control is required: got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ControlSystem(cesium.drift, cesium.controls, bounds, 0)


def test_refuses_ragged_bounds_under_the_same_rule(cesium):
    # ragged rows have no array shape to report, so the refusal names them as ragged
    message = "one (lower, upper) bounds pair per control is required: the rows are ragged, with shapes [(2,), (3,)]"
    with pytest.raises(ValueError, match=re.escape(message)):
        ControlSystem(cesium.drift, cesium.controls, [(-1.0, 1.0)] * 4 + [(-1.0, 0.0, 1.0)], 0)


@pytest.mark.parametrize(
    "bounds, reason",
    [([("a", "b")] * 5, "could not convert string to float: 'a'"),
     ([(-1.0, 1.0)] * 4 + [(-1.0, "1 V")], "could not convert string to float: '1 V'"),
     ([(-1j, 1j)] * 5, ""),  # the wording of a complex conversion's TypeError is Python's own
     ([(None, 1.0)] * 5, "None is not a real number"), ([(True, 2)] * 5, "True is not a real number"),
     ([("1", "2")] * 5, "'1' is not a real number")],
    ids=["letters", "one-unit", "complex", "none", "bool", "numeric-strings"],
)
def test_refuses_bounds_that_are_not_numbers_under_the_same_rule(cesium, bounds, reason):
    # the refusal names the rule, the control count and the conversion's reason, never the bounds given, whose
    # repr could run to thousands of digits; a float conversion would read None as nan, True as 1 and "1" as 1.0,
    # so those are refused the same way
    message = f"one (lower, upper) bounds pair per control is required for 5 controls: {reason}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ControlSystem(cesium.drift, cesium.controls, bounds, 0)


@pytest.mark.parametrize("bounds", [[(-1, 1)] * 5, np.array([(-1, 1)] * 5, dtype=np.int32)], ids=["ints", "int-array"])
def test_accepts_integer_bounds_as_floats(cesium, bounds):
    stored = ControlSystem(cesium.drift, cesium.controls, bounds, 0).amplitude_bounds
    assert stored.dtype == float and stored.tolist() == [[-1.0, 1.0]] * 5


@pytest.mark.parametrize("pair", [(-np.inf, 1.0), (-1.0, np.inf), (-np.inf, np.inf)], ids=["lo", "hi", "both"])
def test_refuses_an_infinite_bound(cesium, pair):
    # refused when built: an infinite bound would make every search and propagation refuse the
    # system's infinite generator bound instead
    bounds = [(-1.0, 1.0)] * 3 + [pair, (-1.0, 1.0)]
    with pytest.raises(ValueError, match=re.escape(f"bounds for control 3 are not finite: [{pair[0]}, {pair[1]}]")):
        ControlSystem(cesium.drift, cesium.controls, bounds, 0)


@pytest.mark.parametrize(
    "pair",
    [(0.5, 0.5), (1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan), (np.nan, np.inf), (np.inf, np.inf)],
    ids=["empty", "reversed", "nan-lo", "nan-hi", "nan-inf", "inf-inf"],
)
def test_refuses_an_empty_bounds_pair(cesium, pair):
    bounds = [(-1.0, 1.0)] * 3 + [pair, (-1.0, 1.0)]
    with pytest.raises(ValueError, match="bounds for control 3 are empty"):
        ControlSystem(cesium.drift, cesium.controls, bounds, 0)


def test_refuses_a_control_whose_shape_is_not_the_drift_s(cesium):
    controls = [*cesium.controls[:2], np.eye(3), *cesium.controls[3:]]
    with pytest.raises(ValueError, match=re.escape("control 2 has shape (3, 3), expected (8, 8)")):
        ControlSystem(cesium.drift, controls, cesium.amplitude_bounds, 0)


def test_a_mirror_between_systems_of_other_sizes_has_no_signs(cesium, two_level):
    # a system of another dimension, or with another control count, is no image of this one under any S
    fewer = ControlSystem(cesium.drift, cesium.controls[:4], cesium.amplitude_bounds[:4], cesium.fiducial_index)
    assert _mirror_signs(cesium, fewer, np.eye(8)) is None and _mirror_signs(fewer, cesium, np.eye(8)) is None
    assert _mirror_signs(cesium, two_level, np.eye(8)) is None and _mirror_signs(two_level, cesium, np.eye(2)) is None
    # the same system with every control kept is its own image under S = I
    assert _mirror_signs(cesium, cesium, np.eye(8)).tolist() == [1.0] * 5


@pytest.mark.parametrize("index", [-1, 8])
def test_refuses_a_fiducial_index_out_of_range(cesium, index):
    with pytest.raises(ValueError, match=rf"^fiducial index must be an integer in \[0, 7\], got {index}$"):
        ControlSystem(cesium.drift, cesium.controls, cesium.amplitude_bounds, index)


@pytest.mark.parametrize("controls, bound", [
    # |Fx| + |Fy| at 6e307 rad/s overflows float64, so the coupled levels must be found with no sum of moduli
    (lambda ops: [6e307 * ops.fx, 6e307 * ops.fy], 1.0),
    # finite generators whose norm times the amplitude bound overflows
    (lambda ops: [5e307 * ops.fz], 2.0),
], ids=["two-rf-controls", "amplitude-bound"])
def test_refuses_a_generator_bound_that_overflows(controls, bound):
    from unimap.cesium import spin_operators

    gens = controls(spin_operators(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                "system 'huge': generator bound ||H0|| + sum_k ||H_k|| max|u_k| overflows float64")):
            ControlSystem(np.zeros((7, 7)), gens, [(-bound, bound)] * len(gens), 0, name="huge")


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 2e3])
def test_segment_propagators_match_mat_exp(detuning):
    sys_m = build_restricted_system(CesiumParams(rf_detuning=detuning))
    w = random_waveform(sys_m, 7, np.random.default_rng(9))
    stack = _eig_exp(*segment_eigs(sys_m, w), w.durations)
    assert stack.shape == (7, 8, 8)
    for amps, tau, u in zip(w.amplitudes, w.durations, stack):
        h = sys_m.drift + sum(a * hk for a, hk in zip(amps, sys_m.controls))
        assert np.abs(u - mat_exp(h, tau)).max() < 1e-12



def complex_eigs(sys, w):
    """The complex batched eigh, which every system used before the chain gauge."""
    return np.linalg.eigh(_generators(sys, w.amplitudes))


def complex_propagators(sys, w):
    lam, v = complex_eigs(sys, w)
    phases = np.exp(-1j * lam * w.durations[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def gauge_waveform(sys, rng):
    """26 random segments, some with every control off and some with the rf off."""
    w = random_waveform(sys, 26, rng)
    amps = np.array(w.amplitudes)
    amps[::9] = 0.0
    amps[4::7, :2] = 0.0
    return Waveform(w.durations, amps)


def coupling_system(edges, d, rng, rate=2 * np.pi * 25e3):
    """d levels coupled on the given edges with random complex rates, plus a random diagonal drift."""
    h = np.zeros((d, d), dtype=complex)
    for a, b in edges:
        h[a, b] = rate * rng.uniform(0.5, 1) * np.exp(2j * np.pi * rng.uniform())
        h[b, a] = np.conj(h[a, b])
    return ControlSystem(
        drift=np.diag(rate * rng.uniform(-1, 1, d)).astype(complex),
        controls=(h, np.diag(rate * rng.uniform(-1, 1, d)).astype(complex)),
        amplitude_bounds=((-1.0, 1.0),) * 2,
        fiducial_index=0,
    )


def dense_system(d=4, seed=11, rate=2 * np.pi * 25e3):
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return rate * (a + a.conj().T) / (2 * d)

    return ControlSystem(
        drift=hermitian(),
        controls=(hermitian(), hermitian()),
        amplitude_bounds=((-1.0, 1.0),) * 2,
        fiducial_index=0,
    )


def assert_walks_couplings(sys):
    """The walk visits every level once, and each step crosses a coupling."""
    walk = sys.chain_walk
    assert sorted(walk.tolist()) == list(range(sys.dim))
    coupled = np.abs(sys.drift) + sum(np.abs(h) for h in sys.controls)
    assert all(coupled[a, b] > 0 for a, b in zip(walk[:-1], walk[1:]))


class TestChainGauge:
    @pytest.mark.parametrize("aux", [+4, -4])
    @pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 2e3])
    def test_cesium_matches_complex_path(self, aux, detuning):
        sys_m = build_restricted_system(CesiumParams(rf_detuning=detuning), aux=aux)
        assert sys_m.chain_walk is not None
        w = gauge_waveform(sys_m, np.random.default_rng(21))
        h = _generators(sys_m, w.amplitudes)
        lam, v = segment_eigs(sys_m, w)
        residual = np.linalg.norm(h @ v - v * lam[:, None, :], axis=(1, 2))
        assert residual.max() <= 1e-12 * np.linalg.norm(h, axis=(1, 2)).max()
        lam_ref = complex_eigs(sys_m, w)[0]
        assert np.abs(lam - lam_ref).max() <= 1e-12 * np.abs(lam_ref).max()
        assert np.abs(_eig_exp(lam, v, w.durations) - complex_propagators(sys_m, w)).max() <= 1e-12

    @pytest.mark.parametrize("aux", [+4, -4])
    def test_cesium_presets_are_chains(self, aux):
        sys_m = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3), aux=aux)
        assert_walks_couplings(sys_m)
        assert sys_m.fiducial_index in (sys_m.chain_walk[0], sys_m.chain_walk[-1])

    def test_chain_in_any_basis_order(self):
        rng = np.random.default_rng(5)
        sys_m = coupling_system([(3, 0), (0, 4), (4, 1), (1, 2)], 5, rng)
        assert_walks_couplings(sys_m)
        w = gauge_waveform(sys_m, rng)
        h = _generators(sys_m, w.amplitudes)
        lam, v = segment_eigs(sys_m, w)
        assert np.abs(h @ v - v * lam[:, None, :]).max() <= 1e-12 * np.abs(h).max()
        assert np.abs(_eig_exp(lam, v, w.durations) - complex_propagators(sys_m, w)).max() <= 1e-12

    @pytest.mark.parametrize("make_system", [
        lambda: build_restricted_system(aux=+4),
        lambda: build_restricted_system(aux=-4),
        lambda: build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3), aux=+4),
        lambda: build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3), aux=-4),
        lambda: coupling_system([(0, 1), (1, 2), (2, 3), (3, 4)], 5, np.random.default_rng(8)),
        lambda: coupling_system([(3, 0), (0, 4), (4, 1), (1, 2)], 5, np.random.default_rng(5)),
    ], ids=["aux+4", "aux-4", "aux+4-detuned", "aux-4-detuned", "path", "non-monotone-walk"])
    def test_chain_order_gauge_is_real_tridiagonal(self, make_system):
        sys_m = make_system()
        walk = sys_m.chain_walk
        amps = gauge_waveform(sys_m, np.random.default_rng(22)).amplitudes
        h = _generators(sys_m, amps)
        t = _chain_gauged(_generators(sys_m, amps, walk))[0]
        assert np.abs(t.imag).max() <= 1e-12 * np.abs(t).max()
        assert not np.triu(t, 2).any() and not np.tril(t, -2).any()
        # the gauge moves every coupling phase off the chain: t's off-diagonal is |H| along the walk
        coupling = np.abs(h[:, walk[:-1], walk[1:]])
        assert np.abs(np.diagonal(t, 1, axis1=1, axis2=2) - coupling).max() <= 1e-12 * coupling.max()

    @pytest.mark.parametrize("make_system", [
        lambda: build_restricted_system(aux=+4),
        lambda: build_restricted_system(aux=-4),
        lambda: coupling_system([(3, 0), (0, 4), (4, 1), (1, 2)], 5, np.random.default_rng(5)),
    ], ids=["aux+4", "aux-4", "non-monotone-walk"])
    def test_chain_order_build_is_the_gathered_stack(self, make_system):
        # gathering the drift and the control stack into chain order builds, bit for bit, the
        # natural-order generator stack gathered into chain order
        sys_m = make_system()
        walk, shape = sys_m.chain_walk, (26, sys_m.n_controls)
        rng = np.random.default_rng(24)
        lo, hi = sys_m.amplitude_bounds.T
        for amps in (rng.uniform(lo, hi, shape), rng.choice([-1.0, 1.0], shape), np.ones(shape), -np.ones(shape)):
            gathered = _generators(sys_m, amps)[:, walk[:, None], walk]
            assert _generators(sys_m, amps, walk).tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("make_system, dtype", [
        (dense_system, complex), (build_restricted_system, float),
    ], ids=["dense", "chain"])
    def test_one_eigh_complex_on_a_dense_system_real_on_a_chain(self, monkeypatch, make_system, dtype):
        sys_m = make_system()
        w = random_waveform(sys_m, 5, np.random.default_rng(25))
        calls, inner = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.dtype) or inner(a))
        segment_eigs(sys_m, w)
        assert calls == [np.dtype(dtype)]

    @pytest.mark.parametrize(
        "edges, d",
        [
            ([(0, 1), (1, 2), (2, 0)], 3),  # 3-cycle
            ([(0, 1), (1, 2), (2, 0)], 4),  # d - 1 edges, but a cycle plus an isolated level
            ([(0, 1), (0, 2), (0, 3)], 4),  # star: a level of degree 3
            ([(0, 1), (2, 3)], 4),  # two separate pairs
        ],
    )
    def test_other_couplings_have_no_walk(self, edges, d):
        assert coupling_system(edges, d, np.random.default_rng(6)).chain_walk is None

    def test_dense_system_keeps_complex_path(self, monkeypatch):
        import unimap.control
        import unimap.search
        from unimap.core import haar_random_state
        from unimap.search import SearchConfig, search_state_map

        sys_m = dense_system()
        assert sys_m.chain_walk is None
        rng = np.random.default_rng(7)
        w = random_waveform(sys_m, 12, rng)
        psi_i, psi_f = haar_random_state(4, rng), haar_random_state(4, rng)
        cfg = SearchConfig(segment_count=12, segment_duration=10e-6, fidelity_goal=0.999, max_iterations=15, seed=3)
        lam, v = segment_eigs(sys_m, w)
        u = propagate(sys_m, w)
        res = search_state_map(sys_m, psi_i, psi_f, cfg)
        lam_ref, v_ref = complex_eigs(sys_m, w)
        assert np.array_equal(lam, lam_ref) and np.array_equal(v, v_ref)
        # the seam both modules diagonalize through, patched with the complex eigh of its generators
        for module in (unimap.control, unimap.search):
            monkeypatch.setattr(module, "_segment_eigs", lambda s, amps: np.linalg.eigh(_generators(s, amps)))
        assert np.array_equal(u, propagate(sys_m, w))
        ref = search_state_map(sys_m, psi_i, psi_f, cfg)
        assert res.iterations == ref.iterations > 0
        assert np.array_equal(res.waveform.amplitudes, ref.waveform.amplitudes)
        assert np.array_equal(res.objective_history, ref.objective_history)

def imprint(d, angle, index):
    """The builder's factor about basis level ``index``: the phase imprint on that level."""
    return phase_product(d, [(basis_state(d, index), angle)], ExactMapper(d), score=lambda u: 0.0).assembled


class TestPhaseFactor:
    def test_zero_angle_identity(self):
        assert np.array_equal(imprint(4, 0.0, 0), np.eye(4))

    def test_pi_on_first_level(self):
        got = imprint(2, np.pi, 0)
        assert np.abs(got - np.diag([-1.0, 1.0])).max() < 1e-14

    def test_matches_mat_exp_oracle(self):
        lam = 2 * np.pi / 7
        proj = np.zeros((8, 8), dtype=complex)
        proj[7, 7] = 1.0
        got = imprint(8, lam, 7)
        assert np.abs(got - mat_exp(proj, lam)).max() < 1e-10

    def test_rejects_bad_index(self):
        # level 3 exists only from 4 levels up: a 3-level mapper rejects its vector
        with pytest.raises(ValueError, match="dimension"):
            phase_product(3, [(basis_state(4, 3), 0.5)], ExactMapper(3), score=lambda u: 0.0)

    def test_angle_wrapped(self):
        assert np.abs(imprint(4, 2 * np.pi + 0.5, 1) - imprint(4, 0.5, 1)).max() < 1e-14


class TestApplyAdjoint:
    def test_empty(self, cesium):
        assert np.array_equal(apply_adjoint(cesium, Waveform(np.zeros(0), np.zeros((0, 5)))), np.eye(8))

    def test_is_inverse(self, cesium):
        rng = np.random.default_rng(6)
        w = random_waveform(cesium, 9, rng)
        prod = apply_adjoint(cesium, w) @ propagate(cesium, w)
        assert np.abs(prod - np.eye(8)).max() < 1e-12

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
            check_waveform(cesium, Waveform(np.full(3, 1e-5), amps))

    @pytest.mark.parametrize(
        "bad",
        [
            [(0, 0, np.nan)],
            [(0, 0, np.inf)],
            [(0, 0, -1.5)],
            [(0, 0, 1.5)],
            [(4, 3, np.nan)],
            [(2, 4, -np.inf)],
            [(5, 1, -1 - 1e-9)],
            [(3, 2, 1 + 1e-9)],
            # the scan goes control by control: a later segment of an earlier
            # control is reported before an earlier segment of a later one
            [(0, 3, np.nan), (5, 1, 2.0)],
            [(1, 0, -3.0), (0, 0, 3.0), (0, 4, np.inf)],
        ],
    )
    def test_check_amplitudes_message_matches_scan(self, cesium, bad):
        amps = 0.5 * np.ones((6, cesium.n_controls))
        for seg, ctrl, value in bad:
            amps[seg, ctrl] = value
        w = Waveform(np.full(6, 1e-5), amps)
        expected = scan_message(cesium, w)
        with pytest.raises(ValueError) as err:
            check_waveform(cesium, w)
        assert str(err.value) == expected

    def test_both_checks_name_the_first_bad_entry_by_control(self):
        # bad entries at (segment 0, control 3) and (segment 2, control 1):
        # the scan goes control by control, so the check names control 1
        sys = ControlSystem(
            drift=np.zeros((2, 2)),
            controls=(np.diag([1.0, -1.0]).astype(complex),) * 4,
            amplitude_bounds=((-0.2, 1.0),) * 4,
            fiducial_index=0,
        )
        durations = np.full(3, 1e-6)
        over = np.full((3, 4), 0.1)
        over[0, 3] = over[2, 1] = 1.5
        with pytest.raises(ValueError) as err:
            check_waveform(sys, Waveform(durations, over))
        assert str(err.value) == "amplitude 1.5 of control 1 in segment 2 violates bounds [-0.2, 1]"

    def test_check_amplitudes_admits_tolerance(self, cesium):
        amps = np.ones((2, cesium.n_controls))
        amps[0] += 0.5 * AMPLITUDE_TOL
        amps[1] = -1 - 0.5 * AMPLITUDE_TOL
        check_waveform(cesium, Waveform(np.full(2, 1e-5), amps))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="durations"):
            Waveform(np.array([1e-6]), np.zeros((2, 3)))

    def test_rejects_amplitudes_that_are_not_2d(self):
        with pytest.raises(ValueError, match=re.escape("amplitudes must be 2-d (segments x controls), got 1-d")):
            Waveform(np.full(4, 1e-6), np.zeros(4))

    def test_variable_count(self):
        w = Waveform(np.full(4, 1e-6), np.zeros((4, 5)))
        assert (w.n_segments, w.n_controls) == (4, 5)

    def test_read_only_durations_are_shared(self):
        durations = np.full(4, 1e-6)
        durations.setflags(write=False)
        assert Waveform(durations, np.zeros((4, 5))).durations is durations
        # a writable array is copied, read-only
        given = np.full(4, 1e-6)
        kept = Waveform(given, np.zeros((4, 5))).durations
        assert kept.shape == (4,) and not kept.flags.writeable and not np.shares_memory(kept, given)
        # durations that are not 1-d are refused, not flattened into segments
        with pytest.raises(ValueError, match="durations must be 1-d"):
            Waveform(np.full((4, 1), 1e-6), np.zeros((4, 5)))


def _played_on_the_cli(sys_m, w, tmp_path, capsys):
    """Run ``unimap propagate`` on ``w`` (the default preset, ``sys_m``), raising its error output on exit 2."""
    path = tmp_path / "w.csv"
    save_waveform(str(path), w)
    code = main(["propagate", "--waveform", str(path), "--initial-state", "fiducial", "--target-state", "basis:0"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("error: ") and err.endswith("\n")
    raise ValueError(err[len("error: "):-1])


#: every entry point that plays a waveform on a system, called on (system, waveform, tmp_path, capsys)
_PLAYERS = {
    "segment_eigs": lambda sys_m, w, *_: segment_eigs(sys_m, w),
    "propagate": lambda sys_m, w, *_: propagate(sys_m, w),
    "objective_state_prep": lambda sys_m, w, *_: objective_state_prep(sys_m, w, sys_m.fiducial_state(), np.eye(8)[0]),
    "gradient_state_prep": lambda sys_m, w, *_: gradient_state_prep(sys_m, w, sys_m.fiducial_state(), np.eye(8)[0]),
    "unimap propagate": _played_on_the_cli,
}


def _amplitudes(entry=None):
    """Three segments of 0.5 on every control, with ``entry`` = (segment, control, value) put in."""
    amps = np.full((3, 5), 0.5)
    if entry is not None:
        amps[entry[:2]] = entry[2]
    return amps


#: a waveform the default cesium system may not play -> the message ``propagate`` refuses it with
_UNPLAYABLE = {
    "nan amplitude": (Waveform(np.full(3, 1e-5), _amplitudes((1, 2, np.nan))),
                      "amplitude nan of control 2 in segment 1 violates bounds [-1, 1]"),
    "amplitude 50": (Waveform(np.full(3, 1e-5), _amplitudes((2, 4, 50.0))),
                     "amplitude 50 of control 4 in segment 2 violates bounds [-1, 1]"),
    "10 s segment": (Waveform([1e-5, 10.0, 1e-5], _amplitudes()),
                     "system 'cs133-f3-aux4': generator bound 1.25664e+06 rad/s times segment duration 10 s reaches "
                     "1.26e+07 rad, above the 450000 rad that keeps segment phases accurate to 1e-10"),
}


@pytest.mark.parametrize("case", sorted(_UNPLAYABLE))
@pytest.mark.parametrize("player", sorted(_PLAYERS))
def test_every_entry_point_that_plays_a_waveform_refuses_by_one_rule(cesium, tmp_path, capsys, player, case):
    # a numpy error, an eigendecomposition or a score returned in place of the refusal fails here
    wave, message = _UNPLAYABLE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            _PLAYERS[player](cesium, wave, tmp_path, capsys)
    assert str(err.value) == message

def test_lie_algebra_dimension_su2():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    assert lie_algebra_dimension([sx, sy]) == 3
