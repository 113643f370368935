"""Objective, exact gradients, and projected L-BFGS convergence."""

import numpy as np
import pytest

from unimap.control import Waveform, propagate, segment_eigs
from unimap.core import basis_state, haar_random_state
from unimap.search import (
    SearchConfig,
    default_search_config,
    gradient_state_prep,
    multi_start,
    objective_state_prep,
    search_state_map,
)


def finite_difference_gradient(sys, w, psi_i, psi_f, step=1e-6):
    grad = np.zeros(w.n_variables)
    flat = w.amplitudes.ravel()
    for idx in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[idx] += step
        down[idx] -= step
        j_up = objective_state_prep(sys, Waveform(w.durations, up.reshape(w.amplitudes.shape)), psi_i, psi_f)
        j_dn = objective_state_prep(sys, Waveform(w.durations, down.reshape(w.amplitudes.shape)), psi_i, psi_f)
        grad[idx] = (j_up - j_dn) / (2 * step)
    return grad


def per_segment_gradient(sys, w, psi_i, psi_f):
    """Reference dJ/du: one 3-operand einsum per segment, no batching."""
    lam, v = segment_eigs(sys, w)
    m, d = w.n_segments, sys.dim
    kets = np.empty((m + 1, d), dtype=complex)
    kets[0] = psi_i
    for j in range(m):
        phases = np.exp(-1j * lam[j] * w.durations[j])
        kets[j + 1] = v[j] @ (phases * (v[j].conj().T @ kets[j]))
    overlap = np.vdot(psi_f, kets[m])
    bras = np.empty((m + 1, d), dtype=complex)
    bras[m] = psi_f.conj()
    for j in range(m - 1, -1, -1):
        phases = np.exp(-1j * lam[j] * w.durations[j])
        bras[j] = ((bras[j + 1] @ v[j]) * phases) @ v[j].conj().T
    hks = np.stack(sys.controls)
    grad = np.zeros((m, sys.n_controls))
    for j in range(m):
        tau = w.durations[j]
        delta = lam[j][:, None] - lam[j][None, :]
        mean = (lam[j][:, None] + lam[j][None, :]) / 2
        kernel = -1j * tau * np.exp(-1j * mean * tau) * np.sinc(delta * tau / (2 * np.pi))
        left = bras[j + 1] @ v[j]
        right = v[j].conj().T @ kets[j]
        hk_eig = np.einsum("ai,kab,bj->kij", v[j].conj(), hks, v[j])
        dc = np.einsum("i,kij,j->k", left, kernel[None] * hk_eig, right)
        grad[j] = 2 * np.real(np.conj(overlap) * dc)
    return grad.ravel()


def assert_gradient_close(analytic, fd, rel=1e-5, floor=1e-8):
    mask = np.abs(fd) > floor
    assert mask.any()
    rel_err = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
    assert rel_err.max() < rel


class TestObjective:
    def test_same_state_empty_waveform(self, cesium):
        psi = haar_random_state(8, np.random.default_rng(0))
        assert objective_state_prep(cesium, Waveform.empty(5), psi, psi) == pytest.approx(1.0)

    def test_orthogonal_target(self, cesium):
        w = Waveform.empty(5)
        assert objective_state_prep(cesium, w, basis_state(8, 0), basis_state(8, 3)) == 0.0

    def test_matches_direct_computation(self, cesium):
        rng = np.random.default_rng(1)
        w = Waveform(np.full(6, 1e-5), 0.5 * rng.uniform(-1, 1, (6, 5)))
        psi_i, psi_f = haar_random_state(8, rng), haar_random_state(8, rng)
        direct = abs(np.vdot(psi_f, propagate(cesium, w) @ psi_i)) ** 2
        assert objective_state_prep(cesium, w, psi_i, psi_f) == pytest.approx(direct, abs=1e-14)

    def test_dimension_mismatch(self, cesium):
        with pytest.raises(ValueError):
            objective_state_prep(cesium, Waveform.empty(5), basis_state(4, 0), basis_state(4, 1))


class TestGradient:
    def test_zero_at_exact_optimum(self, cesium):
        rng = np.random.default_rng(2)
        w = Waveform(np.full(5, 1e-5), 0.4 * rng.uniform(-1, 1, (5, 5)))
        psi_i = haar_random_state(8, rng)
        psi_f = propagate(cesium, w) @ psi_i  # J = 1 exactly
        grad = gradient_state_prep(cesium, w, psi_i, psi_f)
        assert np.linalg.norm(grad) < 1e-8

    def test_two_level_closed_form(self, two_level):
        # one segment, one sigma_x/2 control: J(u) = sin^2(u tau / 2) for
        # |0> -> |1>, so dJ/du = (tau / 2) sin(u tau)
        tau, u = 0.9, 0.7
        w = Waveform.constant(tau, [u])
        grad = gradient_state_prep(two_level, w, basis_state(2, 0), basis_state(2, 1))
        expected = (tau / 2) * np.sin(u * tau)
        assert abs(grad[0] - expected) < 1e-8

    def test_finite_difference_cesium(self, cesium):
        rng = np.random.default_rng(3)
        w = Waveform(np.full(4, 1e-5), 0.6 * rng.uniform(-1, 1, (4, 5)))
        psi_i, psi_f = haar_random_state(8, rng), haar_random_state(8, rng)
        analytic = gradient_state_prep(cesium, w, psi_i, psi_f)
        fd = finite_difference_gradient(cesium, w, psi_i, psi_f)
        assert_gradient_close(analytic, fd)

    def test_finite_difference_two_level(self, two_level):
        rng = np.random.default_rng(4)
        w = Waveform(np.full(3, 0.8), 0.9 * rng.uniform(-1, 1, (3, 1)))
        psi_i, psi_f = haar_random_state(2, rng), haar_random_state(2, rng)
        analytic = gradient_state_prep(two_level, w, psi_i, psi_f)
        fd = finite_difference_gradient(two_level, w, psi_i, psi_f)
        assert_gradient_close(analytic, fd)

    def test_degenerate_segment_eigenvalues(self, cesium):
        # zero amplitudes give a drift with repeated eigenvalues; the
        # divided-difference kernel must stay finite there
        w = Waveform(np.full(2, 1e-5), np.zeros((2, 5)))
        rng = np.random.default_rng(5)
        psi_i, psi_f = haar_random_state(8, rng), haar_random_state(8, rng)
        analytic = gradient_state_prep(cesium, w, psi_i, psi_f)
        fd = finite_difference_gradient(cesium, w, psi_i, psi_f)
        assert np.all(np.isfinite(analytic))
        assert_gradient_close(analytic, fd, rel=1e-4)

    @pytest.mark.parametrize("case", ["cesium_random", "two_level", "cesium_zero_drift"])
    def test_batched_matches_per_segment(self, cesium, two_level, case):
        rng = np.random.default_rng(6)
        if case == "two_level":
            sys_m = two_level
            w = Waveform(np.full(3, 0.8), rng.uniform(-1, 1, (3, 1)))
        else:
            sys_m = cesium
            scale = 0.0 if case == "cesium_zero_drift" else 1.0
            w = Waveform(np.full(26, 1e-5), scale * rng.uniform(-1, 1, (26, 5)))
        psi_i, psi_f = haar_random_state(sys_m.dim, rng), haar_random_state(sys_m.dim, rng)
        batched = gradient_state_prep(sys_m, w, psi_i, psi_f)
        reference = per_segment_gradient(sys_m, w, psi_i, psi_f)
        assert np.linalg.norm(batched - reference) <= 1e-12 * np.linalg.norm(reference)


class TestSearch:
    def test_trivial_target_zero_seed(self, cesium):
        cfg = default_search_config(cesium, seed=1, max_iterations=50)
        psi = basis_state(8, 7)
        zero = Waveform(np.full(cfg.segment_count, cfg.segment_duration), np.zeros((cfg.segment_count, 5)))
        res = search_state_map(cesium, psi, psi, cfg, initial=zero)
        assert res.converged and res.iterations == 0
        assert res.fidelity == pytest.approx(1.0)

    def test_two_level_pi_pulse(self, two_level):
        cfg = SearchConfig(
            segment_count=8,
            segment_duration=0.5,
            fidelity_goal=0.9999,
            max_iterations=200,
            seed=5,
        )
        res = search_state_map(two_level, basis_state(2, 0), basis_state(2, 1), cfg)
        assert res.fidelity >= 0.9999
        assert res.iterations <= 200

    def test_determinism(self, cesium):
        cfg = default_search_config(cesium, seed=11, max_iterations=60, fidelity_goal=0.999)
        rng = np.random.default_rng(12)
        psi_f = haar_random_state(8, rng)
        a = search_state_map(cesium, basis_state(8, 7), psi_f, cfg)
        b = search_state_map(cesium, basis_state(8, 7), psi_f, cfg)
        assert a.fidelity == b.fidelity
        assert a.iterations == b.iterations
        assert np.array_equal(a.waveform.amplitudes, b.waveform.amplitudes)
        assert np.array_equal(a.objective_history, b.objective_history)

    def test_monotone_history_with_line_search(self, cesium):
        cfg = default_search_config(cesium, seed=21, max_iterations=120, fidelity_goal=1.0)
        psi_f = haar_random_state(8, np.random.default_rng(22))
        res = search_state_map(cesium, basis_state(8, 7), psi_f, cfg)
        diffs = np.diff(res.objective_history)
        assert diffs.min() >= -1e-12

    def test_amplitudes_within_bounds_and_iteration_cap(self, cesium):
        cfg = default_search_config(cesium, seed=35, max_iterations=15, fidelity_goal=1.0)
        psi_f = haar_random_state(8, np.random.default_rng(36))
        res = search_state_map(cesium, basis_state(8, 7), psi_f, cfg)
        lo, hi = np.array(cesium.amplitude_bounds).T
        amps = res.waveform.amplitudes
        assert np.all((amps >= lo) & (amps <= hi))
        assert res.iterations <= cfg.max_iterations
        assert len(res.objective_history) == res.iterations + 1

    def test_rejects_non_finite_initial(self, cesium):
        cfg = default_search_config(cesium, max_iterations=5)
        amps = np.zeros((cfg.segment_count, 5))
        amps[0, 0] = np.nan
        initial = Waveform(np.full(cfg.segment_count, cfg.segment_duration), amps)
        with pytest.raises(ValueError, match="control 0 in segment 0"):
            search_state_map(cesium, basis_state(8, 7), basis_state(8, 0), cfg, initial=initial)

    def test_result_fidelity_consistent_with_waveform(self, cesium):
        cfg = default_search_config(cesium, seed=31, max_iterations=80)
        psi_i, psi_f = basis_state(8, 7), haar_random_state(8, np.random.default_rng(32))
        res = search_state_map(cesium, psi_i, psi_f, cfg)
        recomputed = objective_state_prep(cesium, res.waveform, psi_i, psi_f)
        assert abs(recomputed - res.fidelity) < 1e-12


class TestMultiStart:
    def test_single_restart_matches_search(self, cesium):
        cfg = default_search_config(cesium, seed=41, max_iterations=40, restarts=1, try_zero_seed=False)
        psi_f = haar_random_state(8, np.random.default_rng(42))
        a = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
        b = search_state_map(cesium, basis_state(8, 7), psi_f, cfg, restart_index=0)
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.waveform.amplitudes, b.waveform.amplitudes)

    def test_best_of_restarts(self, cesium):
        cfg = default_search_config(
            cesium, seed=51, max_iterations=25, restarts=4, fidelity_goal=1.0, try_zero_seed=False
        )
        psi_f = haar_random_state(8, np.random.default_rng(52))
        best = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
        singles = [
            search_state_map(cesium, basis_state(8, 7), psi_f, cfg, restart_index=r)
            for r in range(4)
        ]
        assert best.fidelity == max(s.fidelity for s in singles)

    def test_more_restarts_never_worse(self, cesium):
        # restart seeds depend only on (seed, index), so the set of runs
        # with 3 restarts contains the single-start run
        psi_f = haar_random_state(8, np.random.default_rng(62))
        fids = {}
        for restarts in (1, 3):
            cfg = default_search_config(
                cesium, seed=61, max_iterations=30, restarts=restarts,
                fidelity_goal=1.0, try_zero_seed=False,
            )
            fids[restarts] = multi_start(cesium, basis_state(8, 7), psi_f, cfg).fidelity
        assert fids[3] >= fids[1]

    def test_zero_seed_shortcut(self, cesium):
        cfg = default_search_config(cesium, seed=71, restarts=3)
        res = multi_start(cesium, basis_state(8, 7), basis_state(8, 7), cfg)
        assert res.converged and res.iterations == 0
        assert np.abs(res.waveform.amplitudes).max() == 0.0


def dense_system(d, n_controls=3, seed=0, rate=2 * np.pi * 25e3):
    """Generic fully coupled controllable system with seeded random generators."""
    from unimap.control import ControlSystem

    rng = np.random.default_rng([999, seed, d])
    controls = []
    for _ in range(n_controls):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2
        h /= np.abs(np.linalg.eigvalsh(h)).max()
        controls.append(rate * h)
    return ControlSystem(
        drift=np.zeros((d, d), dtype=complex),
        controls=tuple(controls),
        amplitude_bounds=((-1.0, 1.0),) * n_controls,
        fiducial_index=0,
        reversible_drift=True,
    )


def test_landscape_iterations_insensitive_to_dimension():
    # convergence effort on generic controllable systems barely grows with
    # d; structured models (the cesium star topology) add a constant
    # factor that is not a dimension effect
    medians = {}
    for d in (4, 8):
        sys_d = dense_system(d)
        cfg = default_search_config(sys_d, fidelity_goal=0.99, max_iterations=5000, seed=77)
        iters = []
        for trial in range(20):
            rng = np.random.default_rng([88, trial])
            psi_f = haar_random_state(d, rng)
            res = search_state_map(sys_d, basis_state(d, 0), psi_f, cfg)
            assert res.converged
            iters.append(res.iterations)
        medians[d] = float(np.median(iters))
    ratio = max(medians.values()) / min(medians.values())
    assert ratio < 3.0, medians


def test_threads_env_var_does_not_change_results(cesium, monkeypatch):
    cfg = default_search_config(
        cesium, seed=81, max_iterations=40, restarts=3, fidelity_goal=1.0, try_zero_seed=False
    )
    psi_f = haar_random_state(8, np.random.default_rng(82))
    serial = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
    monkeypatch.setenv("UNIMAP_THREADS", "3")
    threaded = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
    assert serial.fidelity == threaded.fidelity
    assert serial.restart_index == threaded.restart_index
    assert np.array_equal(serial.waveform.amplitudes, threaded.waveform.amplitudes)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(segment_count=0, segment_duration=1e-5)
    with pytest.raises(ValueError):
        SearchConfig(segment_count=4, segment_duration=1e-5, fidelity_goal=1.5)
    with pytest.raises(ValueError):
        SearchConfig(segment_count=4, segment_duration=1e-5, restarts=0)


def test_default_config_variable_count(cesium):
    cfg = default_search_config(cesium)
    assert cfg.segment_count * cesium.n_controls >= 2 * cesium.dim**2
