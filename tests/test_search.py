"""Objective, exact gradients and residual Jacobians, and projected Levenberg–Marquardt convergence."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import unimap.search
from conftest import assert_carries_its_propagator, searches_run
from unimap.cesium import AUX_MIRRORS, CesiumParams, build_restricted_system
from unimap.control import ControlSystem, Waveform, check_waveform, propagate, segment_eigs
from unimap.core import basis_state, haar_random_state
from unimap.search import (
    SearchConfig,
    SearchResult,
    add_symmetry,
    default_search_config,
    gradient_state_prep,
    multi_start,
    objective_state_prep,
    search_state_map,
)


def finite_difference_gradient(sys, w, psi_i, psi_f, step=1e-6):
    grad = np.zeros(w.amplitudes.size)
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


def reference_forward(sys, w, psi_i, psi_f):
    """The per-segment forward sweep the stacked propagators replaced."""
    lam, v = segment_eigs(sys, w)
    m = w.n_segments
    kets = np.empty((m + 1, sys.dim), dtype=complex)
    kets[0] = psi_i
    for j in range(m):
        phases = np.exp(-1j * lam[j] * w.durations[j])
        kets[j + 1] = v[j] @ (phases * (v[j].conj().T @ kets[j]))
    overlap = np.vdot(psi_f, kets[m])
    return overlap, lam, v, kets


def reference_gradient(sys, w, psi_f, overlap, lam, v, kets):
    """The per-segment backward sweep and einsum contraction they replaced."""
    m = w.n_segments
    bras = np.empty((m + 1, sys.dim), dtype=complex)
    bras[m] = psi_f.conj()
    for j in range(m - 1, -1, -1):
        phases = np.exp(-1j * lam[j] * w.durations[j])
        bras[j] = ((bras[j + 1] @ v[j]) * phases) @ v[j].conj().T
    tau = w.durations[:, None, None]
    delta = lam[:, :, None] - lam[:, None, :]
    mean = (lam[:, :, None] + lam[:, None, :]) / 2
    kernel = -1j * tau * np.exp(-1j * mean * tau) * np.sinc(delta * tau / (2 * np.pi))
    left = np.einsum("ma,mai->mi", bras[1:], v)
    right = np.einsum("mai,ma->mi", v.conj(), kets[:-1])
    c = v.conj() @ (left[:, :, None] * kernel * right[:, None, :]) @ v.transpose(0, 2, 1)
    dc = np.einsum("kab,mab->mk", np.stack(sys.controls), c)
    return (2 * np.real(np.conj(overlap) * dc)).ravel()


KERNEL_CASES = ("cesium_m26", "dense_d4", "single_segment", "rf_detuning")


def kernel_case(cesium, case):
    """(system, waveform, psi_i, psi_f) for one kernel-equivalence case."""
    rng = np.random.default_rng(KERNEL_CASES.index(case))
    if case == "dense_d4":
        sys_m, m = dense_system(4), 24
    elif case == "rf_detuning":
        sys_m, m = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3)), 26
    else:
        sys_m, m = cesium, 1 if case == "single_segment" else 26
    w = Waveform(np.full(m, 10e-6), rng.uniform(-1, 1, (m, sys_m.n_controls)))
    return sys_m, w, haar_random_state(sys_m.dim, rng), haar_random_state(sys_m.dim, rng)


def assert_gradient_close(analytic, fd, rel=1e-5, floor=1e-8):
    mask = np.abs(fd) > floor
    assert mask.any()
    rel_err = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
    assert rel_err.max() < rel


class TestObjective:
    def test_same_state_empty_waveform(self, cesium):
        psi = haar_random_state(8, np.random.default_rng(0))
        assert objective_state_prep(cesium, Waveform(np.zeros(0), np.zeros((0, 5))), psi, psi) == pytest.approx(1.0)

    def test_orthogonal_target(self, cesium):
        w = Waveform(np.zeros(0), np.zeros((0, 5)))
        assert objective_state_prep(cesium, w, basis_state(8, 0), basis_state(8, 3)) == 0.0

    def test_matches_direct_computation(self, cesium):
        rng = np.random.default_rng(1)
        w = Waveform(np.full(6, 1e-5), 0.5 * rng.uniform(-1, 1, (6, 5)))
        psi_i, psi_f = haar_random_state(8, rng), haar_random_state(8, rng)
        direct = abs(np.vdot(psi_f, propagate(cesium, w) @ psi_i)) ** 2
        assert objective_state_prep(cesium, w, psi_i, psi_f) == pytest.approx(direct, abs=1e-14)

    def test_dimension_mismatch(self, cesium):
        with pytest.raises(ValueError):
            objective_state_prep(cesium, Waveform(np.zeros(0), np.zeros((0, 5))), basis_state(4, 0), basis_state(4, 1))


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
        w = Waveform([tau], [[u]])
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


class TestStackedKernel:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_per_segment_loops(self, cesium, case):
        sys_m, w, psi_i, psi_f = kernel_case(cesium, case)
        fwd = reference_forward(sys_m, w, psi_i, psi_f)
        j_ref = min(float(abs(fwd[0]) ** 2), 1.0)
        g_ref = reference_gradient(sys_m, w, psi_f, *fwd)
        assert abs(objective_state_prep(sys_m, w, psi_i, psi_f) - j_ref) <= 1e-14
        g = gradient_state_prep(sys_m, w, psi_i, psi_f)
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    def test_every_evaluated_point_is_finite_in_bounds_and_diagonalized_once(self, cesium, count_calls):
        # each forward pass diagonalizes its amplitude array through the module's _segment_eigs,
        # so wrapping it sees every evaluated point: none is checked, so each must be in the box
        eigs = count_calls(unimap.search, "_segment_eigs")
        cfg = default_search_config(cesium, seed=37, max_iterations=20, fidelity_goal=1.0)
        res = search_state_map(cesium, basis_state(8, 7), haar_random_state(8, np.random.default_rng(38)), cfg)
        points = [amps for _, amps in eigs]
        lo, hi = cesium.amplitude_bounds.T
        assert len(points) >= res.iterations + 1 and res.iterations > 0
        assert all(np.isfinite(a).all() and (lo <= a).all() and (a <= hi).all() for a in points)
        assert len({a.tobytes() for a in points}) == len(points)
        assert res.waveform.amplitudes.tobytes() in {a.tobytes() for a in points}


def kernel_jacobian(sys, w, psi_i, psi_f):
    """The search's (2d + 1) x MK Jacobian of the chordal residual, from one forward pass."""
    overlap, _, *fwd = unimap.search._forward(sys, w.durations, w.amplitudes, psi_i, psi_f)
    return unimap.search._chordal_jacobian(sys, w.durations, psi_f, overlap, *fwd)


def residual(sys, w, psi_i, psi_f):
    """Chordal residual U psi_i - <psi_f|U psi_i> psi_f in real and imaginary rows, then |<psi_f|U psi_i>| - 1."""
    ket = propagate(sys, w) @ psi_i
    overlap = np.vdot(psi_f, ket)
    off = ket - overlap * psi_f
    return np.concatenate((off.real, off.imag, [abs(overlap) - 1]))


def per_segment_jacobian(sys, w, psi_i):
    """Reference d(U psi_i)/du: each segment's propagator derivative written out as a matrix, one at a time."""
    lam, v = segment_eigs(sys, w)
    m, d = w.n_segments, sys.dim
    steps = [v[j] @ np.diag(np.exp(-1j * lam[j] * w.durations[j])) @ v[j].conj().T for j in range(m)]
    jac = np.zeros((d, m, sys.n_controls), dtype=complex)
    for j in range(m):
        before, after = psi_i, np.eye(d)
        for step in steps[:j]:
            before = step @ before
        for step in reversed(steps[j + 1:]):
            after = after @ step
        tau = w.durations[j]
        delta = lam[j][:, None] - lam[j][None, :]
        mean = (lam[j][:, None] + lam[j][None, :]) / 2
        kernel = -1j * tau * np.exp(-1j * mean * tau) * np.sinc(delta * tau / (2 * np.pi))
        for k, h in enumerate(sys.controls):
            d_step = v[j] @ (kernel * (v[j].conj().T @ h @ v[j])) @ v[j].conj().T
            jac[:, j, k] = after @ d_step @ before
    return jac.reshape(d, -1)


def matmul_kets(u, psi_i):
    """The ket sweep over the propagator stack u, written with ``@``."""
    kets = np.empty((len(u) + 1, psi_i.size), dtype=complex)
    kets[0] = psi_i
    for j in range(len(u)):
        kets[j + 1] = u[j] @ kets[j]
    return kets


def matmul_bra_derivatives(sys, durations, out_bras, lam, v, u, kets):
    """``search._bra_derivatives`` with its backward sweep written with ``@``."""
    m, d, k = len(durations), sys.dim, sys.n_controls
    bras = np.empty((m + 1, len(out_bras), d), dtype=complex)
    bras[m] = out_bras
    for j in range(m - 1, -1, -1):
        bras[j] = bras[j + 1] @ u[j]
    left = bras[1:] @ v
    right = (kets[:-1, None, :] @ v.conj())[:, 0]
    tau = durations[:, None]
    half = np.exp(-0.5j * lam * tau)
    x = (lam[:, :, None] - lam[:, None, :]) * (tau[:, :, None] / 2)
    x[x == 0] = 1e-20
    kernel_t = (half * right)[:, :, None] * (-1j * tau * half)[:, None, :] * (np.sin(x) / x)
    hv = sys.controls.reshape(k * d, d) @ (v @ kernel_t)
    diag = np.einsum("mai,mkai->mki", v.conj(), hv.reshape(m, k, d, d))
    return (left @ diag.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(-1, m * k)


@pytest.mark.parametrize("model", ["cesium", "two_level", "dense_d4"])
def test_dot_sweeps_equal_matmul_loops(cesium, two_level, model):
    # the ket, bra and propagator sweeps multiply with ndarray.dot, bit for bit the @ loops
    rng = np.random.default_rng(120)
    sys_m, tau = {"cesium": (cesium, 1e-5), "two_level": (two_level, 0.8), "dense_d4": (dense_system(4), 1e-5)}[model]
    w = Waveform(np.full(26, tau), rng.uniform(-1, 1, (26, sys_m.n_controls)))
    psi_i, psi_f = haar_random_state(sys_m.dim, rng), haar_random_state(sys_m.dim, rng)
    overlap, _, *fwd = unimap.search._forward(sys_m, w.durations, w.amplitudes, psi_i, psi_f)
    kets = matmul_kets(fwd[2], psi_i)
    assert fwd[3].tobytes() == kets.tobytes()
    assert overlap == np.vdot(psi_f, kets[-1])
    for out_bras in (psi_f.conj()[None], np.eye(sys_m.dim)):
        derivatives = unimap.search._bra_derivatives(sys_m, w.durations, out_bras, *fwd)
        assert derivatives.tobytes() == matmul_bra_derivatives(sys_m, w.durations, out_bras, *fwd).tobytes()
    product = np.eye(sys_m.dim, dtype=complex)
    for step in fwd[2]:
        product = step @ product
    assert propagate(sys_m, w).tobytes() == product.tobytes()


class TestResultPropagator:
    """A result carries U of its waveform, from the forward pass that scored the waveform."""

    def test_searched_result(self, cesium):
        cfg = default_search_config(cesium, seed=121, max_iterations=5, restarts=2)
        res = multi_start(cesium, haar_random_state(8, np.random.default_rng(122)), cesium.fiducial_state(), cfg)
        assert res.iterations > 0
        assert_carries_its_propagator(cesium, res)

    def test_conjugate_image(self, count_calls):
        sys = build_restricted_system(CesiumParams())
        source, _, cfg, a_conj = TestConjugateImages.searched_pair(sys, count_calls)
        derived = multi_start(sys, a_conj, sys.fiducial_state(), cfg)
        assert derived.iterations == 0 and np.any(derived.waveform.amplitudes)
        for res in (source, derived):
            assert_carries_its_propagator(sys, res)

    def test_drift_free_zero_shortcut_is_the_identity(self, count_calls):
        # with no drift the all-zero waveform plays I: scored with no eigendecomposition
        cesium = build_restricted_system(CesiumParams())
        eigs = count_calls(unimap.search, "_segment_eigs")
        cfg = default_search_config(cesium, seed=71)
        res = multi_start(cesium, cesium.fiducial_state(), cesium.fiducial_state(), cfg)
        assert not eigs and res.converged and res.iterations == 0 and not np.any(res.waveform.amplitudes)
        assert res.propagator.tobytes() == np.eye(8, dtype=complex).tobytes()
        assert_carries_its_propagator(cesium, res)

    def test_zero_shortcut_with_a_drift_plays_the_drift(self, count_calls):
        sys = build_restricted_system(CesiumParams(rf_detuning=1.0))
        eigs = count_calls(unimap.search, "_segment_eigs")
        cfg = default_search_config(sys, seed=71)
        res = multi_start(sys, basis_state(8, 3), basis_state(8, 3), cfg)
        assert len(eigs) == 1 and res.converged and res.iterations == 0 and not np.any(res.waveform.amplitudes)
        assert not np.array_equal(res.propagator, np.eye(8))
        assert_carries_its_propagator(sys, res)

    def test_a_drift_free_miss_diagonalizes_nothing_before_the_search(self, monkeypatch, count_calls):
        cesium = build_restricted_system(CesiumParams())
        eigs = count_calls(unimap.search, "_segment_eigs")
        seen, inner = [], unimap.search.search_state_map
        monkeypatch.setattr(unimap.search, "search_state_map", lambda *a, **k: seen.append(len(eigs)) or inner(*a, **k))
        cfg = default_search_config(cesium, seed=72, max_iterations=2, restarts=1)
        multi_start(cesium, haar_random_state(8, np.random.default_rng(73)), cesium.fiducial_state(), cfg)
        assert seen == [0] and eigs

    @pytest.mark.parametrize("model", ["cesium_detuned", "dense_drift"])
    def test_zero_shortcut_diagonalizes_the_zero_rows_once(self, count_calls, model):
        # with a drift the zero waveform is scored as any other: one diagonalization of its M zero
        # rows; J is that of the whole waveform's forward pass, bit for bit
        if model == "dense_drift":
            dense = dense_system(4, seed=3)
            sys = ControlSystem(dense.controls[0] + 0.3 * dense.controls[1], dense.controls, dense.amplitude_bounds, 0)
        else:
            sys = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 2e3))
        assert np.any(sys.drift)
        cfg = default_search_config(sys, fidelity_goal=1e-3)
        psi_i, psi_f = haar_random_state(sys.dim, np.random.default_rng(123)), sys.fiducial_state()
        eigs = count_calls(unimap.search, "_segment_eigs")
        res = multi_start(sys, psi_i, psi_f, cfg)
        assert [amps.tolist() for _, amps in eigs] == [[[0.0] * sys.n_controls] * cfg.segment_count]
        assert res.iterations == 0 and res.waveform.n_segments == cfg.segment_count
        assert not np.any(res.waveform.amplitudes)
        assert res.fidelity == objective_state_prep(sys, res.waveform, psi_i, psi_f) < 1
        assert_carries_its_propagator(sys, res)


def near_target(sys, w, psi_i, rng, offset=0.02):
    """A unit target a small random offset away from U psi_i, so that J > 0.999."""
    ket = propagate(sys, w) @ psi_i + offset * haar_random_state(sys.dim, rng)
    return ket / np.linalg.norm(ket)


class TestJacobian:
    @pytest.mark.parametrize("model", ["cesium", "two_level", "dense_d4"])
    def test_matches_central_differences(self, cesium, two_level, model):
        # at a generic point and at one with J > 0.999, radial row included
        rng = np.random.default_rng(90)
        models = {"cesium": (cesium, 1e-5), "two_level": (two_level, 0.8), "dense_d4": (dense_system(4), 1e-5)}
        sys_m, tau = models[model]
        assert (sys_m.chain_walk is None) == (model == "dense_d4")
        w = Waveform(np.full(4, tau), 0.6 * rng.uniform(-1, 1, (4, sys_m.n_controls)))
        psi_i = haar_random_state(sys_m.dim, rng)
        targets = (haar_random_state(sys_m.dim, rng), near_target(sys_m, w, psi_i, rng))
        assert objective_state_prep(sys_m, w, psi_i, targets[1]) > 0.999
        for psi_f in targets:
            flat, step = w.amplitudes.ravel(), 1e-6
            fd = np.empty((2 * sys_m.dim + 1, flat.size))
            for idx in range(flat.size):
                shift = np.zeros(flat.size)
                shift[idx] = step
                up, down = (Waveform(w.durations, (flat + s).reshape(w.amplitudes.shape)) for s in (shift, -shift))
                fd[:, idx] = (residual(sys_m, up, psi_i, psi_f) - residual(sys_m, down, psi_i, psi_f)) / (2 * step)
            jac = kernel_jacobian(sys_m, w, psi_i, psi_f)
            assert jac.shape == fd.shape
            assert np.linalg.norm(jac - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_per_segment_loop(self, cesium, case):
        # the search's bras are the d identity rows, which give d(U psi_i)/du
        sys_m, w, psi_i, psi_f = kernel_case(cesium, case)
        fwd = unimap.search._forward(sys_m, w.durations, w.amplitudes, psi_i, psi_f)[2:]
        kernel = unimap.search._bra_derivatives(sys_m, w.durations, np.eye(sys_m.dim), *fwd)
        reference = per_segment_jacobian(sys_m, w, psi_i)
        assert np.linalg.norm(kernel - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_squared_residual_is_chordal(self, cesium):
        # |r|^2 = 2 (1 - sqrt J) at unit norm, at a generic point and at one with J > 0.999
        sys_m, w, psi_i, psi_f = kernel_case(cesium, "cesium_m26")
        for target in (psi_f, near_target(sys_m, w, psi_i, np.random.default_rng(91))):
            r, j = residual(sys_m, w, psi_i, target), objective_state_prep(sys_m, w, psi_i, target)
            assert r @ r == pytest.approx(2 * (1 - np.sqrt(j)), rel=1e-12, abs=1e-15)

    def test_gradient_is_the_jacobian_against_the_residual(self, cesium):
        # |r|^2 = 2 (1 - sqrt J), so -2 r·dr/du = (dJ/du) / sqrt J
        sys_m, w, psi_i, psi_f = kernel_case(cesium, "cesium_m26")
        for target in (psi_f, near_target(sys_m, w, psi_i, np.random.default_rng(91))):
            from_jacobian = -2 * residual(sys_m, w, psi_i, target) @ kernel_jacobian(sys_m, w, psi_i, target)
            grad = gradient_state_prep(sys_m, w, psi_i, target) / np.sqrt(objective_state_prep(sys_m, w, psi_i, target))
            assert np.linalg.norm(from_jacobian - grad) <= 1e-12 * np.linalg.norm(grad)


def seed_with_held_variables(cesium):
    """(psi_i, psi_f, cfg, seed, held, r, jac): a seed with 40 variables put on the bound their gradient points past.

    ``held`` marks the variables the search holds at its first step (at
    least 10): those at a bound where the descent -Jᵀ r of the chordal
    residual r, with Jacobian ``jac``, both at the seed, points outward.
    """
    psi_i, psi_f = basis_state(8, 7), haar_random_state(8, np.random.default_rng(44))
    cfg = default_search_config(cesium, seed=43, max_iterations=1, fidelity_goal=1.0)
    seed = unimap.search._seed_amplitudes(cesium, cfg, np.random.default_rng([cfg.seed, 0]))
    durations = np.full(len(seed), cfg.segment_duration)
    lo, hi = (np.broadcast_to(b, seed.shape).ravel() for b in cesium.amplitude_bounds.T)
    flat = seed.ravel()
    grad = gradient_state_prep(cesium, Waveform(durations, seed), psi_i, psi_f)
    flat[:40] = np.where(grad[:40] > 0, hi[:40], lo[:40])
    overlap, residual, *_ = unimap.search._forward(cesium, durations, seed, psi_i, psi_f)
    r = np.concatenate((residual.real, residual.imag, [abs(overlap) - 1]))
    jac = kernel_jacobian(cesium, Waveform(durations, seed), psi_i, psi_f)
    descent = -(r @ jac)
    held = ((flat >= hi) & (descent > 0)) | ((flat <= lo) & (descent < 0))
    assert held.sum() >= 10
    return psi_i, psi_f, cfg, seed, held, r, jac


def record_trial_points(monkeypatch, seed):
    """Start the search at ``seed`` and record every point it evaluates, flattened, in order."""
    forward, points = unimap.search._forward, []

    def recorded(sys, durations, amps, *states):
        points.append(amps.ravel())
        return forward(sys, durations, amps, *states)

    monkeypatch.setattr(unimap.search, "_seed_amplitudes", lambda *args: seed)
    monkeypatch.setattr(unimap.search, "_forward", recorded)
    return points


class TestSearch:
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

    def test_accepted_steps_never_lower_the_objective(self, cesium):
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

    @pytest.mark.parametrize("target", range(4))
    def test_goal_one_reports_fidelity_at_most_one(self, cesium, target):
        # at goal 1 the search ends on a point whose rounded |overlap|^2 can
        # exceed 1 by a few ulps; the reported values are clamped
        cfg = default_search_config(cesium, seed=0, max_iterations=300, fidelity_goal=1.0)
        psi_f = haar_random_state(8, np.random.default_rng([5, target]))
        res = search_state_map(cesium, basis_state(8, 7), psi_f, cfg)
        assert res.fidelity <= 1.0
        assert res.objective_history.max() <= 1.0
        assert res.objective_history[-1] == res.fidelity
        assert res.converged == (res.fidelity >= cfg.fidelity_goal)

    def test_result_fidelity_consistent_with_waveform(self, cesium):
        cfg = default_search_config(cesium, seed=31, max_iterations=80)
        psi_i, psi_f = basis_state(8, 7), haar_random_state(8, np.random.default_rng(32))
        res = search_state_map(cesium, psi_i, psi_f, cfg)
        recomputed = objective_state_prep(cesium, res.waveform, psi_i, psi_f)
        assert abs(recomputed - res.fidelity) < 1e-12

    def test_stops_on_a_vanishing_gradient(self):
        # a sigma_z control never moves |0> toward |1>: J and its gradient are exactly 0
        sz = np.diag([1.0, -1.0]).astype(complex)
        sys = ControlSystem(np.zeros((2, 2)), (sz / 2,), ((-1.0, 1.0),), fiducial_index=0)
        cfg = SearchConfig(segment_count=4, segment_duration=0.5, max_iterations=50)
        res = search_state_map(sys, basis_state(2, 0), basis_state(2, 1), cfg)
        assert (res.fidelity, res.iterations, res.converged) == (0.0, 0, False)
        assert res.objective_history.tolist() == [0.0]

    @pytest.mark.parametrize("goal, max_iterations", [(0.99, 2000), (1.0, 3)], ids=["goal", "max-iterations"])
    def test_one_jacobian_per_accepted_step(self, cesium, count_calls, goal, max_iterations):
        # the start point's Jacobian, then one per accepted step but the last: the search
        # stops there, so that point's Jacobian would go unused; a rejected step takes none
        jacobians = count_calls(unimap.search, "_bra_derivatives")
        cfg = default_search_config(cesium, seed=9, fidelity_goal=goal, max_iterations=max_iterations)
        res = search_state_map(cesium, basis_state(8, 7), haar_random_state(8, np.random.default_rng(10)), cfg)
        assert res.converged if goal < 1 else res.iterations == max_iterations
        assert res.iterations >= 1 and len(jacobians) == res.iterations

    def test_stops_at_the_damping_cap(self, cesium, count_calls, monkeypatch):
        # after one accepted step every trial point reads J = 0: each rejection raises mu, so
        # the trial steps shrink, until mu passes its cap and the search stops where it was
        jacobians = count_calls(unimap.search, "_bra_derivatives")
        forward, before, trials = unimap.search._forward, [], []

        def flat_after_first_step(sys, durations, amps, *states):
            fwd = forward(sys, durations, amps, *states)
            if len(jacobians) < 2:
                before.append(amps)
                return fwd
            trials.append(amps)
            assert len(trials) < 100, "the search does not stop"
            return (0j, *fwd[1:])

        monkeypatch.setattr(unimap.search, "_forward", flat_after_first_step)
        cfg = default_search_config(cesium, seed=3, max_iterations=100, fidelity_goal=1.0)
        res = search_state_map(cesium, basis_state(8, 7), haar_random_state(8, np.random.default_rng(4)), cfg)
        assert res.iterations == 1 and len(jacobians) == 2 and len(trials) > 1
        # the accepted point is the last one scored before the second Jacobian
        assert np.array_equal(res.waveform.amplitudes, before[-1]) and res.fidelity == res.objective_history[-1] > 0
        lengths = [np.linalg.norm(t - res.waveform.amplitudes) for t in trials]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("where", ["forward", "jacobian"])
    def test_stops_at_the_last_finite_point(self, cesium, monkeypatch, where):
        # after one accepted step a forward pass (J and r) or the Jacobian reads NaN: the search
        # stops there and keeps the accepted point, instead of solving for a step on NaN
        forward, kernel = unimap.search._forward, unimap.search._bra_derivatives
        jacobians, before, passes_after = [], [], []

        def poisoned_kernel(*args):
            jacobians.append(1)
            jac = kernel(*args)
            return jac * np.nan if where == "jacobian" and len(jacobians) == 2 else jac

        def poisoned_forward(sys, durations, amps, *states):
            fwd = forward(sys, durations, amps, *states)
            if len(jacobians) < 2:
                before.append(amps)
                return fwd
            passes_after.append(1)
            return (np.nan * fwd[0], np.full_like(fwd[1], np.nan), *fwd[2:]) if where == "forward" else fwd

        monkeypatch.setattr(unimap.search, "_bra_derivatives", poisoned_kernel)
        monkeypatch.setattr(unimap.search, "_forward", poisoned_forward)
        cfg = default_search_config(cesium, seed=3, max_iterations=100, fidelity_goal=1.0)
        res = search_state_map(cesium, basis_state(8, 7), haar_random_state(8, np.random.default_rng(4)), cfg)
        assert res.iterations == 1 and len(jacobians) == 2 and len(passes_after) == (where == "forward")
        assert np.array_equal(res.waveform.amplitudes, before[-1])
        assert np.isfinite(res.objective_history).all() and res.fidelity == res.objective_history[-1]

    def test_a_non_finite_step_stops_at_the_last_accepted_point(self, cesium, count_calls, monkeypatch):
        # after one accepted step the damped solve returns NaN: the trial point is not finite, so
        # the search keeps the accepted point and reports a miss, without scoring or refusing the trial
        jacobians = count_calls(unimap.search, "_bra_derivatives")
        passes = count_calls(unimap.search, "_forward")
        solve = np.linalg.solve
        monkeypatch.setattr(unimap.search.np.linalg, "solve",
                            lambda *args: solve(*args) * (np.nan if len(jacobians) >= 2 else 1.0))
        cfg = default_search_config(cesium, seed=3, max_iterations=100, fidelity_goal=1.0)
        psi_i, psi_f = basis_state(8, 7), haar_random_state(8, np.random.default_rng(4))
        res = search_state_map(cesium, psi_i, psi_f, cfg)
        assert res.iterations == 1 and len(jacobians) == 2 and not res.converged
        # the last forward pass scored the accepted point: the NaN trial was never scored
        assert np.array_equal(res.waveform.amplitudes, passes[-1][2])
        assert np.isfinite(res.objective_history).all()
        assert res.fidelity == res.objective_history[-1] == objective_state_prep(cesium, res.waveform, psi_i, psi_f)
        assert_carries_its_propagator(cesium, res)

    def test_bound_variable_whose_descent_points_outward_stays_put(self, cesium, monkeypatch):
        # every trial point of the first step must leave the held variables where the seed put them
        psi_i, psi_f, cfg, seed, held, *_ = seed_with_held_variables(cesium)
        points = record_trial_points(monkeypatch, seed)
        res = search_state_map(cesium, psi_i, psi_f, cfg)
        assert res.iterations == 1 and len(points) >= 2
        for point in points:
            assert np.array_equal(point[held], seed.ravel()[held])

    def test_first_trial_point_is_the_damped_step(self, cesium, monkeypatch):
        # x1 = clip(x0 - S^-1 J_sᵀ (J_s J_sᵀ + mu0 I)^-1 r0), with J_s the free columns of J S^-1 and
        # mu0 = MU_START max diag(J_s J_sᵀ); the reference inverts through the Gram eigensystem
        psi_i, psi_f, cfg, seed, held, r0, jac = seed_with_held_variables(cesium)
        x0 = seed.ravel().copy()
        free, speeds = ~held, np.tile(cesium.control_speeds, len(seed))
        jac_s = jac[:, free] / speeds[free]
        gram = jac_s @ jac_s.T
        lam, q = np.linalg.eigh(gram)
        mu0 = unimap.search.MU_START * gram.diagonal().max()
        expected = x0.copy()
        expected[free] -= jac_s.T @ (q @ ((q.T @ r0) / (lam + mu0))) / speeds[free]
        lo, hi = (np.broadcast_to(b, seed.shape).ravel() for b in cesium.amplitude_bounds.T)
        expected = np.clip(expected, lo, hi)
        points = record_trial_points(monkeypatch, seed)
        search_state_map(cesium, psi_i, psi_f, cfg)
        assert np.array_equal(points[0], x0)
        assert np.linalg.norm(points[1] - expected) <= 1e-12 * np.linalg.norm(expected - x0)
        assert np.array_equal(points[1][held], x0[held])

    def test_step_takes_no_gram_eigensystem(self, cesium, count_calls):
        # the damped system is solved as it stands: every eigh of a search is one forward pass's
        # stack of M segment generators, never the (2d + 1) x (2d + 1) Gram matrix J_s J_sᵀ
        eighs = count_calls(np.linalg, "eigh")
        passes = count_calls(unimap.search, "_segment_eigs")
        cfg = default_search_config(cesium, seed=9, fidelity_goal=0.99)
        res = search_state_map(cesium, basis_state(8, 7), haar_random_state(8, np.random.default_rng(10)), cfg)
        assert res.converged and len(passes) >= res.iterations + 1 >= 2
        assert [np.shape(args[0]) for args in eighs] == [(cfg.segment_count, 8, 8)] * len(passes)

    def test_refuses_a_duration_whose_phases_carry_no_digits(self, two_level):
        # generator bound 0.5 rad/s times 1e6 s is 5e5 rad, above the 4.5e5 rad limit
        cfg = SearchConfig(segment_count=2, segment_duration=1e6, max_iterations=5)
        with pytest.raises(ValueError, match=r"'two-level': generator bound 0\.5 rad/s times segment duration 1e\+06"):
            search_state_map(two_level, basis_state(2, 0), basis_state(2, 1), cfg)


def scaled_control(sys, k, factor):
    """``sys`` with control k's generator times ``factor`` and its bounds divided by it."""
    stack = np.array(sys.controls)
    stack[k] *= factor
    bounds = np.array(sys.amplitude_bounds)
    bounds[k] /= factor
    return ControlSystem(sys.drift, stack, bounds, sys.fiducial_index)


class TestDampingUnits:
    """The search damps each amplitude in units of its control's Fubini–Study speed."""

    def test_speeds_are_half_spectral_widths(self, cesium):
        for h, speed in zip(cesium.controls, cesium.control_speeds):
            lam = np.linalg.eigvalsh(h)
            assert speed == (lam[-1] - lam[0]) / 2 > 0
        assert not cesium.control_speeds.flags.writeable

    @pytest.mark.parametrize("k", [0, 2])
    def test_search_is_invariant_under_rescaling_a_control(self, cesium, k):
        # a generator times 4 with its bounds divided by 4 spans the same waveforms, and one
        # speed unit of it is the same step: the search takes the same path, amplitudes / 4
        scaled = scaled_control(cesium, k, 4.0)
        assert scaled.control_speeds[k] == 4 * cesium.control_speeds[k]
        cfg = default_search_config(cesium, seed=130, fidelity_goal=0.999)
        factor = np.ones(cesium.n_controls)
        factor[k] = 4.0
        rng = np.random.default_rng(131)
        for _ in range(6):
            psi_f = haar_random_state(8, rng)
            a = search_state_map(cesium, cesium.fiducial_state(), psi_f, cfg)
            b = search_state_map(scaled, cesium.fiducial_state(), psi_f, cfg)
            assert a.converged and a.iterations == b.iterations
            assert a.objective_history.tobytes() == b.objective_history.tobytes()
            assert np.array_equal(b.waveform.amplitudes * factor, a.waveform.amplitudes)

    @pytest.mark.filterwarnings("error")
    def test_speedless_controls_take_unit_one(self, two_level):
        # a zero control and one proportional to I drive no state anywhere
        sx = two_level.controls[0]
        sys = ControlSystem(two_level.drift, (sx, np.zeros((2, 2)), 0.3 * np.eye(2)), ((-1.0, 1.0),) * 3, 0)
        assert sys.control_speeds.tolist() == [0.5, 1.0, 1.0]
        cfg = SearchConfig(segment_count=8, segment_duration=0.5, fidelity_goal=0.999, max_iterations=200)
        res = search_state_map(sys, basis_state(2, 0), basis_state(2, 1), cfg)
        assert res.converged and res.fidelity >= 0.999

    @pytest.mark.filterwarnings("error")
    def test_unreachable_target_reads_zero(self):
        # controls coupling only levels 0 and 1 never put amplitude on level 2: the overlap is
        # exactly 0, where the radial row's phase e^{-i alpha} is taken as 1
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[0, 1] = coupling[1, 0] = 0.5
        sys = ControlSystem(np.zeros((3, 3)), (coupling, 1j * np.triu(coupling) - 1j * np.tril(coupling)),
                            ((-1.0, 1.0),) * 2, 0)
        cfg = SearchConfig(segment_count=4, segment_duration=0.5, max_iterations=50)
        res = search_state_map(sys, basis_state(3, 0), basis_state(3, 2), cfg)
        assert (res.fidelity, res.converged) == (0.0, False)
        assert res.objective_history.tolist() == [0.0]


class TestMultiStart:
    def test_single_restart_matches_search(self, cesium):
        cfg = default_search_config(cesium, seed=41, max_iterations=40, restarts=1)
        psi_f = haar_random_state(8, np.random.default_rng(42))
        a = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
        b = search_state_map(cesium, basis_state(8, 7), psi_f, cfg, restart_index=0)
        assert a.fidelity == b.fidelity
        assert np.array_equal(a.waveform.amplitudes, b.waveform.amplitudes)

    def test_best_of_restarts(self, cesium, count_calls):
        # in 3 iterations no restart reaches J = 1 (they read 0.92, 0.986, 0.50 and 0.66), so all
        # four run and the first with the highest fidelity is kept; with more iterations each
        # reaches J = 1.0 exactly
        cfg = default_search_config(cesium, seed=51, max_iterations=3, restarts=4, fidelity_goal=1.0)
        psi_f = haar_random_state(8, np.random.default_rng(52))
        searches = count_calls(unimap.search, "search_state_map")
        best = multi_start(cesium, basis_state(8, 7), psi_f, cfg)
        assert len(searches) == cfg.restarts and not best.converged
        fids = [search_state_map(cesium, basis_state(8, 7), psi_f, cfg, restart_index=r).fidelity for r in range(4)]
        assert best.restart_index == fids.index(max(fids)) and best.fidelity == max(fids)

    def test_more_restarts_never_worse(self, cesium):
        # restart seeds depend only on (seed, index), so the set of runs
        # with 3 restarts contains the single-start run; in 3 iterations none reaches the goal
        psi_f = haar_random_state(8, np.random.default_rng(62))
        fids = {}
        for restarts in (1, 3):
            cfg = default_search_config(
                cesium, seed=61, max_iterations=3, restarts=restarts, fidelity_goal=1.0
            )
            fids[restarts] = multi_start(cesium, basis_state(8, 7), psi_f, cfg).fidelity
        assert fids[3] >= fids[1]

    def test_zero_seed_shortcut(self, cesium):
        cfg = default_search_config(cesium, seed=71, restarts=3)
        res = multi_start(cesium, basis_state(8, 7), basis_state(8, 7), cfg)
        assert res.converged and res.iterations == 0
        assert np.abs(res.waveform.amplitudes).max() == 0.0

    def test_a_restart_that_meets_the_goal_ends_the_tries(self, count_calls):
        sys = build_restricted_system(CesiumParams())
        searches = count_calls(unimap.search, "search_state_map")
        cfg = default_search_config(sys, seed=110, restarts=3)
        res = multi_start(sys, haar_random_state(8, np.random.default_rng(111)), sys.fiducial_state(), cfg)
        assert len(searches) == 1 and res.restart_index == 0 and res.converged

    def test_a_missed_restart_is_retried_until_one_meets_the_goal(self, count_calls):
        # seed 109 at 3 iterations, from a scan of seeds 100-111 at 3-5 iterations (state from
        # rng seed + 1): restart 0 reaches J = 0.934, restart 1 0.9954 and restart 2 0.9998, so
        # the retries stop at restart 1, where the best of all three would have been restart 2
        sys = build_restricted_system(CesiumParams())
        searches = count_calls(unimap.search, "search_state_map")
        cfg = default_search_config(sys, seed=109, max_iterations=3, restarts=3)
        a = haar_random_state(8, np.random.default_rng(110))
        res = multi_start(sys, a, sys.fiducial_state(), cfg)
        assert len(searches) == 2 and res.restart_index == 1 and res.converged
        missed, met, later = (search_state_map(sys, a, sys.fiducial_state(), cfg, restart_index=r) for r in range(3))
        assert not missed.converged and res.fidelity == met.fidelity < later.fidelity

    def test_bounds_excluding_zero_skip_the_zero_seed(self, two_level):
        # the all-zero waveform lies outside [0.5, 1]: it must not be built or scored
        sys = ControlSystem(two_level.drift, two_level.controls, ((0.5, 1.0),), fiducial_index=0)
        cfg = SearchConfig(segment_count=8, segment_duration=0.5, max_iterations=20, restarts=2)
        res = multi_start(sys, basis_state(2, 0), basis_state(2, 0), cfg)
        check_waveform(sys, res.waveform)
        assert res.restart_index in (0, 1) and res.objective_history.size == res.iterations + 1


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


def test_multi_start_determinism(count_calls):
    # two equal systems built apart share no stored result: both search, and agree
    searches = count_calls(unimap.search, "search_state_map")
    systems = [build_restricted_system(CesiumParams()) for _ in range(2)]
    cfg = default_search_config(systems[0], seed=81, max_iterations=40, restarts=3, fidelity_goal=1.0)
    psi_f = haar_random_state(8, np.random.default_rng(82))
    first, second = (multi_start(sys, basis_state(8, 7), psi_f, cfg) for sys in systems)
    ran = len(searches)
    assert ran == searches_run(first, cfg) + searches_run(second, cfg) and first is not second
    assert first.fidelity == second.fidelity
    assert first.restart_index == second.restart_index
    assert np.array_equal(first.waveform.amplitudes, second.waveform.amplitudes)
    # a repeated call, with equal states and an equal config built anew, searches no more
    assert multi_start(systems[0], basis_state(8, 7), psi_f.copy(), dataclasses.replace(cfg)) is first
    assert len(searches) == ran


def test_stored_results_go_with_their_system():
    sys = build_restricted_system(CesiumParams())
    res = multi_start(sys, basis_state(8, 7), basis_state(8, 0), default_search_config(sys, max_iterations=0))
    assert list(sys.kept_results.values()) == [res]
    assert not dataclasses.replace(sys).kept_results
    alive = weakref.ref(sys)
    del sys
    gc.collect()
    assert alive() is None
    # a symmetry is kept on the system it maps onto, and holds its source's results, not the source
    plus, minus = (build_restricted_system(CesiumParams(), aux=aux) for aux in (+4, -4))
    assert add_symmetry(plus, minus, AUX_MIRRORS[+1])
    [(results, _, signs)] = minus.symmetries
    assert results is plus.kept_results and tuple(signs) == AUX_MIRROR_SIGNS[+1]
    assert not plus.symmetries
    source_alive, alive = weakref.ref(plus), weakref.ref(minus)
    del plus
    gc.collect()
    assert source_alive() is None and minus.symmetries[0][0] is results
    del minus
    gc.collect()
    assert alive() is None


#: (rf_x, rf_y, uw_x, uw_y, light_shift) signs with conj(U(u)) = U(sigma u) on the cesium model at zero detuning
CONJUGATION_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0, -1.0])
#: the same controls' signs of the aux mirrors S_+ and S_- from the aux +4 onto the aux -4 system
AUX_MIRROR_SIGNS = {+1: (-1.0, 1.0, 1.0, 1.0, 1.0), -1: (-1.0, 1.0, -1.0, -1.0, 1.0)}


class TestConjugateImages:
    @staticmethod
    def searched_pair(sys, count_calls):
        """A searched state map a -> fiducial on ``sys``, the call counter, and a rephased conj(a)."""
        searches = count_calls(unimap.search, "search_state_map")
        cfg = default_search_config(sys, seed=91, max_iterations=30, restarts=2)
        a = haar_random_state(8, np.random.default_rng(92))
        source = multi_start(sys, a, sys.fiducial_state(), cfg)
        assert len(searches) == searches_run(source, cfg)
        return source, searches, cfg, np.exp(0.7j) * a.conj()

    def test_conjugate_states_derive_the_signed_waveform(self, count_calls):
        sys = build_restricted_system(CesiumParams())
        source, searches, cfg, a_conj = self.searched_pair(sys, count_calls)
        derived = multi_start(sys, a_conj, sys.fiducial_state(), cfg)
        assert len(searches) == searches_run(source, cfg)
        assert derived.iterations == 0 and derived.restart_index == 0
        assert np.array_equal(derived.waveform.durations, source.waveform.durations)
        assert derived.waveform.amplitudes.tobytes() == (source.waveform.amplitudes * CONJUGATION_SIGNS).tobytes()
        assert derived.fidelity == objective_state_prep(sys, derived.waveform, a_conj, sys.fiducial_state())
        assert abs(derived.fidelity - source.fidelity) <= 1e-12
        assert derived.converged == (derived.fidelity >= cfg.fidelity_goal)
        # kept under its own key: a repeated call returns it without a search
        assert multi_start(sys, a_conj.copy(), sys.fiducial_state(), cfg) is derived
        assert len(searches) == searches_run(source, cfg)

    def test_conjugation_signs_are_worked_out_once_per_system(self, count_calls):
        import unimap.control

        sys = build_restricted_system(CesiumParams())
        cfg = default_search_config(sys, seed=98, max_iterations=0)
        states = [haar_random_state(8, np.random.default_rng([99, k])) for k in range(2)]
        for a in states:
            multi_start(sys, a, sys.fiducial_state(), cfg)
        searches = count_calls(unimap.search, "search_state_map")
        calls = [count_calls(module, "_mirror_signs") for module in (unimap.control, unimap.search)]
        for a in states:
            multi_start(sys, a.conj(), sys.fiducial_state(), cfg)
        assert not searches and sum(map(len, calls)) == 1
        assert tuple(sys.conjugation_signs) == tuple(CONJUGATION_SIGNS) and len(sys.kept_results) == 4

    def test_image_shares_the_source_durations(self, count_calls):
        sys = build_restricted_system(CesiumParams())
        source, _, cfg, a_conj = self.searched_pair(sys, count_calls)
        derived = multi_start(sys, a_conj, sys.fiducial_state(), cfg)
        assert derived.iterations == 0 and derived.waveform.durations is source.waveform.durations

    def test_a_different_config_derives_nothing(self, count_calls):
        sys = build_restricted_system(CesiumParams())
        source, searches, cfg, a_conj = self.searched_pair(sys, count_calls)
        other = dataclasses.replace(cfg, seed=cfg.seed + 1)
        res = multi_start(sys, a_conj, sys.fiducial_state(), other)
        assert len(searches) == searches_run(source, cfg) + searches_run(res, other) and res.iterations > 0

    def test_detuned_system_derives_nothing(self, count_calls):
        sys = build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 100))
        source, searches, cfg, a_conj = self.searched_pair(sys, count_calls)
        res = multi_start(sys, a_conj, sys.fiducial_state(), cfg)
        assert len(searches) == searches_run(source, cfg) + searches_run(res, cfg) and res.iterations > 0

    def test_image_that_misses_a_goal_its_source_met_is_searched(self, count_calls, keep_result):
        # a kept result that claims the goal, but whose waveform (and so its image) misses it
        sys = build_restricted_system(CesiumParams())
        cfg = default_search_config(sys, seed=93, max_iterations=5, restarts=2)
        a, fiducial = haar_random_state(8, np.random.default_rng(94)), sys.fiducial_state()
        amps = np.random.default_rng(95).uniform(-1, 1, size=(cfg.segment_count, sys.n_controls))
        wave = Waveform(np.full(cfg.segment_count, cfg.segment_duration), amps)
        keep_result(sys, a, fiducial, cfg, SearchResult(wave, 1.0, 0, True, np.array([1.0]), propagate(sys, wave)))
        image = Waveform(wave.durations, amps * CONJUGATION_SIGNS)
        assert objective_state_prep(sys, image, a.conj(), fiducial) < cfg.fidelity_goal
        searches = count_calls(unimap.search, "search_state_map")
        res = multi_start(sys, a.conj(), fiducial, cfg)
        assert len(searches) == searches_run(res, cfg) and res.iterations > 0
        assert res.waveform.amplitudes.tobytes() != image.amplitudes.tobytes()


@pytest.mark.parametrize("s", [+1, -1])
def test_added_mirror_derives_the_signed_waveform(count_calls, s):
    # a result kept on the aux +4 system for a serves S_s a on the aux -4 system
    plus, minus = (build_restricted_system(CesiumParams(), aux=aux) for aux in (+4, -4))
    assert add_symmetry(plus, minus, AUX_MIRRORS[s])
    searches = count_calls(unimap.search, "search_state_map")
    cfg = default_search_config(plus, seed=96, max_iterations=30, restarts=2)
    a = haar_random_state(8, np.random.default_rng(97))
    source = multi_start(plus, a, plus.fiducial_state(), cfg)
    assert len(searches) == searches_run(source, cfg)
    derived = multi_start(minus, AUX_MIRRORS[s] @ a, minus.fiducial_state(), cfg)
    assert len(searches) == searches_run(source, cfg)
    assert derived.iterations == 0 and derived.restart_index == 0
    signs = np.array(AUX_MIRROR_SIGNS[s])
    assert np.array_equal(derived.waveform.durations, source.waveform.durations)
    assert derived.waveform.amplitudes.tobytes() == (source.waveform.amplitudes * signs).tobytes()
    assert derived.fidelity == objective_state_prep(minus, derived.waveform, AUX_MIRRORS[s] @ a, minus.fiducial_state())
    assert abs(derived.fidelity - source.fidelity) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(segment_count=0, segment_duration=1e-5)
    with pytest.raises(ValueError):
        SearchConfig(segment_count=4, segment_duration=1e-5, fidelity_goal=1.5)
    with pytest.raises(ValueError):
        SearchConfig(segment_count=4, segment_duration=1e-5, restarts=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "name", ["segment_count", "segment_duration", "fidelity_goal", "max_iterations", "restarts"]
)
def test_config_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        SearchConfig(**{"segment_count": 4, "segment_duration": 1e-5, name: bad})


@pytest.mark.parametrize("name, bad", [
    ("segment_count", 2.5), ("max_iterations", 2.5), ("restarts", 1.5), ("seed", -1), ("seed", 1.5),
    # a bool is an integer to Python, yet never a count
    ("segment_count", True), ("restarts", True), ("seed", False),
])
def test_config_refuses_non_integer_counts_and_negative_seed(name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {bad}$"):
        SearchConfig(**{"segment_count": 4, "segment_duration": 1e-5, name: bad})


@pytest.mark.parametrize("name, bad", [
    ("segment_duration", True), ("fidelity_goal", True), ("fidelity_goal", "0.9"), ("fidelity_goal", None),
])
def test_config_refuses_a_duration_or_goal_that_is_not_a_number(name, bad):
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got {bad!r}$"):
        SearchConfig(**{"segment_count": 4, name: bad})


def test_config_segment_duration_defaults_to_10_us():
    assert SearchConfig(segment_count=4).segment_duration == 1e-5


def test_default_config_variable_count(cesium):
    cfg = default_search_config(cesium)
    assert cfg.segment_count * cesium.n_controls >= 2 * cesium.dim**2
