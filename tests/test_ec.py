"""The embedded-qubit error-correction protocol and its sweep."""

import numpy as np
import pytest

from unimap.core import as_state, haar_random_state, haar_random_unitary
from unimap.ec import (
    BLOCH_AXIS_STATES,
    ECConfig,
    FZ_SIM,
    SIM_DIM,
    ec_map_specs,
    ec_maps,
    ec_sweep,
    error_channel,
    run_ec_trials,
    sim_x_state,
    sim_z_state,
)


@pytest.fixture(scope="module")
def ideal_maps():
    return ec_maps()


def qnd_measure_F(state, rng: np.random.Generator, force_outcome: int | None = None):
    """Reference projective measurement of total F: 3 (indices 0..6) vs 4 (7, 8).

    Returns (outcome, collapsed state, probability of that outcome).  The
    outcome is sampled from the rng unless forced; forcing a branch of
    zero probability is an error.
    """
    psi = as_state(state, SIM_DIM)
    p3 = float(np.sum(np.abs(psi[:7]) ** 2))
    p4 = float(np.sum(np.abs(psi[7:]) ** 2))
    total = p3 + p4
    p3, p4 = p3 / total, p4 / total
    if force_outcome is None:
        outcome = 3 if rng.uniform() < p3 else 4
    elif force_outcome in (3, 4):
        outcome = force_outcome
    else:
        raise ValueError(f"outcome must be 3 or 4, got {force_outcome}")
    prob = p3 if outcome == 3 else p4
    if prob <= 1e-30:
        raise ValueError(f"requested branch F={outcome} has zero probability")
    collapsed = psi.copy()
    if outcome == 3:
        collapsed[7:] = 0.0
    else:
        collapsed[:7] = 0.0
    return outcome, collapsed / np.linalg.norm(collapsed), prob


def physical_qubit_state(psi_qubit) -> np.ndarray:
    """alpha |4,4_z> + beta |3,3_z> on the simulation space."""
    q = as_state(psi_qubit, 2)
    return q[0] * sim_z_state(4) + q[1] * sim_z_state(3)


class TestStatesAndError:
    def test_sim_states_orthonormal(self):
        states = [sim_z_state(m) for m in range(3, -4, -1)] + [sim_z_state(4), sim_z_state(-4)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.abs(gram - np.eye(9)).max() < 1e-12

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            sim_z_state(5)

    def test_error_channel_at_zero(self):
        assert np.array_equal(error_channel(0.0), np.eye(9))

    def test_first_order_leakage(self):
        # amplitude <2_x| U(eps) |3_x> matches -2i eps <2_x|Fz|3_x> to O(eps^2)
        eps = 1e-3
        amp = np.vdot(sim_x_state(2), error_channel(eps) @ sim_x_state(3))
        elem = np.vdot(sim_x_state(2), FZ_SIM @ sim_x_state(3))
        assert abs(amp - (-2j) * eps * elem) < 10 * eps**2
        assert abs(elem) == pytest.approx(np.sqrt(6) / 2, abs=1e-12)

    def test_stretched_diagonals_equal(self):
        eps = 0.17
        u = error_channel(eps)
        plus = np.vdot(sim_x_state(3), u @ sim_x_state(3))
        minus = np.vdot(sim_x_state(-3), u @ sim_x_state(-3))
        assert abs(plus - minus) < 1e-12


class TestMaps:
    def test_paper_listed_directions(self, ideal_maps):
        encode, extract, recover = ideal_maps
        assert np.linalg.norm(encode @ sim_z_state(4) - sim_x_state(3)) < 1e-10
        assert np.linalg.norm(encode @ sim_z_state(3) - sim_x_state(-3)) < 1e-10
        assert np.linalg.norm(extract @ sim_x_state(2) - sim_z_state(4)) < 1e-10
        assert np.linalg.norm(extract @ sim_x_state(-2) - sim_z_state(-4)) < 1e-10
        assert np.linalg.norm(recover @ sim_z_state(4) - sim_x_state(3)) < 1e-10
        assert np.linalg.norm(recover @ sim_z_state(-4) - sim_x_state(-3)) < 1e-10

    def test_maps_unitary(self, ideal_maps):
        for m in ideal_maps:
            assert np.abs(m.conj().T @ m - np.eye(9)).max() < 1e-10

    def test_specs_are_two_dimensional(self):
        for spec in ec_map_specs():
            assert spec.n == 2 and spec.dim == 9


class TestQND:
    def test_pure_f3(self):
        out, state, p = qnd_measure_F(sim_x_state(1), np.random.default_rng(0))
        assert out == 3 and p == pytest.approx(1.0)
        assert np.linalg.norm(state - sim_x_state(1)) < 1e-12

    def test_equal_superposition(self):
        psi = (sim_z_state(3) + sim_z_state(4)) / np.sqrt(2)
        _, _, p = qnd_measure_F(psi, np.random.default_rng(1))
        assert p == pytest.approx(0.5)

    def test_post_error_probability_matches_projector(self, ideal_maps):
        eps = 0.1
        rng = np.random.default_rng(2)
        qubit = haar_random_state(2, rng)
        encode, extract, _ = ideal_maps
        psi = extract @ error_channel(eps) @ encode @ physical_qubit_state(qubit)
        p4_oracle = float(np.sum(np.abs(psi[7:]) ** 2))
        out, _, p = qnd_measure_F(psi, rng, force_outcome=4)
        assert out == 4
        assert p == pytest.approx(p4_oracle, abs=1e-12)

    def test_zero_probability_branch_rejected(self):
        with pytest.raises(ValueError, match="zero probability"):
            qnd_measure_F(sim_x_state(0), np.random.default_rng(3), force_outcome=4)

    def test_collapsed_state_normalized(self, ideal_maps):
        encode, extract, _ = ideal_maps
        psi = extract @ error_channel(0.3) @ encode @ physical_qubit_state(np.array([0.6, 0.8]))
        for branch in (3, 4):
            _, state, _ = qnd_measure_F(psi, np.random.default_rng(4), force_outcome=branch)
            assert abs(np.linalg.norm(state) - 1) < 1e-12


class TestTrial:
    def test_identity_at_zero_error(self, ideal_maps):
        fc, _, p4 = run_ec_trials(np.array(BLOCH_AXIS_STATES), 0.0, ideal_maps)
        assert fc.min() >= 1 - 1e-10
        assert p4.max() <= 1e-20

    def test_uncorrected_matches_closed_form(self, ideal_maps):
        # two-level oracle: F = | |a|^2 e^{-2 i eps} + |b|^2 |^2
        rng = np.random.default_rng(5)
        for eps in (0.05, 0.2, 0.4):
            qubit = haar_random_state(2, rng)
            _, fu, _ = run_ec_trials(qubit[None, :], eps, ideal_maps)
            a2, b2 = abs(qubit[0]) ** 2, abs(qubit[1]) ** 2
            oracle = abs(a2 * np.exp(-2j * eps) + b2) ** 2
            assert fu[0] == pytest.approx(oracle, abs=1e-12)

    def test_corrected_beats_uncorrected_at_small_angle(self, ideal_maps):
        rng = np.random.default_rng(6)
        qubits = np.array([haar_random_state(2, rng) for _ in range(60)])
        fc, fu, _ = run_ec_trials(qubits, 0.1, ideal_maps)
        assert np.mean(fc) >= np.mean(fu)

    def test_norm_preserved_through_stages(self, ideal_maps):
        encode, extract, recover = ideal_maps
        psi = physical_qubit_state(np.array([0.6, 0.8]))
        for stage in (encode, error_channel(0.25), extract, recover):
            psi = stage @ psi
            assert abs(np.linalg.norm(psi) - 1) < 1e-10

    def test_trigger_branch_recovers(self, ideal_maps):
        # force the syndrome branch and check recovery still lands close
        encode, extract, recover = ideal_maps
        qubit = np.array([0.6, 0.8])
        psi0 = physical_qubit_state(qubit)
        psi = extract @ error_channel(0.15) @ encode @ psi0
        _, collapsed, _ = qnd_measure_F(psi, np.random.default_rng(7), force_outcome=4)
        final = encode.conj().T @ recover @ collapsed
        assert abs(np.vdot(psi0, final)) ** 2 > 0.999


@pytest.fixture(scope="module")
def synthesized():
    from unimap.cesium import CesiumParams, build_restricted_system
    from unimap.ec import synthesize_ec_maps
    from unimap.search import default_search_config

    params = CesiumParams()
    cfg = default_search_config(
        build_restricted_system(params),
        fidelity_goal=0.999,
        max_iterations=3000,
        seed=11,
        restarts=2,
    )
    return synthesize_ec_maps(params, cfg)


class TestSynthesizedMaps:
    def test_step_searches_succeed(self, synthesized):
        _, reports = synthesized
        for rep in reports:
            assert all(rep.converged)
            assert all(f >= 0.99 for f in rep.step_fidelities)

    def test_subspace_fidelities_comparable(self, synthesized):
        # state maps at >= 0.99 must yield subspace maps of similar quality
        _, reports = synthesized
        for rep in reports:
            assert rep.subspace_fidelity >= 0.98

    def test_aux_switching_convention(self, synthesized):
        from unimap.ec import _aux_for_reflection
        from unimap.subspace import plan_subspace_map

        _, reports = synthesized
        # the extraction map touches |4,4_z> then |4,-4_z>: aux must switch
        extract = ec_map_specs()[1]
        assert tuple(_aux_for_reflection(step.reflection) for step in plan_subspace_map(extract)) == (4, -4)
        # every map uses exactly two searches (n = 2, nothing skipped)
        for rep in reports:
            assert len(rep.step_fidelities) == 2

    def test_maps_unitary_on_sim_space(self, synthesized):
        maps, _ = synthesized
        for m in maps:
            assert np.abs(m.conj().T @ m - np.eye(9)).max() < 1e-10

    def test_protocol_still_orders_curves(self, synthesized):
        # robustness survives imperfect maps once dephasing dominates the
        # map-error floor
        maps, _ = synthesized
        cfg = ECConfig(epsilon_grid=(0.1, 0.2), samples=100, seed=3)
        res = ec_sweep(cfg, maps)
        assert res.corrected[0] >= res.uncorrected[0] - 1e-3
        assert res.corrected[1] >= res.uncorrected[1] - 1e-3
        assert res.trigger_rate[1] > 0


class TestSweep:
    def test_determinism(self, ideal_maps):
        cfg = ECConfig(epsilon_grid=(0.05, 0.15), samples=25, seed=9)
        a = ec_sweep(cfg, ideal_maps)
        b = ec_sweep(cfg, ideal_maps)
        assert a == b

    def test_zero_epsilon_single_sample(self, ideal_maps):
        cfg = ECConfig(epsilon_grid=(0.0,), samples=1, seed=0)
        res = ec_sweep(cfg, ideal_maps)
        assert res.corrected[0] >= 1 - 1e-10

    def test_axes_average_mode(self, ideal_maps):
        cfg = ECConfig(epsilon_grid=(0.1,), samples=50, seed=1, average="axes")
        res = ec_sweep(cfg, ideal_maps)
        # 2-design average of the uncorrected curve has a closed form:
        # E F = 1 - 2 E[x(1-x)] (1 - cos 2eps) with E[x(1-x)] = 1/6 over
        # the six axis states as well
        want = 1 - (2 / 6) * (1 - np.cos(0.2))
        assert res.uncorrected[0] == pytest.approx(want, abs=1e-12)

    def test_axes_mode_draws_nothing(self, ideal_maps, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("axes mode built an rng")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        res = ec_sweep(ECConfig(epsilon_grid=(0.1, 0.2), average="axes"), ideal_maps)
        assert res.trigger_rate[1] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ECConfig(epsilon_grid=(), samples=10)
        with pytest.raises(ValueError):
            ECConfig(epsilon_grid=(0.1,), samples=0)
        with pytest.raises(ValueError, match="average"):
            ECConfig(epsilon_grid=(0.1,), samples=1, average="other")

    def test_trigger_rate_matches_projector_oracle(self, ideal_maps):
        # at eps = 0.2 the syndrome fires; the rate is the exact branch
        # probability averaged over the same sampled states
        eps, n, seed = 0.2, 400, 13
        cfg = ECConfig(epsilon_grid=(eps,), samples=n, seed=seed)
        res = ec_sweep(cfg, ideal_maps)
        encode, extract, _ = ideal_maps
        p4_sum = 0.0
        rng = np.random.default_rng(seed)
        for _ in range(n):
            qubit = haar_random_state(2, rng)
            psi = extract @ error_channel(eps) @ encode @ physical_qubit_state(qubit)
            p4_sum += float(np.sum(np.abs(psi[7:]) ** 2))
        assert res.trigger_rate[0] > 0
        assert abs(res.trigger_rate[0] - p4_sum / n) <= 1e-12

    def test_every_error_angle_averages_the_same_states(self, ideal_maps):
        # the sweep draws its qubits once, so a grid's rows equal one-angle sweeps bit for bit
        both = ec_sweep(ECConfig(epsilon_grid=(0.1, 0.25), samples=50, seed=3), ideal_maps)
        for i, eps in enumerate(both.epsilon):
            one = ec_sweep(ECConfig(epsilon_grid=(eps,), samples=50, seed=3), ideal_maps)
            assert (one.corrected[0], one.uncorrected[0], one.trigger_rate[0]) == (
                both.corrected[i], both.uncorrected[i], both.trigger_rate[i])

    def test_axes_average_equals_rotated_octahedron(self, ideal_maps):
        # both curves and the trigger rate are at most quadratic in the
        # qubit's density matrix, so any 2-design gives the same average
        rng = np.random.default_rng(21)
        cfg = ECConfig(epsilon_grid=(0.05, 0.2, 0.3), average="axes")
        res = ec_sweep(cfg, ideal_maps)
        rotation = haar_random_unitary(2, rng)
        rotated = np.array(BLOCH_AXIS_STATES) @ rotation.T
        for i, eps in enumerate(cfg.epsilon_grid):
            fc, fu, p4 = run_ec_trials(rotated, eps, ideal_maps)
            assert abs(res.corrected[i] - fc.mean()) <= 1e-12
            assert abs(res.uncorrected[i] - fu.mean()) <= 1e-12
            assert abs(res.trigger_rate[i] - p4.mean()) <= 1e-12


def _reference_trial(qubit, eps, maps):
    """One state at a time: sum over both outcomes o of p_o F_o, from forced measurements.

    Returns (expected corrected fidelity, uncorrected fidelity, P(F=4)).
    """
    psi0 = physical_qubit_state(qubit)
    err = error_channel(eps)
    uncorrected = min(float(abs(np.vdot(psi0, err @ psi0)) ** 2), 1.0)
    encode, extract, recover = maps
    psi = extract @ (err @ (encode @ psi0))
    corrected = p4 = 0.0
    for outcome, part in ((3, psi[:7]), (4, psi[7:])):
        if np.sum(np.abs(part) ** 2) <= 1e-30:
            continue  # the measurement rejects a branch it can never read
        _, collapsed, p = qnd_measure_F(psi, None, force_outcome=outcome)
        if outcome == 4:
            collapsed, p4 = recover @ collapsed, p
        corrected += p * abs(np.vdot(psi0, encode.conj().T @ collapsed)) ** 2
    return corrected, uncorrected, p4


def _reference_sweep(cfg, maps):
    """One state at a time through the branch reference, summed in trial order.

    The qubits are drawn once, before the error angles, from one generator.
    """
    if cfg.average == "axes":
        qubits = BLOCH_AXIS_STATES
    else:
        rng = np.random.default_rng(cfg.seed)
        qubits = [haar_random_state(2, rng) for _ in range(cfg.samples)]
    corrected, uncorrected, trigger = [], [], []
    for eps in cfg.epsilon_grid:
        rows = [_reference_trial(q, eps, maps) for q in qubits]
        corrected.append(sum(r[0] for r in rows) / len(rows))
        uncorrected.append(sum(r[1] for r in rows) / len(rows))
        trigger.append(sum(r[2] for r in rows) / len(rows))
    return corrected, uncorrected, trigger


class TestBatchedTrials:
    @pytest.mark.parametrize("average", ["haar", "axes"])
    @pytest.mark.parametrize("seed", [4, 17])
    def test_sweep_matches_per_trial_reference(self, ideal_maps, average, seed):
        cfg = ECConfig(epsilon_grid=(0.0, 0.05, 0.15, 0.3), samples=150, seed=seed, average=average)
        res = ec_sweep(cfg, ideal_maps)
        corrected, uncorrected, trigger = _reference_sweep(cfg, ideal_maps)
        assert np.abs(np.subtract(res.corrected, corrected)).max() <= 1e-12
        assert np.abs(np.subtract(res.uncorrected, uncorrected)).max() <= 1e-12
        assert np.abs(np.subtract(res.trigger_rate, trigger)).max() <= 1e-12
        assert res.trigger_rate[-1] > 0

    def test_rows_match_single_trials(self, ideal_maps):
        rng = np.random.default_rng(8)
        qubits = np.array([haar_random_state(2, rng) for _ in range(40)])
        fc, fu, p4 = run_ec_trials(qubits, 0.25, ideal_maps)
        assert np.all((p4 > 1e-6) & (p4 < 1 - 1e-6))
        for i in range(40):
            want_c, want_u, want_p4 = _reference_trial(qubits[i], 0.25, ideal_maps)
            assert fc[i] == pytest.approx(want_c, abs=1e-12)
            assert fu[i] == pytest.approx(want_u, abs=1e-12)
            assert p4[i] == pytest.approx(want_p4, abs=1e-12)

    def test_rejects_bad_input(self, ideal_maps):
        good = np.array([BLOCH_AXIS_STATES[0]])
        with pytest.raises(ValueError, match="shape"):
            run_ec_trials(good[0], 0.1, ideal_maps)
        with pytest.raises(ValueError, match="shape"):
            run_ec_trials(np.zeros((1, 3)), 0.1, ideal_maps)
        with pytest.raises(ValueError, match="unit norm"):
            run_ec_trials(2 * good, 0.1, ideal_maps)
        with pytest.raises(ValueError, match="unit norm"):
            run_ec_trials(np.array([[np.nan, 1.0]]), 0.1, ideal_maps)
        with pytest.raises(ValueError, match="finite"):
            run_ec_trials(good, float("nan"), ideal_maps)
        with pytest.raises(ValueError, match="norm"):
            run_ec_trials(good, 0.1, tuple(2 * m for m in ideal_maps))


def test_synthesized_maps_equal_two_propagation_form(fixed_search):
    # each pi-rotation phases about the fiducial row of the one propagator
    # it computed, written into its aux system's levels; the maps must equal
    # the rank-one product built from a second propagation of the same
    # waveforms, and the 8-level V† P V lifted into the 9 levels to rounding
    import unimap.ec
    import unimap.subspace
    from unimap.cesium import CesiumParams, build_restricted_system
    from conftest import apply_adjoint, diag_phase
    from unimap.control import propagate
    from unimap.search import default_search_config
    from unimap.subspace import _rank_one, phase_correction_factor, plan_subspace_map

    params = CesiumParams()
    handed_out = fixed_search(unimap.subspace)
    maps, _ = unimap.ec.synthesize_ec_maps(params, default_search_config(build_restricted_system(params)))
    calls = iter(handed_out)
    for spec, got in zip(ec_map_specs(), maps):
        steps = plan_subspace_map(spec)
        expected = np.eye(9, dtype=complex)
        conjugated = np.eye(9, dtype=complex)
        for step in steps:
            if step.skipped:
                continue
            sys8, wave = next(calls)
            aux = unimap.ec._aux_for_reflection(step.reflection)
            assert sys8.name == build_restricted_system(params, aux=aux).name
            levels = unimap.ec._aux_levels(aux)
            v8 = propagate(sys8, wave)
            chi = np.zeros(9, dtype=complex)
            chi[levels] = v8[sys8.fiducial_index].conj()
            expected = _rank_one(chi, np.exp(-1j * np.pi) - 1.0) @ expected
            s9 = np.eye(9, dtype=complex)
            s9[np.ix_(levels, levels)] = apply_adjoint(sys8, wave) @ diag_phase(8, sys8.fiducial_index, np.pi) @ v8
            conjugated = s9 @ conjugated
        if spec.phase_correction:
            expected = phase_correction_factor(steps, spec) @ expected
            conjugated = phase_correction_factor(steps, spec) @ conjugated
        assert np.array_equal(got, expected)
        assert np.abs(got - conjugated).max() < 1e-12
    assert len(handed_out) == 6 and next(calls, None) is None
