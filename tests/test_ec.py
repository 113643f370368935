"""The embedded-qubit error-correction protocol and its sweep."""

import re

import numpy as np
import pytest

import unimap.ec
from conftest import searches_run
from unimap.cesium import x_basis_state
from unimap.core import as_state, haar_random_state, haar_random_unitary
from unimap.ec import (
    BLOCH_AXIS_STATES,
    EPS_LIMIT,
    ECConfig,
    FZ_SIM,
    SIM_DIM,
    ec_map_specs,
    ec_maps,
    ec_sweep,
    run_ec_trials,
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


def sim_x_state(m_x: float) -> np.ndarray:
    """|3, m_x> padded to the 9-level simulation space."""
    return np.pad(x_basis_state(3, m_x), (0, 2))


def error_channel(epsilon: float) -> np.ndarray:
    """Reference dephasing unitary exp(-2 i epsilon Fz) on the simulation space."""
    return np.diag(np.exp(-2j * epsilon * np.diag(FZ_SIM)))


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

    @pytest.mark.parametrize("m", [2.5, -0.4, 3.5, float("nan")])
    def test_rejects_non_integer_level(self, m):
        # a magnetic number names a level only when it is one, as x_basis_state requires
        with pytest.raises(ValueError, match="m_z"):
            sim_z_state(m)

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
            assert all(step.result.converged for step in rep.steps if not step.skipped)
            assert all(step.result.fidelity >= 0.99 for step in rep.steps if not step.skipped)

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
        # every map has exactly two searched steps (n = 2, nothing skipped)
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

    def test_largest_angle_sweeps_and_the_next_is_refused(self, ideal_maps):
        # 2 eps m at m = 4 is the largest finite float at EPS_LIMIT, and inf one ulp above it
        res = ec_sweep(ECConfig(epsilon_grid=(EPS_LIMIT, -EPS_LIMIT), average="axes"), ideal_maps)
        assert np.isfinite([res.corrected, res.uncorrected, res.trigger_rate]).all()
        above = float(np.nextafter(EPS_LIMIT, np.inf))
        with pytest.raises(ValueError, match=rf"^epsilon {re.escape(repr(above))} overflows the phases 2 eps m"):
            ECConfig(epsilon_grid=(0.1, above))

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

    @pytest.mark.parametrize("name, bad", [("seed", -1), ("seed", 1.5), ("samples", 2.5), ("samples", True)])
    def test_config_refuses_negative_seed_and_non_integer_counts(self, name, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= \d, got {bad}$"):
            ECConfig(**{"epsilon_grid": (0.1,), name: bad})

    @pytest.mark.parametrize("bad", ["0.1", True, None])
    def test_config_refuses_an_angle_that_is_not_a_number(self, bad):
        with pytest.raises(ValueError, match=rf"^epsilon_grid angle must be a number, got {bad!r}$"):
            ECConfig(epsilon_grid=(0.1, bad))

    @pytest.mark.parametrize("bad", [0.1, "0.1", ((0.1, 0.2),)])
    def test_config_refuses_a_grid_that_is_not_one_sequence(self, bad):
        # a scalar, a string and a nested grid are none of them one sequence of angles
        with pytest.raises(ValueError, match=rf"^epsilon_grid must be one sequence of angles, got {re.escape(repr(bad))}$"):
            ECConfig(epsilon_grid=bad)

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

    @pytest.mark.parametrize("average, seed", [("haar", 1), ("haar", 8), ("axes", 0)])
    def test_sweep_equals_single_angle_calls_bit_for_bit(self, ideal_maps, average, seed):
        # one batched call over the grid reproduces a loop of one-angle calls on
        # qubits drawn one haar_random_state at a time from the same seed
        cfg = ECConfig(epsilon_grid=(-0.1, 0.0, 0.02, 0.2278, 0.3), samples=200, seed=seed, average=average)
        res = ec_sweep(cfg, ideal_maps)
        if average == "axes":
            qubits = np.array(BLOCH_AXIS_STATES)
        else:
            rng = np.random.default_rng(seed)
            qubits = np.array([haar_random_state(2, rng) for _ in range(cfg.samples)])
        rows = [[float(r.mean()) for r in run_ec_trials(qubits, eps, ideal_maps)] for eps in cfg.epsilon_grid]
        assert (res.corrected, res.uncorrected, res.trigger_rate) == tuple(zip(*rows))

    @pytest.mark.parametrize("samples", [1, 7, 200, 1000])
    def test_haar_qubits_are_normalized_in_one_batch_bit_for_bit(self, monkeypatch, samples):
        # the batched norms give the bits of one haar_random_state(2, rng) call per qubit, with no norm call per qubit
        drawn, norm_calls, norm = [], [], np.linalg.norm
        monkeypatch.setattr(unimap.ec, "run_ec_trials",
                            lambda qubits, eps, maps: drawn.append(qubits) or (np.zeros((len(eps), len(qubits))),) * 3)
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **k: norm_calls.append(a) or norm(*a, **k))
        for seed in range(100):
            ec_sweep(ECConfig(epsilon_grid=(0.1,), samples=samples, seed=seed), maps=None)
        monkeypatch.undo()
        assert norm_calls == []
        for seed, qubits in enumerate(drawn):
            rng = np.random.default_rng(seed)
            assert qubits.tobytes() == np.array([haar_random_state(2, rng) for _ in range(samples)]).tobytes(), seed

    def test_angle_axis_shapes(self, ideal_maps):
        qubits = np.array(BLOCH_AXIS_STATES)
        assert [r.shape for r in run_ec_trials(qubits, 0.1, ideal_maps)] == [(6,)] * 3
        assert [r.shape for r in run_ec_trials(qubits, np.float64(0.1), ideal_maps)] == [(6,)] * 3
        batch = run_ec_trials(qubits, (0.1, 0.2, 0.3), ideal_maps)
        assert [r.shape for r in batch] == [(3, 6)] * 3
        for i, eps in enumerate((0.1, 0.2, 0.3)):
            for rows, one in zip(batch, run_ec_trials(qubits, eps, ideal_maps)):
                assert np.array_equal(rows[i], one)

    def test_rejects_bad_input(self, ideal_maps):
        good = np.array([BLOCH_AXIS_STATES[0]])
        with pytest.raises(ValueError, match="shape"):
            run_ec_trials(good[0], 0.1, ideal_maps)
        with pytest.raises(ValueError, match="shape"):
            run_ec_trials(np.zeros((1, 3)), 0.1, ideal_maps)
        with pytest.raises(ValueError, match="^qubit states must be finite with unit norm$"):
            run_ec_trials(2 * good, 0.1, ideal_maps)
        with pytest.raises(ValueError, match="^qubit states must be finite with unit norm$"):
            run_ec_trials(np.array([[np.nan, 1.0]]), 0.1, ideal_maps)
        with pytest.raises(ValueError, match="finite"):
            run_ec_trials(good, float("nan"), ideal_maps)
        with pytest.raises(ValueError, match="finite"):
            run_ec_trials(good, (0.1, float("inf")), ideal_maps)
        with pytest.raises(ValueError, match="sequence"):
            run_ec_trials(good, [[0.1, 0.2]], ideal_maps)
        with pytest.raises(ValueError, match="none above 2.24712e\\+307 in size"):
            run_ec_trials(good, (0.1, -1e308), ideal_maps)
        with pytest.raises(ValueError, match="^matrix is not unitary: U†U deviates from I by 3.000e\\+00$"):
            run_ec_trials(good, 0.1, tuple(2 * m for m in ideal_maps))
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            run_ec_trials(good, 0.1, tuple(np.full_like(m, np.nan) for m in ideal_maps))
        # a recovery map acts on no state whose norm is checked: times 2 it would score a corrected fidelity of 1
        # for every Bloch-axis state at eps = 0.3, and times 0 a fidelity of 0.58
        encode, extract, recover = ideal_maps
        for factor, defect in ((2, "3.000e+00"), (0, "1.000e+00")):
            message = f"matrix is not unitary: U†U deviates from I by {defect}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                run_ec_trials(np.array(BLOCH_AXIS_STATES), 0.3, (encode, extract, factor * recover))

    def test_zero_qubit_rows_pass(self, ideal_maps):
        # no qubit row to check is no row out of norm
        for epsilon, shape in ((0.1, (0,)), ((0.1, 0.2), (2, 0)), ((), (0, 0))):
            assert [r.shape for r in run_ec_trials(np.zeros((0, 2)), epsilon, ideal_maps)] == [shape] * 3


def test_repeated_state_map_shares_one_search(count_calls):
    # step 1 of encode and step 1 of recover both send |4,4_z> to |3,3_x> on the
    # aux +4 system, and the two aux -4 steps are mirror images of +4 steps, so
    # the six searched steps run three searches
    import unimap.search
    from unimap.cesium import CesiumParams, build_restricted_system
    from unimap.ec import _aux_levels, synthesize_ec_maps
    from unimap.search import default_search_config, multi_start
    from unimap.subspace import plan_subspace_map

    calls = count_calls(unimap.search, "search_state_map")
    params = CesiumParams()
    cfg = default_search_config(build_restricted_system(params), max_iterations=3, seed=5, restarts=2)
    _, (encode, extract, recover) = synthesize_ec_maps(params, cfg)
    searched = (encode.steps[0].result, encode.steps[1].result, extract.steps[0].result)
    assert len({(a[1].tobytes(), a[2].tobytes()) for a in calls}) == 3
    assert len(calls) == sum(searches_run(res, cfg) for res in searched)
    # both steps hold the one result that the aux +4 system keeps
    shared = encode.steps[0].result
    assert shared is recover.steps[0].result
    phi = plan_subspace_map(ec_map_specs()[0])[0].reflection[_aux_levels(+4)]
    aux4 = build_restricted_system(params, aux=+4)
    searched_on = calls[0][0]
    assert searched_on.name == aux4.name and any(kept is shared for kept in searched_on.kept_results.values())
    fresh = multi_start(aux4, phi / np.linalg.norm(phi), aux4.fiducial_state(), cfg)
    assert np.array_equal(fresh.waveform.amplitudes, shared.waveform.amplitudes)
    assert np.array_equal(fresh.waveform.durations, shared.waveform.durations)


def _planned_reflection(spec_index: int, step_index: int) -> np.ndarray:
    """The 9-level reflection vector of one planned EC step."""
    from unimap.subspace import plan_subspace_map

    return plan_subspace_map(ec_map_specs()[spec_index])[step_index].reflection


def test_mirror_image_steps_play_the_signed_source_waveform(count_calls):
    # step 2 of extract is the S_- image of step 1 of extract, and step 2 of
    # recover the S_+ image of step 1 of encode: each plays its source's
    # waveform with every control's amplitudes times that control's sign
    import unimap.search
    from unimap.cesium import AUX_MIRRORS, CesiumParams, build_restricted_system
    from unimap.control import _mirror_signs, propagate
    from unimap.ec import _aux_levels, synthesize_ec_maps
    from unimap.search import default_search_config

    calls = count_calls(unimap.search, "search_state_map")
    params = CesiumParams()
    plus, minus = build_restricted_system(params, aux=+4), build_restricted_system(params, aux=-4)
    cfg = default_search_config(plus, max_iterations=20, seed=5, restarts=2)
    _, (encode, extract, recover) = synthesize_ec_maps(params, cfg)
    searched = (encode.steps[0].result, encode.steps[1].result, extract.steps[0].result)
    assert len(calls) == sum(searches_run(res, cfg) for res in searched)
    for s, source, derived, spec_index in ((-1, extract.steps[0].result, extract.steps[1].result, 1),
                                           (+1, encode.steps[0].result, recover.steps[1].result, 2)):
        assert derived.iterations == 0
        signs = _mirror_signs(plus, minus, AUX_MIRRORS[s])
        assert np.array_equal(derived.waveform.durations, source.waveform.durations)
        assert derived.waveform.amplitudes.tobytes() == (source.waveform.amplitudes * signs).tobytes()
        phi8 = _planned_reflection(spec_index, 1)[_aux_levels(-4)]
        u = propagate(minus, derived.waveform)
        fresh = abs(np.vdot(minus.fiducial_state(), u @ phi8)) ** 2 / np.vdot(phi8, phi8).real
        assert abs(derived.fidelity - fresh) <= 1e-12
        assert abs(derived.fidelity - source.fidelity) <= 1e-12


@pytest.fixture
def ec_systems():
    """Fresh aux +4 and -4 systems, so no search result is kept from another test, and a short config."""
    from unimap.cesium import CesiumParams, build_restricted_system
    from unimap.search import default_search_config

    plus, minus = (build_restricted_system(CesiumParams(), aux=aux) for aux in (+4, -4))
    return plus, minus, default_search_config(plus, max_iterations=3, seed=5, restarts=2)


def _searches_per_step(mapper, count_calls, *planned) -> tuple[list[int], list]:
    """Searches the mapper runs for each planned (spec index, step index), in turn, and each step's result."""
    import unimap.search

    calls = count_calls(unimap.search, "search_state_map")
    counts, results = [], []
    for spec_index, step_index in planned:
        before = len(calls)
        results.append(mapper.map(_planned_reflection(spec_index, step_index))[1])
        counts.append(len(calls) - before)
    return counts, results


EXTRACT = ((1, 0), (1, 1))  # step 1 of extract on aux +4, then its mirror image step 2 on aux -4


def test_reflection_on_both_stretched_states_is_refused_before_any_search(ec_systems, count_calls):
    # each 8-level system holds one F=4 level, so no aux system can play this rotation
    import unimap.search

    calls = count_calls(unimap.search, "search_state_map")
    phi = np.zeros(SIM_DIM, dtype=complex)
    phi[[unimap.ec.IDX_44Z, unimap.ec.IDX_4M4Z]] = np.sqrt(0.5)
    with pytest.raises(ValueError, match="^rotation touches both F=4 stretched states; no single aux system fits$"):
        unimap.ec._aux_switching_mapper(*ec_systems).map(phi)
    assert calls == []


def test_mirror_image_of_a_recorded_plus_step_is_not_searched(ec_systems, count_calls):
    from unimap.ec import _aux_switching_mapper

    plus, minus, cfg = ec_systems
    mapper = _aux_switching_mapper(plus, minus, cfg)
    counts, (source, _) = _searches_per_step(mapper, count_calls, *EXTRACT)
    assert counts == [searches_run(source, cfg), 0]


def test_searched_steps_and_mirror_images_carry_their_propagators(ec_systems, returned_results):
    # the EC maps run 3 searches; 2 of the 6 rotations play aux mirror images on the -4 system
    import unimap.subspace
    from conftest import assert_carries_its_propagator
    from unimap.ec import _aux_switching_mapper
    from unimap.subspace import synthesize_subspace_map

    plus, minus, cfg = ec_systems
    results = returned_results(unimap.subspace)
    mapper = _aux_switching_mapper(plus, minus, cfg)
    for spec in ec_map_specs():
        synthesize_subspace_map(spec, mapper)
    assert sum(system is minus and res.iterations == 0 for system, res in results) == 2
    for system, res in results:
        assert_carries_its_propagator(system, res)


def test_minus_step_with_no_recorded_plus_image_is_searched(ec_systems, count_calls):
    from unimap.ec import _aux_switching_mapper

    plus, minus, cfg = ec_systems
    mapper = _aux_switching_mapper(plus, minus, cfg)
    counts, (res,) = _searches_per_step(mapper, count_calls, EXTRACT[1])
    assert counts == [searches_run(res, cfg)] and res.iterations > 0


def test_mirror_image_that_misses_a_goal_its_source_met_is_searched(ec_systems, count_calls, keep_result):
    # a kept +4 result that claims the goal, but whose waveform (and so its image) misses it
    from unimap.cesium import AUX_MIRRORS
    from unimap.control import Waveform, _mirror_signs, propagate
    from unimap.ec import _aux_levels, _aux_switching_mapper
    from unimap.search import SearchResult, objective_state_prep

    plus, minus, cfg = ec_systems
    mapper = _aux_switching_mapper(plus, minus, cfg)
    amps = np.random.default_rng(7).uniform(-1, 1, size=(cfg.segment_count, plus.n_controls))
    wave = Waveform(np.full(cfg.segment_count, cfg.segment_duration), amps)
    phi_plus = _planned_reflection(*EXTRACT[0])[_aux_levels(+4)]
    keep_result(plus, phi_plus / np.linalg.norm(phi_plus), plus.fiducial_state(), cfg,
                SearchResult(wave, 1.0, 0, True, np.array([1.0]), propagate(plus, wave)))
    phi_minus = _planned_reflection(*EXTRACT[1])[_aux_levels(-4)]
    image = Waveform(wave.durations, amps * _mirror_signs(plus, minus, AUX_MIRRORS[-1]))
    j = objective_state_prep(minus, image, phi_minus / np.linalg.norm(phi_minus), minus.fiducial_state())
    assert j < cfg.fidelity_goal
    counts, (res,) = _searches_per_step(mapper, count_calls, EXTRACT[1])
    assert counts == [searches_run(res, cfg)] and res.iterations > 0


def test_detuned_pair_derives_nothing(ec_systems, count_calls):
    # the drift check fails at any rf_detuning, so no mirror is added and the -4
    # step searches; a searched build refuses the detuned systems themselves
    from unimap.cesium import AUX_MIRRORS, CesiumParams, build_restricted_system
    from unimap.ec import _AuxSwitchingMapper, _aux_switching_mapper
    from unimap.search import add_symmetry
    from unimap.subspace import SearchedMapper

    plus, minus, cfg = ec_systems
    detuned = [build_restricted_system(CesiumParams(rf_detuning=2 * np.pi * 100), aux=aux) for aux in (+4, -4)]
    assert [add_symmetry(*detuned, mirror) for mirror in AUX_MIRRORS.values()] == [False, False]
    assert detuned[1].symmetries == []
    with pytest.raises(ValueError, match="drift-free"):
        _aux_switching_mapper(*detuned, cfg)
    # no mirror added on the undetuned pair either: its -4 step searches
    mapper = _AuxSwitchingMapper({+4: SearchedMapper(plus, cfg), -4: SearchedMapper(minus, cfg)})
    counts, results = _searches_per_step(mapper, count_calls, *EXTRACT)
    assert counts == [searches_run(res, cfg) for res in results]


def test_pair_with_an_unmirrored_control_derives_nothing(ec_systems, count_calls):
    import dataclasses

    from unimap.cesium import AUX_MIRRORS
    from unimap.ec import _aux_switching_mapper
    from unimap.search import add_symmetry

    plus, minus, cfg = ec_systems
    light = minus.controls[4].copy()
    light[6, 6] = light[7, 7]  # the light shift now moves |3,-3> as well
    unmirrored = dataclasses.replace(minus, controls=[*minus.controls[:4], light])
    assert [add_symmetry(plus, unmirrored, mirror) for mirror in AUX_MIRRORS.values()] == [False, False]
    mapper = _aux_switching_mapper(plus, unmirrored, cfg)
    assert unmirrored.symmetries == []
    counts, results = _searches_per_step(mapper, count_calls, *EXTRACT)
    assert counts == [searches_run(res, cfg) for res in results]


def test_searched_maps_leave_module_state_alone():
    # kept results and symmetries live on the systems they serve: a searched synthesis
    # grows no dict, list, set or weak container that a unimap module holds
    import weakref
    from sys import modules

    from unimap.cesium import AUX_MIRRORS, CesiumParams, build_restricted_system
    from unimap.ec import synthesize_ec_maps
    from unimap.search import add_symmetry, default_search_config

    containers = (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary, weakref.WeakSet)

    def sizes():
        return {
            (key, name): len(value)
            for key, module in list(modules.items()) if key.split(".")[0] == "unimap"
            for name, value in vars(module).items() if not name.startswith("__") and isinstance(value, containers)
        }

    before = sizes()
    plus, minus = (build_restricted_system(CesiumParams(), aux=aux) for aux in (+4, -4))
    synthesize_ec_maps(CesiumParams(), default_search_config(plus, max_iterations=0, restarts=1))
    assert add_symmetry(plus, minus, AUX_MIRRORS[+1])
    assert sizes() == before
    assert len(minus.symmetries) == 1


def test_synthesized_maps_equal_two_propagation_form(fixed_search):
    # each step phases its planned theta about the fiducial row of the one
    # propagator it computed, written into its aux system's levels; the maps
    # must equal the rank-one product built from a second propagation of the
    # same waveforms, and the 8-level V† P(theta) V lifted into the 9 levels
    # to rounding, with no factor beyond the played steps
    import unimap.ec
    import unimap.subspace
    from unimap.cesium import CesiumParams, build_restricted_system
    from conftest import apply_adjoint, diag_phase
    from unimap.control import propagate
    from unimap.search import default_search_config
    from unimap.subspace import _rank_one, plan_subspace_map

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
            expected = _rank_one(chi, np.exp(-1j * step.theta) - 1.0) @ expected
            s9 = np.eye(9, dtype=complex)
            s9[np.ix_(levels, levels)] = apply_adjoint(sys8, wave) @ diag_phase(8, sys8.fiducial_index, step.theta) @ v8
            conjugated = s9 @ conjugated
        assert np.array_equal(got, expected)
        assert np.abs(got - conjugated).max() < 1e-12
    assert len(handed_out) == 6 and next(calls, None) is None
