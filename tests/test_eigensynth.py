"""Eigen-decomposition assembly of full unitaries."""

import numpy as np
import pytest

from conftest import apply_adjoint, assert_carries_its_propagator, diag_phase
import unimap.subspace
from unimap.cesium import CONTROL_NAMES, CesiumParams
from unimap.control import Waveform, propagate
from unimap.core import basis_state, haar_random_state, haar_random_unitary
from unimap.eigensynth import plan_unitary, synthesize_unitary
from unimap.gates import gate_from_name
from unimap.search import default_search_config
from unimap.subspace import ExactMapper, SearchedMapper, _rank_one, pair_rotation, phase_product


class GivenMapper:
    """Test mapper whose V for each vector is handed in, imprinting on level 0: chi = V†e_0."""

    def __init__(self, dim, v_of):
        self.dim = dim
        self.v_of = v_of

    def map(self, phi):
        return self.v_of(phi).conj().T @ basis_state(self.dim, 0), None


def plan_pairs(w):
    """The (phi or None, theta) steps that synthesize_unitary builds from a target."""
    return [(None if s.skippable else s.eigenvector, s.phase) for s in plan_unitary(w)]


def product(pairs, mapper):
    return phase_product(mapper.dim, pairs, mapper, score=lambda u: 0.0).assembled


class TestPlan:
    def test_identity_all_skippable(self):
        steps = plan_unitary(np.eye(5))
        assert all(s.skippable for s in steps)

    def test_single_imprint_target(self):
        lam = 1.9
        w = diag_phase(4, 0, lam)
        steps = plan_unitary(w)
        active = [s for s in steps if not s.skippable]
        assert len(active) == 1
        assert active[0].phase == pytest.approx(lam, abs=1e-12)
        assert abs(abs(active[0].eigenvector[0]) - 1) < 1e-12

    def test_reassembly(self):
        rng = np.random.default_rng(0)
        w = haar_random_unitary(7, rng)
        steps = plan_unitary(w)
        total = sum(
            np.exp(-1j * s.phase) * np.outer(s.eigenvector, s.eigenvector.conj()) for s in steps
        )
        assert np.abs(total - w).max() < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            plan_unitary(np.ones((3, 3)))


class TestExactMapper:
    def test_fiducial_input(self):
        chi, result = ExactMapper(4).map(basis_state(4, 0))
        assert np.array_equal(chi, basis_state(4, 0)) and result is None
        assert np.abs(product([(chi, 0.9)], ExactMapper(4)) - diag_phase(4, 0, 0.9)).max() < 1e-12
        rep = phase_product(4, [(chi, 0.9)], ExactMapper(4), score=lambda u: 0.0)
        assert rep.steps[0].theta == 0.9 and rep.step_fidelities == (1.0,)

    def test_swap_case(self):
        chi, result = ExactMapper(2).map(basis_state(2, 1))
        assert result is None and np.array_equal(chi, basis_state(2, 1))

    def test_haar_contract_d16(self):
        rng = np.random.default_rng(1)
        phi = haar_random_state(16, rng)
        _, result = ExactMapper(16).map(phi)
        factor = product([(phi, 2.5)], ExactMapper(16))
        assert result is None
        # the factor imprints the phase on phi and nowhere else
        assert np.linalg.norm(factor @ phi - np.exp(-2.5j) * phi) < 1e-12

    def test_rejects_vector_of_wrong_dimension_or_norm(self):
        with pytest.raises(ValueError, match="dimension"):
            ExactMapper(4).map(basis_state(3, 0))
        with pytest.raises(ValueError, match="norm"):
            ExactMapper(4).map(2 * basis_state(4, 0))

    @pytest.mark.parametrize("fid", [0, 3, 7])
    def test_any_fiducial_index(self, fid):
        # the closed form is V† P(theta) V for the exact reflection V sending
        # phi to any fiducial state
        rng = np.random.default_rng(fid)
        phi = haar_random_state(8, rng)
        v, _ = pair_rotation(phi, basis_state(8, fid))
        want = v.conj().T @ diag_phase(8, fid, 1.0) @ v
        _, result = ExactMapper(8).map(phi)
        assert np.abs(product([(phi, 1.0)], ExactMapper(8)) - want).max() <= 1e-12
        assert result is None


class TestAssemble:
    def test_all_skippable_gives_identity(self):
        assert np.array_equal(synthesize_unitary(np.eye(6), ExactMapper(6)).assembled, np.eye(6))

    def test_single_manual_step(self):
        lam = 0.77
        got = product([(basis_state(3, 0), lam)], GivenMapper(3, lambda phi: np.eye(3, dtype=complex)))
        assert np.abs(got - diag_phase(3, 0, lam)).max() < 1e-14

    @pytest.mark.parametrize("d", list(range(2, 9)))
    def test_exact_haar_targets(self, d):
        rng = np.random.default_rng(d)
        w = haar_random_unitary(d, rng)
        report = synthesize_unitary(w, ExactMapper(d))
        assert report.fidelity >= 1 - 1e-10

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        pairs = plan_pairs(haar_random_unitary(6, rng))
        a = product(pairs, ExactMapper(6))
        b = product(pairs[::-1], ExactMapper(6))
        assert np.abs(a - b).max() < 1e-10

    @pytest.mark.parametrize("noise_scale", [0.005, 0.05])
    def test_permutation_bound_with_imperfect_mappers(self, noise_scale):
        # each factor is an exact phase imprint on a slightly wrong vector,
        # so reordering moves the product by at most
        # sum_j 2 |e^{-i lam_j} - 1| sqrt(1 - J_j) in operator norm
        from unimap.core import mat_exp

        rng = np.random.default_rng(6)
        w = haar_random_unitary(5, rng)
        pairs = plan_pairs(w)
        given = []
        budget = 0.0
        fiducial = basis_state(5, 0)
        for phi, lam in pairs:
            noise = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            v = mat_exp((noise + noise.conj().T) / 2, noise_scale) @ pair_rotation(phi, fiducial)[0]
            fid = abs(np.vdot(fiducial, v @ phi)) ** 2
            budget += 2 * abs(np.exp(-1j * lam) - 1) * np.sqrt(max(1 - fid, 0.0))
            given.append((phi, v))
        mapper = GivenMapper(5, lambda phi: next(v for p, v in given if p is phi))
        a = product(pairs, mapper)
        b = product(pairs[::-1], mapper)
        moved = float(np.linalg.norm(a - b, ord=2))
        assert moved <= budget + 1e-9


class TestSynthesizeExact:
    def test_skipped_accounting(self):
        # two unit eigenvalues -> two skipped steps, d - 2 searches max
        rng = np.random.default_rng(7)
        v = haar_random_unitary(5, rng)
        phases = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
        w = (v * np.exp(-1j * phases)) @ v.conj().T
        report = synthesize_unitary(w, ExactMapper(5))
        assert sum(step.skipped for step in report.steps) == 2
        assert sum(not step.skipped for step in report.steps) == 3
        assert report.fidelity >= 1 - 1e-10

    def test_one_entry_per_active_step_and_no_searches(self):
        rng = np.random.default_rng(7)
        v = haar_random_unitary(5, rng)
        w = (v * np.exp(-1j * np.array([0.0, 0.5, 1.0, 2.0, 3.0]))) @ v.conj().T
        report = synthesize_unitary(w, ExactMapper(5))
        active = [step for step in report.steps if not step.skipped]
        assert len(active) == 4 and all(step.result is None for step in report.steps)
        assert report.step_fidelities == (1.0,) * 4 and report.searches_performed == 0

    def test_error_bound_with_exact_mappers(self):
        rng = np.random.default_rng(8)
        w = haar_random_unitary(8, rng)
        report = synthesize_unitary(w, ExactMapper(8))
        budget = 4 * sum(1 - fid for fid in report.step_fidelities) + 1e-9
        assert 1 - report.fidelity <= budget

    def test_dimension_mismatch_even_without_active_steps(self):
        with pytest.raises(ValueError, match="dimension"):
            synthesize_unitary(np.eye(7), ExactMapper(8))


class TestSynthesizeWaveform:
    def test_identity_zero_searches(self, cesium):
        cfg = default_search_config(cesium, seed=0, max_iterations=100)
        report = synthesize_unitary(np.eye(8), SearchedMapper(cesium, cfg))
        assert len(report.steps) == 8 and all(step.skipped and step.result is None for step in report.steps)
        assert report.fidelity == pytest.approx(1.0)

    def test_fiducial_imprint_trivial_search(self, cesium):
        w = diag_phase(8, 7, np.pi)
        cfg = default_search_config(cesium, seed=1, max_iterations=200)
        report = synthesize_unitary(w, SearchedMapper(cesium, cfg))
        (step,) = [step for step in report.steps if not step.skipped]
        assert step.result is not None and step.result.converged
        assert report.fidelity >= 1 - 1e-10

    def test_dimension_mismatch(self, cesium):
        cfg = default_search_config(cesium, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            synthesize_unitary(np.eye(7), SearchedMapper(cesium, cfg))

    def test_search_count_equals_active_phases(self, cesium):
        rng = np.random.default_rng(9)
        v = haar_random_unitary(8, rng)
        phases = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 1.8, 2.7])
        w = (v * np.exp(-1j * phases)) @ v.conj().T
        cfg = default_search_config(cesium, seed=2, max_iterations=400, fidelity_goal=0.995)
        report = synthesize_unitary(w, SearchedMapper(cesium, cfg))
        searched = [step.result for step in report.steps if step.result is not None]
        assert len(searched) == 3 == sum(not step.skipped for step in report.steps)
        assert len(report.steps) == 8
        assert sum(result.waveform.total_duration for result in searched) > 0

    def test_report_fidelity_recomputable(self, cesium):
        from unimap.core import trace_fidelity

        rng = np.random.default_rng(10)
        v = haar_random_unitary(8, rng)
        phases = np.zeros(8)
        phases[:2] = [1.1, 2.2]
        w = (v * np.exp(-1j * phases)) @ v.conj().T
        cfg = default_search_config(cesium, seed=3, max_iterations=400, fidelity_goal=0.99)
        report = synthesize_unitary(w, SearchedMapper(cesium, cfg))
        assert abs(report.fidelity - trace_fidelity(w, report.assembled)) < 1e-12

    def test_assembled_equals_two_propagation_form(self, cesium, fixed_search):
        # each step phases about the fiducial row of the one propagator it
        # computed; the result must equal the rank-one product built from a
        # second propagation of the same waveforms, and V† P V to rounding
        handed_out = fixed_search(unimap.subspace)
        w = haar_random_unitary(8, np.random.default_rng(11))
        report = synthesize_unitary(w, SearchedMapper(cesium, default_search_config(cesium)))
        active = [s for s in plan_unitary(w) if not s.skippable]
        assert len(active) == len(handed_out) == 8
        expected = np.eye(8, dtype=complex)
        conjugated = np.eye(8, dtype=complex)
        for step, (sys_m, wave) in zip(active, handed_out):
            v = propagate(sys_m, wave)
            expected = _rank_one(v[sys_m.fiducial_index].conj(), np.exp(-1j * step.phase) - 1.0) @ expected
            imprint = diag_phase(8, sys_m.fiducial_index, step.phase)
            conjugated = apply_adjoint(sys_m, wave) @ imprint @ v @ conjugated
        assert np.array_equal(report.assembled, expected)
        assert np.abs(report.assembled - conjugated).max() < 1e-12

    def test_played_sequence_matches_assembled(self, cesium):
        # each factor played as V, one light-shift segment of
        # theta / lightshift_max at amplitude 1, then V reversed with its
        # amplitudes negated, which plays V† when no drift acts
        target = np.eye(8, dtype=complex)
        target[:3, :3] = gate_from_name("Z", 3)
        cfg = default_search_config(cesium, seed=0, fidelity_goal=0.99, max_iterations=5000, restarts=3)
        report = synthesize_unitary(target, SearchedMapper(cesium, cfg))
        active = [step for step in report.steps if not step.skipped]
        assert len(active) == 2
        light = np.eye(cesium.n_controls)[CONTROL_NAMES.index("light_shift")]
        segments = []
        for step in active:
            v = step.result.waveform
            imprint = ([step.theta / CesiumParams().lightshift_max], [light])
            segments += [(v.durations, v.amplitudes), imprint, (v.durations[::-1], -v.amplitudes[::-1])]
        durations, amplitudes = zip(*segments)
        played = Waveform(np.concatenate(durations), np.concatenate(amplitudes))
        assert np.abs(propagate(cesium, played) - report.assembled).max() < 1e-10


@pytest.mark.parametrize("gate, pairs", [("G:3", 2), ("X", 3)])
def test_conjugate_eigenvectors_play_the_signed_partner_waveform(gate, pairs, count_calls):
    # a real gate's eigenvectors with phases lambda and 2 pi - lambda are complex
    # conjugates; at zero detuning conj(U(u)) = U(sigma u), so the later one of each
    # pair plays its partner's waveform with every control's amplitudes times sigma
    import unimap.search
    from unimap.cesium import build_restricted_system
    from unimap.search import objective_state_prep

    sigma = np.array([-1.0, 1.0, -1.0, 1.0, -1.0])
    searches = count_calls(unimap.search, "search_state_map")
    sys = build_restricted_system(CesiumParams())
    target = np.eye(8, dtype=complex)
    target[:7, :7] = gate_from_name(gate, 7)
    cfg = default_search_config(sys, fidelity_goal=0.999, restarts=1)
    report = synthesize_unitary(target, SearchedMapper(sys, cfg))
    plan = plan_unitary(target)
    active = [k for k, step in enumerate(plan) if not step.skippable]
    partner = {
        j: i for j in active for i in active
        if i < j and abs(np.vdot(plan[i].eigenvector.conj(), plan[j].eigenvector)) >= 1 - 1e-12
    }
    assert len(partner) == pairs and len(searches) == len(active) - pairs
    for j, i in partner.items():
        assert abs(plan[i].phase + plan[j].phase - 2 * np.pi) < 1e-9
        derived, source = report.steps[j].result, report.steps[i].result
        assert np.array_equal(derived.waveform.durations, source.waveform.durations)
        assert derived.waveform.amplitudes.tobytes() == (source.waveform.amplitudes * sigma).tobytes()
        fresh = objective_state_prep(sys, derived.waveform, plan[j].eigenvector, sys.fiducial_state())
        assert derived.fidelity == fresh
        assert abs(derived.fidelity - source.fidelity) <= 1e-12
        assert derived.converged and source.converged and derived.iterations == 0


def test_searched_steps_and_conjugate_images_carry_their_propagators(returned_results):
    # G:3 at d=7 runs 3 searches for 5 active steps; the other 2 play conjugate images
    from unimap.cesium import build_restricted_system

    sys = build_restricted_system(CesiumParams())
    target = np.eye(8, dtype=complex)
    target[:7, :7] = gate_from_name("G:3", 7)
    results = returned_results(unimap.subspace)
    synthesize_unitary(target, SearchedMapper(sys, default_search_config(sys, max_iterations=5, restarts=1)))
    assert sorted(res.iterations == 0 for _, res in results) == [False] * 3 + [True] * 2
    for system, res in results:
        assert_carries_its_propagator(system, res)
