"""Subspace maps from exact phase steps: pair rotations, planning, assembly, synthesis."""

import numpy as np
import pytest

from conftest import apply_adjoint, diag_phase
import unimap.subspace
from unimap.cesium import CesiumParams, build_restricted_system, x_basis_state
from unimap.control import propagate
from unimap.core import basis_state, haar_random_state, haar_random_unitary
from unimap.ec import synthesize_ec_maps
from unimap.eigensynth import plan_unitary, synthesize_unitary
from unimap.search import default_search_config
from unimap.subspace import (
    ExactMapper,
    SearchedMapper,
    SubspaceMapSpec,
    _rank_one,
    naive_sequential_map,
    pair_rotation,
    phase_product,
    plan_subspace_map,
    subspace_fidelity,
    synthesize_subspace_map,
)


def factor(phi, theta, d=8):
    """I + (e^{-i theta} - 1)|phi><phi| as a d x d matrix; the identity when phi is None (a skipped step)."""
    if phi is None:
        return np.eye(d, dtype=complex)
    return np.eye(d, dtype=complex) + (np.exp(-1j * theta) - 1.0) * np.outer(phi, phi.conj())


def played_product(rep):
    """Product of the recorded factors I + (e^{-i theta} - 1)|chi><chi| over the report's steps, first rightmost."""
    d = rep.assembled.shape[0]
    acc = np.eye(d, dtype=complex)
    for step in rep.steps:
        acc = factor(step.chi, step.theta, d) @ acc
    return acc


def exact_map(spec):
    return synthesize_subspace_map(spec, ExactMapper(spec.dim)).assembled


def random_spec(n, d, seed, phase_correction=True):
    rng = np.random.default_rng(seed)
    u, v = haar_random_unitary(d, rng), haar_random_unitary(d, rng)
    return SubspaceMapSpec(
        source=tuple(u[:, i] for i in range(n)),
        target=tuple(v[:, i] for i in range(n)),
        phase_correction=phase_correction,
    )


class TestPairRotation:
    def test_refuses_vectors_of_different_dimensions(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 4$"):
            pair_rotation(basis_state(3, 0), basis_state(4, 1))

    def test_same_vector_identity(self):
        a = basis_state(4, 1)
        s, theta = pair_rotation(a, a)
        assert theta == 0.0
        assert np.array_equal(s, np.eye(4))

    def test_orthogonal_swap(self):
        s, theta = pair_rotation(basis_state(4, 0), basis_state(4, 1))
        assert theta == 0.0
        assert np.abs(s @ basis_state(4, 0) - basis_state(4, 1)).max() < 1e-12
        assert np.abs(s @ basis_state(4, 1) - basis_state(4, 0)).max() < 1e-12
        for k in (2, 3):
            assert np.abs(s @ basis_state(4, k) - basis_state(4, k)).max() < 1e-12

    def test_phase_compensation(self):
        a = basis_state(2, 0)
        b = np.array([1.0, 1.0j]) / np.sqrt(2)
        s, theta = pair_rotation(a, b)
        assert theta == pytest.approx(np.angle(np.vdot(b, a)))
        assert np.linalg.norm(s @ a - np.exp(1j * theta) * b) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_involution_properties(self, seed):
        rng = np.random.default_rng(seed)
        a, b = haar_random_state(6, rng), haar_random_state(6, rng)
        s, theta = pair_rotation(a, b)
        assert np.abs(s - s.conj().T).max() < 1e-10  # Hermitian
        assert np.abs(s @ s - np.eye(6)).max() < 1e-10  # involution
        assert np.linalg.matrix_rank(np.eye(6) - s, tol=1e-10) <= 2
        assert np.linalg.norm(s @ a - np.exp(1j * theta) * b) < 1e-10

    def test_identity_on_complement(self):
        rng = np.random.default_rng(11)
        a, b = haar_random_state(5, rng), haar_random_state(5, rng)
        s, _ = pair_rotation(a, b)
        # orthonormal basis of span{a, b}, then project a probe out of it
        span, _ = np.linalg.qr(np.column_stack([a, b]))
        v = haar_random_state(5, rng)
        v = v - span @ (span.conj().T @ v)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(s @ v - v) < 1e-10

    def test_reflection_eigenvector(self):
        rng = np.random.default_rng(12)
        a, b = haar_random_state(4, rng), haar_random_state(4, rng)
        s, theta = pair_rotation(a, b)
        phi = a - np.exp(1j * theta) * b
        phi /= np.linalg.norm(phi)
        assert np.linalg.norm(s @ phi + phi) < 1e-10  # S phi = -phi


class TestPlan:
    def test_equal_bases_all_skipped(self):
        spec = SubspaceMapSpec(
            source=(basis_state(4, 0), basis_state(4, 2)),
            target=(basis_state(4, 0), basis_state(4, 2)),
        )
        steps = plan_subspace_map(spec)
        assert all(s.skipped for s in steps)

    def test_single_vector_matches_pair_rotation(self):
        # without phase correction the one step is the pair rotation, landing on its rephased target
        rng = np.random.default_rng(1)
        a, b = haar_random_state(5, rng), haar_random_state(5, rng)
        spec = SubspaceMapSpec(source=(a,), target=(b,), phase_correction=False)
        steps = plan_subspace_map(spec)
        s_direct, theta = pair_rotation(a, b)
        assert len(steps) == 1 and steps[0].theta == np.pi
        assert np.linalg.norm(steps[0].target - np.exp(1j * theta) * b) < 1e-12
        assert np.array_equal(np.eye(5) - 2.0 * np.outer(steps[0].reflection, steps[0].reflection.conj()), s_direct)
        assert np.abs(factor(steps[0].reflection, steps[0].theta, 5) - s_direct).max() < 1e-12

    def test_induction_lemma(self):
        spec = random_spec(3, 8, seed=2)
        steps = plan_subspace_map(spec)
        for j in range(len(steps)):
            for k in range(j):
                assert abs(np.vdot(steps[j].rotated_source, steps[k].target)) < 1e-9

    def test_later_rotations_fix_earlier_targets(self):
        for seed in range(10):
            spec = random_spec(4, 8, seed=100 + seed)
            steps = plan_subspace_map(spec)
            for j, step in enumerate(steps):
                s = factor(step.reflection, step.theta)
                for k in range(j):
                    b_k = steps[k].target
                    assert np.linalg.norm(s @ b_k - b_k) < 1e-9

    def test_rejects_non_orthonormal(self):
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="source vectors 0 and 1"):
            SubspaceMapSpec(source=(basis_state(3, 0), v), target=(basis_state(3, 1), basis_state(3, 2)))


class TestSpecValidation:
    def _skewed(self, d):
        """Unit vectors 0..3 in dimension d whose only overlaps are the pairs (1, 2) and (0, 3)."""
        e = [basis_state(d, k) for k in range(d)]
        return (e[0], e[1], (e[1] + e[4]) / np.sqrt(2), (e[0] + e[3]) / np.sqrt(2))

    def test_non_orthogonal_source_names_first_pair(self):
        target = tuple(basis_state(5, k) for k in range(4))
        with pytest.raises(ValueError, match=r"^source vectors 0 and 3 are not orthogonal \(\|overlap\| = 7\.071e-01\)$"):
            SubspaceMapSpec(source=self._skewed(5), target=target)

    def test_non_orthogonal_target_names_first_pair(self):
        source = tuple(basis_state(5, k) for k in range(4))
        with pytest.raises(ValueError, match=r"^target vectors 0 and 3 are not orthogonal \(\|overlap\| = 7\.071e-01\)$"):
            SubspaceMapSpec(source=source, target=self._skewed(5))

    def test_source_checked_before_target(self):
        with pytest.raises(ValueError, match="^source vectors 0 and 3"):
            SubspaceMapSpec(source=self._skewed(5), target=self._skewed(5))

    def test_overlap_at_tolerance_accepted(self):
        target = (basis_state(3, 0), basis_state(3, 2))
        v = np.array([1.0, 1e-10, 0.0])
        assert SubspaceMapSpec(source=(basis_state(3, 1), v / np.linalg.norm(v)), target=target).n == 2
        w = np.array([1.0, 2e-10, 0.0])
        with pytest.raises(ValueError, match="^source vectors 0 and 1"):
            SubspaceMapSpec(source=(basis_state(3, 1), w / np.linalg.norm(w)), target=target)

    @pytest.mark.parametrize("label", ["source", "target"])
    def test_mixed_dimensions(self, label):
        good = (basis_state(3, 0), basis_state(3, 1))
        mixed = (basis_state(3, 0), basis_state(4, 1))
        bases = {"source": good, "target": good, label: mixed}
        with pytest.raises(ValueError, match=f"^{label} vectors have mixed dimensions$"):
            SubspaceMapSpec(**bases)

    def test_target_dimension_differs_from_source(self):
        with pytest.raises(ValueError, match="^target vectors have mixed dimensions$"):
            SubspaceMapSpec(source=(basis_state(3, 0),), target=(basis_state(4, 0),))

    def test_more_vectors_than_levels(self):
        three = (basis_state(2, 0), basis_state(2, 1), basis_state(2, 0))
        with pytest.raises(ValueError, match="^basis size 3 exceeds dimension 2$"):
            SubspaceMapSpec(source=three, target=three)

    @pytest.mark.parametrize("n_source, n_target", [(0, 0), (2, 1), (1, 2), (0, 1)])
    def test_empty_or_unequal_bases(self, n_source, n_target):
        basis = (basis_state(3, 0), basis_state(3, 1))
        with pytest.raises(ValueError, match="^source and target must be non-empty bases of equal size$"):
            SubspaceMapSpec(source=basis[:n_source], target=basis[:n_target])


class TestAssemble:
    def test_full_identity(self):
        basis = tuple(basis_state(4, k) for k in range(4))
        spec = SubspaceMapSpec(source=basis, target=basis)
        t = exact_map(spec)
        assert np.array_equal(t, np.eye(4))

    def test_random_maps_exact(self):
        for seed in range(8):
            spec = random_spec(4, 8, seed=200 + seed)
            t = exact_map(spec)
            assert np.abs(t.conj().T @ t - np.eye(8)).max() < 1e-10
            for a, b in zip(spec.source, spec.target):
                assert np.linalg.norm(t @ a - b) < 1e-9

    def test_phase_correction_off_records_phases(self):
        spec = random_spec(3, 6, seed=33, phase_correction=False)
        steps = plan_subspace_map(spec)
        t = exact_map(spec)
        for step, a, b in zip(steps, spec.source, spec.target):
            # the target is b times a unit phase, real and positive against the rotated source
            overlap = np.vdot(step.target, step.rotated_source)
            assert abs(abs(np.vdot(b, step.target)) - 1) < 1e-12 and abs(overlap.imag) < 1e-12 and overlap.real > 0
            assert np.linalg.norm(t @ a - step.target) < 1e-12

    @pytest.mark.parametrize("phase_correction", [True, False])
    def test_haar_specs_land_exactly(self, phase_correction):
        # every a_i lands on b_i, or on its rephased b_i without phase correction
        rng = np.random.default_rng(301)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d + 1))
            u, v = haar_random_unitary(d, rng), haar_random_unitary(d, rng)
            spec = SubspaceMapSpec(tuple(u[:, :n].T), tuple(v[:, :n].T), phase_correction=phase_correction)
            t = exact_map(spec)
            targets = [step.target for step in plan_subspace_map(spec)] if not phase_correction else spec.target
            for a, b in zip(spec.source, targets):
                assert np.linalg.norm(t @ a - b) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-8])
    def test_nearby_pair_with_complex_overlap_lands(self, gap):
        rng = np.random.default_rng(302)
        b = haar_random_state(5, rng)
        a = b + gap * haar_random_state(5, rng)
        a /= np.linalg.norm(a)
        assert gap / 2 < np.linalg.norm(a - b) < 2 * gap and abs(np.vdot(b, a).imag) > gap / 10
        spec = SubspaceMapSpec(source=(a,), target=(b,))
        (step,) = plan_subspace_map(spec)
        assert not step.skipped and step.theta != np.pi
        assert np.linalg.norm(exact_map(spec) @ a - b) <= 1e-12

    def test_phase_correction_off_plays_exact_reflections(self):
        spec = random_spec(4, 8, seed=303, phase_correction=False)
        rep = synthesize_subspace_map(spec, ExactMapper(8))
        for planned, step in zip(plan_subspace_map(spec), rep.steps):
            assert planned.theta == step.theta == np.pi
            s = np.eye(8) - 2.0 * np.outer(step.chi, step.chi.conj())
            assert np.abs(factor(planned.reflection, planned.theta) - s).max() < 1e-15
            assert np.abs(s @ s - np.eye(8)).max() < 1e-15

    def test_ec_protocol_maps(self):
        from unimap.ec import ec_map_specs

        for spec in ec_map_specs():
            t = exact_map(spec)
            for a, b in zip(spec.source, spec.target):
                assert np.linalg.norm(t @ a - b) < 1e-10

    @pytest.mark.parametrize("phase_correction", [True, False])
    def test_equals_product_of_reflections(self, phase_correction):
        spec = random_spec(4, 8, seed=44, phase_correction=phase_correction)
        want = np.eye(8, dtype=complex)
        for step in plan_subspace_map(spec):
            want = factor(step.reflection, step.theta) @ want
        assert np.array_equal(exact_map(spec), want)

    def test_exact_report_lists_active_steps(self):
        keep = basis_state(6, 5)
        spec = SubspaceMapSpec(
            source=(keep, basis_state(6, 0), basis_state(6, 1)),
            target=(keep, basis_state(6, 2), basis_state(6, 3)),
        )
        rep = synthesize_subspace_map(spec, ExactMapper(6))
        assert [step.skipped for step in rep.steps] == [True, False, False]
        assert all(step.result is None for step in rep.steps)
        assert rep.step_fidelities == (1.0, 1.0) and rep.searches_performed == 0

    def test_naive_product_fails_witness(self):
        spec = random_spec(2, 4, seed=11, phase_correction=False)
        t_naive = naive_sequential_map(spec)
        worst = max(
            1 - abs(np.vdot(b, t_naive @ a)) ** 2 for a, b in zip(spec.source, spec.target)
        )
        assert worst > 1e-3
        # the retargeted construction fixes the same instance
        t_good = exact_map(spec)
        for a, b in zip(spec.source, spec.target):
            assert 1 - abs(np.vdot(b, t_good @ a)) ** 2 < 1e-12


@pytest.mark.parametrize("searched", [False, True], ids=["exact", "searched"])
def test_assembled_is_the_product_of_the_played_factors(cesium, fixed_search, searched):
    # a spec whose steps carry phases other than pi: no factor enters beyond the recorded steps
    fixed_search(unimap.subspace)
    spec = random_spec(3, 8, seed=304)
    assert all(step.theta != np.pi for step in plan_subspace_map(spec))
    mapper = SearchedMapper(cesium, default_search_config(cesium)) if searched else ExactMapper(8)
    rep = synthesize_subspace_map(spec, mapper)
    assert np.abs(played_product(rep) - rep.assembled).max() < 1e-12
    if not searched:
        assert rep.fidelity >= 1 - 1e-12


class TestSynthesize:
    def test_equal_bases_no_searches(self, cesium):
        basis = (basis_state(8, 0), basis_state(8, 3))
        spec = SubspaceMapSpec(source=basis, target=basis)
        cfg = default_search_config(cesium, seed=0)
        rep = synthesize_subspace_map(spec, SearchedMapper(cesium, cfg))
        assert rep.searches_performed == 0
        assert np.array_equal(rep.assembled, np.eye(8))

    def test_single_state_map(self, cesium):
        # |3,3_z> -> |3,-3_x> inside the 8-level system
        target = np.zeros(8, dtype=complex)
        target[:7] = x_basis_state(3, -3)
        spec = SubspaceMapSpec(source=(basis_state(8, 0),), target=(target,))
        cfg = default_search_config(cesium, seed=5, max_iterations=2000, fidelity_goal=0.995)
        rep = synthesize_subspace_map(spec, SearchedMapper(cesium, cfg))
        assert rep.searches_performed == 1
        assert rep.fidelity >= 0.99

    def test_search_count_never_exceeds_n(self, cesium):
        # one pair identical, one differing: exactly one search
        keep = basis_state(8, 7)  # fiducial, orthogonal to the F=3 block
        target = np.zeros(8, dtype=complex)
        target[:7] = x_basis_state(3, 1)
        spec = SubspaceMapSpec(source=(keep, basis_state(8, 0)), target=(keep, target))
        cfg = default_search_config(cesium, seed=6, max_iterations=1500, fidelity_goal=0.99)
        rep = synthesize_subspace_map(spec, SearchedMapper(cesium, cfg))
        assert rep.skipped_steps == (0,)
        assert rep.searches_performed == 1

    def test_dimension_mismatch(self, cesium):
        spec = random_spec(2, 4, seed=1)
        cfg = default_search_config(cesium, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            synthesize_subspace_map(spec, SearchedMapper(cesium, cfg))

    def test_dimension_mismatch_without_active_steps(self, cesium, fixed_search):
        handed_out = fixed_search(unimap.subspace)
        basis = (basis_state(4, 0), basis_state(4, 1))
        spec = SubspaceMapSpec(source=basis, target=basis)
        with pytest.raises(ValueError, match="dimension"):
            synthesize_subspace_map(spec, SearchedMapper(cesium, default_search_config(cesium)))
        assert handed_out == []

    def test_assembled_equals_two_propagation_form(self, cesium, fixed_search):
        # each step phases theta_k about the fiducial row of the one
        # propagator it computed; the result must equal the rank-one product
        # built from a second propagation of the same waveforms, and
        # V† P(theta_k) V to rounding, with no factor beyond the played steps
        handed_out = fixed_search(unimap.subspace)
        spec = random_spec(3, 8, seed=12)
        rep = synthesize_subspace_map(spec, SearchedMapper(cesium, default_search_config(cesium)))
        thetas = [step.theta for step in plan_subspace_map(spec)]
        assert len(handed_out) == 3 and all(theta != np.pi for theta in thetas)
        expected = np.eye(8, dtype=complex)
        conjugated = np.eye(8, dtype=complex)
        for (sys_m, wave), theta in zip(handed_out, thetas):
            v = propagate(sys_m, wave)
            expected = _rank_one(v[sys_m.fiducial_index].conj(), np.exp(-1j * theta) - 1.0) @ expected
            conjugated = apply_adjoint(sys_m, wave) @ diag_phase(8, sys_m.fiducial_index, theta) @ v @ conjugated
        assert np.array_equal(rep.assembled, expected)
        assert np.abs(rep.assembled - conjugated).max() < 1e-12


class TestSearchedMapper:
    def test_chi_is_adjoint_of_fiducial(self, cesium, fixed_search):
        handed_out = fixed_search(unimap.subspace)
        phi = haar_random_state(8, np.random.default_rng(13))
        chi, result = SearchedMapper(cesium, default_search_config(cesium)).map(phi)
        ((sys_m, handed),) = handed_out
        assert sys_m is cesium and result.waveform is handed
        # the search's own step fidelity and flag, not recomputed from chi
        assert (result.fidelity, result.converged) == (0.5, False)
        assert np.array_equal(chi, apply_adjoint(cesium, handed) @ cesium.fiducial_state())

    def test_factor_is_conjugated_imprint(self, cesium, fixed_search):
        handed_out = fixed_search(unimap.subspace)
        phi = haar_random_state(8, np.random.default_rng(14))
        mapper = SearchedMapper(cesium, default_search_config(cesium))
        rep = phase_product(8, [(phi, 1.3)], mapper, score=lambda u: 0.0)
        ((_, wave),) = handed_out
        want = apply_adjoint(cesium, wave) @ diag_phase(8, cesium.fiducial_index, 1.3) @ propagate(cesium, wave)
        assert np.abs(rep.assembled - want).max() < 1e-12
        (step,) = rep.steps
        assert (step.theta, step.result.fidelity, step.result.converged) == (1.3, 0.5, False)
        assert step.result.waveform is wave and rep.step_fidelities == (0.5,)

    @pytest.mark.parametrize("build", [
        lambda sys, cfg: synthesize_unitary(diag_phase(8, 0, 1.0), SearchedMapper(sys, cfg)),
        lambda sys, cfg: synthesize_ec_maps(CesiumParams(rf_detuning=1.0), cfg),
    ], ids=["unitary", "ec-maps"])
    def test_drifted_system_is_refused_before_any_search(self, monkeypatch, build):
        # on a detuned frame V, the imprint and V reversed do not play V† P(theta) V
        searches = []
        monkeypatch.setattr(unimap.subspace, "multi_start", lambda *a: searches.append(a))
        detuned = build_restricted_system(CesiumParams(rf_detuning=1.0))
        with pytest.raises(ValueError, match="drift-free system, but 'cs133-f3-aux4' has drift norm 3 rad/s"):
            build(detuned, default_search_config(detuned))
        assert searches == []


@pytest.mark.parametrize("searched", [False, True], ids=["exact", "searched"])
@pytest.mark.parametrize("target", ["subspace", "unitary"])
def test_records_follow_the_plan(cesium, fixed_search, target, searched):
    # one record per planned step, in plan order, with skipped steps kept in place
    fixed_search(unimap.subspace)
    mapper = SearchedMapper(cesium, default_search_config(cesium)) if searched else ExactMapper(8)
    if target == "subspace":
        # the middle pair is already in place, so its rotation is skipped
        e = [basis_state(8, k) for k in range(8)]
        spec = SubspaceMapSpec(source=(e[0], e[5], e[1]), target=(e[2], e[5], e[3]))
        rep = synthesize_subspace_map(spec, mapper)
        plan = [(step.theta, step.skipped) for step in plan_subspace_map(spec)]
        assert rep.skipped_steps == (1,)
    else:
        v = haar_random_unitary(8, np.random.default_rng(15))
        w = (v * np.exp(-1j * np.array([0.0, 1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0]))) @ v.conj().T
        rep = synthesize_unitary(w, mapper)
        plan = [(step.phase, step.skippable) for step in plan_unitary(w)]
        assert len(rep.skipped_steps) == 5
    assert len(rep.steps) == len(plan)
    assert [step.theta for step in rep.steps] == [theta for theta, _ in plan]
    assert rep.skipped_steps == tuple(k for k, (_, skipped) in enumerate(plan) if skipped)
    for k, step in enumerate(rep.steps):
        if k in rep.skipped_steps:
            assert step.skipped and step.chi is None and step.result is None
        else:
            assert step.chi is not None and (step.result is not None) == searched


def test_subspace_fidelity_phase_sensitivity():
    spec = random_spec(2, 4, seed=3)
    t = exact_map(spec)
    assert subspace_fidelity(t, spec) == pytest.approx(1.0, abs=1e-12)
    # flipping the relative phase of one mapped vector must hurt
    flip = np.eye(4, dtype=complex) + (np.exp(1j * np.pi) - 1) * np.outer(
        spec.target[1], spec.target[1].conj()
    )
    assert subspace_fidelity(flip @ t, spec) < 0.7
