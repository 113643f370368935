"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 8's pointwise-ordering clause is asserted exactly as
stated over the full half-angle range [0.02, 0.3]; physically the code's
uncorrectable second-order leakage (|3,+-3_x> to |3,+-1_x>, about 15 eps^4)
overtakes free-evolution dephasing (about 0.67 eps^2) near eps = 0.23, so
the top of that range is expected to trip and the verdict line shows the
per-point gaps and the crossover eps*.
"""

import time

import numpy as np
import pytest

from unimap.cesium import CesiumParams, build_restricted_system, x_basis_state
from unimap.control import Waveform
from unimap.core import basis_state, haar_random_state, haar_random_unitary
from unimap.ec import ECConfig, ec_maps, ec_sweep
from unimap.eigensynth import synthesize_unitary
from unimap.gates import gate_from_name, verify_clifford_relations
from unimap.search import default_search_config, gradient_state_prep, multi_start, objective_state_prep
from unimap.subspace import (
    ExactMapper,
    SearchedMapper,
    SubspaceMapSpec,
    naive_sequential_map,
    plan_subspace_map,
    synthesize_subspace_map,
)
from unimap.wigner import wigner_grid

GATE_NAMES = ("Z", "X", "H", "S", "G:3")


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def gate_synthesis():
    """Waveform-backed synthesis of all five qudit gates, shared by 5 and 6."""
    sys8 = build_restricted_system(CesiumParams())
    cfg = default_search_config(
        sys8, fidelity_goal=0.999, max_iterations=5000, restarts=3, seed=20200
    )
    t0 = time.monotonic()
    reports = {}
    for name in GATE_NAMES:
        gate = gate_from_name(name, 7)
        target = np.eye(8, dtype=complex)
        target[:7, :7] = gate
        reports[name] = synthesize_unitary(target, SearchedMapper(sys8, cfg))
    return reports, time.monotonic() - t0


def test_criterion_1_exact_eigen_assembly():
    t0 = time.monotonic()
    worst = 1.0
    for d in range(2, 9):
        rng = np.random.default_rng([1, d])
        for _ in range(50):
            w = haar_random_unitary(d, rng)
            rep = synthesize_unitary(w, ExactMapper(d))
            worst = min(worst, rep.fidelity)
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 1",
        worst >= 1 - 1e-10 and elapsed < 5.0,
        f"350 exact assemblies, worst fidelity {worst:.2e} shortfall "
        f"{1 - worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_subspace_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst_basis = 0.0
    worst_unitary = 0.0
    worst_lemma = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d + 1))
        u, v = haar_random_unitary(d, rng), haar_random_unitary(d, rng)
        spec = SubspaceMapSpec(
            source=tuple(u[:, i] for i in range(n)),
            target=tuple(v[:, i] for i in range(n)),
        )
        steps = plan_subspace_map(spec)
        t = synthesize_subspace_map(spec, ExactMapper(d)).assembled
        worst_basis = max(
            worst_basis,
            max(np.linalg.norm(t @ a - b) for a, b in zip(spec.source, spec.target)),
        )
        worst_unitary = max(worst_unitary, float(np.abs(t.conj().T @ t - np.eye(d)).max()))
        for j in range(len(steps)):
            for k in range(j):
                worst_lemma = max(
                    worst_lemma, abs(np.vdot(steps[j].rotated_source, steps[k].target))
                )
    # recorded witness: the naive unretargeted product fails visibly
    wit_rng = np.random.default_rng(11)
    u, v = haar_random_unitary(4, wit_rng), haar_random_unitary(4, wit_rng)
    wit = SubspaceMapSpec(
        source=(u[:, 0], u[:, 1]), target=(v[:, 0], v[:, 1]), phase_correction=False
    )
    naive_failure = max(
        1 - abs(np.vdot(b, naive_sequential_map(wit) @ a)) ** 2
        for a, b in zip(wit.source, wit.target)
    )
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 2",
        worst_basis <= 1e-9
        and worst_unitary <= 1e-10
        and worst_lemma <= 1e-9
        and naive_failure > 1e-3
        and elapsed < 5.0,
        f"100 specs: basis err {worst_basis:.2e}, unitarity {worst_unitary:.2e}, "
        f"lemma {worst_lemma:.2e}, naive witness fails by {naive_failure:.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_gradient_fidelity():
    t0 = time.monotonic()
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    from unimap.control import ControlSystem

    two_level = ControlSystem(
        drift=np.zeros((2, 2), dtype=complex),
        controls=(sx / 2,),
        amplitude_bounds=((-1.0, 1.0),),
        fiducial_index=0,
    )
    cesium = build_restricted_system(CesiumParams())
    worst = 0.0
    instances = [(two_level, 6, 0.7, s) for s in range(10)]
    instances += [(cesium, 6, 1e-5, 100 + s) for s in range(10)]
    for sys_model, m, tau, seed in instances:
        rng = np.random.default_rng([3, seed])
        w = Waveform(np.full(m, tau), 0.8 * rng.uniform(-1, 1, (m, sys_model.n_controls)))
        psi_i = haar_random_state(sys_model.dim, rng)
        psi_f = haar_random_state(sys_model.dim, rng)
        analytic = gradient_state_prep(sys_model, w, psi_i, psi_f)
        flat = w.amplitudes.ravel()
        for idx in range(flat.size):
            step = 1e-6
            up, dn = flat.copy(), flat.copy()
            up[idx] += step
            dn[idx] -= step
            j_up = objective_state_prep(
                sys_model, Waveform(w.durations, up.reshape(w.amplitudes.shape)), psi_i, psi_f
            )
            j_dn = objective_state_prep(
                sys_model, Waveform(w.durations, dn.reshape(w.amplitudes.shape)), psi_i, psi_f
            )
            fd = (j_up - j_dn) / (2 * step)
            if abs(fd) > 1e-8:
                worst = max(worst, abs(analytic[idx] - fd) / abs(fd))
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 3",
        worst < 1e-5 and elapsed < 30.0,
        f"20 instances, worst relative gradient error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_state_prep_convergence():
    t0 = time.monotonic()
    sys8 = build_restricted_system(CesiumParams())
    cfg = default_search_config(
        sys8, fidelity_goal=0.99, max_iterations=5000, restarts=3, seed=4000
    )
    successes = 0
    fidelities = []
    for trial in range(20):
        rng = np.random.default_rng([4, trial])
        psi_f = haar_random_state(8, rng)
        res = multi_start(sys8, basis_state(8, 7), psi_f, cfg)
        fidelities.append(res.fidelity)
        successes += res.fidelity >= 0.99
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 4",
        successes >= 18 and elapsed < 600.0,
        f"{successes}/20 targets reached 0.99 (min J {min(fidelities):.5f}), {elapsed:.0f}s",
    )


def test_criterion_5_gate_synthesis(gate_synthesis):
    reports, elapsed = gate_synthesis
    lines = []
    ok = elapsed < 3600.0
    for name in GATE_NAMES:
        rep = reports[name]
        all_steps_ok = all(f >= 0.99 for f in rep.step_fidelities)
        exact = synthesize_unitary(gate_from_name(name, 7), ExactMapper(7))
        gate_ok = all_steps_ok and rep.fidelity >= 0.97 and exact.fidelity >= 1 - 1e-10
        ok = ok and gate_ok
        lines.append(
            f"{name}: waveform {rep.fidelity:.4f} (steps >= "
            f"{min(rep.step_fidelities):.4f}), exact {exact.fidelity:.12f}"
        )
    verdict("criterion 5", ok, "; ".join(lines) + f"; {elapsed:.0f}s")


def test_error_composition_bound(gate_synthesis):
    """Synthesis error stays within 4 sum_j (1 - J_j) of perfect, per target."""
    reports, _ = gate_synthesis
    ok = True
    details = []
    for name in GATE_NAMES:
        rep = reports[name]
        budget = 4 * sum(1 - f for f in rep.step_fidelities) + 1e-9
        ok = ok and (1 - rep.fidelity) <= budget
        details.append(f"{name}: 1-F={1 - rep.fidelity:.2e} <= {budget:.2e}")
    verdict("error composition", ok, "; ".join(details))


def test_criterion_6_search_count_bound(gate_synthesis):
    reports, _ = gate_synthesis
    ok = True
    details = []
    for name in GATE_NAMES:
        rep = reports[name]
        active = 8 - len(rep.skipped_steps)
        ok = ok and rep.searches_performed == active and rep.searches_performed <= 8
        details.append(f"{name}: {rep.searches_performed} searches, {len(rep.skipped_steps)} skipped")
    # subspace path: one pair already in place, so exactly one search
    sys8 = build_restricted_system(CesiumParams())
    target = np.zeros(8, dtype=complex)
    target[:7] = x_basis_state(3, 1)
    spec = SubspaceMapSpec(
        source=(basis_state(8, 7), basis_state(8, 0)), target=(basis_state(8, 7), target)
    )
    cfg = default_search_config(sys8, fidelity_goal=0.99, max_iterations=2000, seed=60, restarts=2)
    sub = synthesize_subspace_map(spec, SearchedMapper(sys8, cfg))
    sub_ok = sub.searches_performed == 1 and sub.skipped_steps == (0,)
    ok = ok and sub_ok
    details.append(f"subspace n=2: {sub.searches_performed} search, 1 skipped")
    verdict("criterion 6", ok, "; ".join(details))


def test_criterion_7_clifford_relations():
    ok = True
    details = []
    for d in (2, 3, 5, 7):
        multipliers = [a for a in range(1, d) if np.gcd(a, d) == 1] if d == 5 else [None]
        for i, a in enumerate(multipliers):
            rep = verify_clifford_relations(d, a=a)
            for name, dev in rep.deviations.items():
                if name == "SXS* = XZ":
                    if dev > 1e-12:
                        # sanctioned discrepancy of the parity-split phase
                        # gate: must be flagged and shouted, never hidden
                        ok = ok and rep.s_discrepancy
                        if i == 0:
                            details.append(f"d={d}: S-X DISCREPANCY {dev:.2e} (reported)")
                else:
                    ok = ok and dev <= 1e-12
        details.append(f"d={d}: non-S-X relations <= 1e-12")
    verdict("criterion 7", ok, "; ".join(details))


@pytest.fixture(scope="module")
def ec_result():
    grid = tuple(np.geomspace(0.02, 0.3, 9))
    cfg = ECConfig(epsilon_grid=grid, samples=200, seed=8)
    t0 = time.monotonic()
    res = ec_sweep(cfg, ec_maps())
    return res, time.monotonic() - t0


def ec_crossover(maps, lo: float = 0.1, hi: float = 0.3) -> float:
    """eps* where the exact six-state average of corrected minus uncorrected changes sign.

    Bisection on [lo, hi], where the gap is positive at lo and negative at hi.
    """

    def gap(eps):
        res = ec_sweep(ECConfig(epsilon_grid=(eps,), average="axes"), maps)
        return res.corrected[0] - res.uncorrected[0]

    assert gap(lo) > 0 > gap(hi)
    while hi - lo > 1e-6:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


def test_criterion_8_ec_ordering(ec_result):
    res, elapsed = ec_result
    gaps = [c - u for c, u in zip(res.corrected, res.uncorrected)]
    ordered = all(g >= 0 for g in gaps)
    detail = ", ".join(
        f"eps={e:.3f}: {'+' if g >= 0 else ''}{g:.4f}" for e, g in zip(res.epsilon, gaps)
    )
    crossover = ec_crossover(ec_maps())
    verdict(
        "criterion 8 (ordering)",
        ordered and elapsed < 120.0,
        f"corrected-minus-uncorrected gaps: {detail}; crossover eps* = {crossover:.4f}; {elapsed:.0f}s",
    )


def test_criterion_8_ec_scaling(ec_result):
    res, elapsed = ec_result
    sel = [i for i, e in enumerate(res.epsilon) if 0.02 <= e <= 0.1 + 1e-12]
    log_eps = np.log([res.epsilon[i] for i in sel])
    slope_c = np.polyfit(log_eps, np.log([1 - res.corrected[i] for i in sel]), 1)[0]
    slope_u = np.polyfit(log_eps, np.log([1 - res.uncorrected[i] for i in sel]), 1)[0]
    ratio = slope_c / slope_u
    verdict(
        "criterion 8 (scaling)",
        1.5 <= ratio <= 2.5 and elapsed < 120.0,
        f"corrected slope {slope_c:.2f}, uncorrected {slope_u:.2f}, ratio {ratio:.2f}",
    )


def test_criterion_9_wigner_checks():
    t0 = time.monotonic()
    worst_var = 0.0
    for m in range(7):
        g = wigner_grid(basis_state(7, m), 41, 84)
        worst_var = max(worst_var, float(g.values.var(axis=1).max()))
    h = gate_from_name("H", 7)
    lons = []
    for j in range(7):
        g = wigner_grid(h @ basis_state(7, j), 41, 140)
        _, col = np.unravel_index(np.argmax(g.values), g.values.shape)
        lons.append(g.phis[col])
    lons = np.sort(lons)
    gaps = np.diff(np.concatenate([lons, [lons[0] + 2 * np.pi]]))
    distinct = len(set(np.round(lons, 9))) == 7
    elapsed = time.monotonic() - t0
    verdict(
        "criterion 9",
        worst_var <= 1e-10 and distinct and gaps.min() >= 2 * np.pi / 14 and elapsed < 60.0,
        f"z-state azimuthal variance {worst_var:.1e}; DFT maxima separations "
        f">= {gaps.min():.3f} rad (bound {2 * np.pi / 14:.3f}); {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path):
    from unimap.cli import main

    runs = {
        "ec-sweep": lambda out: main([
            "ec-sweep", "--samples", "30", "--seed", "7", "--eps-count", "4",
            "--eps-min", "0.05", "--eps-max", "0.25", "--out", str(out / "ec.csv"),
        ]),
        "optimize-state": lambda out: main([
            "optimize-state", "--initial", "fiducial", "--target", "basis:3",
            "--out-waveform", str(out / "w.csv"), "--out-report", str(out / "r.json"),
            "--seed", "5", "--max-iterations", "1200",
        ]),
        "build-subspace-map": lambda out: _subspace_cli(out),
        "verify-clifford": lambda out: main(["verify-clifford", "--d", "7", "--out", str(out / "c.json")]),
    }

    def _subspace_cli(out):
        import json as _json

        from unimap.io import complex_to_pairs

        spec_file = out / "spec.json"
        target = np.zeros(8, dtype=complex)
        target[:7] = x_basis_state(3, 3)
        spec_file.write_text(_json.dumps({
            "source": {"a": complex_to_pairs(np.eye(8)[0])},
            "target": {"b": complex_to_pairs(target)},
        }))
        return main([
            "build-subspace-map", "--spec", str(spec_file), "--out-report", str(out / "s.json"),
            "--waveform-dir", str(out), "--seed", "9", "--max-iterations", "1500",
        ])

    ok = True
    details = []
    for name, runner in runs.items():
        d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        d1.mkdir()
        d2.mkdir()
        assert runner(d1) == 0
        assert runner(d2) == 0
        same = True
        for f1 in sorted(d1.iterdir()):
            if f1.name.endswith(".manifest.json"):
                continue  # manifests carry wall-clock timings by design
            f2 = d2 / f1.name
            b1 = f1.read_bytes().replace(str(d1).encode(), b"DIR")
            b2 = f2.read_bytes().replace(str(d2).encode(), b"DIR")
            same = same and b1 == b2
        ok = ok and same
        details.append(f"{name}: {'byte-identical' if same else 'MISMATCH'}")
    verdict("criterion 10", ok, "; ".join(details))
