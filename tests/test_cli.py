"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import ast
import inspect
import json
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import unimap
import unimap.cli
import unimap.search
import unimap.subspace
from unimap.cesium import CesiumParams, build_restricted_system
from unimap.cli import OPTIONAL_FLAGS, _resolve_state, build_parser, main
from unimap.control import Waveform, propagate
from unimap.core import basis_state, haar_random_unitary
from unimap.io import complex_to_pairs, load_schema, load_subspace_spec, load_waveform, save_waveform
from unimap.subspace import plan_subspace_map, subspace_fidelity

import jsonschema


def run(args):
    return main(args)


class TestModelInfo:
    def test_prints_summary(self, capsys):
        assert run(["model", "info", "cs133-f3-aux4"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["dimension"] == 8
        assert info["fiducial_index"] == 7
        assert len(info["controls"]) == 5

    def test_unknown_preset_exits_2(self, capsys):
        assert run(["model", "info", "nope"]) == 2
        assert "preset" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["segment_duration", "rf_rabi_max", "rf_detuning"])
    def test_non_finite_param_exits_2_without_json(self, tmp_path, capsys, field):
        params = tmp_path / "p.json"
        params.write_text(f'{{"{field}": NaN}}')
        assert run(["model", "info", "--params", str(params)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert field in out.err

    @pytest.mark.parametrize("text, field", [
        ('{"rf_rabi_max": "1e5"}', "rf_rabi_max"),
        ('{"uw_rabi_max": null}', "uw_rabi_max"),
        ('{"rf_detuning": true}', "rf_detuning"),
    ])
    def test_non_number_param_exits_2_without_json(self, tmp_path, capsys, text, field):
        params = tmp_path / "p.json"
        params.write_text(text)
        assert run(["model", "info", "--params", str(params)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{field} must be a number" in out.err

    def test_reads_params_file_once(self, tmp_path, monkeypatch, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"rf_detuning": 5.0}')
        load = unimap.cli._load_params
        calls = []
        monkeypatch.setattr(unimap.cli, "_load_params", lambda path: calls.append(path) or load(path))
        assert run(["model", "info", "--params", str(params)]) == 0
        assert json.loads(capsys.readouterr().out)["rates_rad_per_s"]["rf_detuning"] == 5.0
        assert calls == [str(params)]


class TestVerifyClifford:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "rel.json"
        assert run(["verify-clifford", "--d", "2", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "DISCREPANCY" in text  # the S X S* = X Z deviation is loud
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, load_schema("clifford_report"))
        assert doc["deviations"]["HXH* = Z"] <= 1e-12

    @pytest.mark.parametrize("out", [[], ["--out", "c.json"]], ids=["validate-only", "with-out"])
    @pytest.mark.parametrize("a", ["-1", "0"])
    def test_multiplier_below_one_exits_2(self, tmp_path, capsys, monkeypatch, a, out):
        monkeypatch.chdir(tmp_path)
        assert run(["verify-clifford", "--d", "5", "--a", a, *out]) == 2
        assert capsys.readouterr() == ("", f"error: a must be >= 1, got {a}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("a", ["10", "15"])
    def test_non_invertible_multiplier_is_named_as_given(self, tmp_path, capsys, monkeypatch, a):
        monkeypatch.chdir(tmp_path)
        assert run(["verify-clifford", "--d", "5", "--a", a]) == 2
        assert capsys.readouterr() == ("", f"error: a={a} is not invertible modulo d=5\n")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_times_the_whole_command(self, tmp_path, monkeypatch):
        verify = unimap.cli.verify_clifford_relations

        def slow_verify(*args, **kwargs):
            time.sleep(0.05)
            return verify(*args, **kwargs)

        monkeypatch.setattr(unimap.cli, "verify_clifford_relations", slow_verify)
        out = tmp_path / "rel.json"
        assert run(["verify-clifford", "--d", "3", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "rel.json.manifest.json").read_text())
        assert manifest["duration_s"] >= 0.05


class TestOptimizeState:
    def test_writes_valid_artifacts(self, tmp_path):
        report = tmp_path / "r.json"
        wave = tmp_path / "w.csv"
        code = run([
            "optimize-state", "--initial", "fiducial", "--target", "basis:0",
            "--out-waveform", str(wave), "--out-report", str(report),
            "--seed", "3", "--max-iterations", "1500", "--goal", "0.99",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("search_report"))
        assert doc["converged"]
        w = load_waveform(str(wave))
        assert w.n_controls == 5
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("run_manifest"))
        assert str(report) in manifest["outputs"] and str(wave) in manifest["outputs"]

    def test_state_file_input(self, tmp_path):
        state = tmp_path / "psi.json"
        amps = np.zeros(8, dtype=complex)
        amps[1] = 1.0
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(amps)}))
        code = run([
            "optimize-state", "--initial", str(state), "--target", "basis:2",
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json"),
            "--seed", "1", "--max-iterations", "1200",
        ])
        assert code == 0

    def test_goal_one_exits_zero_with_valid_report(self, tmp_path):
        # the final |overlap|^2 of this search rounds above 1 unless clamped
        from unimap.core import haar_random_state

        state = tmp_path / "s.json"
        psi = haar_random_state(8, np.random.default_rng([5, 1]))
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(psi)}))
        report = tmp_path / "r.json"
        code = run([
            "optimize-state", "--initial", "fiducial", "--target", str(state),
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(report),
            "--goal", "1", "--restarts", "1", "--max-iterations", "300",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("search_report"))
        assert doc["converged"] and doc["fidelity"] == 1.0
        assert max(doc["objective_history"]) <= 1.0

    def test_non_finite_param_exits_2_without_outputs(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text('{"uw_rabi_max": Infinity}')
        code = run([
            "optimize-state", "--initial", "fiducial", "--target", "basis:0", "--params", str(params),
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "uw_rabi_max" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]

    def test_segment_duration_param_exits_2_as_unknown_field(self, tmp_path, capsys):
        # segment lengths come from the search flags; a params file cannot set them
        params = tmp_path / "p.json"
        params.write_text('{"segment_duration": 2e-5}')
        code = run([
            "optimize-state", "--initial", "fiducial", "--target", "basis:0", "--params", str(params),
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "unknown cesium parameter field: segment_duration" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]

    def test_bad_state_dimension_exits_2(self, tmp_path, capsys):
        state = tmp_path / "psi.json"
        state.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        code = run([
            "optimize-state", "--initial", str(state), "--target", "basis:0",
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "dimension" in capsys.readouterr().err


class TestBuildUnitary:
    def test_exact_mappers(self, tmp_path):
        report = tmp_path / "h7.json"
        assert run(["build-unitary", "--gate", "H", "--d", "7", "--exact-mappers",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("synthesis_report"))
        assert doc["trace_fidelity"] >= 1 - 1e-10
        assert doc["searches_performed"] == 0
        active = 7 - len(doc["skipped_steps"])
        assert len(doc["step_fidelities"]) == active and min(doc["step_fidelities"]) >= 1 - 1e-12
        assert doc["step_converged"] == [True] * active

    def test_gate_and_matrix_mutually_exclusive(self, tmp_path, capsys):
        code = run(["build-unitary", "--gate", "X", "--matrix-file", "m.json",
                    "--exact-mappers", "--out-report", str(tmp_path / "r.json")])
        assert code == 2

    def test_gate_dimension_zero_exits_2_without_report(self, tmp_path, capsys):
        # an explicit --d 0 is rejected, not replaced by the default d=7
        assert run(["build-unitary", "--gate", "X", "--d", "0", "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "dimension must be >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_by_one_matrix_exits_2_without_report(self, tmp_path, capsys):
        mfile = tmp_path / "one.json"
        mfile.write_text(json.dumps({"entries": [[[1.0, 0.0]]]}))
        assert run(["build-unitary", "--matrix-file", str(mfile), "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "dimension must be >= 2" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]

    def test_dimension_with_matrix_file_exits_2_without_report(self, tmp_path, capsys):
        mfile = tmp_path / "m2.json"
        mfile.write_text(json.dumps({"entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}))
        assert run(["build-unitary", "--matrix-file", str(mfile), "--d", "5", "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "--d" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m2.json"]

    def test_search_flag_with_exact_mappers_exits_2_without_report(self, tmp_path, capsys):
        # the params file is never read: the flag itself is the error
        assert run(["build-unitary", "--gate", "X", "--d", "3", "--exact-mappers",
                    "--params", "/nonexistent.json", "--out-report", str(tmp_path / "r.json")]) == 2
        assert "--params applies only to runs that search" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_waveform_dir_with_exact_mappers_exits_2_without_outputs(self, tmp_path, capsys):
        # an exact build writes no waveforms, so the directory would never be read
        assert run(["build-unitary", "--gate", "X", "--d", "3", "--exact-mappers",
                    "--waveform-dir", str(tmp_path / "wd" / "x"), "--out-report", str(tmp_path / "r.json")]) == 2
        assert "--waveform-dir applies only to runs that search" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_entries_exits_2_without_report(self, tmp_path, capsys):
        mfile = _write(tmp_path / "m.json", {"matrix": [[[1.0, 0.0]]]})
        assert run(["build-unitary", "--matrix-file", mfile, "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {mfile}: missing field 'entries'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_searched_gate_pads_into_the_system(self, tmp_path):
        report = tmp_path / "r.json"
        assert run(["build-unitary", "--gate", "X", "--d", "3", "--max-iterations", "0", "--restarts", "1",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["dimension"] == 8
        assert 0 <= doc["block_trace_fidelity"] <= 1
        # X at d=3 has one zero eigenphase; the five padded levels add only zero phases
        assert doc["searches_performed"] == 2 and len(doc["skipped_steps"]) == 6

    def test_searched_gate_wider_than_system_exits_2_before_search(self, tmp_path, capsys, monkeypatch):
        searches = []
        monkeypatch.setattr(unimap.subspace, "multi_start", lambda *a: searches.append(a))
        assert run(["build-unitary", "--gate", "X", "--d", "9", "--out-report", str(tmp_path / "r.json")]) == 2
        assert "target dimension 9 != mapper dimension 8" in capsys.readouterr().err
        assert searches == []
        assert list(tmp_path.iterdir()) == []

    def test_matrix_file_input(self, tmp_path):
        # pi phase imprint on the last level of d=3, as an explicit matrix
        m = np.diag([1.0, 1.0, -1.0]).astype(complex)
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        mfile = tmp_path / "imprint.json"
        mfile.write_text(json.dumps({"entries": entries}))
        report = tmp_path / "r.json"
        assert run(["build-unitary", "--matrix-file", str(mfile), "--exact-mappers",
                    "--out-report", str(report)]) == 0
        assert json.loads(report.read_text())["trace_fidelity"] >= 1 - 1e-10

    def test_waveform_pipeline_single_eigenpair(self, tmp_path):
        m = np.eye(8, dtype=complex)
        m[2, 2] = np.exp(-1.1j)
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        mfile = tmp_path / "single.json"
        mfile.write_text(json.dumps({"entries": entries}))
        report = tmp_path / "r.json"
        assert run(["build-unitary", "--matrix-file", str(mfile), "--out-report", str(report),
                    "--seed", "2", "--goal", "0.995", "--restarts", "2"]) == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("synthesis_report"))
        assert doc["searches_performed"] == 1
        assert doc["trace_fidelity"] >= 0.99
        assert len(doc["waveform_files"]) == 1
        w = load_waveform(doc["waveform_files"][0])
        assert w.n_segments == 26

    # searches at d=7: a step whose eigenvector is the complex conjugate of an earlier
    # one's is derived from it, so X, G:2 and G:3 run half or fewer; Z, H and S have
    # no conjugate pair of eigenvectors and search every active step
    @pytest.mark.parametrize("gate, searches", [("G:3", 3), ("X", 3), ("G:2", 2), ("Z", 6), ("H", 5)])
    def test_conjugate_steps_are_derived(self, tmp_path, capsys, count_calls, gate, searches):
        calls = count_calls(unimap.search, "search_state_map")
        report = tmp_path / "r.json"
        assert run(["build-unitary", "--gate", gate, "--d", "7", "--restarts", "1", "--goal", "0.999",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert len(calls) == searches
        assert min(doc["step_fidelities"]) >= 0.999 and all(doc["step_converged"])
        # a derived step still reports its own waveform file
        assert len(doc["waveform_files"]) == doc["searches_performed"] == 8 - len(doc["skipped_steps"])
        # stdout counts searched steps, not searches: G:3 has 5 searched steps and runs 3 searches
        line = f"trace fidelity {doc['trace_fidelity']:.8f} searched_steps={doc['searches_performed']}\n"
        assert capsys.readouterr().out == line
        if gate == "G:3":
            assert line.endswith(" searched_steps=5\n")


class TestSubspaceMapCLI:
    def test_exact_mode(self, tmp_path, capsys):
        spec = {
            "source": {"a1": complex_to_pairs(np.eye(8)[0])},
            "target": {"b1": complex_to_pairs(np.eye(8)[2])},
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        report = tmp_path / "r.json"
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        jsonschema.validate(doc, load_schema("subspace_report"))
        assert doc["subspace_fidelity"] >= 1 - 1e-12
        assert max(doc["basis_errors"]) < 1e-9
        # an exact build searches no step
        assert capsys.readouterr().out == f"subspace fidelity {doc['subspace_fidelity']:.8f} searched_steps=0\n"

    def test_exact_mode_lists_active_steps(self, tmp_path):
        # e0 -> e2 needs one rotation; e5 -> e5 is skipped
        spec = {
            "source": {"a1": complex_to_pairs(np.eye(8)[0]), "a2": complex_to_pairs(np.eye(8)[5])},
            "target": {"b1": complex_to_pairs(np.eye(8)[2]), "b2": complex_to_pairs(np.eye(8)[5])},
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        report = tmp_path / "r.json"
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["skipped_steps"] == [1]
        assert len(doc["step_fidelities"]) == 1 and doc["step_fidelities"][0] >= 1 - 1e-12
        assert doc["step_converged"] == [True]
        assert doc["searches_performed"] == 0 and doc["waveform_files"] == []

    def test_searched_fidelity_is_that_of_the_written_waveforms(self, tmp_path):
        # each factor rebuilt from its waveform file, with the planned theta, must score what the report says
        rng = np.random.default_rng(41)
        u, v = haar_random_unitary(8, rng), haar_random_unitary(8, rng)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "source": [complex_to_pairs(u[:, k]) for k in range(2)],
            "target": [complex_to_pairs(v[:, k]) for k in range(2)],
        }))
        report = tmp_path / "r.json"
        assert run(["build-subspace-map", "--spec", str(spec_file), "--max-iterations", "3", "--restarts", "1",
                    "--out-report", str(report)]) == 0
        doc = json.loads(report.read_text())
        spec = load_subspace_spec(str(spec_file))
        thetas = [step.theta for step in plan_subspace_map(spec) if not step.skipped]
        assert len(doc["waveform_files"]) == len(thetas) == 2 and np.pi not in thetas
        sys_m = build_restricted_system(CesiumParams())
        played = np.eye(8, dtype=complex)
        for path, theta in zip(doc["waveform_files"], thetas):
            chi = propagate(sys_m, load_waveform(path))[sys_m.fiducial_index].conj()
            played = (np.eye(8) + (np.exp(-1j * theta) - 1.0) * np.outer(chi, chi.conj())) @ played
        assert abs(subspace_fidelity(played, spec) - doc["subspace_fidelity"]) <= 1e-12

    def test_spec_dimension_mismatch_exits_2_without_report(self, tmp_path, capsys):
        spec = {
            "source": [complex_to_pairs(np.eye(4)[0])],
            "target": [complex_to_pairs(np.eye(4)[1])],
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        report = tmp_path / "r.json"
        assert run(["build-subspace-map", "--spec", str(spec_file), "--out-report", str(report)]) == 2
        assert "dimension" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_string_phase_correction_exits_2_without_report(self, tmp_path, capsys):
        spec = {
            "source": [complex_to_pairs(np.eye(8)[0])],
            "target": [complex_to_pairs(np.eye(8)[2])],
            "phase_correction": "false",
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "phase_correction" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_misspelt_field_exits_2_without_report(self, tmp_path, capsys):
        spec = {
            "source": [complex_to_pairs(np.eye(8)[0])],
            "target": [complex_to_pairs(np.eye(8)[2])],
            "phase_corection": False,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "unknown spec field: phase_corection" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_search_flag_with_exact_exits_2_without_report(self, tmp_path, capsys):
        spec = {"source": [complex_to_pairs(np.eye(8)[0])], "target": [complex_to_pairs(np.eye(8)[2])]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact", "--segments", "12",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "--segments applies only to runs that search" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_waveform_dir_with_exact_exits_2_without_outputs(self, tmp_path, capsys):
        spec = {"source": [complex_to_pairs(np.eye(8)[0])], "target": [complex_to_pairs(np.eye(8)[2])]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact", "--waveform-dir", str(tmp_path / "wd"),
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "--waveform-dir applies only to runs that search" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"source": []}))
        assert run(["build-subspace-map", "--spec", str(spec_file), "--exact",
                    "--out-report", str(tmp_path / "r.json")]) == 2
        assert "target" in capsys.readouterr().err


class TestECSweep:
    def test_deterministic_bytes(self, tmp_path):
        args = ["ec-sweep", "--samples", "40", "--seed", "7", "--eps-count", "4",
                "--eps-min", "0.05", "--eps-max", "0.2"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.meta.json").read_bytes()
        meta2 = (tmp_path / "b.meta.json").read_bytes()
        assert meta1.replace(b"a.csv", b"") == meta2.replace(b"b.csv", b"")

    def test_explicit_epsilons_and_metadata(self, tmp_path):
        out = tmp_path / "ec.csv"
        assert run(["ec-sweep", "--epsilons", "0.1,0.2", "--samples", "10",
                    "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "epsilon,corrected,uncorrected,trigger_rate"
        assert len(lines) == 3
        meta = json.loads((tmp_path / "ec.meta.json").read_text())
        jsonschema.validate(meta, load_schema("ec_metadata"))
        assert meta["epsilon_grid"] == [0.1, 0.2]

    def test_bad_epsilons_exit_2(self, tmp_path):
        assert run(["ec-sweep", "--epsilons", "0.1,zzz", "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_epsilons_exit_2_without_outputs(self, tmp_path, capsys):
        # an explicitly empty grid is an error, not a fall-back to the default grid
        assert run(["ec-sweep", "--epsilons", "", "--out", str(tmp_path / "x.csv")]) == 2
        assert "--epsilons" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_search_flags_with_ideal_maps_exit_2_without_outputs(self, tmp_path, capsys):
        assert run(["ec-sweep", "--maps", "ideal", "--params", "nonexistent.json", "--goal", "0.5",
                    "--out", str(tmp_path / "ec.csv")]) == 2
        assert "--params applies only to runs that search" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_axes_mode_reports_states_averaged(self, tmp_path, capsys):
        assert run(["ec-sweep", "--average", "axes", "--epsilons", "0.1", "--out", str(tmp_path / "ec.csv")]) == 0
        assert "x 6 states" in capsys.readouterr().out
        meta = json.loads((tmp_path / "ec.meta.json").read_text())
        assert meta["samples"] == 6

    def test_haar_mode_defaults_to_200_samples(self, tmp_path, capsys):
        assert run(["ec-sweep", "--epsilons", "0.1", "--out", str(tmp_path / "ec.csv")]) == 0
        assert "x 200 states" in capsys.readouterr().out
        meta = json.loads((tmp_path / "ec.meta.json").read_text())
        assert meta["samples"] == 200

    def test_samples_with_axes_mode_exits_2_without_outputs(self, tmp_path, capsys):
        # axes mode averages the six Bloch-axis states whatever --samples says
        assert run(["ec-sweep", "--average", "axes", "--samples", "5000", "--maps", "synthesized",
                    "--out", str(tmp_path / "ec.csv")]) == 2
        assert "--samples applies only to --average haar" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_synthesized_sweep_twice_in_one_process_repeats_every_search(self, tmp_path, monkeypatch, count_calls):
        # each run builds its own systems, so no search result carries over to the next run;
        # each run searches 3 of its 6 steps (one repeats a state map, two are mirror images)
        calls = count_calls(unimap.search, "search_state_map")
        written = []
        for name in ("first", "second"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            before = len(calls)
            assert run(["ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1",
                        "--max-iterations", "2", "--restarts", "2", "--out", "ec.csv"]) == 0
            assert len(calls) - before == 3 * 2
            written.append({p.name: p.read_bytes() for p in Path().iterdir() if not p.name.endswith(".manifest.json")})
        assert len(written[0]) == 2 + 6  # the CSV, its meta and one waveform per searched step
        assert written[0] == written[1]


@pytest.mark.parametrize("workload, searches", [("unitary_d7", [3]), ("subspace_maps", [6, 9])])
def test_benchmark_searched_workloads_search_counts(tmp_path, monkeypatch, count_calls, workload, searches):
    # the exact commands of the benchmark's searched workloads: a lost stored result or
    # derivation shows here as more searches, not only as a slower benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    calls = count_calls(unimap.search, "search_state_map")
    (tmp_path / "inputs").mkdir()
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    counts = []
    for command in getattr(workloads, workload)(1, tmp_path / "inputs"):
        before = len(calls)
        assert main(list(command.argv)) == 0
        counts.append(len(calls) - before)
    assert counts == searches


@pytest.mark.parametrize("workload, bound", [("unitary_d7", 46), ("subspace_maps", 120)])
def test_benchmark_searched_workloads_forward_passes(tmp_path, monkeypatch, count_calls, workload, bound):
    # each forward pass of the search module diagonalizes its segments once; on the chordal
    # residual with speed-scaled damping these commands take 42 and 108 passes, where the
    # phase-free residual with plain damping took 44 and 147
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    passes = count_calls(unimap.search, "segment_eigs")
    (tmp_path / "inputs").mkdir()
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    for command in getattr(workloads, workload)(1, tmp_path / "inputs"):
        assert main(list(command.argv)) == 0
    assert len(passes) < bound


@pytest.mark.parametrize("workload", ["unitary_d7", "subspace_maps"])
def test_benchmark_searched_workloads_diagonalize_only_in_search(tmp_path, monkeypatch, workload):
    # every waveform a step plays is diagonalized once, by the forward pass that scored it: chi
    # comes from the propagator the search result carries, so every segment_eigs call, read
    # through each module's globals, goes through unimap.search (44 calls on the G:3 build)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    from unimap.control import segment_eigs

    callers = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "unimap" and getattr(module, "segment_eigs", None) is segment_eigs:
            monkeypatch.setattr(module, "segment_eigs",
                                lambda *a, _name=name: callers.append(_name) or segment_eigs(*a))
    (tmp_path / "inputs").mkdir()
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    for command in getattr(workloads, workload)(1, tmp_path / "inputs"):
        assert main(list(command.argv)) == 0
    assert callers and set(callers) == {"unimap.search"}


class TestSeedRange:
    @pytest.mark.parametrize("argv", [
        ["build-unitary", "--gate", "Z", "--d", "3", "--seed", "-1", "--out-report", "{out}/r.json"],
        ["ec-sweep", "--maps", "ideal", "--average", "haar", "--seed", "-1", "--out", "{out}/e.csv"],
    ], ids=["build-unitary", "ec-sweep"])
    def test_negative_seed_exits_2_naming_it_without_outputs(self, tmp_path, capsys, argv):
        assert run([a.format(out=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", "error: seed must be an integer >= 0, got -1\n")
        assert list(tmp_path.iterdir()) == []


class TestWignerCLI:
    def test_grid_csv(self, tmp_path):
        state = tmp_path / "psi.json"
        amps = np.zeros(7, dtype=complex)
        amps[0] = 1.0
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(amps)}))
        out = tmp_path / "grid.csv"
        assert run(["wigner", "--state", str(state), "--n-theta", "11", "--n-phi", "16",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,phi,w"
        assert len(lines) == 1 + 11 * 16

    def test_block_slice(self, tmp_path):
        state = tmp_path / "psi.json"
        amps = np.zeros(8, dtype=complex)
        amps[3] = 1.0
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(amps)}))
        out = tmp_path / "grid.csv"
        assert run(["wigner", "--state", str(state), "--block", "0:7", "--out", str(out)]) == 0

    def test_support_outside_block_exits_2(self, tmp_path, capsys):
        state = tmp_path / "psi.json"
        amps = np.zeros(8, dtype=complex)
        amps[7] = 1.0
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(amps)}))
        assert run(["wigner", "--state", str(state), "--block", "0:7",
                    "--out", str(tmp_path / "g.csv")]) == 2
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("block, last, message", [
        pytest.param("0:3", "NaN", "state has non-finite entries outside the requested block", id="nan-outside"),
        pytest.param("0:-3", "0", "block 0:-3 has a negative start or size", id="negative-size"),
        pytest.param("-1:2", "0", "block -1:2 has a negative start or size", id="negative-start"),
    ])
    def test_bad_block_exits_2_without_files(self, tmp_path, capsys, monkeypatch, block, last, message):
        monkeypatch.chdir(tmp_path)
        Path("psi.json").write_text(f'{{"amplitudes": [[1, 0], [0, 0], [0, 0], [{last}, 0]]}}')
        assert run(["wigner", "--state", "psi.json", f"--block={block}", "--out", "g.csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["psi.json"]

    @pytest.mark.parametrize("amplitude, message", [(np.nan, "non-finite"), (2.0, "norm deviates")])
    def test_invalid_state_exits_2_without_grid(self, tmp_path, capsys, amplitude, message):
        state = tmp_path / "psi.json"
        amps = np.zeros(7, dtype=complex)
        amps[0] = amplitude
        state.write_text(json.dumps({"amplitudes": complex_to_pairs(amps)}))
        out = tmp_path / "g.csv"
        assert run(["wigner", "--state", str(state), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPropagateCLI:
    def test_round_trip_through_cli(self, tmp_path):
        wave = tmp_path / "w.csv"
        report = tmp_path / "r.json"
        assert run(["optimize-state", "--initial", "fiducial", "--target", "basis:0",
                    "--out-waveform", str(wave), "--out-report", str(report),
                    "--seed", "3", "--max-iterations", "1500"]) == 0
        assert run(["propagate", "--waveform", str(wave),
                    "--initial-state", "fiducial", "--target-state", "basis:0"]) == 0

    def test_missing_file_exits_2(self):
        assert run(["propagate", "--waveform", "/nonexistent/w.csv"]) == 2

    @pytest.mark.parametrize("flag", ["--initial-state", "--target-state"])
    def test_one_sided_state_exits_2(self, capsys, flag):
        # the waveform file is never read: a fidelity needs both states
        assert run(["propagate", "--waveform", "/nonexistent/w.csv", flag, "fiducial"]) == 2
        assert "--initial-state and --target-state together" in capsys.readouterr().err


def test_fiducial_state_follows_system_index(two_level):
    # the two-level system's fiducial level is 0, not the last index
    assert np.array_equal(_resolve_state("fiducial", two_level), basis_state(2, 0))


def test_bad_basis_index_exits_2_naming_the_argument(tmp_path, capsys):
    assert run(["optimize-state", "--initial", "basis:x", "--target", "fiducial",
                "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "'basis:x'" in err and "basis:<k>, fiducial or a JSON file" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_opens_and_decodes_no_file_itself():
    # io owns every file the CLI reads or writes
    tree = ast.parse(inspect.getsource(unimap.cli))
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [c for c in calls if c in ("open", "json.load", "json.loads")] == []


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy", "unimap"}
    for path in Path(unimap.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import stays in unimap
                names = [node.module]
            else:
                continue
            assert {name.split(".")[0] for name in names} <= allowed, (path.name, node.lineno, names)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize costs ~17 MB of resident memory
    src = str(Path(unimap.__file__).resolve().parents[1])
    code = "import sys, unimap.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_cli_runs_exact_build_and_wigner_without_scipy(tmp_path):
    # the package runs on numpy and the standard library alone; importing scipy costs ~30 MB of resident
    # memory, and jsonschema, which the tests keep as the report checker's reference, ~5 MB
    src = str(Path(unimap.__file__).resolve().parents[1])
    state = _write(tmp_path / "s.json", {"amplitudes": [[0.6, 0], [0, 0.8], [0, 0]]})
    code = (
        "import sys, unimap.cli\n"
        "assert unimap.cli.main(['build-unitary', '--gate', 'G:3', '--d', '7', '--exact-mappers',"
        " '--out-report', 'r.json']) == 0\n"
        f"assert unimap.cli.main(['wigner', '--state', {state!r}, '--out', 'g.csv']) == 0\n"
        "assert unimap.cli.main(['verify-clifford', '--d', '3', '--out', 'c.json']) == 0\n"
        "assert unimap.cli.main(['ec-sweep', '--maps', 'ideal', '--average', 'axes', '--epsilons', '0.1',"
        " '--out', 'e.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.splitlines()[-1] == "[]"
    for name in ("r.json", "g.csv", "c.json", "e.csv", "e.meta.json"):
        assert (tmp_path / name).is_file()


def test_argparse_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["optimize-state"])  # missing required arguments
    assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_flags(tmp_path, monkeypatch):
    # main reuses one parser; each call still parses onto fresh defaults
    unimap.cli._parser.cache_clear()
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(unimap.cli, "build_parser", counted)

    def restarts_reported(*flags):
        report = tmp_path / "r.json"
        code = run([
            "optimize-state", "--initial", "fiducial", "--target", "basis:0", "--max-iterations", "0",
            "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(report), *flags,
        ])
        assert code == 0
        return json.loads(report.read_text())["config"]["restarts"]

    assert restarts_reported("--restarts", "1") == 1
    assert restarts_reported() == 3
    assert len(built) == 1


def test_rebound_handler_runs_after_parser_is_cached(monkeypatch):
    assert run(["model", "info"]) == 0  # builds and caches the parser
    seen = []
    monkeypatch.setattr(unimap.cli, "cmd_model_info", lambda args: seen.append(args.preset))
    assert run(["model", "info", "cs133-f3-aux-4"]) == 0
    assert seen == ["cs133-f3-aux-4"]


def test_manifest_config_lists_only_flags_given(tmp_path):
    report = tmp_path / "r.json"
    assert run(["optimize-state", "--initial", "fiducial", "--target", "basis:0", "--max-iterations", "0",
                "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(report)]) == 0
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["command"] == "optimize-state" and manifest["seed"] == 0
    assert "restarts" not in manifest["config"] and manifest["config"]["max_iterations"] == 0
    assert "seed" not in manifest["config"]  # the effective seed goes to manifest["seed"] only
    # the report keeps the effective search settings
    config = json.loads(report.read_text())["config"]
    assert (config["restarts"], config["fidelity_goal"], config["max_iterations"]) == (3, 0.99, 0)


def test_readme_cli_lines_parse(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("unimap ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
    # the lines that read no input file and run no search also run, into tmp_path
    runnable = ("model info", "build-unitary --gate H --d 7 --exact-mappers", "ec-sweep --samples 200",
                "verify-clifford")
    ran = [line for line in lines if line.startswith(tuple(f"unimap {r}" for r in runnable))]
    assert len(ran) == len(runnable)
    monkeypatch.chdir(tmp_path)
    for line in ran:
        assert main(shlex.split(line)[1:]) == 0, line


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _detuned(tmp_path) -> str:
    return _write(tmp_path / "p.json", {"rf_detuning": 2 * np.pi * 2e3})


def _spec(tmp_path) -> str:
    return _write(tmp_path / "spec.json", {"source": [complex_to_pairs(np.eye(8)[0])],
                                           "target": [complex_to_pairs(np.eye(8)[2])]})


class TestDetunedFrame:
    """A searched build reports closed-form factors that no played sequence gives on a detuned frame."""

    @pytest.mark.parametrize("argv", [
        ["build-unitary", "--gate", "Z", "--d", "3", "--out-report", "{out}/r.json"],
        ["build-subspace-map", "--spec", "{spec}", "--out-report", "{out}/r.json"],
        ["ec-sweep", "--maps", "synthesized", "--average", "axes", "--out", "{out}/ec.csv"],
    ])
    def test_searched_build_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, argv):
        searches = []
        monkeypatch.setattr(unimap.subspace, "multi_start", lambda *a: searches.append(a))
        params, spec = _detuned(tmp_path), _spec(tmp_path)
        argv = [a.format(out=tmp_path, spec=spec) for a in argv]
        assert run([*argv, "--params", params]) == 2
        # the drift is rf_detuning * Fz, whose norm is 3 |rf_detuning|
        err = capsys.readouterr().err
        assert f"drift-free system, but 'cs133-f3-aux4' has drift norm {3 * 2 * np.pi * 2e3:.6g} rad/s" in err
        assert searches == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "spec.json"]

    def test_single_state_maps_still_run(self, tmp_path, capsys):
        # optimize-state, propagate and model info use the one propagated
        # state map, which holds on any frame
        params = _detuned(tmp_path)
        wave = tmp_path / "w.csv"
        assert run(["optimize-state", "--initial", "fiducial", "--target", "basis:0", "--params", params,
                    "--max-iterations", "0", "--restarts", "1",
                    "--out-waveform", str(wave), "--out-report", str(tmp_path / "r.json")]) == 0
        assert run(["propagate", "--waveform", str(wave), "--params", params,
                    "--initial-state", "fiducial", "--target-state", "basis:0"]) == 0
        capsys.readouterr()
        assert run(["model", "info", "--params", params]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["rates_rad_per_s"]["rf_detuning"] == 2 * np.pi * 2e3
        assert "reversible_drift" not in info


class TestOverflowRates:
    """Rates whose generator norm bound overflows float64 are refused before any search or write."""

    @pytest.mark.parametrize("rates", [
        {"rf_rabi_max": 1e308},
        {"rf_rabi_max": 5e307},
        {"uw_rabi_max": 1e308, "lightshift_max": 1e308},
    ])
    @pytest.mark.parametrize("argv", [
        ["optimize-state", "--initial", "fiducial", "--target", "basis:3",
         "--out-waveform", "{out}/w.csv", "--out-report", "{out}/r.json"],
        ["build-unitary", "--gate", "Z", "--d", "3", "--out-report", "{out}/r.json"],
        ["ec-sweep", "--maps", "synthesized", "--average", "axes", "--out", "{out}/ec.csv"],
    ])
    def test_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, rates, argv):
        searches = []
        for module in (unimap.cli, unimap.subspace):
            monkeypatch.setattr(module, "multi_start", lambda *a: searches.append(a))
        params = _write(tmp_path / "p.json", rates)
        assert run([*(a.format(out=tmp_path) for a in argv), "--params", params]) == 2
        err = capsys.readouterr().err
        assert "overflow" in err and all(f"'{name}': {value!r}" in err for name, value in rates.items())
        assert searches == []
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    @pytest.mark.parametrize("argv", [
        ["model", "info"],
        ["optimize-state", "--initial", "fiducial", "--target", "basis:3",
         "--out-waveform", "{out}/w.csv", "--out-report", "{out}/r.json"],
    ])
    def test_huge_json_integer_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, argv):
        searches = []
        monkeypatch.setattr(unimap.cli, "multi_start", lambda *a: searches.append(a))
        params = _write(tmp_path / "p.json", {"rf_rabi_max": 10**400})
        assert run([*(a.format(out=tmp_path) for a in argv), "--params", params]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: cesium parameter rf_rabi_max is an integer that overflows a float\n"
        assert searches == []
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]


_EXACT_X = ["build-unitary", "--gate", "X", "--d", "3", "--exact-mappers", "--out-report", "{out}/r.json"]
_SEARCH_X = ["optimize-state", "--initial", "fiducial", "--target", "basis:0",
             "--out-waveform", "{out}/w.csv", "--out-report", "{out}/r.json"]
_HAAR_SWEEP = ["ec-sweep", "--out", "{out}/ec.csv"]

#: for each table flag, a run that does not read it
UNREAD_BY = {
    **dict.fromkeys(("preset", "params", "waveform_dir", "segments", "segment_duration", "goal",
                     "max_iterations", "restarts", "seed"), _EXACT_X),
    "samples": ["ec-sweep", "--average", "axes", "--out", "{out}/ec.csv"],
    **dict.fromkeys(("eps_min", "eps_max", "eps_count"), ["ec-sweep", "--epsilons", "0.1", "--out", "{out}/ec.csv"]),
    "d": ["build-unitary", "--matrix-file", "{out}/m.json", "--exact-mappers", "--out-report", "{out}/r.json"],
}

#: for each table flag with a default, a run that reads it without being
#: given it, the file that run writes, and where that file records the value
RECORDED_BY = {
    "preset": (_SEARCH_X, "r.json", lambda doc: doc["system"]),
    "goal": (_SEARCH_X, "r.json", lambda doc: doc["config"]["fidelity_goal"]),
    "max_iterations": (_SEARCH_X, "r.json", lambda doc: doc["config"]["max_iterations"]),
    "restarts": (_SEARCH_X, "r.json", lambda doc: doc["config"]["restarts"]),
    "seed": (_HAAR_SWEEP, "ec.meta.json", lambda doc: doc["seed"]),
    "samples": (_HAAR_SWEEP, "ec.meta.json", lambda doc: doc["samples"]),
    "eps_min": (_HAAR_SWEEP, "ec.meta.json", lambda doc: doc["epsilon_grid"][0]),
    "eps_max": (_HAAR_SWEEP, "ec.meta.json", lambda doc: doc["epsilon_grid"][-1]),
    "eps_count": (_HAAR_SWEEP, "ec.meta.json", lambda doc: len(doc["epsilon_grid"])),
    "d": (["build-unitary", "--gate", "X", "--exact-mappers", "--out-report", "{out}/r.json"], "r.json",
          lambda doc: doc["dimension"]),
}


def _parsers(parser):
    """``parser`` and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _parser_dests(parser) -> set[str]:
    """The destination of every argument of ``parser`` and of its subparsers."""
    return {action.dest for p in _parsers(parser) for action in p._actions}


class TestFlagTable:
    @pytest.mark.parametrize("name", OPTIONAL_FLAGS)
    def test_run_that_does_not_read_a_flag_exits_2_without_outputs(self, tmp_path, capsys, name):
        assert name in _parser_dests(build_parser())
        flag = f"--{name.replace('_', '-')}"
        argv = [a.format(out=tmp_path) for a in UNREAD_BY[name]]
        assert run([*argv, flag, "1"]) == 2
        assert f"error: {flag} applies only to {OPTIONAL_FLAGS[name][1]}\n" == capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", [name for name, entry in OPTIONAL_FLAGS.items() if entry[0] is not None])
    def test_run_that_reads_a_flag_not_given_records_its_default(self, tmp_path, fixed_search, name):
        fixed_search(unimap.cli)
        argv, written, recorded = RECORDED_BY[name]
        assert run([a.format(out=tmp_path) for a in argv]) == 0
        assert recorded(json.loads((tmp_path / written).read_text())) == OPTIONAL_FLAGS[name][0]

    @pytest.mark.parametrize("name", [name for name, entry in OPTIONAL_FLAGS.items() if entry[0] is not None])
    def test_every_help_for_a_flag_states_its_default(self, name):
        # a required flag (verify-clifford --d) is always given, so no default applies to it
        helps = [action.help for p in _parsers(build_parser()) for action in p._actions
                 if action.dest == name and not action.required]
        assert helps and all(f"default {OPTIONAL_FLAGS[name][0]}" in text for text in helps)


class TestUnreadFlags:
    @pytest.mark.parametrize("argv", [
        ["build-unitary", "--gate", "X", "--d", "3", "--exact-mappers", "--out-report", "{out}/r.json"],
        ["build-subspace-map", "--spec", "{spec}", "--exact", "--out-report", "{out}/r.json"],
        ["ec-sweep", "--maps", "ideal", "--average", "axes", "--epsilons", "0.1", "--out", "{out}/ec.csv"],
    ])
    def test_seed_on_runs_that_draw_nothing_exits_2_without_outputs(self, tmp_path, capsys, argv):
        spec = _spec(tmp_path)
        assert run([*(a.format(out=tmp_path, spec=spec) for a in argv), "--seed", "5"]) == 2
        assert "--seed applies only to" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]

    def test_manifest_seed_is_null_when_nothing_draws(self, tmp_path):
        assert run(["build-unitary", "--gate", "X", "--d", "3", "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json.manifest.json").read_text())["seed"] is None
        assert run(["ec-sweep", "--average", "axes", "--epsilons", "0.1", "--out", str(tmp_path / "ec.csv")]) == 0
        assert json.loads((tmp_path / "ec.csv.manifest.json").read_text())["seed"] is None
        assert json.loads((tmp_path / "ec.meta.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("given, effective", [([], 0), (["--seed", "4"], 4)])
    def test_manifest_records_the_seed_a_haar_sweep_draws_from(self, tmp_path, given, effective):
        assert run(["ec-sweep", "--samples", "5", "--epsilons", "0.1", *given, "--out", str(tmp_path / "ec.csv")]) == 0
        assert json.loads((tmp_path / "ec.csv.manifest.json").read_text())["seed"] == effective
        assert json.loads((tmp_path / "ec.meta.json").read_text())["seed"] == effective

    def test_synthesized_axes_sweep_reads_seed(self, tmp_path, fixed_search):
        fixed_search(unimap.subspace)
        assert run(["ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1",
                    "--seed", "4", "--out", str(tmp_path / "ec.csv")]) == 0
        assert json.loads((tmp_path / "ec.csv.manifest.json").read_text())["seed"] == 4

    @pytest.mark.parametrize("flag, value", [("--eps-min", "0.05"), ("--eps-max", "0.2"), ("--eps-count", "4")])
    def test_grid_flag_with_epsilons_exits_2_without_outputs(self, tmp_path, capsys, flag, value):
        assert run(["ec-sweep", "--epsilons", "0.1", flag, value, "--out", str(tmp_path / "ec.csv")]) == 2
        assert f"{flag} applies only to the default grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, grid", [
        ([], np.geomspace(0.02, 0.3, 9)),
        (["--eps-count", "3"], np.geomspace(0.02, 0.3, 3)),
    ])
    def test_default_grid(self, tmp_path, flags, grid):
        assert run(["ec-sweep", "--average", "axes", *flags, "--out", str(tmp_path / "ec.csv")]) == 0
        assert json.loads((tmp_path / "ec.meta.json").read_text())["epsilon_grid"] == grid.tolist()


class TestBadPairData:
    """Bad [re, im] pair data (an object, a ragged row, a string) exits 2, naming the file and the field."""

    WIGNER = ["wigner", "--state", "{file}", "--out", "{out}/g.csv"]
    SUBSPACE = ["build-subspace-map", "--spec", "{file}", "--exact", "--out-report", "{out}/r.json"]
    UNITARY = ["build-unitary", "--matrix-file", "{file}", "--exact-mappers", "--out-report", "{out}/r.json"]

    @pytest.mark.parametrize("doc, argv, message", [
        ({"amplitudes": {"x": 1}}, WIGNER, "{file}: amplitudes must be a list of [re, im] pairs"),
        ({"source": [{"x": 1}], "target": [[[1, 0], [0, 0]]]}, SUBSPACE,
         "{file}: source[0] must be a list of [re, im] pairs"),
        ({"entries": {"x": 1}}, UNITARY, "{file}: entries must be a d x d matrix of [re, im] pairs"),
        # a ragged row, then a string where a number belongs
        ({"amplitudes": [[1, 0], [0]]}, WIGNER, "{file}: amplitudes must be a list of [re, im] pairs"),
        ({"amplitudes": [["a", 0], [0, 0]]}, WIGNER, "{file}: amplitudes must be a list of [re, im] pairs"),
        ({"source": [[[1, 0], [0]]], "target": [[[1, 0], [0, 0]]]}, SUBSPACE,
         "{file}: source[0] must be a list of [re, im] pairs"),
        ({"source": [[["a", 0], [0, 0]]], "target": [[[1, 0], [0, 0]]]}, SUBSPACE,
         "{file}: source[0] must be a list of [re, im] pairs"),
        ({"entries": [[[1, 0], [0, 0]], [[0, 0]]]}, UNITARY,
         "{file}: entries must be a d x d matrix of [re, im] pairs"),
        ({"entries": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}, UNITARY,
         "{file}: entries must be a d x d matrix of [re, im] pairs"),
        # an integer too large for a float
        ({"amplitudes": [[10**400, 0], [0, 0]]}, WIGNER, "{file}: amplitudes must be a list of [re, im] pairs"),
        ({"source": [[[10**400, 0], [0, 0]]], "target": [[[1, 0], [0, 0]]]}, SUBSPACE,
         "{file}: source[0] must be a list of [re, im] pairs"),
        ({"entries": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}, UNITARY,
         "{file}: entries must be a d x d matrix of [re, im] pairs"),
    ])
    def test_exits_2_without_outputs(self, tmp_path, capsys, doc, argv, message):
        file = _write(tmp_path / "in.json", doc)
        assert run([a.format(file=file, out=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(file=file)}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


class TestMalformedJSON:
    """A JSON input that does not parse exits 2 naming its file, and nothing is written."""

    OPTIMIZE = ["optimize-state", "--initial", "{dir}/i.json", "--target", "{dir}/t.json", "--params", "{dir}/p.json",
                "--out-waveform", "{dir}/w.csv", "--out-report", "{dir}/r.json"]

    @pytest.mark.parametrize("bad, argv", [
        ("s.json", ["wigner", "--state", "{dir}/s.json", "--out", "{dir}/g.csv"]),
        # three files meet in one run: the message must name the bad one
        ("i.json", OPTIMIZE),
        ("t.json", OPTIMIZE),
        ("p.json", OPTIMIZE),
        ("m.json", ["build-unitary", "--exact-mappers", "--matrix-file", "{dir}/m.json",
                    "--out-report", "{dir}/r.json"]),
        ("spec.json", ["build-subspace-map", "--exact", "--spec", "{dir}/spec.json", "--out-report", "{dir}/r.json"]),
    ])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, bad, argv):
        _write(tmp_path / "i.json", {"amplitudes": complex_to_pairs(np.eye(8)[7])})
        _write(tmp_path / "t.json", {"amplitudes": complex_to_pairs(np.eye(8)[0])})
        _write(tmp_path / "p.json", {})
        (tmp_path / bad).write_text('{"amplitudes": [[1,0],')
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert run([a.format(dir=tmp_path) for a in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / bad}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestPhaseRefusal:
    """Segment phases that carry no digits are refused before any search, propagation or write."""

    @pytest.mark.parametrize("rates, flags, duration", [
        ({"rf_rabi_max": 1e160}, [], "1e-05"),
        ({}, ["--segment-duration", "1e200"], "1e+200"),
    ])
    def test_optimize_state_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, rates, flags, duration):
        forward = []
        monkeypatch.setattr(unimap.search, "segment_eigs", lambda *a: forward.append(a))
        params = _write(tmp_path / "p.json", rates)
        assert run(["optimize-state", "--initial", "fiducial", "--target", "basis:3", "--params", params, *flags,
                    "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "system 'cs133-f3-aux4': generator bound" in err and f"segment duration {duration} s" in err
        assert forward == []
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]

    def test_propagate_exits_2(self, tmp_path, capsys):
        wave = tmp_path / "w.csv"
        save_waveform(str(wave), Waveform([1e-5, 2e-5], np.full((2, 5), 0.5)))
        assert run(["propagate", "--waveform", str(wave)]) == 0
        params = _write(tmp_path / "p.json", {"rf_rabi_max": 1e160})
        capsys.readouterr()
        assert run(["propagate", "--waveform", str(wave), "--params", params]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "segment duration 2e-05 s" in err


_FAST = ["--max-iterations", "0", "--restarts", "1"]


class TestManifestRecord:
    """``main`` derives every manifest: the file flags given, then every file the run wrote."""

    @staticmethod
    def _inputs(tmp_path):
        _write(tmp_path / "i.json", {"amplitudes": complex_to_pairs(np.eye(8)[7])})
        _write(tmp_path / "t.json", {"amplitudes": complex_to_pairs(np.eye(8)[0])})
        _write(tmp_path / "s.json", {"amplitudes": complex_to_pairs(np.eye(7)[2])})
        _write(tmp_path / "m.json", {"entries": [complex_to_pairs(row) for row in np.eye(3)[[2, 0, 1]]]})
        _write(tmp_path / "p.json", {})
        _spec(tmp_path)

    @pytest.mark.parametrize("argv, inputs, outputs", [
        (["optimize-state", "--initial", "{d}/i.json", "--target", "{d}/t.json", "--params", "{d}/p.json", *_FAST,
          "--out-waveform", "{d}/w.csv", "--out-report", "{d}/r.json"], ["p.json", "i.json", "t.json"],
         ["r.json", "w.csv"]),
        (["optimize-state", "--initial", "basis:0", "--target", "fiducial", *_FAST,
          "--out-waveform", "{d}/w.csv", "--out-report", "{d}/r.json"], [], ["r.json", "w.csv"]),
        (["build-unitary", "--exact-mappers", "--matrix-file", "{d}/m.json", "--out-report", "{d}/r.json"],
         ["m.json"], ["r.json"]),
        (["build-unitary", "--gate", "Z", "--d", "3", "--params", "{d}/p.json", *_FAST, "--out-report", "{d}/r.json"],
         ["p.json"], ["r.json"]),
        (["build-subspace-map", "--exact", "--spec", "{d}/spec.json", "--out-report", "{d}/r.json"],
         ["spec.json"], ["r.json"]),
        (["build-subspace-map", "--spec", "{d}/spec.json", "--params", "{d}/p.json", *_FAST,
          "--out-report", "{d}/r.json"], ["p.json", "spec.json"], ["r.json"]),
        (["ec-sweep", "--average", "axes", "--epsilons", "0.1", "--out", "{d}/ec.csv"], [], ["ec.csv", "ec.meta.json"]),
        (["ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1", "--params", "{d}/p.json",
          *_FAST, "--out", "{d}/ec.csv"], ["p.json"], ["ec.csv", "ec.meta.json"]),
        (["wigner", "--state", "{d}/s.json", "--n-theta", "5", "--n-phi", "8", "--out", "{d}/g.csv"],
         ["s.json"], ["g.csv"]),
        (["verify-clifford", "--d", "3", "--out", "{d}/c.json"], [], ["c.json"]),
    ], ids=["optimize-files-params", "optimize-named-states", "unitary-exact-matrix", "unitary-searched-params",
            "subspace-exact-spec", "subspace-searched-params", "ec-ideal", "ec-synthesized-params", "wigner",
            "clifford"])
    def test_lists_the_file_flags_given_and_every_file_written(self, tmp_path, argv, inputs, outputs):
        self._inputs(tmp_path)
        before = {p.name for p in tmp_path.iterdir()}
        assert run([a.format(d=tmp_path) for a in argv]) == 0
        manifest = json.loads((tmp_path / f"{outputs[0]}.manifest.json").read_text())
        assert manifest["inputs"] == [str(tmp_path / name) for name in inputs]
        # a build report or an EC meta names the step waveforms written after the flagged files
        docs = [json.loads((tmp_path / name).read_text()) for name in outputs if name.endswith(".json")]
        waveforms = [path for doc in docs for path in doc.get("waveform_files", [])]
        assert manifest["outputs"] == [*(str(tmp_path / name) for name in outputs), *waveforms]
        # here the searched builds are the runs given --params, other than optimize-state
        assert bool(waveforms) == ("--params" in argv and argv[0] != "optimize-state")
        written = {p.name for p in tmp_path.iterdir()} - before
        assert written == {Path(path).name for path in manifest["outputs"]} | {f"{outputs[0]}.manifest.json"}

    @pytest.mark.parametrize("argv", [
        ["verify-clifford", "--d", "3"],
        ["model", "info", "--params", "{d}/p.json"],
    ])
    def test_run_that_writes_no_file_writes_no_manifest(self, tmp_path, argv):
        self._inputs(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert run([a.format(d=tmp_path) for a in argv]) == 0
        assert sorted(tmp_path.iterdir()) == before


class TestOutputClash:
    """An output flag naming an input file, another output or the first's manifest exits 2 before any work or write."""

    @pytest.mark.parametrize("waveform, report, message", [
        ("{d}/r.json", "{d}/r.json", "--out-report and --out-waveform name one file: {d}/r.json"),
        ("{d}/sub/../r.json", "{d}/r.json", "--out-report and --out-waveform name one file: {d}/sub/../r.json"),
        ("r.json", "{d}/r.json", "--out-report and --out-waveform name one file: r.json"),
        ("{d}/r.json.manifest.json", "{d}/r.json",
         "--out-waveform and the manifest of --out-report name one file: {d}/r.json.manifest.json"),
    ], ids=["same-path", "dot-dot", "relative-and-absolute", "manifest-of-first"])
    def test_exits_2_before_any_search_or_write(self, tmp_path, capsys, monkeypatch, waveform, report, message):
        searches = []
        monkeypatch.setattr(unimap.cli, "multi_start", lambda *a: searches.append(a))
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "i.json", {"amplitudes": complex_to_pairs(np.eye(8)[7])})
        assert run(["optimize-state", "--initial", str(tmp_path / "i.json"), "--target", "basis:3",
                    "--out-waveform", waveform.format(d=tmp_path), "--out-report", report.format(d=tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(d=tmp_path)}\n")
        assert searches == []
        assert [p.name for p in tmp_path.iterdir()] == ["i.json"]

    @pytest.mark.parametrize("doc, argv, message", [
        ({"source": [complex_to_pairs(np.eye(8)[0])], "target": [complex_to_pairs(np.eye(8)[2])]},
         ["build-subspace-map", "--exact", "--spec", "{d}/in.json", "--out-report", "{d}/in.json"],
         "--spec and --out-report name one file: {d}/in.json"),
        ({"amplitudes": complex_to_pairs(np.eye(7)[2])}, ["wigner", "--state", "{d}/in.json", "--out", "in.json"],
         "--state and --out name one file: in.json"),
        ({"amplitudes": complex_to_pairs(np.eye(8)[7])},
         ["optimize-state", "--initial", "{d}/in.json", "--target", "basis:3", *_FAST, "--out-waveform", "{d}/w.csv",
          "--out-report", "{d}/in.json"], "--initial and --out-report name one file: {d}/in.json"),
    ], ids=["spec", "wigner-state", "optimize-initial"])
    def test_output_naming_an_input_exits_2_and_keeps_it(self, tmp_path, capsys, monkeypatch, doc, argv, message):
        searches, search = [], unimap.cli.multi_start
        monkeypatch.setattr(unimap.cli, "multi_start", lambda *a: searches.append(a) or search(*a))
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "in.json", doc)
        original = (tmp_path / "in.json").read_bytes()
        assert run([a.format(d=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(d=tmp_path)}\n")
        assert searches == []
        assert (tmp_path / "in.json").read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    @pytest.mark.parametrize("argv, name, message", [
        (["ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1", "--params", "e.meta.json",
          *_FAST, "--out", "e.csv"], "e.meta.json", "--params and the meta of --out name one file: e.meta.json"),
        (["ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1", "--params",
          "{d}/e-map2-step3.csv", *_FAST, "--out", "e.csv"], "e-map2-step3.csv",
         "--params and a step waveform of --out name one file: {d}/e-map2-step3.csv"),
        (["build-unitary", "--gate", "Z", "--d", "3", "--params", "r-step0.csv", *_FAST, "--out-report", "r.json"],
         "r-step0.csv", "--params and a step waveform of --out-report name one file: r-step0.csv"),
        (["build-subspace-map", "--spec", "{d}/spec.json", "--params", "w/../r-step12.csv", *_FAST,
          "--waveform-dir", "{d}", "--out-report", "{d}/out/r.json"], "r-step12.csv",
         "--params and a step waveform of --out-report name one file: w/../r-step12.csv"),
    ], ids=["ec-meta", "ec-step-csv", "unitary-step-csv", "subspace-step-csv-in-waveform-dir"])
    def test_input_a_derived_file_would_overwrite_exits_2_and_keeps_it(self, tmp_path, capsys, monkeypatch,
                                                                        argv, name, message):
        searches, search = [], unimap.cli.multi_start
        monkeypatch.setattr(unimap.cli, "multi_start", lambda *a: searches.append(a) or search(*a))
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / name, {})
        _spec(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run([a.format(d=tmp_path) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message.format(d=tmp_path)}\n")
        assert searches == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_input_named_like_a_derived_file_of_a_run_that_derives_none_still_runs(self, tmp_path, monkeypatch):
        # an exact build writes no step waveform, so its matrix may carry a step waveform's name
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "r-step0.csv", {"entries": [complex_to_pairs(row) for row in np.eye(2)[[1, 0]]]})
        assert run(["build-unitary", "--exact-mappers", "--matrix-file", "r-step0.csv", "--out-report", "r.json"]) == 0
        assert json.loads((tmp_path / "r.json.manifest.json").read_text())["inputs"] == ["r-step0.csv"]

    def test_two_inputs_naming_one_file_still_run(self, tmp_path):
        _write(tmp_path / "i.json", {"amplitudes": complex_to_pairs(np.eye(8)[7])})
        assert run(["optimize-state", "--initial", str(tmp_path / "i.json"), "--target", str(tmp_path / "i.json"),
                    *_FAST, "--out-waveform", str(tmp_path / "w.csv"), "--out-report", str(tmp_path / "r.json")]) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["inputs"] == [str(tmp_path / "i.json")] * 2


class TestEpsilonEnds:
    """The default grid's ends are checked before ``np.geomspace`` sees them."""

    @pytest.mark.parametrize("flags, shown", [
        (["--eps-min", "-0.1", "--eps-max", "0.3"], "(-0.1, 0.3)"),
        (["--eps-min", "0.1", "--eps-max", "-0.3"], "(0.1, -0.3)"),
        (["--eps-max", "inf"], "(0.02, inf)"),
        (["--eps-min=-inf", "--eps-max", "-0.1"], "(-inf, -0.1)"),
        (["--eps-min", "nan"], "(nan, 0.3)"),
        (["--eps-min", "0"], "(0.0, 0.3)"),
        (["--eps-max", "-0"], "(0.02, -0.0)"),
    ])
    def test_refused_ends_exit_2_without_outputs_or_warnings(self, tmp_path, capsys, flags, shown):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["ec-sweep", "--average", "axes", *flags, "--out", str(tmp_path / "ec.csv")]) == 2
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: --eps-min and --eps-max must be finite, nonzero and of one sign, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ends", [(-0.3, -0.02), (0.3, 0.02)])
    def test_negative_and_descending_grids_still_run(self, tmp_path, ends):
        flags = ["--eps-min", str(ends[0]), "--eps-max", str(ends[1]), "--eps-count", "3"]
        assert run(["ec-sweep", "--average", "axes", *flags, "--out", str(tmp_path / "ec.csv")]) == 0
        assert json.loads((tmp_path / "ec.meta.json").read_text())["epsilon_grid"] == np.geomspace(*ends, 3).tolist()


@pytest.mark.parametrize("gate", ["G:x", "G:", "G:1.5"])
def test_bad_gate_multiplier_exits_2_naming_the_grammar(tmp_path, capsys, gate):
    assert run(["build-unitary", "--gate", gate, "--d", "5", "--exact-mappers",
                "--out-report", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: unknown gate name {gate!r}; expected X, Z, H, S, or G:<a>\n"
    assert list(tmp_path.iterdir()) == []


class TestNonFiniteReport:
    """A report holding a NaN is a program fault: it exits 1 before anything is printed or written."""

    @pytest.mark.parametrize("out", [[], ["--out", "c.json"]], ids=["validate-only", "with-out"])
    def test_clifford_nan_deviation_exits_1(self, tmp_path, capsys, monkeypatch, out):
        verify = unimap.cli.verify_clifford_relations

        def nan_deviation(*args, **kwargs):
            report = verify(*args, **kwargs)
            return report._replace(deviations={**report.deviations, "HXH* = Z": float("nan")})

        monkeypatch.setattr(unimap.cli, "verify_clifford_relations", nan_deviation)
        monkeypatch.chdir(tmp_path)
        assert run(["verify-clifford", "--d", "3", *out]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "ReportError: nan is not a finite number" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_build_report_nan_fidelity_exits_1_before_the_report_exists(self, tmp_path, capsys, monkeypatch):
        synthesize = unimap.cli.synthesize_unitary
        monkeypatch.setattr(unimap.cli, "synthesize_unitary",
                            lambda *a: synthesize(*a)._replace(fidelity=float("nan")))
        assert run(["build-unitary", "--gate", "H", "--d", "3", "--exact-mappers",
                    "--out-report", str(tmp_path / "r.json")]) == 1
        assert "ReportError: nan is not a finite number" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_refusal_needs_no_jsonschema(self, tmp_path):
        src = str(Path(unimap.__file__).resolve().parents[1])
        code = (
            "import sys\n"
            "sys.modules['jsonschema'] = None  # any import of it raises ImportError\n"
            "import unimap.cli\n"
            "verify = unimap.cli.verify_clifford_relations\n"
            "unimap.cli.verify_clifford_relations = lambda *a, **k: verify(*a, **k)._replace(\n"
            "    deviations={'HXH* = Z': float('nan')})\n"
            "sys.exit(unimap.cli.main(['verify-clifford', '--d', '3', '--out', 'c.json']))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
                             env={**os.environ, "PYTHONPATH": src})
        assert (out.returncode, out.stdout) == (1, "")
        assert out.stderr.splitlines()[-1] == ("unimap.io.ReportError: nan is not a finite number"
                                               " (at ['deviations', 'HXH* = Z'] in a clifford_report document)")
        assert list(tmp_path.iterdir()) == []


def test_internal_key_error_exits_1_with_traceback(monkeypatch, capsys):
    def broken(args):
        raise KeyError("entries")

    monkeypatch.setattr(unimap.cli, "cmd_model_info", broken)
    assert run(["model", "info"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "KeyError: 'entries'" in err
