"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import unimap
import unimap.cli
from unimap.cli import _resolve_state, build_parser, main
from unimap.core import basis_state
from unimap.io import complex_to_pairs, load_schema, load_waveform

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


class TestSubspaceMapCLI:
    def test_exact_mode(self, tmp_path):
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # importing scipy.optimize costs ~17 MB of resident memory
    src = str(Path(unimap.__file__).resolve().parents[1])
    code = "import sys, unimap.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


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
    # the report keeps the effective search settings
    config = json.loads(report.read_text())["config"]
    assert (config["restarts"], config["fidelity_goal"], config["max_iterations"]) == (3, 0.99, 0)


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("unimap ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
