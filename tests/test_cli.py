"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import unimap
import unimap.cli
from unimap.cli import _resolve_state, main
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

    def test_gate_and_matrix_mutually_exclusive(self, tmp_path, capsys):
        code = run(["build-unitary", "--gate", "X", "--matrix-file", "m.json",
                    "--exact-mappers", "--out-report", str(tmp_path / "r.json")])
        assert code == 2

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
