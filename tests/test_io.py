"""Waveform CSV, state/spec JSON, schema validation, atomic writes."""

import json
import os
from importlib import resources

import jsonschema
import numpy as np
import pytest

from unimap.control import Waveform, propagate
from unimap.ec import ECResult
from unimap.io import (
    atomic_write_text,
    complex_to_pairs,
    fmt,
    load_schema,
    load_state_json,
    load_subspace_spec,
    load_waveform,
    pairs_to_complex,
    save_json,
    save_manifest,
    save_ec_csv,
    save_waveform,
    save_wigner_csv,
    validate_report,
)
from unimap.wigner import WignerGrid, wigner_grid


#: floats whose text is easy to get wrong: a signed zero, the smallest subnormal, a huge value, a repeating fraction
AWKWARD_FLOATS = (-0.0, 5e-324, 1e300, -1 / 3)


def _per_point(x) -> str:
    """One value at a time, in the format() spelling of the CSV float format."""
    return format(float(x), ".17g")


class TestFloatFormat:
    @pytest.mark.parametrize("x", [0.1, 1 / 3, 1e-300, 7.25, np.pi, -1.0000000000000002])
    def test_round_trip_exact(self, x):
        assert float(fmt(x)) == x

    @pytest.mark.parametrize("x", AWKWARD_FLOATS + (0.1, np.pi, np.float64(1e-310)))
    def test_is_the_printf_float_format(self, x):
        assert fmt(x) == "%.17g" % x == _per_point(x)


class TestWaveformCSV:
    def test_round_trip_exact(self, tmp_path, cesium):
        rng = np.random.default_rng(0)
        w = Waveform(np.full(40, 1e-5), rng.uniform(-1, 1, (40, 5)))
        path = tmp_path / "w.csv"
        save_waveform(str(path), w)
        loaded = load_waveform(str(path))
        assert np.array_equal(loaded.durations, w.durations)
        assert np.array_equal(loaded.amplitudes, w.amplitudes)
        # propagators identical, not merely close
        assert np.array_equal(propagate(cesium, loaded), propagate(cesium, w))

    def test_header_format(self, tmp_path):
        w = Waveform(np.array([1e-6]), np.array([[0.5, -0.25]]))
        path = tmp_path / "w.csv"
        save_waveform(str(path), w)
        header = path.read_text().splitlines()[0]
        assert header == "segment,duration_s,u1,u2"

    def test_empty_file_names_row_one(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="row 1"):
            load_waveform(str(path))

    def test_malformed_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("segment,duration_s,u1\n0,1e-6,0.5\n1,1e-6\n")
        with pytest.raises(ValueError, match="row 3"):
            load_waveform(str(path))

    def test_non_numeric_named(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("segment,duration_s,u1\n0,abc,0.5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_waveform(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("segment,duration_s,u1\n")
        with pytest.raises(ValueError, match="no segments"):
            load_waveform(str(path))


class TestStateJSON:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        path = tmp_path / "state.json"
        save_json(str(path), {"amplitudes": complex_to_pairs(psi)})
        assert np.array_equal(load_state_json(str(path)), psi)

    def test_bare_list_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("[[1.0, 0.0], [0.0, 0.0]]")
        assert np.array_equal(load_state_json(str(path)), np.array([1.0 + 0j, 0.0]))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="amplitudes"):
            load_state_json(str(path))

    def test_pairs_validation(self):
        with pytest.raises(ValueError, match="pairs"):
            pairs_to_complex([[1.0, 2.0, 3.0]])


class TestSubspaceSpecJSON:
    def test_named_vectors(self, tmp_path):
        doc = {
            "source": {"a1": complex_to_pairs([1, 0, 0, 0]), "a2": complex_to_pairs([0, 1, 0, 0])},
            "target": {"b1": complex_to_pairs([0, 0, 1, 0]), "b2": complex_to_pairs([0, 0, 0, 1])},
            "phase_correction": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_subspace_spec(str(path))
        assert spec.n == 2 and spec.dim == 4
        assert not spec.phase_correction

    def test_list_vectors(self, tmp_path):
        doc = {
            "source": [complex_to_pairs([1, 0, 0])],
            "target": [complex_to_pairs([0, 1j, 0])],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_subspace_spec(str(path))
        assert spec.phase_correction
        assert np.array_equal(spec.target[0], np.array([0, 1j, 0]))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_boolean_phase_correction_rejected(self, tmp_path, value):
        doc = {
            "source": [complex_to_pairs([1, 0])],
            "target": [complex_to_pairs([0, 1])],
            "phase_correction": value,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="phase_correction"):
            load_subspace_spec(str(path))

    def test_missing_target_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"source": [complex_to_pairs([1, 0])]}))
        with pytest.raises(ValueError, match="target"):
            load_subspace_spec(str(path))


class TestSchemas:
    def test_all_schemas_load(self):
        for name in ("run_manifest", "search_report", "synthesis_report", "subspace_report",
                     "ec_metadata", "clifford_report"):
            schema = load_schema(name)
            assert schema["type"] == "object"

    def test_validation_failure_raises(self):
        with pytest.raises(jsonschema.ValidationError):
            validate_report("clifford_report", {"d": 2})

    def test_every_shipped_schema_passes_its_metaschema(self):
        files = [f for f in resources.files("unimap").joinpath("schemas").iterdir() if f.name.endswith(".json")]
        assert len(files) >= 6
        for f in files:
            schema = json.loads(f.read_text())
            jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("doc", [
        {"d": 2},
        {"d": "seven", "a": 1, "deviations": {}, "s_discrepancy": False},
        {"d": 7, "a": 1, "deviations": {"X^d = I": "big"}, "s_discrepancy": False},
    ])
    def test_same_error_as_jsonschema_validate(self, doc):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, load_schema("clifford_report"))
        for _ in range(2):  # the first call builds the cached validator
            with pytest.raises(jsonschema.ValidationError) as got:
                validate_report("clifford_report", doc)
            assert got.value.message == want.value.message
            assert list(got.value.path) == list(want.value.path)

    def test_manifest_duplicate_output_rejected(self, tmp_path):
        m = {
            "command": "x", "config": {}, "inputs": [], "outputs": ["a.csv", "a.csv"],
            "seed": 0, "version": "0", "duration_s": 0.1,
        }
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="exactly once"):
            save_manifest(str(path), m)
        assert not path.exists()


def _wigner_grids():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    yield wigner_grid(psi / np.linalg.norm(psi), 9, 14)
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    yield wigner_grid(psi / np.linalg.norm(psi))  # the CLI's default 61 x 120 grid
    yield WignerGrid(
        thetas=np.array([0.0, *AWKWARD_FLOATS]),
        phis=np.array([*AWKWARD_FLOATS, 1.0]),
        values=np.outer([1.0, -1.0, 1e-8, 2.0, 1.0], [*AWKWARD_FLOATS, 0.1]),
    )


def test_wigner_csv_matches_per_point_writer(tmp_path):
    for grid in _wigner_grids():
        lines = ["theta,phi,w"]
        for i, theta in enumerate(grid.thetas):
            for j, phi in enumerate(grid.phis):
                lines.append(f"{_per_point(theta)},{_per_point(phi)},{_per_point(grid.values[i, j])}")
        want = ("\n".join(lines) + "\n").encode()
        path = tmp_path / "grid.csv"
        save_wigner_csv(str(path), grid)
        assert path.read_bytes() == want


def test_ec_csv_matches_per_point_writer(tmp_path):
    result = ECResult(
        epsilon=(0.0, 0.02, 1 / 3, 5e-324),
        corrected=(1.0, 0.9999976032079638, -0.0, 1e300),
        uncorrected=(0.9997302925701078, -1 / 3, 0.5, 1.0),
        trigger_rate=(4.226309518751471e-31, 0.0, 0.3319348133604869, 1e-310),
    )
    lines = ["epsilon,corrected,uncorrected,trigger_rate"]
    for row in zip(result.epsilon, result.corrected, result.uncorrected, result.trigger_rate):
        lines.append(",".join(_per_point(x) for x in row))
    path = tmp_path / "ec.csv"
    save_ec_csv(str(path), result)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("n_controls", [1, 5])
def test_waveform_csv_matches_per_point_writer(tmp_path, n_controls):
    rng = np.random.default_rng(n_controls)
    amplitudes = rng.uniform(-1, 1, (12, n_controls))
    amplitudes[:4, 0] = AWKWARD_FLOATS
    w = Waveform(rng.uniform(1e-7, 1e-4, 12), amplitudes)
    lines = ["segment,duration_s," + ",".join(f"u{k + 1}" for k in range(n_controls))]
    for m in range(w.n_segments):
        lines.append(",".join([str(m), _per_point(w.durations[m]), *(_per_point(a) for a in w.amplitudes[m])]))
    path = tmp_path / "w.csv"
    save_waveform(str(path), w)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_save_json_deterministic(tmp_path):
    doc = {"b": 1.0 / 3.0, "a": [1, 2]}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    save_json(str(p1), doc)
    save_json(str(p2), doc)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text())["b"] == 1.0 / 3.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_json_refuses_non_finite(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        save_json(str(path), {"fidelity": 0.5, "steps": [1.0, bad]})
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_no_temp_file_on_failure(tmp_path):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails after the temp file exists
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(tmp_path / "out.txt"), "a\ud800b")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_mode_follows_umask(tmp_path):
    # mkstemp alone would leave 0600 whatever the umask
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        atomic_write_text(str(path), "x\n")
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644
