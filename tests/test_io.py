"""Waveform CSV, state/spec JSON, the schemas of the written documents, their non-finite refusal, atomic writes."""

import copy
import itertools
import json
import os
import re
from importlib import resources

import jsonschema
import numpy as np
import pytest

import unimap.cli
import unimap.io
from unimap.control import Waveform, propagate
from unimap.ec import ECResult
from unimap.io import (
    ReportError,
    atomic_write_text,
    complex_to_pairs,
    fmt,
    load_schema,
    load_state_json,
    load_subspace_spec,
    load_waveform,
    pairs_to_complex,
    save_json,
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

    @pytest.mark.parametrize("segments, row", [(("abc", "1"), 2), (("0", "7"), 3), (("1", "0"), 2), (("0", "0"), 3)])
    def test_segment_not_its_position_named(self, tmp_path, segments, row):
        path = tmp_path / "seg.csv"
        path.write_text("segment,duration_s,u1\n" + "".join(f"{m},1e-6,0.5\n" for m in segments))
        with pytest.raises(ValueError, match=rf"seg\.csv: row {row}: segment '{segments[row - 2]}' is not"):
            load_waveform(str(path))

    @pytest.mark.parametrize("header", ["seg,duration_s,u1", "segment,duration_s", "duration_s,segment,u1"])
    def test_bad_header_named(self, tmp_path, header):
        path = tmp_path / "hdr.csv"
        path.write_text(f"{header}\n0,1e-6,0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row 1: bad header {header!r}')}$"):
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
        # the spec's own rule refuses it, and the message names the file
        message = f"{path}: phase_correction must be true or false, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_subspace_spec(str(path))

    @pytest.mark.parametrize("doc, message", [
        ([], "spec must be a JSON object"),
        ({"source": [complex_to_pairs([1, 0])], "target": "b1"}, "field 'target' must be an object or array"),
        ({"source": 3, "target": [complex_to_pairs([0, 1])]}, "field 'source' must be an object or array"),
    ], ids=["array-spec", "string-target", "number-source"])
    def test_spec_of_the_wrong_json_type_rejected(self, tmp_path, doc, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
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

    def test_every_shipped_schema_passes_its_metaschema(self):
        files = [f for f in resources.files("unimap").joinpath("schemas").iterdir() if f.name.endswith(".json")]
        assert len(files) >= 6
        for f in files:
            schema = json.loads(f.read_text())
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_manifest_duplicate_output_rejected(self):
        # the schema states the rule that the CLI enforces before any write
        m = {
            "command": "x", "config": {}, "inputs": [], "outputs": ["a.csv", "a.csv"],
            "seed": 0, "version": "0", "duration_s": 0.1,
        }
        with pytest.raises(jsonschema.ValidationError, match="non-unique"):
            jsonschema.validate(m, load_schema("run_manifest"))


#: search flags that end every search at once, so the corpus runs take well under a second each
_FAST = ("--max-iterations", "0", "--restarts", "1")
#: CLI runs that validate every kind of document: each report exact and searched, EC metas, manifests
_CORPUS_RUNS = (
    ("optimize-state", "--initial", "basis:7", "--target", "fiducial", "--max-iterations", "2", "--restarts", "2",
     "--out-waveform", "w.csv", "--out-report", "o.json"),
    ("build-unitary", "--gate", "H", "--d", "3", "--exact-mappers", "--out-report", "hx.json"),
    ("build-unitary", "--gate", "Z", "--d", "3", *_FAST, "--out-report", "zs.json"),
    ("build-subspace-map", "--exact", "--spec", "spec.json", "--out-report", "sx.json"),
    ("build-subspace-map", "--spec", "spec.json", *_FAST, "--out-report", "ss.json"),
    ("ec-sweep", "--average", "axes", "--epsilons", "0.1,0.2", "--out", "ei.csv"),
    ("ec-sweep", "--maps", "synthesized", "--average", "axes", "--epsilons", "0.1", *_FAST, "--out", "es.csv"),
    ("verify-clifford", "--d", "3"),
    ("verify-clifford", "--d", "5", "--a", "2", "--out", "c.json"),
    ("wigner", "--state", "state.json", "--n-theta", "3", "--n-phi", "4", "--out", "g.csv"),
)
_NON_FINITE = (float("nan"), float("inf"), -float("inf"))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """A copy of doc with the value at path replaced."""
    new = copy.deepcopy(doc)
    _at(new, path[:-1])[path[-1]] = value
    return new


def _number_paths(doc, path=()):
    """The path to each number in doc, a JSON value; a bool is no number."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ():
        yield from _number_paths(value, (*path, key))


@pytest.fixture(scope="module")
def written_docs(tmp_path_factory):
    """(schema, doc) for each document the corpus runs validate, in the order they validate them."""
    docs, validate = [], unimap.io.validate_report

    def record(name, doc):
        docs.append((name, copy.deepcopy(doc)))
        return validate(name, doc)

    work = tmp_path_factory.mktemp("corpus")
    (work / "spec.json").write_text(json.dumps({"source": [complex_to_pairs(np.eye(8)[0])],
                                                "target": [complex_to_pairs(np.eye(8)[2])]}))
    (work / "state.json").write_text(json.dumps({"amplitudes": [[0.6, 0], [0, 0.8], [0, 0]]}))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setattr(unimap.io, "validate_report", record)
        mp.setattr(unimap.cli, "validate_report", record)
        for argv in _CORPUS_RUNS:
            assert unimap.cli.main(list(argv)) == 0, argv
    return docs


class TestWrittenDocs:
    """What the corpus runs write: every kind of document meets its schema, and a non-finite number is refused."""

    def test_every_written_doc_passes_its_schema(self, written_docs):
        assert sorted({name for name, _ in written_docs}) == sorted(
            f.name.removesuffix(".schema.json") for f in resources.files("unimap").joinpath("schemas").iterdir())
        for name, doc in written_docs:
            jsonschema.validate(doc, load_schema(name))

    def test_non_finite_number_refused_at_its_path(self, written_docs):
        for name, doc in written_docs:
            paths = list(_number_paths(doc))
            assert paths, name
            validate_report(name, doc)
            for path, value in itertools.product(paths, _NON_FINITE):
                with pytest.raises(ReportError) as refused:
                    validate_report(name, _replaced(doc, path, value))
                assert refused.value.path == list(path)
                assert str(refused.value) == f"{value!r} is not a finite number (at {list(path)} in a {name} document)"


def _wigner_grids():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    yield wigner_grid(psi / np.linalg.norm(psi), 9, 14)
    psi = rng.normal(size=7) + 1j * rng.normal(size=7)
    yield wigner_grid(psi / np.linalg.norm(psi), 61, 120)  # the CLI's default grid
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
