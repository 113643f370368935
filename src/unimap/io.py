"""Every file the CLI reads or writes (``cli`` opens none): CSV and JSON formats, reports, schemas.

All writes are atomic (temp file + rename), follow the umask, and are
deterministic: floats are serialized with 17 significant digits so
round-trips are value-exact, and JSON keys are sorted.  ``FLOAT_FORMAT``
is that format; ``fmt`` applies it to one value, and each CSV writer
builds a ``%`` template for one row (a Wigner grid's theta row, an EC
error angle, a waveform segment) and fills it from the row's values in
one call, instead of formatting value by value.

Every JSON report, meta and manifest passes ``validate_report`` before it
is written, which refuses any NaN or infinity in it: a refused document
raises ``ReportError``, naming the path to the first non-finite number.
That is the one check made at run time.  The shipped schemas
(``load_schema``) describe each kind of document; the tests check every
kind the CLI writes against its schema with jsonschema.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from importlib import resources

import numpy as np

from .control import Waveform
from .core import _number_array
from .ec import ECResult
from .subspace import SubspaceMapSpec
from .wigner import WignerGrid


#: printf form of every float written to CSV: 17 significant digits, exact for binary64
FLOAT_FORMAT = "%.17g"


def fmt(x: float) -> str:
    """Decimal form with 17 significant digits; exact for binary64."""
    return FLOAT_FORMAT % float(x)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            umask = os.umask(0)  # mkstemp creates mode 0600: give the file the mode open() would
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path: str, doc: dict) -> None:
    """Write doc as sorted JSON; a NaN or infinity anywhere in it raises ValueError before any write."""
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _save_rows(path: str, header: str, row: str, rows) -> None:
    """Write a CSV: the header line, then one line per tuple of ``rows``, filled into the ``%`` template ``row``."""
    atomic_write_text(path, "\n".join([header, *(row % values for values in rows)]) + "\n")


def save_waveform(path: str, w: Waveform) -> None:
    """CSV with header segment,duration_s,u1..uK, one row per segment."""
    header = "segment,duration_s," + ",".join(f"u{k+1}" for k in range(w.n_controls))
    row = ",".join(["%d"] + [FLOAT_FORMAT] * (w.n_controls + 1))
    rows = enumerate(zip(w.durations.tolist(), w.amplitudes.tolist()))
    _save_rows(path, header, row, ((m, duration, *amps) for m, (duration, amps) in rows))


def load_waveform(path: str) -> Waveform:
    """Parse a waveform CSV, reporting the offending row on any defect."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: row 1: empty waveform file")
    header = rows[0].split(",")
    if header[:2] != ["segment", "duration_s"] or len(header) < 3:
        raise ValueError(f"{path}: row 1: bad header {rows[0]!r}")
    n_controls = len(header) - 2
    durations, amplitudes = [], []
    for i, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != n_controls + 2:
            raise ValueError(f"{path}: row {i}: expected {n_controls + 2} fields, got {len(parts)}")
        if parts[0].strip() != str(i - 2):
            raise ValueError(f"{path}: row {i}: segment {parts[0]!r} is not the row's position {i - 2}")
        try:
            durations.append(float(parts[1]))
            amplitudes.append([float(p) for p in parts[2:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    if not durations:
        raise ValueError(f"{path}: row 2: no segments")
    return Waveform(np.array(durations), np.array(amplitudes))


def complex_to_pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in _number_array(values, complex).ravel()]


def pairs_to_complex(data, what: str = "vector", matrix: bool = False) -> np.ndarray:
    """Complex values from a list of [re, im] pairs or, with ``matrix``, from a d x d matrix of them."""
    try:
        arr = _number_array(data)
    except (TypeError, ValueError):  # an object, null, bool, string, ragged row or huge integer
        arr = np.empty(0)
    if arr.ndim != (3 if matrix else 2) or arr.shape[-1] != 2 or (matrix and arr.shape[0] != arr.shape[1]):
        raise ValueError(f"{what} must be a {'d x d matrix' if matrix else 'list'} of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def read_json(path: str, field: str | None = None):
    """A JSON file's value, or with ``field`` an object's field or a bare value; bad JSON names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if field is None or not isinstance(data, dict):
        return data
    if field not in data:
        raise ValueError(f"{path}: missing field {field!r}")
    return data[field]


def load_state_json(path: str) -> np.ndarray:
    """State vector from JSON: either a bare pair list or {'amplitudes': ...}."""
    return pairs_to_complex(read_json(path, "amplitudes"), what=f"{path}: amplitudes")


def load_matrix_json(path: str) -> np.ndarray:
    """A d x d matrix, d >= 2, from JSON: either a bare matrix of pairs or {'entries': ...}."""
    entries = pairs_to_complex(read_json(path, "entries"), what=f"{path}: entries", matrix=True)
    if entries.shape[0] < 2:
        raise ValueError(f"{path}: dimension must be >= 2, got {entries.shape[0]}")
    return entries


def load_subspace_spec(path: str) -> SubspaceMapSpec:
    """Subspace spec from JSON with named (or listed) basis vectors; unknown fields are rejected, and every refusal,
    ``SubspaceMapSpec``'s included, names the file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    unknown = set(data) - {"source", "target", "phase_correction"}
    if unknown:
        raise ValueError(f"{path}: unknown spec field: {sorted(unknown)[0]}")

    def basis(field: str):
        if field not in data:
            raise ValueError(f"{path}: missing field {field!r}")
        entries = data[field]
        if isinstance(entries, dict):
            pairs = list(entries.items())
        elif isinstance(entries, list):
            pairs = [(f"{field}[{i}]", v) for i, v in enumerate(entries)]
        else:
            raise ValueError(f"{path}: field {field!r} must be an object or array")
        return tuple(pairs_to_complex(v, what=f"{path}: {name}") for name, v in pairs)

    source, target = basis("source"), basis("target")
    try:
        return SubspaceMapSpec(source, target, data.get("phase_correction", True))
    except ValueError as exc:  # the spec's own refusal, which names no file
        raise ValueError(f"{path}: {exc}") from None


def save_ec_csv(path: str, result: ECResult) -> None:
    """CSV with header epsilon,corrected,uncorrected,trigger_rate, one row per error angle."""
    rows = zip(result.epsilon, result.corrected, result.uncorrected, result.trigger_rate)
    _save_rows(path, "epsilon,corrected,uncorrected,trigger_rate", ",".join([FLOAT_FORMAT] * 4), rows)


def save_wigner_csv(path: str, grid: WignerGrid) -> None:
    """CSV with header theta,phi,w, one line per grid point, theta-major.

    The phi strings are formatted once; each theta row is one ``%``
    template of ``theta,phi_j,%.17g`` lines, filled from that row's values.
    """
    # joining with the theta string puts it in front of every cell
    cells = ["", *(f",{fmt(phi)},{FLOAT_FORMAT}\n" for phi in grid.phis.tolist())]
    parts = ["theta,phi,w\n"]
    for theta, values in zip(grid.thetas.tolist(), grid.values.tolist()):
        parts.append(fmt(theta).join(cells) % tuple(values))
    atomic_write_text(path, "".join(parts))


def load_schema(name: str) -> dict:
    """A shipped schema as a dict, read from the package."""
    return json.loads(resources.files("unimap").joinpath(f"schemas/{name}.schema.json").read_text())


class ReportError(Exception):
    """A document that holds a NaN or infinity, at ``path``: a program fault, no ValueError."""

    def __init__(self, name: str, path: list, value: float):
        super().__init__(f"{value!r} is not a finite number (at {path} in a {name} document)")
        self.path = path


def _non_finite(x, path: list) -> tuple[list, float] | None:
    """The path to the first NaN or infinity in x, a JSON value, and that float; None if there is none."""
    if isinstance(x, float) and not math.isfinite(x):
        return path, x
    for key, value in x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ():
        if (found := _non_finite(value, [*path, key])) is not None:
            return found
    return None


def validate_report(name: str, doc: dict) -> dict:
    """Refuse a ``name`` document that holds a NaN or infinity; returns doc.

    A refused doc raises ``ReportError`` with the path to its first non-finite
    number.  Conformance to the shipped schema is the tests' job: every
    document the CLI builds comes from typed records.
    """
    if (found := _non_finite(doc, [])) is not None:
        raise ReportError(name, *found)
    return doc


def write_report(path: str, schema: str, doc: dict) -> dict:
    """Refuse a non-finite number in doc, a ``schema`` document, then write it with ``save_json``; returns doc."""
    save_json(path, validate_report(schema, doc))
    return doc
