"""Which records are dataclasses, and how the array-holding ones compare.

A ``@dataclass`` is kept only for a record that validates or normalizes
its fields in ``__post_init__``; every other record is a ``NamedTuple``,
which is cheaper to create at import.  The dataclasses that hold arrays
compare and hash by identity: a field-wise ``==`` on two equal-valued
instances would have to take the truth value of an array comparison.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from unimap.control import ControlSystem, Waveform, propagate
from unimap.core import basis_state
from unimap.search import SearchConfig, SearchResult
from unimap.subspace import SearchedMapper, SubspaceMapSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "unimap"


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute) and target.attr == "dataclass")


def _dataclasses(path: Path):
    """(class name, whether its body defines __post_init__) for each @dataclass class in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator, node.decorator_list)):
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            yield node.name, "__post_init__" in methods


def test_every_dataclass_validates_in_post_init():
    found = {f"{path.stem}.{name}": validates
             for path in sorted(SRC.glob("*.py")) for name, validates in _dataclasses(path)}
    assert "control.ControlSystem" in found  # the scan sees the decorators at all
    assert sorted(name for name, validates in found.items() if not validates) == []


def _system() -> ControlSystem:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return ControlSystem(np.zeros((2, 2), dtype=complex), (x,), ((-1.0, 1.0),), 1)


def _waveform() -> Waveform:
    return Waveform(np.full(3, 1e-6), np.zeros((3, 1)))


#: a fresh instance per call, every call built from equal values
ARRAY_RECORDS = {
    "ControlSystem": _system,
    "Waveform": _waveform,
    "SearchResult": lambda: SearchResult(_waveform(), 0.5, 3, False, [0.25, 0.5], propagate(_system(), _waveform())),
    "SubspaceMapSpec": lambda: SubspaceMapSpec((basis_state(2, 0),), (basis_state(2, 1),)),
    "SearchedMapper": lambda: SearchedMapper(_system(), SearchConfig(3, 1e-6)),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
