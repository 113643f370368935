"""Every public module-level function and every module-level name of the package is used: a merge that leaves an
orphan fails here.

A function counts as used when its name appears, as a whole word, in some
Python file under ``src``, ``tests`` or ``bench`` outside the lines of its
own definition (decorators, signature and body).  A name assigned at a
module's top level (a constant or a table), public or not, counts as used
the same way, outside the lines of its own assignment.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unimap"


def _top_level_nodes():
    """(defining file, node) of each statement at a package module's top level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, node


def public_functions():
    """(defining file, name, first line, last line) of each public function at a package module's top level."""
    for path, node in _top_level_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield path, node.name, first, node.end_lineno


def assigned_names():
    """(defining file, name, first line, last line) of each name but a dunder assigned at a module's top level."""
    for path, node in _top_level_nodes():
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield path, name.id, node.lineno, node.end_lineno


def orphans(found) -> list[str]:
    """'module.name' of each of ``found`` that no source names outside its own lines."""
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "bench") for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for defined_in, name, first, last in found:
        lines = sources[defined_in].splitlines()
        rest = "\n".join(lines[:first - 1] + lines[last:])
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(rest if path == defined_in else text) for path, text in sources.items()):
            unused.append(f"{defined_in.stem}.{name}")
    return unused


def test_every_public_function_is_referenced_outside_its_definition():
    found = list(public_functions())
    assert {"mat_exp", "main", "write_report"} <= {name for _, name, _, _ in found}
    assert orphans(found) == []


def test_every_module_level_name_is_referenced_outside_its_assignment():
    found = list(assigned_names())
    assert {"CONFIG_FLAGS", "OPTIONAL_FLAGS", "SEARCH_FLAGS", "_GRID", "MU_CAP"} <= {name for _, name, _, _ in found}
    assert orphans(found) == []
