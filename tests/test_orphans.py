"""Every public module-level function of the package is used: a merge that leaves an orphan fails here.

A function counts as used when its name appears, as a whole word, in some
Python file under ``src``, ``tests`` or ``bench`` outside the lines of its
own definition (decorators, signature and body).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unimap"


def public_functions():
    """(defining file, name, first line, last line) of each public function at a package module's top level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                yield path, node.name, first, node.end_lineno


def test_every_public_function_is_referenced_outside_its_definition():
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "bench") for path in sorted((ROOT / folder).rglob("*.py"))}
    found = list(public_functions())
    assert {"mat_exp", "main", "write_report"} <= {name for _, name, _, _ in found}
    orphans = []
    for defined_in, name, first, last in found:
        lines = sources[defined_in].splitlines()
        rest = "\n".join(lines[:first - 1] + lines[last:])
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(rest if path == defined_in else text) for path, text in sources.items()):
            orphans.append(f"{defined_in.stem}.{name}")
    assert orphans == []
