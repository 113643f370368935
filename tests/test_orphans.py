"""Every module-level function and every module-level name of the package is used, and every name a package module
imports is used there: a merge that leaves an orphan fails here.

Use is read from the code, not the text: a function counts as used when
some Python file under ``src``, ``tests`` or ``bench`` reads its name, as
a name or as an attribute, outside the lines of its own definition
(decorators, signature and body).  A name assigned at a module's top level
(a constant or a table), public or not, counts as used the same way,
outside the lines of its own assignment.  A name that only a docstring,
a comment or a string mentions is not used.

The same AST reading keeps each rule with one home: no module but ``core``
refuses by hand against a ``*_TOL`` tolerance, as ``core._refuse_deviation``
is that refusal, with its non-finite branch.  It keeps each record with one
builder too: only ``subspace.phase_product`` builds a ``PhaseStep``, and
only ``search`` builds a ``SearchResult``.  And it keeps one rule for a played waveform: every public function
that takes a ``ControlSystem`` and a ``Waveform`` calls ``control.check_waveform``.  Overflow handling keeps one
home as well: no module but ``core`` enters ``np.errstate``, and there only ``_hermitian_defect`` does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unimap"


def _top_level_nodes():
    """(defining file, node) of each statement at a package module's top level."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path, node


def functions(public: bool):
    """(defining file, name, first line, last line) of each public, or private, function at a module's top level."""
    for path, node in _top_level_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_") != public:
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


def _reads(tree: ast.AST):
    """(name, line) of each name and attribute that the code of ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def orphans(found, root: Path = ROOT) -> list[str]:
    """'module.name' of each of ``found`` that no source under ``root`` reads outside its own lines."""
    reads = {path: list(_reads(ast.parse(path.read_text(encoding="utf-8"))))
             for folder in ("src", "tests", "bench") for path in sorted((root / folder).rglob("*.py"))}
    unused = []
    for defined_in, name, first, last in found:
        if not any(read == name and (path != defined_in or not first <= line <= last)
                   for path, seen in reads.items() for read, line in seen):
            unused.append(f"{defined_in.stem}.{name}")
    return unused


def unused_imports(path: Path) -> list[str]:
    """'module.name' of each name that an import in the module at ``path`` binds and its code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {name for name, _ in _reads(tree)}
    return [f"{path.stem}.{name}" for name in bound if name not in read]


def test_every_public_function_is_referenced_outside_its_definition():
    found = list(functions(public=True))
    assert {"mat_exp", "main", "write_report"} <= {name for _, name, _, _ in found}
    assert orphans(found) == []


def test_every_private_function_is_read_outside_its_definition():
    found = list(functions(public=False))
    assert {"_forward", "_segment_eigs", "_refuse_deviation"} <= {name for _, name, _, _ in found}
    assert orphans(found) == []


def test_every_module_level_name_is_referenced_outside_its_assignment():
    found = list(assigned_names())
    assert {"CONFIG_FLAGS", "OPTIONAL_FLAGS", "SEARCH_FLAGS", "_GRID", "MU_CAP"} <= {name for _, name, _, _ in found}
    assert orphans(found) == []


def test_a_name_only_prose_mentions_is_an_orphan(tmp_path):
    module = tmp_path / "src" / "unimap" / "m.py"
    module.parent.mkdir(parents=True)
    module.write_text('LIMIT = 1\n\n\ndef used():\n    return LIMIT\n\n\n'
                      'def f():\n    """Calls g, then reads LIMIT."""\n')
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text("from unimap.m import used\n\n# f is covered elsewhere\nused()\n")
    assert orphans([(module, "f", 8, 9), (module, "used", 4, 5), (module, "LIMIT", 1, 1)], tmp_path) == ["m.f"]


def test_no_package_module_imports_a_name_it_never_reads():
    assert [found for path in sorted(PACKAGE.glob("*.py")) for found in unused_imports(path)] == []


def test_an_import_that_only_prose_reads_is_unused(tmp_path):
    module = tmp_path / "m.py"
    module.write_text('from __future__ import annotations\n\nimport numpy as np\nfrom numbers import Real\n\n\n'
                      'def f(x):\n    """Whether x is a Real."""\n    return np.isscalar(x)\n')
    assert unused_imports(module) == ["m.Real"]


def _is_tolerance(node: ast.AST) -> bool:
    """Whether ``node`` reads a name, or an attribute, that ends in ``_TOL``."""
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")).endswith("_TOL")


def hand_tolerance_refusals(path: Path) -> list[str]:
    """'module:line' of each ``not`` in the module at ``path`` whose operand compares ``<=`` against a ``*_TOL`` name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                   for compare in ast.walk(node.operand) if isinstance(compare, ast.Compare)
                   if any(isinstance(op, ast.LtE) and _is_tolerance(right)
                          for op, right in zip(compare.ops, compare.comparators))})


def test_only_core_refuses_against_a_tolerance_by_hand():
    assert [found for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"
            for found in hand_tolerance_refusals(path)] == []


def test_a_negated_tolerance_comparison_is_a_hand_refusal(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom core import STATE_NORM_TOL\nimport core\n\n\n"
                      "def f(x):\n    if not np.all(x <= STATE_NORM_TOL):\n        raise ValueError\n"
                      "    if not x <= core.SKIP_TOL:\n        raise ValueError\n"
                      "    if x <= STATE_NORM_TOL or not x <= 1:\n        return x\n")
    assert hand_tolerance_refusals(module) == ["m:7", "m:9"]


def constructions(path: Path, record: str) -> list[str]:
    """'module.scope' of each call of ``record``, by name or attribute, in the module at ``path``; the scope is the
    top-level function or class that holds the call, or ``<module>``."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            callee = getattr(node, "func", None)
            if isinstance(node, ast.Call) and record in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_phase_product_builds_a_step_record():
    assert {found for path in sorted(PACKAGE.glob("*.py")) for found in constructions(path, "PhaseStep")} == {
        "subspace.phase_product"}


def test_only_search_builds_a_search_result():
    assert {found.split(".")[0] for path in sorted(PACKAGE.glob("*.py"))
            for found in constructions(path, "SearchResult")} == {"search"}


def test_a_record_built_by_name_or_attribute_is_a_construction(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from unimap import subspace\nfrom unimap.subspace import PhaseStep\n\n"
                      "FIRST = PhaseStep(0.0, None)\n\n\n"
                      "class Mapper:\n    def map(self, phi):\n        return subspace.PhaseStep(1.0, phi)\n\n\n"
                      "def f(step: PhaseStep):\n    \"\"\"Builds no PhaseStep(theta, chi).\"\"\"\n"
                      "    return step.PhaseStep, PhaseStep\n")
    assert constructions(module, "PhaseStep") == ["m.<module>", "m.Mapper"]


def unchecked_players(path: Path) -> list[str]:
    """'module.name' of each public top-level function in the module at ``path`` whose annotated parameters include
    a ``ControlSystem`` and a ``Waveform`` and whose body never calls ``check_waveform``, itself excepted."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name == "check_waveform":
            continue
        args = node.args
        annotated = {ast.unparse(a.annotation) for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                     if a.annotation is not None}
        calls = {getattr(c.func, "id", None) or getattr(c.func, "attr", None)
                 for c in ast.walk(node) if isinstance(c, ast.Call)}
        if {"ControlSystem", "Waveform"} <= annotated and "check_waveform" not in calls:
            found.append(f"{path.stem}.{node.name}")
    return found


def test_every_public_function_that_plays_a_waveform_checks_it():
    assert [found for path in sorted(PACKAGE.glob("*.py")) for found in unchecked_players(path)] == []


def test_a_player_that_skips_the_rule_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from unimap import control\nfrom unimap.control import ControlSystem, Waveform, check_waveform\n"
                      "\n\ndef checked(sys: ControlSystem, w: Waveform):\n    control.check_waveform(sys, w)\n\n\n"
                      "def unchecked(sys: ControlSystem, *, w: Waveform):\n    \"\"\"Skips check_waveform.\"\"\"\n\n\n"
                      "def _private(sys: ControlSystem, w: Waveform):\n    pass\n\n\n"
                      "def system_only(sys: ControlSystem, w):\n    pass\n")
    assert unchecked_players(module) == ["m.unchecked"]


def errstate_entries(path: Path) -> list[str]:
    """'module:line' of each call of ``errstate``, by name or attribute, in the module at ``path``, in line order:
    each ``with`` or decorator that enters numpy's error state."""
    calls = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)]
    return [f"{path.stem}:{line}" for line in sorted(
        c.lineno for c in calls if "errstate" in (getattr(c.func, "id", None), getattr(c.func, "attr", None)))]


def test_only_core_enters_a_numpy_error_state():
    assert [found for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"
            for found in errstate_entries(path)] == []


def test_in_core_only_the_hermitian_defect_enters_a_numpy_error_state():
    # a state is refused at the door above ``SQUARE_LIMIT``, so no norm needs an overflow guard
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    lines = {int(found.split(":")[1]) for found in errstate_entries(PACKAGE / "core.py")}
    assert sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and lines & set(range(node.lineno, node.end_lineno + 1))) == ["_hermitian_defect"]
    assert len(lines) == 1


def test_an_error_state_entered_by_name_attribute_or_decorator_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\nfrom numpy import errstate\n\n\n"
                      "def f(x):\n    with np.errstate(over='ignore'):\n        y = x * x\n"
                      "    with open('f'), errstate(invalid='ignore'):\n        return y\n\n\n"
                      "@np.errstate(all='ignore')\ndef g(x):\n    \"\"\"Enters no np.errstate(over).\"\"\"\n"
                      "    return np.errstate, x\n")
    assert errstate_entries(module) == ["m:6", "m:8", "m:12"]
