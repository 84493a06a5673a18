"""Every top-level function and class of profmack earns its place: another
definition in ``src/profmack`` refers to it, ``perfbench/`` names it, or
``KEEP`` says in one line why it stays.

References are read with ``ast``: a name or attribute in a definition other
than its own, or in the module code around it; in ``perfbench/`` also a
string that is a dotted name, since the tracer names its targets as strings
(``"FiniteGSet.__init__"``).  Docstrings and other prose never count.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "profmack"
PERFBENCH = ROOT / "perfbench"

KEEP = {
    "burnside.colimit_witness": "acceptance 7 entry point",
    "mackey.zero_morphism": "acceptance 8 entry point",
    "mackey.check_axioms": "oracle: tests check live Mackey functors against the axioms",
    "cbrank.check_equivariant_heights": "oracle: tests check subgroup-space certificates with it",
    "sheaf.weyl_check": "caller planned: the spzp-weyl certificate path (ROADMAP item 2)",
    "tower.tower_from_json": "caller planned: a user tower file (ROADMAP item 6)",
}

DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and ast.get_docstring(node) is not None:
            yield node.body[0].value


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def library_definitions():
    """(module.name, set of names that the rest of src/profmack refers to)."""
    definitions, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                definitions.append(f"{path.stem}.{own}")
            referenced.update(name for name in _names(node) if name != own)
    return definitions, referenced


def perfbench_names():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = {id(d) for d in _docstrings(tree)}
        names.update(_names(tree))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and id(n) not in docs and DOTTED_NAME.fullmatch(n.value)):
                names.update(n.value.split("."))
    return names


def test_every_library_definition_has_a_caller_or_a_reason():
    definitions, referenced = library_definitions()
    reached = referenced | perfbench_names()
    orphans = [d for d in definitions
               if d.split(".", 1)[1] not in reached and d not in KEEP]
    assert orphans == []


def test_keep_names_live_definitions_with_one_line_reasons():
    definitions, _ = library_definitions()
    assert set(KEEP) <= set(definitions)
    for reason in KEEP.values():
        assert reason.strip() and "\n" not in reason


def test_docstrings_are_not_references():
    tree = ast.parse('"""see helper"""\ndef f():\n    """helper"""\n    return g()\n')
    assert set(_names(tree)) == {"g"}
    assert len(list(_docstrings(tree))) == 2
