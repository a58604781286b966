"""Every name a module of the package, a test file or a benchmark file
imports is used in that file, and every module-level private name is used
somewhere in the package."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rainbowpack"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = pathlib.Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _bound(stmt) -> list:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unreferenced_private_names(sources: dict) -> list:
    """``(module, name)`` for each module-level private name of ``sources``
    (module -> text) that no top-level statement but its own definition
    reads, as a name or as an attribute, in any of the modules."""
    defined = {}  # (module, name) -> index of its defining statement
    reads = []  # (module, statement index, names it reads)
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            for name in _bound(stmt):
                if name.startswith("_") and not name.startswith("__"):
                    defined[module, name] = i
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((module, i, names))
    return sorted(
        (module, name)
        for (module, name), i in defined.items()
        if not any(name in names and (m, j) != (module, i) for m, j, names in reads)
    )


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads as read\nread(os.sep)\n"
    assert _unused_imports(source) == [(2, "dumps")]


@pytest.mark.parametrize(
    "path",
    [pytest.param(SRC / m, id=m) for m in MODULES]
    + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))]
    + [pytest.param(p, id=f"perfbench/{p.name}") for p in sorted(PERFBENCH.glob("*.py"))],
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 3\n\ndef _cut(x):\n    return _cut(x - 1)\n\ndef _used():\n    return _LIMIT\n",
        "b": "from . import a\n\nclass _Kept:\n    pass\n\nVALUE = a._used() + _Kept.n\n",
    }
    assert _unreferenced_private_names(sources) == [("a", "_cut")]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _unreferenced_private_names(sources) == []
