"""Checks on the library source itself."""

import ast
from pathlib import Path

import jetlaw

SRC = Path(jetlaw.__file__).parent


def test_no_bare_assert():
    # python -O strips assert statements, and the library's self-checks
    # must run under -O too, so they raise instead
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(tree):
    """Names a module imports but never uses."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    # the package's two __init__ modules import to re-export
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for name, line in _unused_imports(ast.parse(path.read_text(), str(path))).items()
    ]
    assert found == []
