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
