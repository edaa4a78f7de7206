"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
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


def _module_level_defs(tree):
    """Private names a module defines at module level, with the node
    that defines each, looking into if/try blocks but not into
    functions or classes."""
    defs = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack += [n for n in ast.iter_child_nodes(node) if isinstance(n, (ast.stmt, ast.ExceptHandler))]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defs += [(name, node) for name in names if name.startswith("_") and not name.endswith("__")]
    return defs


def test_no_unreferenced_private_names():
    # a private helper that nothing in the package uses is left over
    # from a deletion; a name counts as used where its own module loads
    # it outside its definition, or where any module imports it or
    # reads it as an attribute (_k.mul_into)
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    assert trees
    imported_or_attr = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported_or_attr.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                imported_or_attr.add(node.attr)
    found = []
    for path, tree in trees.items():
        for name, node in _module_level_defs(tree):
            inside = {id(n) for n in ast.walk(node)}
            loaded = any(
                isinstance(n, ast.Name) and n.id == name and id(n) not in inside
                for n in ast.walk(tree)
            )
            if not loaded and name not in imported_or_attr:
                found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    assert found == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_kernel_uses(tree):
    """(line, name) of each private kernel name a module imports or
    reads as an attribute of a kernel module it imported."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.asname and "_kernel" in a.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            for alias in node.names:
                if parts[-1] == "_kernel" and alias.name in ("impl", "pure"):
                    modules.add(alias.asname or alias.name)
                elif "_kernel" in parts and _is_private(alias.name):
                    found.append((node.lineno, alias.name))
    found += [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _is_private(node.attr)
    ]
    return sorted(found)


def test_only_the_kernel_uses_its_private_names():
    # client modules go through the kernel's public operations, so its
    # helpers can change without touching them
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.parent.name != "_kernel"]
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in _private_kernel_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _memo_rule_uses(tree):
    """(line, what) of each read of MEMO_CAP and each class with dict
    as a base in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "MEMO_CAP") for a in node.names if a.name == "MEMO_CAP"]
        elif getattr(node, "id", None) == "MEMO_CAP" or getattr(node, "attr", None) == "MEMO_CAP":
            found.append((node.lineno, "MEMO_CAP"))
        elif isinstance(node, ast.ClassDef):
            names = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases]
            if "dict" in names:
                found.append((node.lineno, f"class {node.name}(dict)"))
    return sorted(found)


def test_the_memo_rule_stays_in_the_kernel():
    # every memo is a kernel Memo, cleared by its one rule, so no module
    # outside the kernel reads MEMO_CAP or defines a dict of its own
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    inside, found = set(), []
    for path, tree in trees.items():
        for line, what in _memo_rule_uses(tree):
            if path.parent.name == "_kernel":
                inside.add(what)
            else:
                found.append(f"{path.relative_to(SRC)}:{line} {what}")
    assert inside == {"MEMO_CAP", "class Memo(dict)"}
    assert found == []


def test_the_kernel_binds_one_module_level_memo():
    # what depends on a key's jet part alone is one record per part in
    # one table, which each reader fills on first use, not one memo per
    # reader keyed by the same parts
    tree = ast.parse((SRC / "_kernel" / "pure.py").read_text())
    memos = [
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "Memo"
        for target in node.targets
    ]
    assert memos == ["_parts"]


def test_no_code_generating_modules_on_the_import_path():
    # the value records are NamedTuples: dataclasses, and the inspect it
    # loads, would add about 10 ms to every cold start of the command;
    # the command table's parser stands in for argparse, which with the
    # gettext it loads added about 3.6 ms
    modules = "{'dataclasses', 'inspect', 'argparse', 'gettext'}"
    code = f"import sys, jetlaw.cli; print(sorted({modules} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out == "[]\n"
