"""Lint of the package source by its syntax tree: no unused import, no dead
private function or class, an export list that is exactly what the package
imports, and no floating point."""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prymlab"


def _modules():
    sources = sorted(_PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def _references(node):
    """The names a subtree reads: bare names and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_import_is_used():
    # __init__ imports to re-export; every other module imports to use
    unused = []
    for name, tree in _modules().items():
        if name == "__init__":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = set(_references(tree))
        unused += [f"{name}.py:{line} {imported_name}"
                   for imported_name, line in imported.items() if imported_name not in used]
    assert unused == []


def test_every_private_function_and_class_is_referenced():
    # a private module-level def counts as used only when something other than
    # its own body names it, anywhere in the package
    modules = _modules()
    private = []
    referenced = set()
    for name, tree in modules.items():
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and node.name.startswith("_") and not node.name.startswith("__"):
                private.append((name, node.name))
                referenced.update(ref for ref in _references(node) if ref != node.name)
            else:
                referenced.update(_references(node))
    assert len(private) >= 20
    assert [f"{module}.{fn}" for module, fn in private if fn not in referenced] == []


def test_exports_are_exactly_the_imports():
    # __init__ re-exports every name it imports, each once, in sorted order
    tree = _modules()["__init__"]
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"])
    assert len(exported) >= 60
    assert exported == sorted(set(exported))
    assert sorted(imported) == exported


_FLOAT_MATH = {"sqrt", "log", "log2", "exp", "pow", "floor", "ceil"}


def test_package_is_float_free():
    # no float literal, no float(...) and no math function that returns or
    # rounds a float: every number the package computes is exact
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{name}.py:{node.lineno} literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "float":
                found.append(f"{name}.py:{node.lineno} float(...)")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "math" and node.attr in _FLOAT_MATH:
                found.append(f"{name}.py:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{name}.py:{node.lineno} from math import {alias.name}"
                          for alias in node.names if alias.name in _FLOAT_MATH | {"*"}]
    assert found == []


def test_test_reference_reads_no_oracle_table():
    # the tower and the N_3 counter in tests/finitefields.py check the oracle,
    # so they import nothing of the package but the primality test
    path = Path(__file__).resolve().parent / "finitefields.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert {name for name in imported if name.split(".")[0] == "prymlab"} == {
        "prymlab.factorization.is_prime"}
