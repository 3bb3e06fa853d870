"""Rules the package source keeps."""

import ast
import sys
from pathlib import Path

import crnf


def _package_nodes():
    """(module file name, AST node) for every node under src/crnf."""
    for path in sorted(Path(crnf.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips assert, so every postcondition raises InternalError
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_imports_only_stdlib():
    # crnf is dependency-free: it imports the standard library and itself
    allowed = sys.stdlib_module_names | {"crnf"}
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {mod}" for mod in modules
                  if mod.split(".")[0] not in allowed]
    assert found == []
