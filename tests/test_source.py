"""Rules the package source keeps."""

import ast
from pathlib import Path

import crnf


def test_no_assert_statements():
    # python -O strips assert, so every postcondition raises InternalError
    found = []
    for path in sorted(Path(crnf.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
