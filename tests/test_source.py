"""Rules the package source keeps."""

import ast
import subprocess
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


def test_no_dataclasses():
    # a dataclass generates and compiles its methods at import; the records
    # derive from crnf.record.Record instead
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] == "dataclasses"]
    assert found == []


def test_cli_import_stays_light():
    # importing the CLI (without site, so no .pth file adds modules) loads
    # none of these; json is imported only when --json output is printed
    src = str(Path(crnf.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import crnf.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
