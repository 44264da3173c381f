"""Every name a package module, test or script imports is used in that
file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "yamabe_lab").glob("*.py")
                 if p.name != "__init__.py")
# Test and script file names differ from every module name, so the bare
# file name stays a unique test id.
SOURCES = MODULES + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(source: str) -> list:
    """Names bound by an import statement (at any depth) that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from numpy import sqrt as root, pi\n"
              "def f(x: pi):\n"
              "    import json\n"
              "    return os.path.join(x, json.dumps(x))\n")
    assert _unused_imports(source) == [(2, "math"), (4, "root")]
