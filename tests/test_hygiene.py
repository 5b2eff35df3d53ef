"""Every name a library module imports is used in that module.

An import kept only for other code to look up marks its line with
``# noqa: F401`` and says why in a comment, as ``cli`` does for the names
the benchmark's tracer wraps.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eccbounds"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    source = "import json\nfrom .graph import Graph, girth\n\n\ndef f(g: Graph):\n    return g\n"
    assert _unused_imports(source) == ["girth (line 2)", "json (line 1)"]
    assert _unused_imports("from .x import y  # noqa: F401\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []
