"""Every name a library module imports is used in that module, and every
module-level private function or class is referenced somewhere in the
package.

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
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))


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


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` functions and classes of ``sources`` (file
    name -> text) that no name, attribute or import in any of the files
    refers to, references inside their own definition left out."""
    defs, refs = [], []
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defs.append((file, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((file, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((file, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((file, node.name, node.lineno))
    return sorted(
        f"{file}: {node.name} (line {node.lineno})" for file, node in defs
        if not any(name == node.name and not (
                   where == file and node.lineno <= line <= node.end_lineno)
                   for where, name, line in refs))


def test_scan_finds_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _recursive(n):\n"
                "    return _recursive(n - 1)\n\n\nclass _Dead:\n    pass\n",
        "b.py": "from .a import _used\n",
    }
    assert _unreferenced_private_defs(sources) == [
        "a.py: _Dead (line 9)", "a.py: _recursive (line 5)"]
    sources["b.py"] += "x = a._recursive\n"
    assert _unreferenced_private_defs(sources) == ["a.py: _Dead (line 9)"]


def test_package_references_every_private_def():
    assert _unreferenced_private_defs({m: (SRC / m).read_text() for m in PACKAGE}) == []
