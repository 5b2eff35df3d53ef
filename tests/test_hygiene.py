"""Every name a library module, test file or demo imports is used in that
file, and every module-level private function, class or constant of the
library is referenced somewhere in the package.  Every public name is used
by a library module other than ``__init__`` or by a demo, unless the
benchmark's tracer wraps it: a name only tests call is code nothing needs.
No library module imports ``dataclasses`` or ``typing``: every record is a
``collections.namedtuple`` subclass, which generates no methods on import
and evaluates no annotations, and ``import eccbounds.cli`` loads none of
``dataclasses``, ``inspect`` and ``typing``.

An import kept only for other code to look up marks its line with
``# noqa: F401`` and says why in a comment, as ``cli`` does for the names
the benchmark's tracer wraps; every such name is one the tracer wraps in
that module, so none lingers once the tracer stops wrapping it.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eccbounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eccbounds"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(p.name for p in SRC.glob("*.py"))
SCRIPTS = sorted(str(p.relative_to(ROOT)) for d in ("tests", "demos")
                 for p in (ROOT / d).glob("*.py"))


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


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_uses_every_name_it_imports(script):
    assert _unused_imports((ROOT / script).read_text()) == []


def _kept_imports(source: str) -> list[str]:
    """The names of the imports that ``# noqa: F401`` keeps, in order."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names]


def test_scan_finds_the_kept_imports():
    source = ("import json  # noqa: F401\nfrom .graph import (\n    girth,  # noqa: F401\n"
              "    Graph,\n)\nfrom .x import y\n")
    assert _kept_imports(source) == ["json", "girth", "Graph"]


def test_every_kept_import_is_a_name_the_tracer_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wrapped = {(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in importlib.import_module("spans")._WRAPPED_NAMES}
    kept = [(f"eccbounds.{module[:-3]}", name) for module in MODULES
            for name in _kept_imports((SRC / module).read_text())]
    assert kept and [pair for pair in kept if pair not in wrapped] == []


def _defined_names(node) -> list[str]:
    """The names a module-level statement defines: a function's, a class's,
    or those of an assignment's plain name targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unreferenced_defs(sources: dict[str, str], wanted) -> list[str]:
    """Module-level functions, classes and assignments of ``sources`` (file
    name -> text) whose name ``wanted`` accepts and that no name, attribute
    or import in any of the files refers to, references inside their own
    definition left out."""
    defs, refs = [], []
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            for name in _defined_names(node):
                if wanted(name):
                    defs.append((file, name, node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((file, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((file, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((file, node.name, node.lineno))
    return sorted(
        f"{file}: {name} (line {node.lineno})" for file, name, node in defs
        if not any(ref == name and not (
                   where == file and node.lineno <= line <= node.end_lineno)
                   for where, ref, line in refs))


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """The ``_private`` definitions of ``sources`` that none of them uses."""
    return _unreferenced_defs(sources, lambda name: name.startswith("_")
                              and not name.startswith("__"))


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


def test_scan_finds_an_unreferenced_private_constant():
    sources = {
        "a.py": "_USED = 1\n_ORPHAN = b\"-09\"\n_TYPED: int = 2\n__dunder__ = 3\n"
                "_SELF = [_SELF for _ in ()]\n\n\ndef f():\n    return _USED\n",
        "b.py": "from .a import _TYPED\n",
    }
    assert _unreferenced_private_defs(sources) == [
        "a.py: _ORPHAN (line 2)", "a.py: _SELF (line 5)"]
    sources["b.py"] += "y = a._ORPHAN\n"
    assert _unreferenced_private_defs(sources) == ["a.py: _SELF (line 5)"]


def test_package_references_every_private_def():
    assert _unreferenced_private_defs({m: (SRC / m).read_text() for m in PACKAGE}) == []


def test_scan_finds_an_unreferenced_public_name():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef only_self(n):\n"
                "    return only_self(n - 1)\n\n\nLIMIT = 3\n",
        "demo.py": "import a\n\nprint(a.used())\n",
    }
    public = {"used", "only_self", "LIMIT"}.__contains__
    assert _unreferenced_defs(sources, public) == ["a.py: LIMIT (line 9)",
                                                   "a.py: only_self (line 5)"]
    sources["a.py"] += "\n\ndef f():\n    return LIMIT\n"
    assert _unreferenced_defs(sources, public) == ["a.py: only_self (line 5)"]


def test_every_public_name_is_used_by_the_package_or_a_demo(monkeypatch):
    # a name only tests call is library code nothing needs; the names the
    # benchmark's tracer wraps are kept for it, as their kept imports are
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    wrapped = {attr for _, attr, _ in importlib.import_module("spans")._WRAPPED_NAMES}
    public = set(eccbounds.__all__) - wrapped
    sources = {m: (SRC / m).read_text() for m in MODULES}
    sources.update((d, (ROOT / d).read_text()) for d in SCRIPTS if d.startswith("demos"))
    assert _unreferenced_defs(sources, public.__contains__) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_an_imported_module():
    source = "import json, os.path\nfrom dataclasses import dataclass\nfrom .graph import Graph\n"
    assert _imported_modules(source) == {"json", "os", "dataclasses"}


@pytest.mark.parametrize("module", PACKAGE)
def test_module_does_not_import_dataclasses(module):
    assert "dataclasses" not in _imported_modules((SRC / module).read_text())


@pytest.mark.parametrize("module", PACKAGE)
def test_module_does_not_import_typing(module):
    assert "typing" not in _imported_modules((SRC / module).read_text())


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    probe = ("import sys; import eccbounds.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
