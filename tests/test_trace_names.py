"""The benchmark's tracer must still find every program name it wraps.

``perfbench/spans.py`` swaps timing wrappers in for names of ``eccbounds``
where the calling module looks them up, and puts the originals back when the
run ends.  A refactor that renames or drops one of those names breaks the
traced benchmark run; this test reads ``perfbench/`` and fails first.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    cli = sys.modules["eccbounds.cli"]
    names = list(spans._WRAPPED_NAMES)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in names if attr not in owner.__dict__]
    assert not missing
    originals = [owner.__dict__[attr] for owner, attr, _ in names]
    original_path = cli.Path
    with spans.instrument(spans.Tracer(lambda: 0)):
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr, _), original in zip(names, originals))
        assert cli.Path is not original_path
    assert all(owner.__dict__[attr] is original
               for (owner, attr, _), original in zip(names, originals))
    assert cli.Path is original_path
