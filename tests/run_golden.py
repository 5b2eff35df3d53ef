"""Run every digest check of ``test_golden.py`` and ``test_demos.py``
without pytest.

``python tests/run_golden.py`` imports both modules with a stub ``pytest``
module, whose ``mark.parametrize`` returns the test itself after noting its
parameter values on it, and calls each test once per combination of those
values.  The ``tmp_path`` and ``capsys`` fixtures are a fresh temporary
directory and the captured stdout.  The demos run under ``sys.executable``,
the interpreter that runs this script.  It needs only the standard library
and the package's source, so it runs under any supported interpreter.  It
prints each failing check and a summary, and exits 1 if a check failed.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import itertools
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _parametrize(name: str, values, ids=None):
    def note(test):
        test.params = [*getattr(test, "params", ()), (name, values)]
        return test
    return note


def _cases(test):
    """The keyword arguments of each parametrized case of ``test``."""
    axes = [[(name, value) for value in values]
            for name, values in getattr(test, "params", ())]
    for combination in itertools.product(*axes):
        yield dict(combination)


class _Capsys:
    """pytest's ``capsys`` over a stdout that the runner redirects."""

    def __init__(self, out: io.StringIO):
        self.out = out

    def readouterr(self):
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate()
        return types.SimpleNamespace(out=text)


def main() -> int:
    sys.modules["pytest"] = types.SimpleNamespace(
        mark=types.SimpleNamespace(parametrize=_parametrize))
    tests = [(name, test) for module in ("test_golden", "test_demos")
             for name, test in vars(importlib.import_module(module)).items()
             if name.startswith("test_")]

    checks, failed = 0, []
    for name, test in tests:
        wants = inspect.signature(test).parameters
        for kwargs in _cases(test):
            checks += 1
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                fixtures = {"tmp_path": Path(tmp), "capsys": _Capsys(out)}
                try:
                    test(**kwargs, **{k: v for k, v in fixtures.items() if k in wants})
                except AssertionError:
                    failed.append(f"{name}{kwargs}")
    for case in failed:
        print(f"FAILED {case}")
    print(f"{checks - len(failed)} of {checks} digest checks passed "
          f"under Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
