"""The golden and demo digests under every other supported interpreter
found here.

``pyproject.toml`` says ``requires-python = ">=3.10"``, and the suite runs
under one interpreter.  This test runs ``run_golden.py``, which checks the
digests of ``test_golden.py`` and ``test_demos.py``, under each other
CPython of version 3.10 or later that it finds, one executable per version:
``~/.pyenv/versions/*/bin/python``, then ``python3.10`` to ``python3.13`` on
``PATH``.  The runs go in parallel.  Where it finds none, it skips and says
where it looked.
"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent / "run_golden.py"
OLDEST = (3, 10)
PROBE = "import sys; print('%d.%d' % sys.version_info[:2])"


def _candidates():
    """``(version, executable)`` pairs, the version read off the name:
    pyenv's builds first, then ``python3.X`` on ``PATH``."""
    for exe in sorted(Path.home().glob(".pyenv/versions/*/bin/python")):
        if named := re.match(r"(\d+)\.(\d+)", exe.parent.parent.name):
            yield (int(named[1]), int(named[2])), str(exe)
    for minor in range(OLDEST[1], 14):
        if exe := shutil.which(f"python3.{minor}"):
            yield (3, minor), exe


def _other_interpreters() -> dict[tuple[int, int], str]:
    """One executable that starts per supported version other than this one."""
    found: dict[tuple[int, int], str] = {}
    for version, exe in _candidates():
        if version < OLDEST or version == sys.version_info[:2] or version in found:
            continue
        # a pyenv shim for a version that is not selected exits nonzero
        probe = subprocess.run([exe, "-c", PROBE], capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.split() == ["%d.%d" % version]:
            found[version] = exe
    return found


def test_golden_digests_under_other_interpreters():
    found = _other_interpreters()
    if not found:
        pytest.skip("no other Python >= 3.10: looked for python3.10 to python3.13 "
                    "on PATH and ~/.pyenv/versions/*/bin/python")
    runs = {version: subprocess.Popen([exe, "-E", str(RUNNER)], stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True)
            for version, exe in sorted(found.items())}
    try:
        for version, run in runs.items():
            out = run.communicate(timeout=300)[0]
            assert run.returncode == 0, f"Python {version} at {found[version]}:\n{out}"
    finally:
        for run in runs.values():
            run.kill()
