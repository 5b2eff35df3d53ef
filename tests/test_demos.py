"""Every demo runs to exit 0 and prints byte-identical output.

Each ``demos/*.py`` runs in a fresh interpreter with ``src`` on the path,
and its stdout is compared against a SHA-256 digest taken before the
packing and matching checks were merged into one routine.
``proof_certificates.py`` prints every structural check's name, verdict and
detail, so it guards the certificates from outside the library too.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "bound_catalog.py":
        "478f27cc8633801c8e4180df49d05ee48734c1f4104f0893d02605125f053794",
    "eccentricity_profiles.py":
        "f973f5069b92eace7f079b7b11875ea8efd61768856bfa69872a8dfe05e50298",
    "moore_chain_sharpness.py":
        "4448289e273c342400c39d0cb2b3d0507761afef5d770d7d721822419c5f5012",
    "proof_certificates.py":
        "94acb841a78dc4b0bf80c3a36d450e7833188710dbc305a15548c117e3f5afea",
    "random_corpus_soundness.py":
        "140b39febf8a097415602be9f69ab25f3f39863e88b33ca9fec5f5740ef8d29e",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_digest(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
