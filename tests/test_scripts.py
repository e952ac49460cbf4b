"""Smoke test: every runnable experiment under scripts/ exits 0 and prints."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import env_with_package

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs(script):
    # the suite's own warning filter (pyproject.toml): a numpy overflow fails the script
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env_with_package(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
