"""Smoke test: every demo script runs to completion and prints something."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_all_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "demo_algebra.py",
        "demo_f_system.py",
        "demo_intermediate.py",
        "demo_matrix_system.py",
        "demo_verma.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # the environment, with this checkout's src first on PYTHONPATH
    # (tests/conftest.py), is inherited
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
