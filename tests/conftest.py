"""The tests import and start this checkout's ``w22``, never an installed one.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts the checkout's ``src``
on ``sys.path`` for the tests' own imports.  The CLI, golden, acceptance
and demo tests also start new interpreters (``python -m w22``, the demo
scripts), which inherit the environment, so ``pytest_configure`` puts the
same ``src`` first on ``PYTHONPATH`` and keeps whatever was there after it.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([inherited] if inherited else [])
    )
