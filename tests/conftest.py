"""The tests import and start this checkout's ``w22``, never an installed one.

``pythonpath = ["src"]`` in ``pyproject.toml`` puts the checkout's ``src``
on ``sys.path`` for the tests' own imports.  The CLI, golden, acceptance
and demo tests also start new interpreters (``python -m w22``, the demo
scripts), which inherit the environment, so ``pytest_configure`` puts the
same ``src`` first on ``PYTHONPATH`` and keeps whatever was there after it.

The ``folds`` fixture is the one recorder of the solver's folds.
"""

import os
from collections import namedtuple
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# One fold of linalg._fold: the rows it was given, the prime, the pivots
# it was given (a copy, or None), the pivots it returned (a copy) and how
# many of the rows it drew (fewer than all once its basis is full).
Fold = namedtuple("Fold", "rows p given pivots drawn")


def pytest_configure(config):
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([inherited] if inherited else [])
    )


@pytest.fixture
def folds(monkeypatch):
    """Record every fold the solver runs, in order, as a ``Fold``."""
    from w22 import linalg

    seen = []
    fold = linalg._fold

    def recording_fold(rows, p, position, width, pivots=None):
        given = None if pivots is None else dict(pivots)
        rows = list(rows)
        unread = iter(rows)
        result = fold(unread, p, position, width, pivots)
        drawn = len(rows) - len(list(unread))
        seen.append(Fold(rows, p, given, dict(result), drawn))
        return result

    monkeypatch.setattr(linalg, "_fold", recording_fold)
    return seen
