"""Property test: the certified solver's answer is a property of the
system, not of how its rows are written.

Scaling a row and its right-hand side by a nonzero rational keeps the
row's solutions, so ``solve_sparse`` must return the identical
(feasible, particular, kernel) triple.  The scales include 2^61 - 1 and
its inverse, so a row whose cleared form vanishes or moves a pivot mod
the first prime is drawn too.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w22.linalg import solve_sparse  # noqa: E402

P = 2**61 - 1  # the first prime the solver tries
NCOLS = 4

entries = st.fractions(min_value=-9, max_value=9, max_denominator=4)
rows = st.tuples(
    st.dictionaries(st.integers(0, NCOLS - 1), entries, max_size=NCOLS),
    entries,
)
scales = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.sampled_from([Fraction(P), Fraction(1, P), Fraction(-3, 2 * P)]),
).filter(bool)
systems = st.lists(st.tuples(rows, scales), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(systems)
def test_scaled_rows_give_the_identical_answer(system):
    equations = [row for row, _ in system]
    scaled = [
        ({c: s * v for c, v in coeffs.items()}, s * rhs)
        for (coeffs, rhs), s in system
    ]
    assert solve_sparse(scaled, NCOLS) == solve_sparse(equations, NCOLS)
