"""Property tests: the ext_b x-action under the mirror n -> -n, and the
integer quadratic loop against the ``Fraction`` reference.

The ext_b corner c(i, n) depends on alpha and n only through
d = alpha + n, and c(-i, d) = -c(i, -d): the x-bracket recursion for
i <= -3 is the one for i >= 3 under d -> -d.  On the matrices this reads
A_alpha(-i, n)[0][1] = -A_{-alpha}(i, -n)[0][1].

``evaluate_quadratics`` clears an assignment to integers over one
denominator before it evaluates; its residuals must be exactly those of
``oracles.quadratic_residuals``, which sums ``Fraction`` products straight
from the assignment, and ``check_quadratic`` must keep exactly the rays
whose residuals are all zero.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import quadratic_residuals  # noqa: E402
from w22 import (  # noqa: E402
    ConstraintSystem,
    SolutionSpace,
    check_quadratic,
    make_x_matrices,
)

non_integral = st.fractions(
    min_value=-50, max_value=50, max_denominator=60
).filter(lambda a: a.denominator != 1)


@settings(max_examples=100, deadline=None)
@given(non_integral, st.integers(-25, 25), st.integers(-25, 25))
def test_ext_b_corner_mirror(alpha, i, n):
    left = make_x_matrices(alpha, None, "ext_b")(-i, n)[0][1]
    right = make_x_matrices(-alpha, None, "ext_b")(i, -n)[0][1]
    assert left == -right


NAMES = ("a", "b", "c", "d")
columns = st.integers(0, len(NAMES) - 1)
quadratic = st.lists(
    st.tuples(columns, columns, st.integers(-3, 3).filter(bool)),
    min_size=1, max_size=4,
)
# sparse, so that some names are missing, with int and Fraction values
assignment = st.dictionaries(
    st.sampled_from(NAMES),
    st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6),
    max_size=len(NAMES),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(quadratic, max_size=4), st.lists(assignment, max_size=5))
def test_integer_quadratic_loop_matches_the_fraction_reference(quads, rays):
    system = ConstraintSystem(NAMES, [], quads)
    for ray in rays:
        got = system.evaluate_quadratics(ray)
        assert got == quadratic_residuals(system, ray)
        assert all(type(r) is Fraction for r in got)
    solution = SolutionSpace(True, {}, rays, len(rays))
    assert check_quadratic(system, solution) == [
        k for k, ray in enumerate(rays)
        if not any(quadratic_residuals(system, ray))
    ]
