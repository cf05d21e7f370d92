"""Property tests: the ext_b x-action under the mirror n -> -n.

The ext_b corner c(i, n) depends on alpha and n only through
d = alpha + n, and c(-i, d) = -c(i, -d): the x-bracket recursion for
i <= -3 is the one for i >= 3 under d -> -d.  On the matrices this reads
A_alpha(-i, n)[0][1] = -A_{-alpha}(i, -n)[0][1].
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w22 import make_x_matrices  # noqa: E402

non_integral = st.fractions(
    min_value=-50, max_value=50, max_denominator=60
).filter(lambda a: a.denominator != 1)


@settings(max_examples=100, deadline=None)
@given(non_integral, st.integers(-25, 25), st.integers(-25, 25))
def test_ext_b_corner_mirror(alpha, i, n):
    left = make_x_matrices(alpha, None, "ext_b")(-i, n)[0][1]
    right = make_x_matrices(-alpha, None, "ext_b")(i, -n)[0][1]
    assert left == -right
