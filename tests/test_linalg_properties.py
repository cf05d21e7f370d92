"""Property tests: the certified solver's answer is a property of the
system, not of how its rows are written or its columns eliminated.

Scaling a row and its right-hand side by a nonzero rational keeps the
row's solutions, so ``solve_sparse`` must return the identical
(feasible, particular, kernel) triple.  The scales include 2^61 - 1 and
its inverse, so a row whose cleared form vanishes or moves a pivot mod
the first prime is drawn too.

Eliminating the columns in another order changes the pivots mod p but
not the answer mapped back to the natural columns.  The systems mix int
and Fraction values, repeat combinations of their rows (rank-deficient),
take right-hand sides either from a hidden solution (feasible, often
inhomogeneous) or at random (often inconsistent), and carry a spanning
hint half of the time.

The fold keeps the columns of its working row in a heap; on any integer
rows it must build the identical echelon basis as the plain fold below,
which searches the row for its smallest column after every step.

Wang's rational reconstruction runs its loop from the first step: a
residue within the bound, or within the bound below the modulus, comes
out of zero or one step as the same value that a direct return gave.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from math import isqrt  # noqa: E402

from w22.linalg import _fold, _reconstruct, solve_sparse  # noqa: E402

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


values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


@st.composite
def ordered_systems(draw):
    """(equations, ncols, spanning, order) with a random permutation."""
    ncols = draw(st.integers(1, 6))
    coeffs = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), values, max_size=3),
        max_size=5,
    ))
    # a row that is a combination of two others keeps the rank down
    for _ in range(draw(st.integers(0, 2)) if coeffs else 0):
        u, v = draw(st.sampled_from(coeffs)), draw(st.sampled_from(coeffs))
        s, t = draw(values), draw(values)
        combo = {c: s * u.get(c, 0) + t * v.get(c, 0) for c in {*u, *v}}
        coeffs.append({c: x for c, x in combo.items() if x})
    if draw(st.booleans()):
        hidden = draw(st.lists(values, min_size=ncols, max_size=ncols))
        rhs = [sum(x * hidden[c] for c, x in row.items()) for row in coeffs]
    else:
        rhs = draw(st.lists(values, min_size=len(coeffs),
                            max_size=len(coeffs)))
    spanning = draw(st.none() | st.sets(
        st.integers(0, max(len(coeffs) - 1, 0)), max_size=len(coeffs)
    ).map(sorted).map(tuple))
    order = tuple(draw(st.permutations(range(ncols))))
    return list(zip(coeffs, rhs)), ncols, spanning, order


@settings(max_examples=200, deadline=None)
@given(ordered_systems())
# rank 1 with a hint and the free columns moved to the front
@example(([({0: 1, 1: Fraction(1, 2), 2: -3}, 4),
           ({0: 2, 1: 1, 2: -6}, 8)], 3, (0,), (2, 1, 0)))
# inconsistent rows outside the hint
@example(([({0: 1, 1: 1}, 1), ({0: 3, 1: 3}, Fraction(7, 2))], 2, (0,),
          (1, 0)))
def test_any_column_order_gives_the_identical_answer(case):
    equations, ncols, spanning, order = case
    assert solve_sparse(equations, ncols, spanning, order=order) == (
        solve_sparse(equations, ncols, spanning)
    )


def reference_fold(rows, p):
    """The fold with a min() search for the leading column of each step."""
    pivots = {}
    for pairs in rows:
        row = {c: r for c, v in pairs if (r := v % p)}
        get = row.get
        while row:
            lead = min(row)
            factor = row.pop(lead) % p
            if not factor:
                continue
            tail = pivots.get(lead)
            if tail is None:
                inv = pow(factor, -1, p)
                pivots[lead] = [(c, r) for c, v in row.items()
                                if (r := v * inv % p)]
                break
            for c, v in tail:
                row[c] = get(c, 0) - factor * v
    return pivots


@st.composite
def integer_rows(draw):
    """(rows, p): rows of (col, int) pairs as _exact_rows writes them.

    Entries include multiples of p, and rows are repeated, left empty or
    built as integer combinations of earlier rows, so that they cancel
    exactly or mod p.
    """
    p = draw(st.sampled_from([7, P]))
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-9, 9) | st.integers(-3, 3).map(lambda k: k * p)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(
            st.sampled_from(["new", "new", "empty", "repeat", "combo"])
        )
        if kind == "empty" or (kind != "new" and not rows):
            rows.append([])
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo":
            u = dict(draw(st.sampled_from(rows)))
            v = dict(draw(st.sampled_from(rows)))
            s, t = draw(entry), draw(entry)
            combo = {c: s * u.get(c, 0) + t * v.get(c, 0) for c in {*u, *v}}
            rows.append([(c, x) for c, x in sorted(combo.items()) if x])
        else:
            row = draw(st.dictionaries(st.integers(0, ncols - 1), entry,
                                       max_size=ncols))
            rows.append(list(draw(st.permutations(list(row.items())))))
    return rows, p


@settings(max_examples=300, deadline=None)
@given(integer_rows())
# a row that cancels to 0 exactly, one that vanishes mod 7, an empty row
@example(([[(0, 1), (2, 3)], [(0, 2), (2, 6)], [(1, 7), (2, 14)], [],
           [(2, 1), (1, 2)]], 7))
def test_heap_fold_builds_the_identical_pivots(case):
    rows, p = case
    assert _fold(rows, p) == reference_fold(rows, p)


def reference_reconstruct(r, m, bound):
    """Wang's reconstruction with direct returns for a residue within the
    bound of 0 or of m."""
    if r <= bound:
        return Fraction(r)
    if m - r <= bound:
        return Fraction(r - m)
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


MODULI = [7, 11, 31, 127, P, 2**127 - 1]


@st.composite
def residues(draw):
    """(r, m): a residue mod a prime m, near 0, near m or anywhere."""
    m = draw(st.sampled_from(MODULI))
    bound = isqrt(m // 2)
    near = st.integers(0, min(bound + 2, m - 1))
    r = draw(st.one_of(
        near, near.map(lambda k: m - 1 - k), st.integers(0, m - 1)
    ))
    return r, m


@settings(max_examples=300, deadline=None)
@given(residues())
@example((3, 7))
@example((4, 7))
@example((0, 7))
@example((6, 7))
def test_reconstruct_matches_the_direct_returns(case):
    r, m = case
    bound = isqrt(m // 2)
    assert _reconstruct(r, m, bound) == reference_reconstruct(r, m, bound)


@st.composite
def small_fractions(draw):
    """(a/b, m) with |a|, b <= isqrt(m // 2)."""
    m = draw(st.sampled_from(MODULI))
    bound = isqrt(m // 2)
    a = draw(st.integers(-bound, bound))
    b = draw(st.integers(1, bound))
    return Fraction(a, b), m


@settings(max_examples=300, deadline=None)
@given(small_fractions())
def test_reconstruct_returns_a_small_fraction_exactly(case):
    value, m = case
    r = value.numerator * pow(value.denominator, -1, m) % m
    assert _reconstruct(r, m, isqrt(m // 2)) == value
