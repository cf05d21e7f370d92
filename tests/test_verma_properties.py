"""Property tests: the PBW action on ints gives the values of the
``Fraction`` recursion, and the Verma rows are int multiples of its rows.

``HighestWeightActor`` runs its recursion on ints over one denominator D
per actor.  ``apply_word`` runs whole words on those ints and divides
once, ``raising_matrix`` reads its columns through it, and
``verma._raising_rows`` writes each row as ints, scaled by a positive
power of D.  The oracle ``FractionActor`` runs the same recursion in
``Fraction`` arithmetic, one generator at a time.  Words must give its
values factor by factor, the matrices must equal it entry for entry up
to level 5, and each int row must be one positive multiple of its row,
so that the joint kernel is the same.

The parameters are drawn zero, integral, negative, small rationals and
rationals with large denominators, c = c1 = 0 included, so D runs from 2
to well past 2^40.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w22 import (  # noqa: E402
    C,
    C1,
    I,
    HighestWeightActor,
    HighestWeightParams,
    level_basis,
    raising_matrix,
    x,
)
from w22.verma import _raising_rows  # noqa: E402

from oracles import FractionActor  # noqa: E402

MAX_LEVEL = 5

values = st.one_of(
    st.just(Fraction(0)),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-10**7, 10**7), st.integers(10**5, 10**7)),
)
params = st.builds(HighestWeightParams, values, values, values, values)
zero_charges = HighestWeightParams(Fraction(3, 7), 0, Fraction(-5, 2), 0)

bounded = settings(max_examples=25, deadline=None)

# Generators of every branch of the recursion: central, index 0, negative
# (prepended or straightened) and positive.
PROBES = (C, C1, x(0), I(0), x(-1), I(-2), x(-3), x(1), I(1), x(2), I(3))


@bounded
@given(params)
@example(zero_charges)
def test_fraction_view_is_the_fraction_recursion(p):
    actor, oracle = HighestWeightActor(p), FractionActor(p)
    for n in range(MAX_LEVEL):
        for mono in level_basis(n):
            for g in PROBES:
                got = actor.apply_word((g,) + mono)
                want = oracle.apply_generator(g, mono)
                assert got == {m: v for m, v in want.items() if v}, (g, mono)
                assert all(type(v) is Fraction for v in got.values())


def oracle_word(oracle, word, coeff):
    """word times coeff on v through the oracle, one factor at a time
    from the right, with no zero coefficient kept."""
    state = {(): Fraction(coeff)}
    for g in reversed(word):
        out = {}
        for mono, c in state.items():
            for m2, c2 in oracle.apply_generator(g, mono).items():
                out[m2] = out.get(m2, 0) + c * c2
        state = out
    return {m: c for m, c in state.items() if c}


# Unordered words over central, index-0, negative and positive generators.
words = st.lists(
    st.sampled_from(
        (C, C1)
        + tuple(x(n) for n in range(-2, 3))
        + tuple(I(n) for n in range(-2, 3))
    ),
    max_size=5,
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(params, words, values)
@example(zero_charges, (), Fraction(0))
@example(zero_charges, (x(2), x(-2)), Fraction(0))
@example(zero_charges, (I(2), x(1), C1, x(-1), I(-2)), Fraction(-7, 3))
def test_word_is_the_fraction_recursion_factor_by_factor(p, word, coeff):
    got = HighestWeightActor(p).apply_word(word, coeff)
    assert got == oracle_word(FractionActor(p), word, coeff), word
    assert all(type(v) is Fraction and v for v in got.values()), word


def oracle_rows(oracle, g, n):
    """The matrix of g from level n as col -> Fraction rows, one per
    level n - g.index monomial."""
    target = level_basis(n - g.index)
    rows = [{} for _ in target]
    for col, mono in enumerate(level_basis(n)):
        for m2, v in oracle.apply_generator(g, mono).items():
            rows[target.index(m2)][col] = v
    return rows


@bounded
@given(params)
@example(zero_charges)
def test_raising_matrix_is_the_fraction_recursion(p):
    oracle = FractionActor(p)
    for n in range(1, MAX_LEVEL + 1):
        cols = range(len(level_basis(n)))
        for k in range(1, n + 1):
            for kind, g in (("X", x(k)), ("I", I(k))):
                want = [[row.get(col, Fraction(0)) for col in cols]
                        for row in oracle_rows(oracle, g, n)]
                got = raising_matrix(k, n, p, kind)
                assert got == want, (g, n)
                assert all(type(v) is Fraction for row in got for v in row)


@bounded
@given(params)
@example(zero_charges)
def test_rows_are_ints_and_positive_multiples_of_the_oracle_rows(p):
    actor, oracle = HighestWeightActor(p), FractionActor(p)
    for n in range(1, MAX_LEVEL + 1):
        for g in (x(1), I(1), x(2), I(2))[: 2 * min(n, 2)]:
            want = oracle_rows(oracle, g, n)
            rows = _raising_rows(g, n, actor)
            assert len(rows) == len(want)
            for row, oracle_row in zip(rows, want):
                assert all(type(v) is int for v in row.values()), (g, n)
                assert set(row) == set(oracle_row), (g, n)
                ratios = {Fraction(v) / oracle_row[c] for c, v in row.items()}
                assert len(ratios) <= 1 and all(r > 0 for r in ratios), (g, n)
