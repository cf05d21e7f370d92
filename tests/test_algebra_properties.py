"""Property tests: the bracket is bilinear and antisymmetric, and on two
generators it is the memoized ``pair_bracket`` table entry; a generator
argument reads as the one-term element {g: 1}; the shared ``Combination``
arithmetic and JSON form hold for both ``LieElement`` and ``UEAElement``;
a word acts on the highest-weight vector as its normal order does.

Elements are drawn as small rational combinations of generators, C and C1
included, and enveloping-algebra elements as combinations of short words
over the same generators.  Straightening against a random-swap oracle is covered by
``tests/test_pbw.py::test_confluence_against_random_swap_oracle``.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w22 import (  # noqa: E402
    C,
    C1,
    I,
    HighestWeightParams,
    LieElement,
    UEAElement,
    act_on_highest,
    bracket,
    normal_order,
    pair_bracket,
    x,
)

from oracles import element_from_json  # noqa: E402

generators = st.one_of(st.builds(x, st.integers(-4, 4)),
                       st.builds(I, st.integers(-4, 4)),
                       st.sampled_from([C, C1]))
scalars = st.fractions(min_value=-20, max_value=20, max_denominator=6)
elements = st.dictionaries(generators, scalars, max_size=4).map(LieElement)
words = st.lists(generators, max_size=3).map(tuple)
uea_elements = st.dictionaries(words, scalars, max_size=4).map(UEAElement)
same_kind_pairs = st.sampled_from([elements, uea_elements]).flatmap(
    lambda kind: st.tuples(kind, kind)
)

bounded = settings(max_examples=30, deadline=None)


@bounded
@given(elements, elements, elements, scalars)
def test_bracket_is_bilinear(u, v, w, s):
    assert bracket(s * u + v, w) == s * bracket(u, w) + bracket(v, w)
    assert bracket(u, s * v + w) == s * bracket(u, v) + bracket(u, w)


@bounded
@given(elements, elements)
def test_bracket_is_antisymmetric(u, v):
    assert bracket(u, v) == -bracket(v, u)
    assert bracket(u, u).is_zero


@bounded
@given(generators, generators, scalars)
def test_bracket_of_generators_is_the_table_entry(g, h, s):
    assert bracket(g, h) == pair_bracket(g, h)
    assert bracket(LieElement({g: s}), h) == s * pair_bracket(g, h)


@bounded
@given(generators, elements)
def test_generator_argument_is_the_one_term_element(g, u):
    one = LieElement({g: 1})
    assert bracket(g, u) == bracket(one, u)
    assert bracket(u, g) == bracket(u, one)


small_generators = st.one_of(st.builds(x, st.integers(-3, 3)),
                             st.builds(I, st.integers(-3, 3)),
                             st.sampled_from([C, C1]))
params = st.builds(HighestWeightParams, scalars, scalars, scalars, scalars)


@bounded
@given(st.lists(small_generators, max_size=5), params)
def test_word_acts_as_its_normal_order(word, p):
    assert act_on_highest(word, p) == act_on_highest(normal_order(word), p)


@bounded
@given(same_kind_pairs)
def test_combination_json_round_trip_and_cancellation(pair):
    u, v = pair
    assert element_from_json(type(u), json.loads(json.dumps(u.to_json()))) == u
    assert (u + v) - v == u
    assert (u + (-u)).is_zero


@bounded
@given(generators, scalars)
def test_lie_and_enveloping_elements_are_never_equal(g, s):
    assert LieElement() != UEAElement()
    assert LieElement({g: s}) != UEAElement({(g,): s})
    assert UEAElement({(g,): s}) != LieElement({g: s})
