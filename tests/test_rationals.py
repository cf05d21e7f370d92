from fractions import Fraction

import pytest

from w22 import (
    HighestWeightParams,
    I,
    LieElement,
    ModuleSpec,
    UEAElement,
    rat,
    rat_str,
    vir_embed,
    x,
)
from w22.rationals import check_int, clear_table, integer

from oracles import element_from_json, params_from_json


def test_parses_integers_and_fractions():
    assert rat("3") == Fraction(3)
    assert rat("-3") == Fraction(-3)
    assert rat("1/2") == Fraction(1, 2)
    assert rat("-7/3") == Fraction(-7, 3)
    assert rat("0") == 0


def test_passthrough_for_numeric_inputs():
    assert rat(Fraction(5, 6)) == Fraction(5, 6)
    assert rat(4) == Fraction(4)


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e3", "1/0", "1/-2", "--1", "1 / 2", "", "a/b", "1//2", "+1",
     "1_0", "1/1_0", "٣", "1/٢", "３"],
)
def test_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        rat(bad)


def test_error_message_cites_the_literal():
    with pytest.raises(ValueError, match="0.5"):
        rat("0.5")


def test_surrounding_whitespace_is_stripped():
    assert rat(" 3 ") == 3
    assert rat("\t-1/2\n") == Fraction(-1, 2)
    assert integer(" -0 ") == 0
    assert integer("\n12\t") == 12


def test_parses_integers():
    assert integer("0") == 0
    assert integer("-17") == -17
    assert integer("007") == 7
    assert type(integer("3")) is int


@pytest.mark.parametrize(
    "bad",
    ["1_0", "+3", "٣", "３", "", " ", "-", "--1", "3.0", "1e3", "0x3",
     "1/2", "3 4"],
)
def test_integer_rejects_everything_but_ascii_digits(bad):
    with pytest.raises(ValueError) as exc:
        integer(bad)
    assert str(exc.value) == "not an integer: %r (expected n)" % (bad,)


@pytest.mark.parametrize("value, least", [(0, 0), (5, 0), (4, 4), (-2, -3)])
def test_check_int_accepts_ints_at_least_least(value, least):
    assert check_int(value, least, "window") is None


@pytest.mark.parametrize(
    "value, least, message",
    [
        (-1, 0, "level must be at least 0, got -1"),
        (3, 4, "level must be at least 4, got 3"),
        (2.0, 0, "level must be an int, got 2.0"),
        ("3", 0, "level must be an int, got '3'"),
        (Fraction(3), 0, "level must be an int, got Fraction(3, 1)"),
        (None, 0, "level must be an int, got None"),
    ],
)
def test_check_int_refusals_name_the_value(value, least, message):
    with pytest.raises(ValueError) as exc:
        check_int(value, least, "level")
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: element_from_json(
            LieElement, {"terms": [{"kind": "X", "index": 1, "coeff": "1.5"}]}
        ),
        lambda: element_from_json(
            UEAElement,
            {"terms": [{"monomial": [{"kind": "X", "index": -1}],
                        "coeff": " 1.5e0 "}]},
        ),
        lambda: params_from_json(
            {"lambda": "0.1", "c": "0", "c0": "0", "c1": "0"}
        ),
        lambda: HighestWeightParams(0.1, 0, 0, 0),
        lambda: ModuleSpec("Aa", 0.5),
    ],
    ids=["lie-decimal", "uea-exponent", "params-json", "params-float",
         "spec-float"],
)
def test_constructors_coerce_through_rat(build):
    with pytest.raises(ValueError):
        build()


# A float scalar would enter as a binary fraction (0.1 has denominator
# 2^55), so scalar multiplication and vir_embed refuse it as rat does;
# ints, Fractions and rational strings keep their values.
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: 0.1 * LieElement({x(1): 1}), ValueError),
        (lambda: 0.5 * UEAElement({(x(-1),): 1}), ValueError),
        (lambda: vir_embed(0.1, 2), ValueError),
        (lambda: -1 * LieElement({x(1): 1}), LieElement({x(1): -1})),
        (lambda: 3 * UEAElement({(x(-1),): 1}), UEAElement({(x(-1),): 3})),
        (
            lambda: Fraction(1, 2) * LieElement({I(2): 4}),
            LieElement({I(2): 2}),
        ),
        (lambda: vir_embed("1/2", 2), LieElement({x(2): 1, I(2): 1})),
    ],
    ids=["lie-float", "uea-float", "vir-float", "lie-int", "uea-int",
         "lie-fraction", "vir-string"],
)
def test_scalars_coerce_through_rat(build, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            build()
    else:
        assert build() == expected


def test_render_round_trip():
    for text in ["0", "7", "-7", "1/2", "-22/7", "1000000/3"]:
        assert rat_str(rat(text)) == text


def test_render_normalizes():
    assert rat_str(Fraction(2, 4)) == "1/2"
    assert rat_str(Fraction(-4, 2)) == "-2"
    assert rat_str(Fraction(3, -9)) == "-1/3"


def test_clear_table_of_an_empty_table():
    assert clear_table({}) == ({}, 1)
    assert clear_table({"k": {}}) == ({"k": []}, 1)


def test_clear_table_over_mixed_ints_and_fractions():
    table = {
        (0, 1): {"a": 3, "b": Fraction(1, 6)},
        (2, -1): {"c": Fraction(-3, 4), "a": 0, "d": Fraction(5, 1)},
        "only-ints": {7: -2},
    }
    cleared, den = clear_table(table)
    assert den == 12
    assert list(cleared) == list(table)
    for key, terms in table.items():
        assert [term for term, _ in cleared[key]] == list(terms)
        for term, value in cleared[key]:
            assert type(value) is int
            assert value == terms[term] * den
