"""Structure constants, gradings and the Virasoro copies.

The defining brackets are

    [x(n), x(m)] = (m-n) x(n+m) + delta(n,-m) (n^3-n)/12 C
    [x(n), I(m)] = (m-n) I(n+m) + delta(n,-m) (n^3-n)/12 C1
    [I, I] = 0,   C and C1 central.

Hand-computed values below follow directly from these rules.
"""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from w22 import (
    C,
    C1,
    I,
    BasisElement,
    HighestWeightParams,
    LieElement,
    ModuleSpec,
    ZERO,
    basis_window,
    bracket,
    bracket_compatibility_check,
    find_singular,
    jacobi_check,
    normal_order,
    pair_bracket,
    term_key,
    vir_embed,
    x,
)


class TestPairBrackets:
    def test_x_x_generic(self):
        assert bracket(x(0), x(3)) == LieElement({x(3): 3})
        assert bracket(x(2), x(5)) == LieElement({x(7): 3})
        assert bracket(x(5), x(2)) == LieElement({x(7): -3})

    def test_x_x_central_term(self):
        # [x(2), x(-2)] = -4 x(0) + (8-2)/12 C = -4 x(0) + 1/2 C
        assert bracket(x(2), x(-2)) == LieElement(
            {x(0): -4, C: Fraction(1, 2)}
        )
        # n = 1 has vanishing central coefficient
        assert bracket(x(1), x(-1)) == LieElement({x(0): -2})
        assert bracket(x(3), x(-3)) == LieElement({x(0): -6, C: 2})

    def test_x_i(self):
        assert bracket(x(0), I(3)) == LieElement({I(3): 3})
        assert bracket(x(2), I(-2)) == LieElement(
            {I(0): -4, C1: Fraction(1, 2)}
        )
        assert bracket(I(-2), x(2)) == LieElement(
            {I(0): 4, C1: Fraction(-1, 2)}
        )

    def test_i_i_and_centrals(self):
        assert bracket(I(4), I(-4)) == ZERO
        assert bracket(C, x(5)) == ZERO
        assert bracket(x(5), C1) == ZERO
        assert bracket(C, C1) == ZERO

    def test_self_bracket_vanishes(self):
        for g in basis_window(3):
            assert bracket(g, g) == ZERO


def test_antisymmetry_on_window():
    gens = basis_window(4)
    for g in gens:
        for h in gens:
            assert (bracket(g, h) + bracket(h, g)).is_zero


def test_bracket_degree_additivity():
    for n in range(-3, 4):
        for m in range(-3, 4):
            out = bracket(x(n), x(m))
            for b, _ in out.items():
                assert b.degree in (n + m, 0)
                if b.degree == 0 and b.kind == "X":
                    assert n + m == 0


def test_bilinearity_random_elements():
    rng = random.Random(91)
    gens = basis_window(3)

    def rand_elem():
        return LieElement(
            {
                rng.choice(gens): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(3)
            }
        )

    for _ in range(25):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert bracket(u + v, w) == bracket(u, w) + bracket(v, w)
        assert bracket(u, s * v + w) == s * bracket(u, v) + bracket(u, w)


def reference_jacobi(window, pair):
    """Jacobi violations summed per triple in Fraction arithmetic: the
    oracle for jacobi_check's integer kernel."""
    gens = basis_window(window)
    violations = []
    for a in gens:
        for b in gens:
            for c in gens:
                total = {}
                for g, (p, q) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                    for h, ch in pair(p, q).terms.items():
                        for k, ck in pair(g, h).terms.items():
                            total[k] = total.get(k, 0) + ch * ck
                if any(total.values()):
                    violations.append((a, b, c))
    return violations


def test_jacobi_clean_window_3():
    assert jacobi_check(3) == []


def test_jacobi_negative_window_is_refused():
    # basis_window(-1) is [C, C1]: an empty check must not read as clean
    with pytest.raises(ValueError, match=r"window must be at least 0, got -1"):
        jacobi_check(-1)
    assert jacobi_check(0) == []


def test_jacobi_detects_corrupted_structure_constant():
    # A deliberate +1 on the x(0) coefficient of [x(1), x(-1)] must break
    # the identity somewhere on any window containing index 2.
    def broken(g, h):
        out = pair_bracket(g, h)
        if g == x(1) and h == x(-1):
            return out + LieElement({x(0): Fraction(1)})
        return out

    violations = jacobi_check(2, pair=broken)
    assert violations
    assert violations == reference_jacobi(2, broken)
    assert (x(1), x(-1), x(2)) in [tuple(t) for t in violations]


@pytest.mark.parametrize(
    "pair_key, term, delta",
    [
        # a denominator that no bracket of the table has
        ((x(2), x(-1)), x(1), Fraction(1, 7)),
        # [x(-1), x(3)] is read only as an outer bracket at window 2
        ((x(-1), x(3)), x(2), Fraction(1, 2**80)),
    ],
    ids=["inner-plus-1/7", "outer-only-2^-80"],
)
def test_jacobi_corruption_matches_fraction_reference(pair_key, term, delta):
    def broken(g, h):
        out = pair_bracket(g, h)
        if (g, h) == pair_key:
            return out + LieElement({term: delta})
        return out

    violations = jacobi_check(2, pair=broken)
    assert violations
    assert violations == reference_jacobi(2, broken)


def x_i_bracket(coeff, central):
    """A pair table whose [x(n), I(m)] is coeff(n, m) I(n+m) + delta(n, -m)
    central(n) C1, kept antisymmetric; every other pair as pair_bracket."""

    def x_i(n, m):
        terms = {I(n + m): coeff(n, m)}
        if m == -n:
            terms[C1] = central(n)
        return LieElement(terms)

    def pair(g, h):
        if g.kind == "X" and h.kind == "I":
            return x_i(g.index, h.index)
        if g.kind == "I" and h.kind == "X":
            return -1 * x_i(h.index, g.index)
        return pair_bracket(g, h)

    return pair


@pytest.mark.parametrize(
    "coeff, central, count",
    [
        (lambda n, m: m - 2 * n, lambda n: Fraction(n**3 - n, 12), 48),
        (lambda n, m: m - n, lambda n: Fraction(n**3 - n + n**2, 12), 66),
        # A coboundary: n^3/12 = (n^3 - n)/12 + 2n/24, so I(0) + C1/24 in
        # place of I(0) gives back the true brackets.
        (lambda n, m: m - n, lambda n: Fraction(n**3, 12), 0),
    ],
    ids=["coefficient-m-2n", "central-plus-n2", "coboundary-n3"],
)
def test_jacobi_matches_fraction_reference(coeff, central, count):
    pair = x_i_bracket(coeff, central)
    violations = jacobi_check(3, pair=pair)
    assert len(violations) == count
    assert violations == reference_jacobi(3, pair)


def test_shared_pair_table_is_never_mutated():
    # Every consumer reads the one memoized pair_bracket table; after a run
    # of each, every entry on the window must still equal a fresh bracket.
    params = HighestWeightParams(Fraction(1, 3), Fraction(2), Fraction(1), 8)
    find_singular(params, 5)
    jacobi_check(4)
    spec = ModuleSpec("Aab", Fraction(1, 2), 1)
    assert bracket_compatibility_check(spec, 3) == []
    for word in [(x(2), x(-2)), (x(3), I(-1), x(-2)), (I(2), x(1), x(-3))]:
        normal_order(word)
    gens = basis_window(8)
    for g in gens:
        for h in gens:
            assert pair_bracket(g, h) == pair_bracket.__wrapped__(g, h), (g, h)


class TestVirasoroCopy:
    def test_element_shape(self):
        assert vir_embed(Fraction(-1, 2), 3) == LieElement(
            {x(3): 1, I(3): Fraction(-3, 2)}
        )
        assert vir_embed(5, 0) == LieElement({x(0): 1})

    @pytest.mark.parametrize("e", [0, 1, Fraction(-1, 2), Fraction(7, 3)])
    def test_closure(self, e):
        for n in range(-4, 5):
            for m in range(-4, 5):
                got = bracket(vir_embed(e, n), vir_embed(e, m))
                want = (m - n) * vir_embed(e, n + m) + LieElement(
                    {C: Fraction(n**3 - n, 12)} if m == -n else {}
                )
                assert got == want, (e, n, m)


class TestBasisElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            BasisElement("Y", 1)
        with pytest.raises(ValueError):
            BasisElement("C", 3)
        with pytest.raises(ValueError):
            BasisElement("X", None)

    def test_validation_runs_before_the_pool(self):
        # (X, 1.0) hashes like (X, 1): a pool lookup first would pass it
        assert x(1) is x(1) and I(1) is I(1)
        with pytest.raises(ValueError):
            x(1.0)
        with pytest.raises(ValueError):
            I("1")

    def test_one_instance_per_generator(self):
        assert x(3) is x(3)
        assert BasisElement("I", -2) is I(-2)
        assert BasisElement("C") is C
        assert BasisElement.from_json({"kind": "X", "index": 4}) is x(4)

    def test_bool_index_is_the_int_generator(self):
        assert x(True) is x(1)
        data = json.loads(json.dumps(x(True).to_json()))
        assert data == {"kind": "X", "index": 1}
        assert type(data["index"]) is int

    @pytest.mark.parametrize(
        "clone",
        [lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_are_the_pooled_instance(self, clone):
        for g in (x(-3), I(0), C, C1):
            assert clone(g) is g

    def test_immutable(self):
        g = x(2)
        with pytest.raises(AttributeError):
            g.index = 5
        with pytest.raises(AttributeError):
            g.extra = 1
        assert x(2).index == 2

    def test_term_order(self):
        gens = [x(-1), I(2), C1, x(3), I(-5), C]
        assert sorted(gens, key=term_key) == [C, C1, I(-5), I(2), x(-1), x(3)]

    def test_repr(self):
        assert repr(x(-2)) == "x(-2)"
        assert repr(I(0)) == "I(0)"
        assert repr(C1) == "C1"


def test_element_json_round_trip():
    elem = LieElement({x(2): Fraction(-4), C: Fraction(1, 2), I(-3): 7})
    data = elem.to_json()
    assert data["terms"][0]["kind"] == "C"  # canonical order
    assert LieElement.from_json(data) == elem


def test_zero_handling():
    assert LieElement({x(1): 0}) == ZERO
    assert (bracket(x(1), x(-1)) - bracket(x(1), x(-1))).is_zero


def test_basis_window_contents():
    gens = basis_window(2)
    assert gens[0] == C and gens[1] == C1
    assert len(gens) == 2 + 5 + 5
    assert x(-2) in gens and I(2) in gens and x(3) not in gens
