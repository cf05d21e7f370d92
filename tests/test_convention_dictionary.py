"""Evidence for the reducibility criterion under this package's brackets.

The Zhang-Dong criterion 2 h_W + (m^2-1)/12 c_W = 0 is stated for the
usual presentation of W(2,2):

    [L_m, L_n] = (m - n) L_{m+n} + delta(m, -n) (m^3 - m)/12 c
    [L_m, W_n] = (m - n) W_{m+n} + delta(m, -n) (m^3 - m)/12 c_W
    [W_m, W_n] = 0

The package implements it under the dictionary x(n) = -L_n, I(n) = W_n,
C = c, C1 = -c_W, so that lambda = -h, c0 = h_W and c1 = -c_W, and
``criterion_value`` is 2 c0 - (m^2-1)/12 c1.  The tests below check the
dictionary bracket by bracket, and check the locus it predicts with the
Shapovalov Gram matrix, which uses neither ``raising_matrix`` nor
``joint_kernel``.
"""

from fractions import Fraction

import pytest

from w22 import (
    C,
    C1,
    I,
    BasisElement,
    HighestWeightParams,
    LieElement,
    act_on_highest,
    bracket,
    criterion_value,
    level_basis,
    normal_order,
    x,
)

WINDOW = 6


def F(a, b=1):
    return Fraction(a, b)


# -- the usual presentation, written down independently ---------------------
# Elements are dicts over ("L", n), ("W", n), ("c",), ("cW",).


def _usual_pair(a, b):
    if a[0] in ("c", "cW") or b[0] in ("c", "cW"):
        return {}
    if a[0] == "W" and b[0] == "W":
        return {}
    if a[0] == "W":  # [W_m, L_n] = -[L_n, W_m]
        return {k: -v for k, v in _usual_pair(b, a).items()}
    m, n = a[1], b[1]
    out = {}
    if m != n:
        out[(b[0], m + n)] = F(m - n)
    if m + n == 0:
        out[("c",) if b[0] == "L" else ("cW",)] = F(m**3 - m, 12)
    return out


def _to_package(elem):
    """Push a usual-presentation element through the dictionary."""
    image = {
        "L": lambda n: (x(n), -1),
        "W": lambda n: (I(n), 1),
        "c": lambda: (C, 1),
        "cW": lambda: (C1, -1),
    }
    terms = {}
    for sym, coeff in elem.items():
        gen, sign = image[sym[0]](*sym[1:])
        terms[gen] = terms.get(gen, F(0)) + sign * coeff
    return LieElement(terms)


def test_brackets_transport_through_the_dictionary():
    usual = [("c",), ("cW",)]
    usual += [(kind, n) for kind in ("L", "W") for n in range(-WINDOW, WINDOW + 1)]
    bad = [
        (a, b)
        for a in usual
        for b in usual
        if _to_package(_usual_pair(a, b))
        != bracket(_to_package({a: F(1)}), _to_package({b: F(1)}))
    ]
    assert bad == []


def test_criterion_value_is_the_lowering_pairing_on_v():
    # x(m) I(-m) v = ([x(m), I(-m)]) v = (-2m c0 + (m^3 - m)/12 c1) v,
    # which is -m times the criterion value.
    params = HighestWeightParams(F(7), F(11), F(2, 3), F(-5, 4))
    for m in range(1, WINDOW + 1):
        got = act_on_highest((x(m), I(-m)), params).terms.get((), 0)
        assert got == -m * criterion_value(m, params.c0, params.c1)


# -- the Shapovalov Gram matrix ----------------------------------------------


def _anti_involution(word):
    """x(n) -> x(-n), I(n) -> I(-n), reversing the order of factors."""
    return tuple(BasisElement(g.kind, -g.index) for g in reversed(word))


def gram_matrix(params, level):
    """Coefficient of v in sigma(b_i) b_j v over the level basis."""
    basis = level_basis(level)
    return [
        [
            act_on_highest(
                normal_order(_anti_involution(left) + right), params
            ).terms.get((), 0)
            for right in basis
        ]
        for left in basis
    ]


def _rank(rows):
    """Exact rank, kept apart from w22.linalg, which joint_kernel uses."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_gram_matrix_level1_by_hand():
    # basis [I(-1), x(-1)]: <I(-1), x(-1)> = I(1) x(-1) v = -2 c0 v,
    # <x(-1), x(-1)> = x(1) x(-1) v = -2 lam v, and I(1) I(-1) v = 0.
    params = HighestWeightParams(F(7), F(11), F(2), F(5))
    assert gram_matrix(params, 1) == [[F(0), F(-4)], [F(-4), F(-14)]]


# Level dimensions are 5 and 10 at levels 2 and 3.  On the line of root m
# the radical at level n is the submodule generated by the level-m
# singular vector, of dimension p2(n - m): 1 at n = m, 2 at n = m + 1.
@pytest.mark.parametrize(
    "c0, c1, ranks",
    [
        (F(1), F(8), {2: 4, 3: 8}),  # c1 = +8 c0, root m = 2
        (F(2), F(6), {2: 5, 3: 9}),  # c1 = +3 c0, root m = 3
        (F(1), F(-8), {2: 5, 3: 10}),  # mirrored m = 2 line
        (F(2), F(-6), {2: 5, 3: 10}),  # mirrored m = 3 line
        (F(3), F(5), {2: 5, 3: 10}),  # generic
    ],
    ids=["c1=+8c0", "c1=+3c0", "c1=-8c0", "c1=-3c0", "generic"],
)
def test_gram_rank_drops_exactly_on_the_criterion_lines(c0, c1, ranks):
    params = HighestWeightParams(F(5), F(3), c0, c1)
    for level, want in ranks.items():
        assert _rank(gram_matrix(params, level)) == want, level
