"""Normal ordering in the universal envelope and highest-weight actions.

The confluence tests replay straightening with randomly chosen swap
positions instead of the leftmost one; since both rewrites implement the
same associative product, results must agree term for term.
"""

import random
from fractions import Fraction

from w22 import (
    C,
    C1,
    I,
    HighestWeightActor,
    HighestWeightParams,
    UEAElement,
    act_on_highest,
    bracket,
    monomial_degree,
    monomial_key,
    monomial_to_json,
    normal_order,
    term_key,
    x,
)

from oracles import (
    element_from_json,
    is_normal_ordered,
    monomial_from_json,
    multiply,
    params_from_json,
)


def F(a, b=1):
    return Fraction(a, b)


def test_pinned_straightening_x2_xm2():
    # x(2) x(-2) = x(-2) x(2) + [x(2), x(-2)]
    got = normal_order((x(2), x(-2)))
    want = UEAElement(
        {
            (x(-2), x(2)): F(1),
            (x(0),): F(-4),
            (C,): F(1, 2),
        }
    )
    assert got == want


def test_pinned_straightening_with_i():
    # x(1) I(-1) = I(-1) x(1) + [x(1), I(-1)] = I(-1) x(1) - 2 I(0)
    got = normal_order((x(1), I(-1)))
    assert got == UEAElement({(I(-1), x(1)): F(1), (I(0),): F(-2)})


def test_ordered_words_are_fixed_points():
    for word in [
        (),
        (x(-1),),
        (C, I(-2), x(3)),
        (I(-1), I(-1), x(-1), x(2)),
    ]:
        assert normal_order(word) == UEAElement({tuple(word): F(1)})
        assert is_normal_ordered(word)


def test_is_normal_ordered_rejects():
    assert not is_normal_ordered((x(1), I(1)))
    assert not is_normal_ordered((x(2), x(1)))
    assert not is_normal_ordered((I(0), C))


def _random_word(rng, max_len=4, max_idx=3):
    pool = [x(n) for n in range(-max_idx, max_idx + 1)]
    pool += [I(n) for n in range(-max_idx, max_idx + 1)]
    pool += [C, C1]
    return tuple(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def _random_swap_straighten(word, rng):
    """Independent straightener: swap a RANDOM out-of-order adjacent pair."""
    result = {}
    work = [(tuple(word), F(1))]
    while work:
        mono, coeff = work.pop()
        bad = [
            p
            for p in range(len(mono) - 1)
            if term_key(mono[p]) > term_key(mono[p + 1])
        ]
        if not bad:
            acc = result.get(mono, F(0)) + coeff
            if acc:
                result[mono] = acc
            else:
                result.pop(mono, None)
            continue
        p = rng.choice(bad)
        g, h = mono[p], mono[p + 1]
        work.append((mono[:p] + (h, g) + mono[p + 2 :], coeff))
        for b, cb in bracket(g, h).terms.items():
            work.append((mono[:p] + (b,) + mono[p + 2 :], coeff * cb))
    return UEAElement(result)


def test_confluence_against_random_swap_oracle():
    rng = random.Random(552)
    for _ in range(60):
        word = _random_word(rng)
        assert normal_order(word) == _random_swap_straighten(word, rng), word


def test_multiply_is_straightened_concatenation():
    rng = random.Random(553)
    for _ in range(30):
        w1, w2 = _random_word(rng, 3), _random_word(rng, 3)
        lhs = normal_order(w1 + w2)
        rhs = multiply(normal_order(w1), normal_order(w2))
        assert lhs == rhs, (w1, w2)


def test_multiply_unit_and_linearity():
    one = UEAElement({(): F(1)})
    u = normal_order((x(1), x(-1)))
    assert multiply(one, u) == u == multiply(u, one)
    v = normal_order((I(2), I(-2)))
    assert multiply(u + v, one) == u + v


def test_monomial_degree_and_keys():
    assert monomial_degree((x(-2), I(-1))) == -3
    assert monomial_degree(()) == 0
    assert monomial_key((I(-1),)) < monomial_key((x(-1),))


def test_uea_repr():
    assert repr(UEAElement({})) == "0"
    u = UEAElement({(): F(2), (I(-1), x(-2)): F(-1, 3)})
    assert repr(u) == "-1/3*I(-1)*x(-2) + 2*1"  # degree -3 sorts first


def test_uea_json_round_trip():
    u = normal_order((x(2), I(-2), x(-1)))
    data = u.to_json()
    assert element_from_json(UEAElement, data) == u
    mono = (I(-3), x(-1), x(2))
    assert monomial_from_json(monomial_to_json(mono)) == mono


class TestHighestWeightAction:
    params = HighestWeightParams(F(3), F(1, 2), F(2), F(5))

    def test_scalars_of_level_zero(self):
        # x(1) x(-1) v = -2 x(0) v = -2 lambda v
        u = normal_order((x(1), x(-1)))
        out = act_on_highest(u, self.params)
        assert out == UEAElement({(): F(-6)})

    def test_central_values(self):
        for gen, value in [(C, F(1, 2)), (C1, F(5)), (x(0), F(3)), (I(0), F(2))]:
            out = act_on_highest(UEAElement({(gen,): F(1)}), self.params)
            assert out == UEAElement({(): value})

    def test_positive_modes_annihilate(self):
        for gen in [x(1), x(5), I(2)]:
            out = act_on_highest(UEAElement({(gen,): F(1)}), self.params)
            assert out == UEAElement({})

    def test_i_zero_straightens_past_negatives(self):
        # I(0) x(-1) v = x(-1) I(0) v + [I(0), x(-1)] v
        #             = c0 x(-1) v - I(-1) v
        out = act_on_highest(UEAElement({(I(0), x(-1)): F(1)}), self.params)
        assert out == UEAElement({(x(-1),): F(2), (I(-1),): F(-1)})

    def test_x2_on_xm2(self):
        # x(2) x(-2) v = (-4 lambda + c/2) v
        out = act_on_highest(normal_order((x(2), x(-2))), self.params)
        assert out == UEAElement({(): F(-4) * F(3) + F(1, 2) * F(1, 2)})

    def test_bracket_compatibility_on_low_levels(self):
        # g (h w v) - h (g w v) must equal [g, h] w v for PBW words w.
        rng = random.Random(554)
        actor = HighestWeightActor(self.params)
        gens = [x(n) for n in range(-2, 3)] + [I(n) for n in range(-2, 3)]
        words = [(), (x(-1),), (I(-1), x(-1)), (x(-2),), (I(-2),)]
        for _ in range(40):
            g, h = rng.choice(gens), rng.choice(gens)
            w = rng.choice(words)
            gh = actor.apply_word((g, h) + w)
            hg = actor.apply_word((h, g) + w)
            lhs = {
                m: gh.get(m, F(0)) - hg.get(m, F(0))
                for m in set(gh) | set(hg)
            }
            lhs = {m: c for m, c in lhs.items() if c}
            rhs = {}
            for b, cb in bracket(g, h).terms.items():
                for m, c in actor.apply_word((b,) + w).items():
                    rhs[m] = rhs.get(m, F(0)) + cb * c
            rhs = {m: c for m, c in rhs.items() if c}
            assert lhs == rhs, (g, h, w)


def test_params_json_round_trip():
    p = HighestWeightParams(F(3), F(1, 2), F(-2), F(5, 7))
    data = p.to_json()
    assert data["lambda"] == "3"
    assert params_from_json(data) == p


def test_normal_order_rejects_nothing_but_handles_centrals():
    # centrals commute with everything, so they drift left unchanged
    got = normal_order((x(1), C, x(-1)))
    assert got == UEAElement({(C, x(-1), x(1)): F(1), (C, x(0)): F(-2)})
