"""Normal ordering in the universal enveloping algebra, and the action of
ordered words on a highest-weight vector.

The fixed PBW order on factors is the canonical term order of the algebra:
central generators first, then all I(n) ascending in n, then all x(n)
ascending in n.  ``normal_order`` rewrites an arbitrary word into a
combination of ordered monomials by adjacent transpositions

    g h  ->  h g + [g, h]

applied to the leftmost out-of-order pair first.  Each swap strictly
reduces the inversion count or the word length, so the rewriting
terminates; the result is independent of the swap strategy (tested).
Both the rewriting and the action below read the memoized
``liecore.pair_bracket`` table for [g, h], never rebuilding a bracket.

``UEAElement`` is the shared ``liecore.Combination`` keyed by ordered
monomials (tuples of generators), sorted by degree and then by the term
order of their factors; a monomial's JSON record is the list of its
generators' records, each written by ``BasisElement``.

``act_on_highest`` evaluates a word or enveloping-algebra element on the
highest-weight vector v of the module with parameters (lambda, c, c0, c1):
x(0) v = lambda v, C v = c v, I(0) v = c0 v, C1 v = c1 v, and every
positive-index generator kills v.  Results live on PBW monomials in
strictly negative indices.

``HighestWeightActor`` runs its one recursion on ints.  Each actor fixes
one denominator D = lcm(2, den lambda, den c, den c0, den c1), cleared by
``rationals.clear_denominators``, and its memoized engine
``_act(g, mono)`` gives g mono as {m': N}, where the coefficient of m' is
N / D^(len(mono) + 1 - len(m')).  The rule holds branch by branch:
- a scalar s (C, C1, or an index-0 generator on v) is written D s;
- g prepended in order is 1, as len(m') = len(mono) + 1;
- g (head rest) = head (g rest) + [g, head] rest: composing two actions
  multiplies their Ns, whose exponents add up to that of g mono;
- a bracket term cb b multiplies the N of b rest by cb D, one power of D
  for the factor head that is gone, and an int since every bracket
  coefficient is a multiple of 1/2 (the central term (n^3 - n)/12 is)
  and D is even.
The same composition carries a whole word: after k factors the
coefficient of m is N / D^(k - len(m)).  So ``apply_word``, the one
``Fraction`` reader of the actor, runs the word on ints and divides once
at the end; ``act_on_highest`` and ``verma.raising_matrix`` read it, and
``verma`` writes its raising rows straight from the ints.
"""

from dataclasses import dataclass
from fractions import Fraction

from .liecore import Combination, pair_bracket, term_key
from .rationals import clear_denominators, rat, rat_str


def monomial_degree(mono):
    return sum(b.degree for b in mono)


def monomial_key(mono):
    return (monomial_degree(mono), tuple(term_key(b) for b in mono))


def monomial_to_json(mono):
    return [b.to_json() for b in mono]


class UEAElement(Combination):
    """Linear combination of PBW monomials with Fraction coefficients."""

    __slots__ = ()
    sort_key = staticmethod(monomial_key)

    @staticmethod
    def term_str(mono):
        return "*".join(repr(b) for b in mono) if mono else "1"

    @staticmethod
    def term_to_json(mono):
        return {"monomial": monomial_to_json(mono)}


def normal_order(word):
    """Straighten a word of generators into ordered PBW monomials."""
    result = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        spot = None
        for i in range(len(w) - 1):
            if term_key(w[i]) > term_key(w[i + 1]):
                spot = i
                break
        if spot is None:
            result[w] = result.get(w, 0) + coeff
            continue
        g, h = w[spot], w[spot + 1]
        stack.append((w[:spot] + (h, g) + w[spot + 2 :], coeff))
        for b, cb in pair_bracket(g, h).terms.items():
            stack.append((w[:spot] + (b,) + w[spot + 2 :], coeff * cb))
    return UEAElement(result)


@dataclass(frozen=True)
class HighestWeightParams:
    lam: Fraction
    c: Fraction
    c0: Fraction
    c1: Fraction

    def __post_init__(self):
        for name in ("lam", "c", "c0", "c1"):
            object.__setattr__(self, name, rat(getattr(self, name)))

    def to_json(self):
        return {
            "lambda": rat_str(self.lam),
            "c": rat_str(self.c),
            "c0": rat_str(self.c0),
            "c1": rat_str(self.c1),
        }


class HighestWeightActor:
    """Applies words to the highest-weight vector v.

    Results are dicts mapping ordered monomials in strictly negative
    indices to Fractions; the empty monomial is v itself.  The action
    runs on ints over one denominator D, ``_d`` (module docstring).
    """

    def __init__(self, params):
        # 1/2 makes D even, so that every bracket term cb D is an int.
        (_, *scaled), self._d = clear_denominators(
            (Fraction(1, 2), params.lam, params.c, params.c0, params.c1)
        )
        self._scaled = dict(zip(("X", "C", "I", "C1"), scaled))
        self._cache = {}

    def _act(self, g, mono):
        """g mono as {m': N}, the coefficient of m' being
        N / D^(len(mono) + 1 - len(m')); memoized (module docstring)."""
        key = (g, mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if g.is_central:
            out = {mono: self._scaled[g.kind]}
        elif not mono:
            if g.index > 0:
                out = {}
            elif g.index == 0:
                out = {(): self._scaled[g.kind]}
            else:
                out = {(g,): 1}
        elif g.index < 0 and term_key(g) <= term_key(mono[0]):
            out = {(g,) + mono: 1}
        else:
            head, rest = mono[0], mono[1:]
            out = {}
            for m2, n2 in self._act(g, rest).items():
                for m3, n3 in self._act(head, m2).items():
                    out[m3] = out.get(m3, 0) + n2 * n3
            for b, cb in pair_bracket(g, head).terms.items():
                scale = cb.numerator * self._d // cb.denominator
                for m2, n2 in self._act(b, rest).items():
                    out[m2] = out.get(m2, 0) + scale * n2
            out = {m: n for m, n in out.items() if n}
        self._cache[key] = out
        return out

    def apply_word(self, factors, coeff=Fraction(1)):
        """The word times coeff on v, as {monomial: Fraction}, no zero kept.

        The factors act from the right on the ints of ``_act``: after k
        of them the coefficient of m is N / D^(k - len(m)), so the word
        is divided once, at the end.
        """
        factors, coeff = tuple(factors), Fraction(coeff)
        act = self._act
        state = {(): coeff.numerator}
        for g in reversed(factors):
            out = {}
            for mono, n in state.items():
                for m2, n2 in act(g, mono).items():
                    out[m2] = out.get(m2, 0) + n * n2
            state = out
        den, size = coeff.denominator, len(factors)
        return {
            m: Fraction(n, den * self._d ** (size - len(m)))
            for m, n in state.items() if n
        }


def act_on_highest(u, params):
    """Evaluate a word or UEAElement on the highest-weight vector.

    A word is read as the one term {word: 1} and applied to v as written,
    factor by factor from the right, with no straightening first: the
    module is a representation of the enveloping algebra, so any element
    equal to the word there, its normal order included, gives the same
    vector.  A UEAElement is applied monomial by monomial.  Returns a
    UEAElement supported on monomials in strictly negative indices (the
    coefficients of the resulting module vector).
    """
    terms = u.terms if isinstance(u, UEAElement) else {tuple(u): 1}
    actor = HighestWeightActor(params)
    out = {}
    for mono, coeff in terms.items():
        for m2, c2 in actor.apply_word(mono, coeff).items():
            out[m2] = out.get(m2, Fraction(0)) + c2
    return UEAElement(out)
