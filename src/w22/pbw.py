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
one denominator D = lcm(2, den lambda, den c, den c0, den c1), and its
memoized engine ``_act(g, mono)`` gives g mono as {m': N}, where the
coefficient of m' is N / D^(len(mono) + 1 - len(m')).  The rule holds
branch by branch:
- a scalar s (C, C1, or an index-0 generator on v) is written D s;
- g prepended in order is 1, as len(m') = len(mono) + 1;
- g (head rest) = head (g rest) + [g, head] rest: composing two actions
  multiplies their Ns, whose exponents add up to that of g mono;
- a bracket term cb b multiplies the N of b rest by cb D, one power of D
  for the factor head that is gone, and an int since every bracket
  coefficient is a multiple of 1/2 (the central term (n^3 - n)/12 is)
  and D is even.
No ``Fraction`` arithmetic runs in the recursion.  ``apply_generator``,
``apply_basis``, ``apply_word`` and ``act_on_highest`` read the same
values as ``Fraction``s, and ``verma`` writes its raising rows straight
from the ints.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .liecore import Combination, pair_bracket, term_key
from .rationals import rat, rat_str


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
    """Applies generators to combinations of negative PBW monomials times v.

    States are dicts mapping ordered monomials in strictly negative
    indices to Fractions; the empty monomial is v itself.  The action
    runs on ints over one denominator D, ``_d`` (module docstring).
    """

    def __init__(self, params):
        values = (params.lam, params.c, params.c0, params.c1)
        self._d = d = lcm(2, *[v.denominator for v in values])
        self._scaled = {
            kind: v.numerator * (d // v.denominator)
            for kind, v in zip(("X", "C", "I", "C1"), values)
        }
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

    def apply_generator(self, g, mono):
        """g mono as {m': Fraction}: the view of ``_act(g, mono)``."""
        d, size = self._d, len(mono) + 1
        return {
            m: Fraction(n, d ** (size - len(m)))
            for m, n in self._act(g, mono).items()
        }

    def apply_basis(self, g, state):
        out = {}
        for mono, cm in state.items():
            for m2, c2 in self.apply_generator(g, mono).items():
                out[m2] = out.get(m2, 0) + cm * c2
        return {m: c for m, c in out.items() if c}

    def apply_word(self, factors, coeff=Fraction(1)):
        state = {(): Fraction(coeff)}
        for g in reversed(tuple(factors)):
            state = self.apply_basis(g, state)
            if not state:
                return {}
        return state


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
