"""The Lie algebra W(2,2) over the rationals.

Basis: x(n) and I(n) for n in Z, plus two central generators C and C1.
Defining brackets:

    [x(n), x(m)] = (m - n) x(n+m) + delta(n, -m) (n^3 - n)/12 C
    [x(n), I(m)] = (m - n) I(n+m) + delta(n, -m) (n^3 - n)/12 C1
    [I(n), I(m)] = 0
    [ . , C] = [ . , C1] = 0

The grading is deg x(n) = deg I(n) = n and deg C = deg C1 = 0.

Elements are finite rational linear combinations of basis generators,
kept in the canonical term order C < C1 < I(n) (ascending n) < x(n)
(ascending n) with zero coefficients dropped.  ``Combination`` is the
linear-combination class shared with ``pbw.UEAElement``; ``LieElement``
only fixes its keys to be generators.
"""

from fractions import Fraction
from functools import lru_cache

from .rationals import clear_table, rat, rat_str

X_KIND = "X"
I_KIND = "I"
C_KIND = "C"
C1_KIND = "C1"

_KIND_RANK = {C_KIND: 0, C1_KIND: 1, I_KIND: 2, X_KIND: 3}


class BasisElement:
    """One basis generator; there is one shared instance per (kind, index).

    Instances are interned, so ``==`` and ``hash`` are the identity
    defaults and the ``pair_bracket`` and PBW-action caches hash them in C.
    Validation runs before the pool lookup (``(X, 1.0)`` hashes like
    ``(X, 1)``), an integer index is stored as ``int`` (so ``x(True)`` is
    ``x(1)``), instances refuse attribute assignment, and pickling and
    ``copy`` return the pooled instance.
    """

    __slots__ = ("kind", "index")
    _pool = {}

    def __new__(cls, kind, index=None):
        if kind not in _KIND_RANK:
            raise ValueError("unknown generator kind: %r" % (kind,))
        if kind in (C_KIND, C1_KIND):
            if index is not None:
                raise ValueError("central generators carry no index")
        elif not isinstance(index, int):
            raise ValueError("x/I generators need an integer index")
        else:
            index = int(index)
        self = cls._pool.get((kind, index))
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "kind", kind)
            object.__setattr__(self, "index", index)
            cls._pool[kind, index] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BasisElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("BasisElement is immutable")

    def __reduce__(self):
        return (BasisElement, (self.kind, self.index))

    @property
    def degree(self):
        return 0 if self.index is None else self.index

    @property
    def is_central(self):
        return self.kind in (C_KIND, C1_KIND)

    def __repr__(self):
        if self.kind == X_KIND:
            return "x(%d)" % self.index
        if self.kind == I_KIND:
            return "I(%d)" % self.index
        return "C" if self.kind == C_KIND else "C1"

    def to_json(self):
        """The JSON record: the kind, then the index when there is one."""
        rec = {"kind": self.kind}
        if self.index is not None:
            rec["index"] = self.index
        return rec

    @classmethod
    def from_json(cls, rec):
        return cls(rec["kind"], rec.get("index"))


def x(n):
    return BasisElement(X_KIND, n)


def I(n):  # noqa: E743  (mathematical name)
    return BasisElement(I_KIND, n)


C = BasisElement(C_KIND)
C1 = BasisElement(C1_KIND)


def term_key(b):
    """Total order on basis generators: C < C1 < I(n) < x(n), index ascending."""
    return (_KIND_RANK[b.kind], b.index or 0)


class Combination:
    """A finite rational linear combination, kept as a key -> Fraction dict.

    Zero coefficients are dropped.  A subclass fixes what a key is by
    supplying ``sort_key`` (the order of ``items``), ``term_str`` (how one
    key is shown in ``repr``) and ``term_to_json`` / ``term_from_json``
    (the JSON record of one key, to which ``coeff`` is appended).
    Elements of two different subclasses are never equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {
            k: c for k, v in (terms or {}).items() if (c := rat(v))
        }

    def items(self):
        keys = sorted(self.terms, key=self.sort_key)
        return [(k, self.terms[k]) for k in keys]

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        s = rat(scalar)
        return type(self)({k: s * c for k, c in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(
            "%s*%s" % (rat_str(c), self.term_str(k)) for k, c in self.items()
        )

    def to_json(self):
        return {
            "terms": [
                {**self.term_to_json(k), "coeff": rat_str(c)}
                for k, c in self.items()
            ]
        }

    @classmethod
    def from_json(cls, data):
        return cls({cls.term_from_json(r): r["coeff"] for r in data["terms"]})


class LieElement(Combination):
    """A finite linear combination of basis generators."""

    __slots__ = ()
    sort_key = staticmethod(term_key)
    term_str = staticmethod(repr)
    term_to_json = staticmethod(BasisElement.to_json)
    term_from_json = staticmethod(BasisElement.from_json)

    @classmethod
    def from_basis(cls, b, coeff=1):
        return cls({b: coeff})


ZERO = LieElement()


def _central_term(n, central):
    """delta(n, -m) (n^3 - n)/12 on the central generator, for m = -n."""
    coeff = Fraction(n**3 - n, 12)
    return {central: coeff} if coeff else {}


@lru_cache(maxsize=None)
def pair_bracket(g, h):
    """Bracket of two basis generators, as a LieElement.

    Memoized: each pair is computed once per process and every caller gets
    the same shared table entry, so the result must not be mutated.
    """
    if g.is_central or h.is_central:
        return ZERO
    if g.kind == I_KIND and h.kind == I_KIND:
        return ZERO
    if g.kind == I_KIND:  # [I(n), x(m)] = -[x(m), I(n)]
        return -1 * pair_bracket(h, g)
    n, m = g.index, h.index
    terms = {}
    if h.kind == X_KIND:
        if m != n:
            terms[x(n + m)] = Fraction(m - n)
        if m == -n:
            terms.update(_central_term(n, C))
    else:
        if m != n:
            terms[I(n + m)] = Fraction(m - n)
        if m == -n:
            terms.update(_central_term(n, C1))
    return LieElement(terms)


def _as_element(a):
    if isinstance(a, BasisElement):
        return LieElement.from_basis(a)
    return a


def bracket(a, b):
    """Bilinear extension of the defining brackets (``pair_bracket`` table)."""
    a, b = _as_element(a), _as_element(b)
    out = {}
    for g, cg in a.terms.items():
        for h, ch in b.terms.items():
            c = cg * ch
            for k, ck in pair_bracket(g, h).terms.items():
                out[k] = out.get(k, 0) + c * ck
    return LieElement(out)


def basis_window(window):
    """All basis generators with |index| <= window, plus C and C1."""
    gens = [C, C1]
    gens += [I(n) for n in range(-window, window + 1)]
    gens += [x(n) for n in range(-window, window + 1)]
    return gens


def check_window(window, least):
    """Refuse a window that is not an int (``range`` would raise TypeError)
    or is below least, with ValueError."""
    if not isinstance(window, int):
        raise ValueError("window must be an int, got %r" % (window,))
    if window < least:
        raise ValueError(
            "window must be at least %d, got %d" % (least, window)
        )


def jacobi_check(window, pair=pair_bracket):
    """Evaluate the Jacobi identity on every generator triple in the window.

    Returns the list of violating triples; empty means the structure
    constants are consistent on the window.  Pairwise brackets come from
    ``pair``, by default the memoized ``pair_bracket`` table; each result
    is read once and never mutated.

    The check runs on integers.  One table holds [g, h] for every pair of
    window generators and for every g of the window paired with a generator
    h that those brackets reach, and ``clear_table`` stores each of its
    coefficients as an integer over D, the lcm of all their denominators.
    A term [g, [b, c]] is then a sum of products of two such integers, D^2
    times its rational value, so the integer sum of a triple is D^2 times
    its Jacobi sum.  As D^2 != 0, the one is zero exactly when the other
    is.

    A window that is not an int, or is negative, raises ValueError.
    """
    check_window(window, 0)
    gens = basis_window(window)
    reached = set(gens).union(*[pair(b, c).terms for b in gens for c in gens])
    table, _ = clear_table(
        {(g, h): pair(g, h).terms for g in gens for h in reached}
    )
    violations = []
    for a in gens:
        for b in gens:
            for c in gens:
                total = {}
                cyclic = ((a, table[b, c]), (b, table[c, a]), (c, table[a, b]))
                for g, terms in cyclic:
                    for h, ch in terms:
                        for k, ck in table[g, h]:
                            total[k] = total.get(k, 0) + ch * ck
                if any(total.values()):
                    violations.append((a, b, c))
    return violations


def vir_embed(e, n):
    """The Virasoro copy Vir[e]: the element x(n) + n*e*I(n).

    For every rational e these elements close under the bracket:
    [vir_embed(e,n), vir_embed(e,m)] = (m-n) vir_embed(e,n+m)
                                       + delta(n,-m) (n^3-n)/12 C.
    """
    e = rat(e)
    return LieElement({x(n): Fraction(1), I(n): n * e})
