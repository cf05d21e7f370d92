"""Independent routes that the tests compare the library against.

The library, its command line, the demos and the benchmark use none of
these.  Each stays because a test checks a library result against it, by
a second route:

``multiply``
    straightens the product of two normal-ordered elements, so the
    normal order of a concatenated word is checked against
    ``normal_order`` applied piece by piece.
``is_normal_ordered``
    reads a word's order from ``term_key`` alone, so the ordering of
    ``normal_order`` and ``level_basis`` is checked without rewriting.
``act_element``
    applies a ``LieElement`` such as ``vir_embed(e, n)`` as a whole,
    term by term through ``act``, so each Virasoro copy is checked
    against x(n) alone.
``matrix_family_assignment``
    writes the paper's decomposable answer F(i, n) = (alpha + n) D by
    hand, so the matrix builder's rows are checked without the solver.
``equation_residuals``
    evaluates a constraint system's linear equations at an assignment,
    so the builders' rows are checked against known families without
    the solver.
``quadratic_residuals``
    evaluates its quadratics in ``Fraction`` arithmetic straight from
    the assignment, the reference for the one integer loop that
    ``evaluate_quadratics`` and ``check_quadratic`` share.
``FractionActor``
    applies a generator to a PBW monomial times v by the one recursion
    of ``HighestWeightActor`` in ``Fraction`` arithmetic, as the library
    ran it before its action moved to ints, so the actor's word reader
    ``apply_word`` (applied here one factor at a time), ``raising_matrix``
    and the Verma row builder are checked against it.
``generator_from_json``, ``monomial_from_json``, ``element_from_json``,
``params_from_json``
    read back the JSON records that the library writes (it reads none),
    for the round-trip tests and criterion 10.  They are built only on
    the public constructors, so every coefficient goes through ``rat``.
"""

from fractions import Fraction

from w22 import (
    BasisElement,
    HighestWeightParams,
    UEAElement,
    act,
    normal_order,
    pair_bracket,
    rat,
    term_key,
)


def multiply(u, v):
    """Product of two UEAElements, re-straightened to PBW form."""
    out = UEAElement()
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            out = out + (c1 * c2) * normal_order(m1 + m2)
    return out


def is_normal_ordered(word):
    keys = [term_key(b) for b in word]
    return all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))


def act_element(spec, elem, vec):
    """Linear extension of ``act`` to LieElements."""
    out = {}
    for g, cg in elem.terms.items():
        for j, c in act(spec, g, vec).items():
            out[j] = out.get(j, Fraction(0)) + cg * c
    return {j: c for j, c in out.items() if c}


def matrix_family_assignment(alpha, window, d_matrix):
    """The scalar family F(i, n) = (alpha + n) D for a constant matrix D,
    with C1 = 0, as a name -> value assignment."""
    alpha = rat(alpha)
    out = {}
    for i in range(-window, window + 1):
        for n in range(-window, window + 1):
            for r in (1, 2):
                for s in (1, 2):
                    value = (alpha + n) * rat(d_matrix[r - 1][s - 1])
                    if value:
                        out["F(%d,%d)[%d,%d]" % (i, n, r, s)] = value
    out["C1"] = Fraction(0)
    return out


def _values(system, assignment):
    return [assignment.get(name, 0) for name in system.unknowns]


def equation_residuals(system, assignment):
    """Residual (lhs - rhs) of every linear equation of a ConstraintSystem
    at an assignment (name -> value; missing names are 0).  For a built
    system the residual of a row of x(i) is D_i times that of the
    relation, and that of the pinning row q F(1,0)[2,1] = p is q times
    F(1,0)[2,1] - alpha, alpha = p/q."""
    values = _values(system, assignment)
    out = []
    for coeffs, rhs in system.equations:
        acc = Fraction(-rhs)
        for col, coeff in coeffs.items():
            acc += coeff * values[col]
        out.append(acc)
    return out


def quadratic_residuals(system, assignment):
    """Residual of every quadratic constraint at an assignment, summed
    as Fractions."""
    values = _values(system, assignment)
    out = []
    for terms in system.quadratics:
        acc = Fraction(0)
        for left, right, coeff in terms:
            acc += coeff * values[left] * values[right]
        out.append(acc)
    return out


def generator_from_json(rec):
    return BasisElement(rec["kind"], rec.get("index"))


def monomial_from_json(data):
    return tuple(generator_from_json(rec) for rec in data)


def element_from_json(cls, data):
    """A LieElement or UEAElement (cls) from its ``to_json`` record."""
    if cls is UEAElement:
        return cls({monomial_from_json(r["monomial"]): r["coeff"]
                    for r in data["terms"]})
    return cls({generator_from_json(r): r["coeff"] for r in data["terms"]})


def params_from_json(data):
    return HighestWeightParams(data["lambda"], data["c"], data["c0"], data["c1"])


class FractionActor:
    """g mono on the highest-weight vector, as {monomial: Fraction}."""

    def __init__(self, params):
        self.p = params
        self._cache = {}

    def _scalar(self, g):
        if g.kind == "C":
            return self.p.c
        if g.kind == "C1":
            return self.p.c1
        if g.kind == "X":
            return self.p.lam
        return self.p.c0

    def apply_generator(self, g, mono):
        key = (g, mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if g.is_central:
            out = {mono: self._scalar(g)}
        elif not mono:
            if g.index > 0:
                out = {}
            elif g.index == 0:
                out = {(): self._scalar(g)}
            else:
                out = {(g,): Fraction(1)}
        elif g.index < 0 and term_key(g) <= term_key(mono[0]):
            out = {(g,) + mono: Fraction(1)}
        else:
            head, rest = mono[0], mono[1:]
            out = {}
            for m2, c2 in self.apply_generator(g, rest).items():
                for m3, c3 in self.apply_generator(head, m2).items():
                    out[m3] = out.get(m3, 0) + c2 * c3
            for b, cb in pair_bracket(g, head).terms.items():
                for m2, c2 in self.apply_generator(b, rest).items():
                    out[m2] = out.get(m2, 0) + cb * c2
            out = {m: c for m, c in out.items() if c}
        self._cache[key] = out
        return out
