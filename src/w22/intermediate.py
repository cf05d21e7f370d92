"""Intermediate-series weight modules with trivial I-action.

Three families over the index lattice Z, each with one-dimensional weight
spaces spanned by v_i and with I(n), C, C1 acting as zero:

  Aab(a, b):  x(m) v_i = (a + i + b m) v_{m+i}
  Aa(a):      x(m) v_i = (i + m) v_{m+i}   (i != 0),
              x(m) v_0 = m (m + a) v_m
  Ba(a):      x(m) v_i = i v_{m+i}         (i != -m),
              x(m) v_{-m} = -m (m + a) v_0

A ModuleSpec may mask an index set, of ints; masked indices are excluded
from the module (sources give zero, flows into masked targets are
dropped).
``coefficient`` alone holds the x-action and applies the mask; ``act``
and ``bracket_compatibility_check`` read the module only through it.  The
simple subquotient of Aab(0, 1) -- everything off the v_0 line -- is the
masked table returned by ``simple_subquotient``.

The x-bracket identity A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = [x(i), x(j)]
on V_n has one integer check here, ``_x_bracket_defects``, for an action
by d x d matrices A(k, m).  ``bracket_compatibility_check`` is its d = 1
call, with A(m, i) = ``coefficient(spec, m, i)``, and
``constraints.verify_x_action`` its d = 2 call.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .liecore import X_KIND, pair_bracket, x
from .rationals import check_int, clear_table, rat, rat_str

FAMILIES = ("Aab", "Aa", "Ba")


@dataclass(frozen=True)
class ModuleSpec:
    family: str
    a: Fraction
    b: Fraction | None = None
    masked: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r (want one of %s)" % (self.family, ", ".join(FAMILIES)))
        object.__setattr__(self, "a", rat(self.a))
        if self.family == "Aab":
            if self.b is None:
                raise ValueError("family Aab needs both a and b")
            object.__setattr__(self, "b", rat(self.b))
        elif self.b is not None:
            raise ValueError("family %s takes no b parameter" % self.family)
        masked = frozenset(self.masked)
        for i in masked:
            if not isinstance(i, int):
                raise ValueError("mask entries must be ints, got %r" % (i,))
        object.__setattr__(self, "masked", masked)


def simple_subquotient():
    """The simple subquotient of Aab(0, 1): indices != 0, same action."""
    return ModuleSpec("Aab", 0, 1, masked=frozenset([0]))


def coefficient(spec, m, i):
    """Scalar in x(m) v_i = coefficient * v_{m+i}."""
    if i in spec.masked or (m + i) in spec.masked:
        return Fraction(0)
    if spec.family == "Aab":
        return spec.a + i + spec.b * m
    if spec.family == "Aa":
        if i != 0:
            return Fraction(i + m)
        return Fraction(m) * (m + spec.a)
    # Ba
    if i != -m:
        return Fraction(i)
    return -Fraction(m) * (m + spec.a)


def _flat(matrix):
    """A d x d matrix, given by its rows, as the flat {r d + s: entry} dict
    of ``rationals.clear_table``: the one form in which the x-bracket check
    and the rows of ``constraints.build_matrix_system`` read A(i, n)."""
    return dict(enumerate(v for row in matrix for v in row))


def _products(d):
    """products[r d + s] lists the pairs (r d + k, k d + s) of flat indices
    of the terms P[r][k] Q[k][s] of entry (r, s) of a d x d product P Q."""
    return [[(r * d + k, k * d + s) for k in range(d)]
            for r in range(d) for s in range(d)]


@lru_cache(maxsize=16)
def _x_terms(bracket, window, reach):
    """The part of ``_x_bracket_defects`` that no action changes, for the
    bracket table ``bracket`` (``pair_bracket``, read at each call, so a
    patched table gets its own entry): (E, pairs, need).

    The x-terms c x(b) of every ``bracket(x(i), x(j))`` with |i|, |j| <=
    window and |i + j| <= reach are cleared once over their lcm E, as
    c = e / E.  pairs holds (i, j, the (b, e) of (i, j), those of (j, i),
    whether the latter are the negatives of the former) for each pair
    evaluated: i < j, and i = j when its bracket has x-terms.  need[k] is
    the sorted tuple of the weights m at which an evaluated triple reads
    A(k, m).  Built on first use at each key, never at import.
    """
    rng = range(-window, window + 1)
    g = {i: x(i) for i in rng}
    xterms, xden = clear_table({
        (i, j): {b.index: c for b, c in bracket(g[i], g[j]).terms.items()
                 if b.kind == X_KIND}
        for i in rng for j in rng if abs(i + j) <= reach
    })
    pairs = tuple(
        (i, j, tuple(xterms[i, j]), tuple(xterms[j, i]),
         xterms[j, i] == [(b, -c) for b, c in xterms[i, j]])
        for i, j in xterms if i < j or i == j and xterms[i, j]
    )
    # need[k] holds the weights of the A(k, .) read: each triple (i, j, n)
    # of a pair reads A(k, m + n) at (k, m) = (i, j), (i, 0), (j, i) and
    # (j, 0) for the products and at (b, 0) for each x-term c x(b)
    need = {}
    for i, j, terms, mirror_terms, _ in pairs:
        term_reads = [(b, 0) for b, _ in terms + mirror_terms]
        for k, m in [(i, j), (i, 0), (j, i), (j, 0)] + term_reads:
            need.setdefault(k, set()).update(range(m - window, m + window + 1))
    return xden, pairs, {k: tuple(sorted(ms)) for k, ms in need.items()}


def _x_bracket_defects(a_mat, d, window, reach):
    """Every (i, j, n), sorted, at which a d x d x-action breaks

        A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = [x(i), x(j)] on V_n,

    over |i|, |j|, |n| <= window with |i + j| <= reach.  ``a_mat(k, m)``
    gives A(k, m) by its rows, each of d rationals, and is read through
    ``_flat``; the right side is the sum of c A(b, n) over the x-terms
    c x(b) of ``pair_bracket(x(i), x(j))``, and central terms act as 0.

    The check is exact and runs on integers.  Every entry the triples read
    is cleared once, as A(k, m) = M(k, m) / D over the lcm D of all their
    denominators, and the x-terms as c = e / E over theirs.  So the
    relation, multiplied through by D^2 E != 0, reads

        E (M(i, j+n) M(j, n) - M(j, i+n) M(i, n)) = D sum e M(b, n).

    The left side L(i, j, n) is computed once per unordered pair {i, j}.
    For any matrices, swapping i and j swaps the two products, so
    L(j, i, n) = -L(i, j, n) and L(i, i, n) = 0.  So a pair i = j is
    evaluated only when its bracket has x-terms: 0 = 0 otherwise.  L is
    compared with the table's right side of each order, as no
    antisymmetry of the table is assumed; where the (j, i) terms are the
    negatives of the (i, j) terms, as in W(2,2), the (j, i, n) comparison
    is the (i, j, n) one negated.  Each A(k, m) is read once, and only
    where an evaluated triple reads it.  The x-terms, the pairs evaluated
    and the weights read depend on window, reach and the bracket table
    alone, so ``_x_terms`` computes them once per key, and a call clears
    only the entries of A.  A window that is not an int, or is below 1,
    raises ValueError before anything is read.
    """
    check_int(window, 1, "window")
    xden, pairs, need = _x_terms(pair_bracket, window, reach)
    cleared, den = clear_table(
        {(k, m): _flat(a_mat(k, m)) for k, ms in need.items() for m in ms})
    rows = {k: {m: [v for _, v in cleared[k, m]] for m in ms}
            for k, ms in need.items()}
    products = list(enumerate(_products(d)))

    def breaks(p, q, u, v, n, terms):
        for e, prod in products:
            left = 0
            for a, b in prod:
                left += p[a] * q[b] - u[a] * v[b]
            right = 0
            for row, c in terms:
                right += c * row[n][e]
            if xden * left != right:
                return True
        return False

    defects = []
    for i, j, terms, mirror_terms, mirrored in pairs:
        right = [(rows[b], den * c) for b, c in terms]
        flipped = [(rows[b], -den * c) for b, c in mirror_terms]
        ai, aj = rows[i], rows[j]
        for n in range(-window, window + 1):
            p, q, u, v = ai[j + n], aj[n], aj[i + n], ai[n]
            if breaks(p, q, u, v, n, right):
                defects += [(i, j, n), (j, i, n)] if mirrored else [(i, j, n)]
            if i != j and not mirrored and breaks(p, q, u, v, n, flipped):
                defects.append((j, i, n))
    return sorted(defects)


def act(spec, gen, vec):
    """Apply one generator to an indexed vector {index: coeff}.

    I(n), C and C1 act as zero on every family.
    """
    if isinstance(gen, int):
        raise TypeError("gen must be a BasisElement; index maps are the vectors")
    if gen.kind != "X":
        return {}
    m = gen.index
    return {m + i: c for i, v in vec.items() if (c := coefficient(spec, m, i) * v)}


def bracket_compatibility_check(spec, window):
    """Check g(h v_i) - h(g v_i) = [g,h] v_i on the window, exactly.

    Runs over the x-generator pairs with |index| <= window and all seeds
    |i| <= window.  I(n), C and C1 act as zero and [x, I] lies in the span
    of I and C1, so every pair with a non-x side compares 0 with 0.  Both
    sides are multiples of the one basis vector v_{i + deg g + deg h}, so
    with A(m, i) the 1 x 1 matrix ``coefficient(spec, m, i)`` the check is
    the d = 1 x-bracket identity

        A(dg, i+dh) A(dh, i) - A(dh, i+dg) A(dg, i) = [x(dg), x(dh)] v_i,

    on every pair, as |dg + dh| <= 2 window always holds.
    ``_x_bracket_defects`` checks it on integers over one denominator, with
    the left side computed once per unordered pair {dg, dh}: it changes
    sign when dg and dh swap and is 0 at dg = dh, for any scalars.  The
    right side is read from ``pair_bracket`` for each order, so a table
    that is not antisymmetric is checked as it is.  So the scalars read are
    A(dg, i+dh), A(dh, i), A(dh, i+dg) and A(dg, i) for dg != dh, and A(b, i)
    for the x-terms c x(b) of [x(dg), x(dh)].  With the W(2,2) brackets,
    b = dg + dh and no pair dg = dh is evaluated, so that is every A(m, i)
    with |m| <= window and |i| <= 2 window but A(+-window, +-2 window),
    and every A(b, i) with |b| < 2 window and |i| <= window.
    Returns violation triples (g, h, i), sorted by (deg g, deg h, i);
    empty means the table is a Lie module on the window.
    """
    return [(x(dg), x(dh), i) for dg, dh, i in _x_bracket_defects(
        lambda m, i: [[coefficient(spec, m, i)]], 1, window, 2 * window)]


@dataclass
class ProbeReport:
    spec: ModuleSpec
    window: int
    verdict: str
    proper_invariant_sets: list  # sorted index lists, distinct proper closures

    def to_json(self):
        return {
            "family": self.spec.family,
            "a": rat_str(self.spec.a),
            "b": None if self.spec.b is None else rat_str(self.spec.b),
            "window": self.window,
            "verdict": self.verdict,
            "candidate_submodules": [list(s) for s in self.proper_invariant_sets],
        }


def simplicity_probe(spec, window):
    """Reachability of every windowed seed under windowed generators.

    From v_i the generators x(m), |m| <= window, reach v_{i+m} whenever the
    action coefficient is nonzero and |i+m| <= window.  If every seed
    reaches the whole window the verdict is
    "no-proper-invariant-window-subspace"; otherwise the distinct proper
    closures are reported as candidate submodules.  Window truncation can
    only shrink closures, so a "candidate-submodule" verdict is a hint,
    not a proof of reducibility.
    """
    check_int(window, 1, "window")
    indices = [i for i in range(-window, window + 1) if i not in spec.masked]
    index_set = set(indices)
    reach = {}
    for seed in indices:
        seen = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for m in range(-window, window + 1):
                j = cur + m
                if j in seen or j not in index_set:
                    continue
                if coefficient(spec, m, cur):
                    seen.add(j)
                    frontier.append(j)
        reach[seed] = sorted(seen)
    proper = []
    for seed in indices:
        if len(reach[seed]) < len(indices) and reach[seed] not in proper:
            proper.append(reach[seed])
    verdict = (
        "no-proper-invariant-window-subspace" if not proper else "candidate-submodule"
    )
    return ProbeReport(
        spec=spec,
        window=window,
        verdict=verdict,
        proper_invariant_sets=proper,
    )


def action_table_rows(spec, window):
    """Action-table rows (generator kind, generator index, source, coeff).

    Covers x-generators with |m| <= window on sources |i| <= window; the
    I-rows are omitted since every I(n) acts as zero.  Rows with zero
    coefficient are kept so the table shape is predictable.
    """
    check_int(window, 1, "window")
    rows = []
    for m in range(-window, window + 1):
        for i in range(-window, window + 1):
            if i in spec.masked:
                continue
            rows.append(("X", m, i, coefficient(spec, m, i)))
    return rows
