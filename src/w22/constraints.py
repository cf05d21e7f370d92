"""Constraint systems that pin down I-actions on weight modules.

Both generators start from a module whose x-action is known, x(i) v =
A(i, n) v on the weight space V_n, and treat the I-action I(j) v =
F(j, n) v as unknown.  With d = dim V_n, A(i, n) and F(j, n) are d x d
matrices, and one builder (``_build``) imposes the defining relation
[x(i), I(j)] = (j - i) I(i + j) + delta(i, -j) (i^3 - i)/12 C1 on V_n:
one linear equation per matrix entry of every index triple (i, j, n) on
a finite window.  Each equation of x(i) is the relation times a positive
int D_i, so every coefficient is an int: the builders read A(i, n) over
the weights the rows use as integers over one denominator.  The pinning
row of a normalized extension is written over the ints too, and the
solver reads these integer rows in place.  Solving the linear system and
then filtering by the quadratic constraints coming from [I, I] = 0
recovers every I-action compatible with the given x-action on that
window.

``build_f_system(a, b, window)`` is d = 1, one-dimensional weight
spaces: x(n) v_t = (a + t + b n) v_{n+t} and I(m) v_t = f(m, t) v_{m+t}.

``build_matrix_system(alpha, betas, ext_type, window)`` is d = 2,
V_n = span(v_n^1, v_n^2), with one of the known x-actions A(i, n).
``verify_x_action`` checks that action against the x-bracket before any
row is written; it is the d = 2 call of the one integer x-bracket check,
``intermediate._x_bracket_defects``, whose d = 1 call is
``intermediate.bracket_compatibility_check``.  The check and the rows of
``_build`` read A(i, n) through one flattening, ``intermediate._flat``.

Inside a system, unknowns are integer columns: equation rows and
quadratic terms index ``ConstraintSystem.unknowns``, which holds the
names ("f(m,t)", "F(i,n)[k,l]", "C1").  Names appear only there and in
what ``solve_linear`` and ``report`` return, so solution assignments and
reports stay readable.

The columns, the row layout, the quadratics, ``spanning`` and ``order``
depend on (d, window) alone, and the names on the builder too.
``_build`` keeps them in one frame per (d, window), and the names in one
tuple per (d, window) and builder, each built on first use, so a sweep
over parameters at a fixed window pays only for the coefficients at
each point, and every system of that (d, window) shares the frame's
immutable tuple of quadratics and the builder's tuple of names.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .intermediate import _flat, _products, _x_bracket_defects
from .linalg import solve_sparse
from .rationals import check_int, clear_denominators, clear_table, rat, rat_str

EXT_TYPES = ("decomposable", "ext_a", "ext_b")


@dataclass(frozen=True)
class ConstraintSystem:
    """A finite linear-plus-quadratic constraint system.

    ``unknowns`` names the columns.  ``equations`` holds linear
    constraints as (col -> coeff, rhs) pairs, all to be read as
    sum(coeff * unknown[col]) = rhs.  ``quadratics`` holds bilinear
    constraints as tuples of (col, col, coeff) triples, to be read as
    sum(coeff * unknown[col1] * unknown[col2]) = 0; the builders' systems
    at one (d, window) share one such tuple of tuples, so it is never
    changed in place.  Coefficients are exact ints or Fractions, and zero
    coefficients are omitted.  The builders write every equation with int
    coefficients and an int right-hand side: a row of x(i) is D_i times
    the relation of x(i) (see ``_build``), and the pinning row of a
    normalized matrix system is q F(1, 0)[2, 1] = p for alpha = p/q.
    ``spanning`` lists the indices of equations expected to span the
    linear part (see ``linalg.solve_sparse``); None means every equation.
    ``order`` lists the columns in the order the solver eliminates them;
    None means the natural order.  Neither changes the answer.
    ``evaluate_quadratics`` and ``check_quadratic`` evaluate the
    quadratics by one integer loop over values cleared of their common
    denominator.
    """

    unknowns: tuple
    equations: list
    quadratics: tuple
    meta: dict = field(default_factory=dict)
    spanning: tuple | None = None
    order: tuple | None = None

    def _values(self, assignment):
        return [assignment.get(name, 0) for name in self.unknowns]

    def _quadratic_residuals(self, ints):
        """The residual of each quadratic, in order, at the values ints."""
        for terms in self.quadratics:
            acc = 0
            for left, right, coeff in terms:
                acc += coeff * ints[left] * ints[right]
            yield acc

    def evaluate_quadratics(self, assignment):
        """Residual of every quadratic constraint at an assignment (name ->
        value; missing names are 0), as a Fraction.  The values are cleared
        to integers over one denominator den, and each residual is the one
        ``check_quadratic`` computes on those integers, divided by den^2."""
        ints, den = clear_denominators(self._values(assignment))
        square = den * den
        return [Fraction(r) / square for r in self._quadratic_residuals(ints)]


@dataclass(frozen=True)
class SolutionSpace:
    feasible: bool
    particular: dict | None
    basis: list
    dimension: int


def _assignment_from_vector(unknowns, vector):
    return {
        name: value for name, value in zip(unknowns, vector) if value
    }


def solve_linear(system):
    """Solve the linear part of a ConstraintSystem exactly.

    The answer is rendered by name: the particular solution and each
    basis ray are name -> value dicts without zero values.
    """
    feasible, particular, kernel = solve_sparse(
        system.equations, len(system.unknowns), spanning=system.spanning,
        order=system.order,
    )
    if not feasible:
        return SolutionSpace(False, None, [], 0)
    return SolutionSpace(
        True,
        _assignment_from_vector(system.unknowns, particular),
        [_assignment_from_vector(system.unknowns, v) for v in kernel],
        len(kernel),
    )


def check_quadratic(system, solution):
    """Indices of solution rays that also satisfy every quadratic constraint.

    Each basis ray is tested on its own (scaled by 1); for homogeneous
    quadratics this decides, for each ray direction, whether the whole
    ray lies on the quadratic variety.  The test is exact and runs on
    integers: each ray, read over the columns as the equations are,
    becomes one integer vector by clearing its common denominator, which
    scales every homogeneous quadratic residual by the same nonzero
    square.  The loop is the one ``ConstraintSystem.evaluate_quadratics``
    runs, and it stops at a ray's first nonzero quadratic.
    """
    survivors = []
    for i, ray in enumerate(solution.basis):
        ints = clear_denominators(system._values(ray))[0]
        if not any(system._quadratic_residuals(ints)):
            survivors.append(i)
    return survivors


def c1_is_forced_zero(solution):
    """True when every solution of the linear system has C1 = 0."""
    return solution.feasible and not any(
        ray.get("C1") for ray in [solution.particular, *solution.basis]
    )


def report(system, solution, survivors):
    """Machine-readable summary of a solved system, with survivors the
    indices of the rays that pass the quadratics (``check_quadratic``)."""
    c1_zero = c1_is_forced_zero(solution)
    out = {
        "kind": system.meta.get("kind", "constraint-system"),
        "unknowns": len(system.unknowns),
        "equations": len(system.equations),
        "infeasible": not solution.feasible,
        "dimension": solution.dimension,
        "c1_forced_zero": c1_zero,
        "basis": [
            {name: rat_str(value) for name, value in ray.items()}
            for ray in solution.basis
        ],
        "quadratic_survivors": len(survivors),
        "surviving_rays": list(survivors),
    }
    for key, value in system.meta.items():
        if key != "kind":
            out.setdefault(key, value)
    return out


# ---------------------------------------------------------------------------
# The defining relation on d x d blocks.
# ---------------------------------------------------------------------------


def _build(cleared, d, window, names):
    """Rows of [x(i), I(j)] = (j - i) I(i + j) + delta (i^3 - i)/12 C1.

    ``cleared(i, weights)`` gives the d x d matrices A(i, n) of x(i) on
    V_n for the n in weights, in the shape of ``rationals.clear_table``:
    ({n: [(r d + s, int), ...]}, den), every entry listed in the order of
    r d + s, with A(i, n)[r][s] = int / den.
    ``names(j, n, r, s)`` names entry (r, s) of the unknown F(j, n),
    counting from 0.  Applied to V_n the relation reads

        A(i, j+n) F(j, n) - F(j, i+n) A(i, n) + (i - j) F(i+j, n)
            - delta(i, -j) (i^3 - i)/12 C1 = 0,

    one row per entry (r, s) of every triple (i, j, n) whose indices all
    stay inside the window, in the order j, i, n, (r, s).  Every row of
    x(i) is written as D_i times the relation, with all coefficients
    ints: D_i is the lcm of den and 12 / gcd(i^3 - i, 12), so that the C1
    coefficient -(i^3 - i)/12 D_i is an int too.  Scaling a row by a
    positive int keeps its solutions, and the solver reads integer rows
    as they are.

    Precondition: A(0, n) = (lambda + n) Id for some scalar lambda, as in
    every action the package builds.  The i = 0 rows then read
    (lambda + j + n - lambda - n - j) F(j, n) = 0, so they are written as
    empty rows ({}, 0) without reading ``cleared(0, .)``.  They are kept,
    not dropped, so that every windowed triple keeps its rows: the
    equation count, the row indices and the outputs read from them stay
    those of the full relation.

    ``spanning`` lists the rows the solver folds first, a hint that they
    carry the linear part.  A row of x(1) with j != 1 has coefficient
    1 - j != 0 on F(j + 1, n) and reads only F(j, .) besides, so these
    rows solve for each block from blocks of lower j: they are triangular,
    and all of them are listed.  They leave free the blocks F(j', n') with
    j' = -window, j' = 2 or n' = window.  The j = 1 rows of x(1) have
    coefficient 0 there and are left out.  A row of x(-1) or x(-2) is
    listed when its cell names a free block among F(j, n), F(j, i + n)
    and F(i + j, n); C1's rows (i = -2, j = 2) name F(2, .), so they are
    in.  That is 440 of the 1716 rows of a matrix system at window 4 and
    160 of the 781 of an f-system at window 5.  x(1), x(-1) and x(-2)
    generate only the x(n) with n <= 1, so no theorem says the hint
    spans; it is measured, not proved.  Over 126 systems (f-systems at
    windows 3-6 over 7 generic, integral and degenerate (a, b), and at
    windows 4-5 the decomposable systems at 9 alphas and 4 betas, ext_a
    at the 9 alphas and ext_b at the 4 non-integral ones), its rank mod
    p equalled that of all rows on 120.  It fell short on the other 6,
    the decomposable systems at alpha = 3 and 4 with betas (1, 2) and
    (2, 1), by exactly as much as the hint of every x(1), x(-1) and x(-2)
    row, which it replaces at about 3/5 of the size.  The solver checks
    every row regardless; when the hint does not span, the rows outside
    it join the same echelon basis at the same prime, so a short hint
    costs only the fold of those rows.
    Quadratics are the entries of
    [I(i), I(j)] v = F(i, j+n) F(j, n) - F(j, i+n) F(i, n) = 0 for i < j.

    ``order`` lists the columns for the solver to eliminate in: j
    ascending, n descending inside each j, the d x d entries ascending, C1
    last.  The fold takes the smallest column left in a row as its pivot;
    in this order a row reaches a new pivot or 0 in about half the
    reduction steps of the natural one (n ascending).  Counting the
    reductions of a row by a pivot row in the fold of the hint, it is
    8 102 -> 3 921 for the ext_a system at alpha = -7/2, window 4, and
    1 862 -> 838 for the f-system (2, -3/5) at window 5.  The solver
    maps its answer back to the natural columns, so the order changes no
    output.

    Everything here but the coefficient values depends on (d, window)
    alone, so it lives in a frame (``_frame``), built on the first call
    at each (d, window) and shared by every later one.  A call reads each
    x(i) through ``cleared`` once, scales it by D_i, and walks the frame's
    rows, writing each coefficient from the entries of A(i, j+n) and
    A(i, n) that ``intermediate._products`` names for its (r, s).
    ``spanning``, ``order`` and ``quadratics`` are the frame's own tuples,
    so every system built at one (d, window) holds the same objects.  So
    is ``unknowns``, formatted once per (d, window) and ``names`` by
    ``_unknowns``.

    Returns (unknowns, equations, quadratics, spanning, order).
    """
    rng = range(-window, window + 1)
    unknowns = _unknowns(d, window, names)
    c1 = len(unknowns) - 1
    products = list(enumerate(_products(d)))
    diagonal = range(0, d * d, d + 1)
    frame = _frame(d, window)

    # flats[i] = (D_i, central, {n: the entries of D_i A(i, n), flat}),
    # with central the C1 coefficient -(i^3 - i)/12 D_i of the rows with
    # i + j = 0.  j and n run over [lo, hi], so the rows read A(i, j + n)
    # and A(i, n) for weights in [2 lo, 2 hi].
    flats = {}
    for i in rng:
        if not i:
            continue
        lo, hi = max(-window, -window - i), min(window, window - i)
        matrices, den = cleared(i, range(2 * lo, 2 * hi + 1))
        scale = lcm(den, 12 // gcd(i**3 - i, 12))
        up = scale // den
        flats[i] = scale, -(i**3 - i) * scale // 12, {
            n: [v * up for _, v in pairs] for n, pairs in matrices.items()
        }

    equations = []
    for i, factor, pinned, cells in frame.rows:
        if not i:
            equations.extend(({}, 0) for _ in range(len(cells) * d * d))
            continue
        scale, central, table = flats[i]
        shift = factor * scale
        for m, n, left, right, shifted in cells:
            a_left, a_right = table[m], table[n]
            for e, prod in products:
                coeffs = {}
                for x, y in prod:
                    v = a_left[x]
                    if v:
                        coeffs[left + y] = v
                for x, y in prod:
                    v = a_right[y]
                    if v:
                        coeffs[right + x] = -v
                if shift:
                    coeffs[shifted + e] = shift
                if pinned and e in diagonal:
                    coeffs[c1] = central
                equations.append((coeffs, 0))
    return unknowns, equations, frame.quadratics, frame.spanning, frame.order


# The parameter-free part of ``_build`` at one (d, window).  ``rows``
# holds one (i, i - j, pinned, cells) group per windowed pair (j, i), in
# the order j, i; pinned says that i + j = 0 and x(i) has a C1 term, and
# cells holds one (j + n, n, left, right, shifted) per windowed n: the
# weights of the two matrices A(i, j + n) and A(i, n) that the rows read,
# and the first columns of the blocks F(j, n), F(j, i + n) and F(i + j, n).
# Each cell stands for the d^2 rows of its entries (r, s); a group with
# i = 0 stands for as many empty rows.
_Frame = namedtuple("_Frame", "rows quadratics spanning order")


def _column(d, window, j, n, e=0):
    """The column of flat entry e = r d + s of the unknown F(j, n) in the
    systems of ``_build`` at (d, window): the blocks run j ascending, then
    n ascending, d^2 columns each, and C1 comes after the last one."""
    return ((window + j) * (2 * window + 1) + window + n) * d * d + e


@lru_cache(maxsize=None)
def _frame(d, window):
    """The ``_Frame`` of ``_build`` at (d, window)."""
    rng = range(-window, window + 1)
    dd = d * d
    c1 = len(rng) ** 2 * dd
    order = tuple(
        _column(d, window, j, n, e)
        for j in rng for n in reversed(rng) for e in range(dd)
    ) + (c1,)

    def free(j, n):
        # a block F(j, n) that no x(1) row with j != 1 solves for
        return j in (-window, 2) or n == window

    rows = []
    spanning = []
    count = 0
    for j in rng:
        bj = _column(d, window, j, 0)
        for i in rng:
            if abs(i + j) > window:
                continue
            bij = _column(d, window, i + j, 0)
            ns = [n for n in rng if abs(i + n) <= window]
            cells = tuple(
                (j + n, n, bj + n * dd, bj + (n + i) * dd, bij + n * dd)
                for n in ns
            )
            rows.append((i, i - j, i + j == 0 and i**3 != i, cells))
            for n in ns:
                if (i == 1 and j != 1 or i in (-1, -2) and (
                        free(j, n) or free(j, i + n) or free(i + j, n))):
                    spanning.extend(range(count, count + dd))
                count += dd

    products = _products(d)
    quadratics = []
    for i in rng:
        for j in rng:
            if j <= i:
                continue
            bi, bj = _column(d, window, i, 0), _column(d, window, j, 0)
            for n in rng:
                if abs(i + n) > window or abs(j + n) > window:
                    continue
                # the blocks F(i, j+n), F(j, n), F(j, i+n) and F(i, n)
                p, q = bi + (j + n) * dd, bj + n * dd
                u, v = bj + (i + n) * dd, bi + n * dd
                for prod in products:
                    quad = []
                    for x, y in prod:
                        quad.append((p + x, q + y, 1))
                        quad.append((u + x, v + y, -1))
                    quadratics.append(tuple(quad))
    return _Frame(tuple(rows), tuple(quadratics), tuple(spanning), order)


@lru_cache(maxsize=64)
def _unknowns(d, window, names):
    """The column names of ``_build`` at (d, window): ``names(j, n, r, s)``
    for the entries of every F(j, n) in column order, then "C1".  The
    builders name through module-level functions, so each (d, window)
    formats its names once."""
    rng = range(-window, window + 1)
    blocks = range(d)
    return tuple(
        names(j, n, r, s) for j in rng for n in rng for r in blocks
        for s in blocks
    ) + ("C1",)


# ---------------------------------------------------------------------------
# One-dimensional weight spaces: the f(m, t) system.
# ---------------------------------------------------------------------------


def _f_name(m, t):
    return "f(%d,%d)" % (m, t)


def _f_column_name(m, t, r, s):
    return _f_name(m, t)


def build_f_system(a, b, window):
    """Linear/quadratic system for I(m) v_t = f(m, t) v_{m+t}.

    The x-action is x(n) v_t = (a + t + b n) v_{n+t}, so this is the
    d = 1 case of ``_build``, with f(m, t) the 1x1 matrix F(m, t), and
    x(n) written as the ints a + b n + t times lcm(den a, den b): one
    linear equation per windowed triple (m, n, t), in the order m, n, t,
    and one quadratic per windowed triple with m < n.  A window that is
    not an int raises ValueError, and so does one below 3: it contains no
    triple with n = -m and |n| >= 2, so the central unknown C1 would be
    unconstrained.
    """
    a = rat(a)
    b = rat(b)
    check_int(window, 3, "window")
    (a_int, b_int), den = clear_denominators([a, b])

    def cleared(n, weights):
        # x(n) on v_t is a + b n + t = (a_int + b_int n + den t) / den
        base = a_int + b_int * n
        return {t: [(0, base + den * t)] for t in weights}, den

    unknowns, equations, quadratics, spanning, order = _build(
        cleared, 1, window, _f_column_name,
    )
    meta = {
        "kind": "f-system",
        "a": rat_str(a),
        "b": rat_str(b),
        "window": window,
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=spanning, order=order,
    )


def f_family_assignment(a, b, window):
    """The closed-form solution family f(m, t) = a + b m + t, C1 = 0.

    Specializing (a, b) reproduces the degenerate families as well:
    (0, 1) gives f(m, t) = m + t and (0, 0) gives f(m, t) = t.  A window
    that is not an int, or is negative, raises ValueError.
    """
    check_int(window, 0, "window")
    a = rat(a)
    b = rat(b)
    out = {}
    for m in range(-window, window + 1):
        for t in range(-window, window + 1):
            value = a + b * m + t
            if value:
                out[_f_name(m, t)] = value
    out["C1"] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# Two-dimensional weight spaces: the F(i, n) matrix system.
# ---------------------------------------------------------------------------


def _mat_column_name(i, n, r, s):
    return "F(%d,%d)[%d,%d]" % (i, n, r + 1, s + 1)


def _beta_pair(betas):
    """(beta1, beta2) as Fractions from a pair of rationals; None is (0, 0).

    Anything else that is not a tuple or list of two raises ValueError.
    """
    if betas is None:
        return Fraction(0), Fraction(0)
    if not isinstance(betas, (tuple, list)) or len(betas) != 2:
        raise ValueError(
            "betas must be a pair of rationals, got %r" % (betas,)
        )
    return rat(betas[0]), rat(betas[1])


def make_x_matrices(alpha, betas, ext_type):
    """Return a memoized A(i, n) builder for one of the known x-actions.

    betas is the pair (beta1, beta2), or None for (0, 0); anything else
    raises ValueError.
    "decomposable" is diag(alpha + n + i beta1, alpha + n + i beta2); the
    two extension types are the indecomposable actions that exist only for
    beta1 = beta2 = 0.  ext_a is polynomial in i, n.  Every ext_b matrix
    is d Id + c(i, n) E12 with d = alpha + n and, for s = sign(i) and
    m = |i|, the corner

        c(i, n) = s sum_{k=1}^{m-1} k (m - k) / ((d + s k) (d + i)),

    which is 0 for |i| <= 1, 1/((d+1)(d+2)) at i = 2 and -1/((d-1)(d-2))
    at i = -2.  For i >= 2, as k (i - k) / ((d + k)(d + i)) =
    k/(d + k) - k/(d + i), it reads c = sum_{k<i} k/(d + k) - T_i/(d + i)
    with T_i = i (i - 1)/2.

    This is the action the x-bracket forces from those seeds.  With
    A(+-1, n) = d Id, [x(1), x(i-1)] = (i - 2) x(i) acts on the corner
    alone: (i - 2) c(i, d) = (d+i-1) c(i-1, d) - d c(i-1, d+1) for i >= 3,
    writing c as a function of d.  By (d+i-1) k/(d+k) = k + k (i-1-k)/(d+k)
    and d (k-1)/(d+k) = (k-1) - k (k-1)/(d+k) (shifting k by 1 in the
    second sum), the right side telescopes: its integer parts cancel, and
    it is (i - 2) sum_{k<i} k/(d+k) - i T_{i-1}/(d+i), which is
    (i - 2) c(i, d) as i T_{i-1} = (i - 2) T_i.  The closed form has
    c(-i, d) = -c(i, -d), under which the mirrored recursion for i <= -3,
    (-2-i) c(i, d) = d c(i+1, d-1) - (d+i+1) c(i+1, d), becomes the same
    recursion, with the same seeds.  The denominators vanish only when
    d = alpha + n is an integer in -s{1, ..., m}, which is why ext_b is
    refused at integral alpha.

    The sum runs on integers: with d = p/q it accumulates
    N/D = sum k (m - k)/(p + s k q), and c = s q^2 N / ((p + i q) D).
    The memo saves computing again the matrices that both
    ``verify_x_action`` and ``build_matrix_system`` read.
    """
    alpha = rat(alpha)
    beta1, beta2 = _beta_pair(betas)
    if ext_type not in EXT_TYPES:
        raise ValueError("ext_type must be one of %r" % (EXT_TYPES,))
    if ext_type != "decomposable" and (beta1 or beta2):
        raise ValueError("extension types require beta1 = beta2 = 0")
    if ext_type == "ext_b" and alpha.denominator == 1:
        raise ValueError("ext_b is defined only for non-integral alpha")

    @lru_cache(maxsize=None)
    def a_mat(i, n):
        d = alpha + n
        zero = Fraction(0)
        if ext_type == "decomposable":
            return ((d + i * beta1, zero), (zero, d + i * beta2))
        if ext_type == "ext_a":
            return ((d, Fraction(-i)), (zero, d))
        p, q = d.numerator, d.denominator
        sign, m = (i > 0) - (i < 0), abs(i)
        num, den = 0, 1
        for k in range(1, m):
            factor = p + sign * k * q
            num, den = num * factor + k * (m - k) * den, den * factor
        corner = Fraction(sign * q * q * num, (p + i * q) * den)
        return ((d, corner), (zero, d))

    return a_mat


def verify_x_action(a_mat, window):
    """Check A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = (j - i) A(i+j, n).

    Raises ValueError at the first windowed triple, in the order i, j, n,
    where the candidate x-action breaks the x-bracket.  The windowed
    triples are those with |i|, |j|, |n| <= window and |i + j| <= window,
    and the right side is [x(i), x(j)] = (j - i) x(i+j) + central acting
    on V_n, the central term as 0: this is the d = 2 call of
    ``intermediate._x_bracket_defects``, which checks it exactly on
    integers over one denominator.

    The left side is computed once per unordered pair {i, j}.  For any
    matrices the defect E(i, j, n) = A(i, j+n) A(j, n) - A(j, i+n) A(i, n)
    - (j - i) A(i+j, n) has E(j, i, n) = -E(i, j, n): swapping i and j
    swaps the two products and negates j - i.  So E(i, i, n) = 0, and no
    corruption of any matrix can break a triple with i = j; a triple with
    i > j breaks the relation exactly when (j, i, n) does.  The kernel
    evaluates no pair i = j, as [x(i), x(i)] = 0, so the matrices read are
    those of the triples with i != j, each once: A(i, j+n), A(j, n),
    A(j, i+n), A(i, n) and A(i+j, n).  At an even window w that leaves out
    A(+-w/2, +-3w/2), which only (+-w/2, +-w/2, n) would read.

    A window that is not an int, or is below 1, raises ValueError: at
    window 0 the only triple is (0, 0, 0), which every family of matrices
    passes.
    """
    defects = _x_bracket_defects(a_mat, 2, window, window)
    if defects:
        raise ValueError("x-action matrices violate the x-bracket at "
                         "(i, j, n) = (%d, %d, %d)" % defects[0])


def build_matrix_system(alpha, betas, ext_type, window, normalized=True):
    """Linear/quadratic system for a 2x2-matrix I-action F(i, n).

    The x-action A(i, n) is fixed by (alpha, betas, ext_type); unknowns are
    the four entries of F(i, n) for |i|, |n| <= window plus C1, and the
    rows are those of ``_build`` with d = 2, each x(i) read through
    ``clear_table`` over its own denominator.  Before any equation is
    emitted the A-matrices themselves are checked against the x-bracket
    on the window (a consistency failure raises ValueError).  A window
    that is not an int, or is below 4, raises ValueError too, and so do
    betas that are not a pair (see ``make_x_matrices``).

    With ``normalized`` (extension types only) the single inhomogeneous
    pinning equation F(1, 0)[2, 1] = alpha is appended, written over the
    ints as q F(1, 0)[2, 1] = p for alpha = p/q, and recorded as
    ``spanning``; the classification question is then whether any
    I-action meets that normalization.  At alpha = 0 the pin is
    homogeneous and normalizes nothing, so it is refused there.
    """
    alpha = rat(alpha)
    check_int(window, 4, "window")
    a_mat = make_x_matrices(alpha, betas, ext_type)
    normalized = bool(normalized and ext_type != "decomposable")
    if normalized and not alpha:
        raise ValueError(
            "a normalized extension needs alpha != 0: at alpha = 0 the pin "
            "F(1,0)[2,1] = alpha is homogeneous"
        )
    verify_x_action(a_mat, window)
    unknowns, equations, quadratics, spanning, order = _build(
        lambda i, ns: clear_table({n: _flat(a_mat(i, n)) for n in ns}),
        2, window, _mat_column_name,
    )
    if normalized:
        spanning += (len(equations),)
        # F(1, 0)[2, 1] is flat entry 2 of F(1, 0)
        pin = _column(2, window, 1, 0, 2)
        equations.append(({pin: alpha.denominator}, alpha.numerator))
    meta = {
        "kind": "matrix-system",
        "alpha": rat_str(alpha),
        "betas": [rat_str(beta) for beta in _beta_pair(betas)],
        "ext_type": ext_type,
        "window": window,
        "normalized": normalized,
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=spanning, order=order,
    )
