"""Constraint systems that pin down I-actions on weight modules.

Both generators start from a module whose x-action is known, x(i) v =
A(i, n) v on the weight space V_n, and treat the I-action I(j) v =
F(j, n) v as unknown.  With d = dim V_n, A(i, n) and F(j, n) are d x d
matrices, and one builder (``_build``) imposes the defining relation
[x(i), I(j)] = (j - i) I(i + j) + delta(i, -j) (i^3 - i)/12 C1 on V_n:
one linear equation per matrix entry of every index triple (i, j, n) on
a finite window.  Solving the linear system and then filtering by the
quadratic constraints coming from [I, I] = 0 recovers every I-action
compatible with the given x-action on that window.

``build_f_system(a, b, window)`` is d = 1, one-dimensional weight
spaces: x(n) v_t = (a + t + b n) v_{n+t} and I(m) v_t = f(m, t) v_{m+t}.

``build_matrix_system(alpha, betas, ext_type, window)`` is d = 2,
V_n = span(v_n^1, v_n^2), with one of the known x-actions A(i, n).

Inside a system, unknowns are integer columns: equation rows and
quadratic terms index ``ConstraintSystem.unknowns``, which holds the
names ("f(m,t)", "F(i,n)[k,l]", "C1").  Names appear only there and in
what ``solve_linear`` and ``report`` return, so solution assignments and
reports stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .liecore import check_window
from .linalg import solve_sparse
from .rationals import clear_denominators, clear_table, rat, rat_str

EXT_TYPES = ("decomposable", "ext_a", "ext_b")


@dataclass(frozen=True)
class ConstraintSystem:
    """A finite linear-plus-quadratic constraint system.

    ``unknowns`` names the columns.  ``equations`` holds linear
    constraints as (col -> coeff, rhs) pairs, all to be read as
    sum(coeff * unknown[col]) = rhs.  ``quadratics`` holds bilinear
    constraints as lists of (col, col, coeff) triples, to be read as
    sum(coeff * unknown[col1] * unknown[col2]) = 0.  Coefficients are
    exact ints or Fractions, and zero coefficients are omitted.
    ``spanning`` lists the indices of equations expected to span the
    linear part (see ``linalg.solve_sparse``); None means every equation.
    ``order`` lists the columns in the order the solver eliminates them;
    None means the natural order.  Neither changes the answer.
    """

    unknowns: tuple
    equations: list
    quadratics: list
    meta: dict = field(default_factory=dict)
    spanning: tuple | None = None
    order: tuple | None = None

    def _values(self, assignment):
        return [assignment.get(name, 0) for name in self.unknowns]

    def evaluate_equations(self, assignment):
        """Residual (lhs - rhs) of every linear equation at an assignment
        (name -> value; missing names are 0)."""
        values = self._values(assignment)
        out = []
        for coeffs, rhs in self.equations:
            acc = Fraction(-rhs)
            for col, coeff in coeffs.items():
                acc += coeff * values[col]
            out.append(acc)
        return out

    def evaluate_quadratics(self, assignment):
        """Residual of every quadratic constraint at an assignment."""
        values = self._values(assignment)
        out = []
        for terms in self.quadratics:
            acc = Fraction(0)
            for left, right, coeff in terms:
                acc += coeff * values[left] * values[right]
            out.append(acc)
        return out


@dataclass(frozen=True)
class SolutionSpace:
    feasible: bool
    particular: dict | None
    basis: list
    dimension: int

    def ray(self, i):
        """The i-th basis assignment (homogeneous ray) as a name -> value dict."""
        return self.basis[i]


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
    integers: each ray, a name -> value dict, becomes one integer vector
    over the columns by clearing its common denominator, which scales
    every homogeneous quadratic residual by the same nonzero square.
    """
    col = {name: i for i, name in enumerate(system.unknowns)}
    survivors = []
    for i, ray in enumerate(solution.basis):
        ints, _ = clear_denominators(ray.values())
        vec = [0] * len(col)
        for name, value in zip(ray, ints):
            vec[col[name]] = value
        for terms in system.quadratics:
            acc = 0
            for left, right, coeff in terms:
                acc += coeff * vec[left] * vec[right]
            if acc:
                break
        else:
            survivors.append(i)
    return survivors


def c1_is_forced_zero(solution):
    """True when every solution of the linear system has C1 = 0."""
    if not solution.feasible:
        return False
    return all(
        ray.get("C1", Fraction(0)) == 0 for ray in solution.basis
    ) and solution.particular.get("C1", Fraction(0)) == 0


def report(system, solution, survivors=None):
    """Machine-readable summary of a solved system."""
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
    }
    if survivors is not None:
        out["quadratic_survivors"] = len(survivors)
        out["surviving_rays"] = list(survivors)
    for key, value in system.meta.items():
        if key != "kind":
            out.setdefault(key, value)
    return out


# ---------------------------------------------------------------------------
# The defining relation on d x d blocks.
# ---------------------------------------------------------------------------


def _build(act, d, window, names):
    """Rows of [x(i), I(j)] = (j - i) I(i + j) + delta (i^3 - i)/12 C1.

    ``act(i, n)`` is the d x d matrix A(i, n) of x(i) on V_n (a tuple of
    rows), and ``names(j, n, r, s)`` names entry (r, s) of the unknown
    F(j, n), counting from 0.  Applied to V_n the relation reads

        A(i, j+n) F(j, n) - F(j, i+n) A(i, n) + (i - j) F(i+j, n)
            - delta(i, -j) (i^3 - i)/12 C1 = 0,

    one row per entry (r, s) of every triple (i, j, n) whose indices all
    stay inside the window, in the order j, i, n, (r, s).

    Precondition: A(0, n) = (lambda + n) Id for some scalar lambda, as in
    every action the package builds.  The i = 0 rows then read
    (lambda + j + n - lambda - n - j) F(j, n) = 0, so they are written as
    empty rows ({}, 0) without reading ``act(0, .)``.  They are kept, not
    dropped, so that every windowed triple keeps its rows: the equation
    count, the row indices and the outputs read from them stay those of
    the full relation.

    The rows with i in (1, -1, -2) are listed as ``spanning``.  x(1),
    x(-1) and x(-2) generate only the x(n) with n <= 1, so no theorem says
    these rows carry the whole linear part.  Their rank mod p equalled
    that of all rows on most systems it was measured on (f-systems at
    windows 3-6 over generic, integral and degenerate (a, b), matrix
    systems of each type at windows 4-5, d = 3 and 4 actions, and the Aa
    and Ba coefficient actions), while the best pairs of x-indices,
    (1, -2) and (-1, 2), fell short on about a third of them and the
    other pairs on all.  It falls short on some decomposable systems at
    positive integral alpha: alpha = 3 with betas (1, 2) at window 4 is
    one.  The solver checks every row regardless, and a hint that does not
    span only costs a second fold of every row.
    Quadratics are the entries of
    [I(i), I(j)] v = F(i, j+n) F(j, n) - F(j, i+n) F(i, n) = 0 for i < j.

    ``order`` lists the columns for the solver to eliminate in: j
    ascending, n descending inside each j, the d x d entries ascending, C1
    last.  The fold takes the smallest column left in a row as its pivot;
    in this order a row reaches a new pivot or 0 in about half the
    reduction steps of the natural one (n ascending): 17 447 -> 8 762 for
    the ext_a system at alpha = -7/2, window 4, and 4 596 -> 1 994 for the
    f-system (2, -3/5) at window 5.  The solver maps its answer back to
    the natural columns, so the order changes no output.

    Returns (unknowns, equations, quadratics, spanning, order).
    """
    rng = range(-window, window + 1)
    dd = d * d
    blocks = range(d)
    unknowns = tuple(
        names(j, n, r, s) for j in rng for n in rng for r in blocks
        for s in blocks
    ) + ("C1",)
    # F(j, n) holds columns base(j, n) + r d + s, base(j, n) = origin +
    # j step + n dd, and C1 comes last
    step = (2 * window + 1) * dd
    origin = window * (step + dd)
    c1 = len(unknowns) - 1
    order = tuple(
        origin + j * step + n * dd + e
        for j in rng for n in reversed(rng) for e in range(dd)
    ) + (c1,)
    # Entry e = r d + s of a product P Q is the sum over k of P[r][k] Q[k][s]:
    # products[e] lists the flat index pairs (r d + k, k d + s).
    products = [
        [(r * d + k, k * d + s) for k in blocks] for r in blocks for s in blocks
    ]
    diagonal = range(0, dd, d + 1)

    # tables[i][n] holds, per entry e, the nonzero terms of A(i, n) F and of
    # -F A(i, n) as (flat index into F, coefficient), built once per
    # matrix the rows read: j and n run over [lo, hi], so the rows read
    # A(i, j + n) and A(i, n) for weights in [2 lo, 2 hi].
    tables = {}
    for i in rng:
        if not i:
            continue
        lo, hi = max(-window, -window - i), min(window, window - i)
        tables[i] = table = {}
        for n in range(2 * lo, 2 * hi + 1):
            flat = [v for row in act(i, n) for v in row]
            table[n] = (
                [tuple((y, flat[x]) for x, y in prod if flat[x])
                 for prod in products],
                [tuple((x, -flat[y]) for x, y in prod if flat[y])
                 for prod in products],
            )

    equations = []
    spanning = []
    for j in rng:
        bj = origin + j * step
        for i in rng:
            if abs(i + j) > window:
                continue
            if not i:
                equations.extend(({}, 0) for _ in range(len(rng) * dd))
                continue
            central = -Fraction(i**3 - i, 12) if i + j == 0 else 0
            spans = i in (1, -1, -2)
            table = tables[i]
            bij = bj + i * step
            for n in rng:
                if abs(i + n) > window:
                    continue
                a_left, a_right = table[j + n][0], table[n][1]
                bjn, bijn = bj + n * dd, bij + n * dd
                bjin = bjn + i * dd
                if spans:
                    spanning.extend(range(len(equations), len(equations) + dd))
                for e in range(dd):
                    coeffs = {}
                    for y, v in a_left[e]:
                        coeffs[bjn + y] = v
                    for x, v in a_right[e]:
                        coeffs[bjin + x] = v
                    if i != j:
                        coeffs[bijn + e] = i - j
                    if central and e in diagonal:
                        coeffs[c1] = central
                    equations.append((coeffs, 0))

    quadratics = []
    for i in rng:
        for j in rng:
            if j <= i:
                continue
            bi, bj = origin + i * step, origin + j * step
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
                    quadratics.append(quad)
    return unknowns, equations, quadratics, spanning, order


# ---------------------------------------------------------------------------
# One-dimensional weight spaces: the f(m, t) system.
# ---------------------------------------------------------------------------


def _f_name(m, t):
    return "f(%d,%d)" % (m, t)


def build_f_system(a, b, window):
    """Linear/quadratic system for I(m) v_t = f(m, t) v_{m+t}.

    The x-action is x(n) v_t = (a + t + b n) v_{n+t}, so this is the
    d = 1 case of ``_build``, with f(m, t) the 1x1 matrix F(m, t): one
    linear equation per windowed triple (m, n, t), in the order m, n, t,
    and one quadratic per windowed triple with m < n.  A window that is
    not an int raises ValueError, and so does one below 3: it contains no
    triple with n = -m and |n| >= 2, so the central unknown C1 would be
    unconstrained.
    """
    a = rat(a)
    b = rat(b)
    check_window(window, 3)
    shift = {n: a + b * n for n in range(-window, window + 1)}
    unknowns, equations, quadratics, spanning, order = _build(
        lambda n, t: ((shift[n] + t,),), 1, window,
        lambda m, t, r, s: _f_name(m, t),
    )
    meta = {
        "kind": "f-system",
        "a": rat_str(a),
        "b": rat_str(b),
        "window": window,
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=tuple(spanning),
        order=order,
    )


def f_family_assignment(a, b, window, scale=1):
    """The closed-form solution family f(m, t) = scale * (a + b m + t), C1 = 0.

    Specializing (a, b) reproduces the degenerate families as well:
    (0, 1) gives f(m, t) = m + t and (0, 0) gives f(m, t) = t.
    """
    a = rat(a)
    b = rat(b)
    scale = rat(scale)
    out = {}
    for m in range(-window, window + 1):
        for t in range(-window, window + 1):
            value = scale * (a + b * m + t)
            if value:
                out[_f_name(m, t)] = value
    out["C1"] = Fraction(0)
    return out


# ---------------------------------------------------------------------------
# Two-dimensional weight spaces: the F(i, n) matrix system.
# ---------------------------------------------------------------------------


def _mat_name(i, n, row, colm):
    return "F(%d,%d)[%d,%d]" % (i, n, row, colm)


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
    ``verify_x_action`` and ``_build`` read.
    """
    alpha = rat(alpha)
    beta1, beta2 = _beta_pair(betas)
    if ext_type not in EXT_TYPES:
        raise ValueError("ext_type must be one of %r" % (EXT_TYPES,))
    if ext_type != "decomposable" and (beta1 or beta2):
        raise ValueError("extension types require beta1 = beta2 = 0")
    if ext_type == "ext_b" and alpha.denominator == 1:
        raise ValueError("ext_b is defined only for non-integral alpha")

    cache = {}

    def a_mat(i, n):
        key = (i, n)
        if key in cache:
            return cache[key]
        d = alpha + n
        if ext_type == "decomposable":
            out = ((d + i * beta1, Fraction(0)), (Fraction(0), d + i * beta2))
        elif ext_type == "ext_a":
            out = ((d, Fraction(-i)), (Fraction(0), d))
        else:
            p, q = d.numerator, d.denominator
            sign, m = (i > 0) - (i < 0), abs(i)
            num, den = 0, 1
            for k in range(1, m):
                factor = p + sign * k * q
                num, den = num * factor + k * (m - k) * den, den * factor
            corner = Fraction(sign * q * q * num, (p + i * q) * den)
            out = ((d, corner), (Fraction(0), d))
        cache[key] = out
        return out

    return a_mat


def _int_mul(p, q):
    """Product of two 2x2 integer matrices given as four ints, row by row."""
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def verify_x_action(a_mat, window):
    """Check A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = (j - i) A(i+j, n).

    Raises ValueError at the first windowed triple, in the order i, j, n,
    where the candidate x-action breaks the x-bracket.
    The check is exact and runs on integers.  The triples read A(k, m)
    exactly for |k| <= window, |m| <= 2 window and |k + m| <= 2 window: a
    read A(i, j+n) or A(j, i+n) has |i + j + n| <= |i + j| + |n|, and each
    such (k, m) is A(i, j+n) for some windowed j and n.  Each of these
    matrices is read once, and ``clear_table`` writes it as M(k, m) / D
    with integer entries and one common denominator D, the lcm of all
    their denominators.  With A(i, j+n) = P/D, A(j, n) = Q/D,
    A(j, i+n) = U/D, A(i, n) = V/D and A(i+j, n) = W/D the relation reads
    (PQ - UV) / D^2 = (j - i) W / D, which is checked in the form
    PQ - UV = (j - i) D W.
    A window that is not an int, or is below 1, raises ValueError: at
    window 0 only the triple (0, 0, 0) is checked, which every family of
    matrices passes.
    """
    check_window(window, 1)
    rng = range(-window, window + 1)
    far = range(-2 * window, 2 * window + 1)
    table, den = clear_table({
        (k, m): dict(enumerate(v for row in a_mat(k, m) for v in row))
        for k in rng for m in far if abs(k + m) <= 2 * window
    })
    mat = {key: [v for _, v in pairs] for key, pairs in table.items()}
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            scale = (j - i) * den
            for n in rng:
                pq = _int_mul(mat[i, j + n], mat[j, n])
                uv = _int_mul(mat[j, i + n], mat[i, n])
                right = [scale * z for z in mat[i + j, n]]
                if [x - y for x, y in zip(pq, uv)] != right:
                    raise ValueError(
                        "x-action matrices violate the x-bracket at "
                        "(i, j, n) = (%d, %d, %d)" % (i, j, n)
                    )


def build_matrix_system(alpha, betas, ext_type, window, normalized=True):
    """Linear/quadratic system for a 2x2-matrix I-action F(i, n).

    The x-action A(i, n) is fixed by (alpha, betas, ext_type); unknowns are
    the four entries of F(i, n) for |i|, |n| <= window plus C1, and the
    rows are those of ``_build`` with d = 2.  Before any equation is
    emitted the A-matrices themselves are checked against the x-bracket
    on the window (a consistency failure raises ValueError).  A window
    that is not an int, or is below 4, raises ValueError too, and so do
    betas that are not a pair (see ``make_x_matrices``).

    With ``normalized`` (extension types only) the single inhomogeneous
    pinning equation F(1, 0)[2, 1] = alpha is appended and recorded as
    ``spanning``; the classification question is then whether any
    I-action meets that normalization.  At alpha = 0 the pin is
    homogeneous and normalizes nothing, so it is refused there.
    """
    alpha = rat(alpha)
    check_window(window, 4)
    a_mat = make_x_matrices(alpha, betas, ext_type)
    normalized = bool(normalized and ext_type != "decomposable")
    if normalized and not alpha:
        raise ValueError(
            "a normalized extension needs alpha != 0: at alpha = 0 the pin "
            "F(1,0)[2,1] = alpha is homogeneous"
        )
    verify_x_action(a_mat, window)
    unknowns, equations, quadratics, spanning, order = _build(
        a_mat, 2, window, lambda i, n, r, s: _mat_name(i, n, r + 1, s + 1)
    )
    if normalized:
        spanning.append(len(equations))
        equations.append(({unknowns.index(_mat_name(1, 0, 2, 1)): 1}, alpha))
    meta = {
        "kind": "matrix-system",
        "alpha": rat_str(alpha),
        "betas": [rat_str(beta) for beta in _beta_pair(betas)],
        "ext_type": ext_type,
        "window": window,
        "normalized": normalized,
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=tuple(spanning),
        order=order,
    )


def matrix_family_assignment(alpha, window, d_matrix):
    """The scalar family F(i, n) = (alpha + n) D for a constant matrix D.

    No library path calls it: the solver finds this family itself.  It
    stays public as a test oracle that a caller can reuse: the paper's
    decomposable answer, written down by hand, must satisfy every row of
    the system (``ConstraintSystem.evaluate_equations``), which checks the
    builder without the solver.
    """
    alpha = rat(alpha)
    out = {}
    for i in range(-window, window + 1):
        for n in range(-window, window + 1):
            scale = alpha + n
            for r in (1, 2):
                for s in (1, 2):
                    value = scale * rat(d_matrix[r - 1][s - 1])
                    if value:
                        out[_mat_name(i, n, r, s)] = value
    out["C1"] = Fraction(0)
    return out
