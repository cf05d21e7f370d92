"""Constraint systems that pin down I(m)-actions on weight modules.

Both generators in this module start from a module on which the x-action
is already known and treat the I-action as unknown, imposing the defining
relation [x(n), I(m)] = (m - n) I(n + m) + delta(n, -m) (n^3 - n)/12 C1
on a finite window of indices.  Solving the resulting linear system and
then filtering by the quadratic constraints coming from [I, I] = 0
recovers every I-action compatible with the given x-action on that
window.

``build_f_system(a, b, window)`` handles one-dimensional weight spaces:
with x(n) v_t = (a + t + b n) v_{n+t}, the unknown I-action must have the
shape I(m) v_t = f(m, t) v_{m+t} for scalars f(m, t), and the relation
above becomes one linear equation per index triple (m, n, t).

``build_matrix_system(alpha, betas, ext_type, window)`` handles
two-dimensional weight spaces V_n = span(v_n^1, v_n^2): the x-action is a
2x2 matrix A(i, n) per index pair, the unknown I-action a 2x2 matrix
F(i, n), and each index triple contributes four scalar equations (one per
matrix entry).  Quadratic constraints again come from [I, I] = 0.

Inside a system, unknowns are integer columns: equation rows and
quadratic terms index ``ConstraintSystem.unknowns``, which holds the
names ("f(m,t)", "F(i,n)[k,l]", "C1").  Names appear only there and in
what ``solve_linear`` and ``report`` return, so solution assignments and
reports stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import solve_sparse
from .rationals import rat, rat_str

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
    """

    unknowns: tuple
    equations: list
    quadratics: list
    meta: dict = field(default_factory=dict)
    spanning: tuple | None = None

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
        system.equations, len(system.unknowns), spanning=system.spanning
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
        den = lcm(*(value.denominator for value in ray.values()))
        vec = [0] * len(col)
        for name, value in ray.items():
            vec[col[name]] = value.numerator * (den // value.denominator)
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
# One-dimensional weight spaces: the f(m, t) system.
# ---------------------------------------------------------------------------


def _f_name(m, t):
    return "f(%d,%d)" % (m, t)


def build_f_system(a, b, window):
    """Linear/quadratic system for I(m) v_t = f(m, t) v_{m+t}.

    The x-action is x(n) v_t = (a + t + b n) v_{n+t}.  One linear equation
    is generated per triple (m, n, t) whose referenced indices all stay
    inside the window; quadratics cover every windowed pair m < n.
    Windows below 3 are rejected: they contain no triple with n = -m and
    |n| >= 2, so the central unknown C1 would be unconstrained.  The
    equations with n = +-1, +-2 are recorded as ``spanning``: x(+-1) and
    x(+-2) generate every x(n), so they should carry the whole linear
    part (the solver checks every equation regardless).
    """
    a = rat(a)
    b = rat(b)
    window = int(window)
    if window < 3:
        raise ValueError("window must be at least 3, got %d" % window)
    rng = range(-window, window + 1)
    unknowns = tuple(_f_name(m, t) for m in rng for t in rng) + ("C1",)
    side = 2 * window + 1
    c1 = side * side

    def col(m, t):
        return (m + window) * side + t + window

    # x(n) v_s = act[n][s] v_{n+s}, for |n| <= window and |s| <= 2 window
    act = {n: {s: a + s + b * n for s in range(-2 * window, 2 * window + 1)}
           for n in rng}
    minus = {n: {s: -v for s, v in act_n.items()} for n, act_n in act.items()}

    equations = []
    spanning = []
    for m in rng:
        for n in rng:
            if abs(n + m) > window:
                continue
            act_n, minus_n = act[n], minus[n]
            central = -Fraction(n**3 - n, 12) if n + m == 0 else 0
            for t in rng:
                if abs(n + t) > window:
                    continue
                if 1 <= abs(n) <= 2:
                    spanning.append(len(equations))
                if n == 0:
                    # the three columns coincide
                    coeffs = {}
                    _accumulate(coeffs, col(m, t), act_n[m + t])
                    _accumulate(coeffs, col(m, t), minus_n[t])
                    _accumulate(coeffs, col(m, t), -m)
                else:
                    coeffs = {
                        col(m, t): act_n[m + t],
                        col(m, n + t): minus_n[t],
                        col(n + m, t): n - m,
                    }
                    if central:
                        coeffs[c1] = central
                    if not all(coeffs.values()):
                        coeffs = {k: v for k, v in coeffs.items() if v}
                equations.append((coeffs, 0))

    quadratics = []
    for m in rng:
        for n in rng:
            if n <= m:
                continue
            for t in rng:
                if abs(m + t) > window or abs(n + t) > window:
                    continue
                quadratics.append(
                    [
                        (col(m, t), col(n, m + t), 1),
                        (col(n, t), col(m, n + t), -1),
                    ]
                )

    meta = {
        "kind": "f-system",
        "a": rat_str(a),
        "b": rat_str(b),
        "window": window,
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=tuple(spanning)
    )


def _accumulate(coeffs, col, value):
    """Add value to coeffs[col], keeping only nonzero coefficients."""
    if col in coeffs:
        value += coeffs[col]
    if value:
        coeffs[col] = value
    else:
        coeffs.pop(col, None)


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


def _mat_mul(p, q):
    return tuple(
        tuple(sum(p[r][k] * q[k][s] for k in range(2)) for s in range(2))
        for r in range(2)
    )


def _mat_sub(p, q):
    return tuple(
        tuple(p[r][s] - q[r][s] for s in range(2)) for r in range(2)
    )


def _mat_scale(value, p):
    return tuple(tuple(value * p[r][s] for s in range(2)) for r in range(2))


def make_x_matrices(alpha, betas, ext_type):
    """Return a memoized A(i, n) builder for one of the known x-actions.

    "decomposable" is diag(alpha + n + i beta1, alpha + n + i beta2); the
    two extension types are the indecomposable actions that exist only for
    beta1 = beta2 = 0.  ext_a is polynomial in i, n; ext_b is seeded on
    |i| <= 2 and extended by the recursion forced by the x-bracket,
    A(i, n) = (A(1, i-1+n) A(i-1, n) - A(i-1, 1+n) A(1, n)) / (i - 2)
    for i >= 3 and its mirror image for i <= -3.
    """
    alpha = rat(alpha)
    beta1, beta2 = (rat(betas[0]), rat(betas[1])) if betas else (
        Fraction(0),
        Fraction(0),
    )
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
        elif abs(i) <= 2:
            corner = Fraction(0)
            if i == 2:
                corner = 1 / ((d + 1) * (d + 2))
            elif i == -2:
                corner = -1 / ((d - 1) * (d - 2))
            out = ((d, corner), (Fraction(0), d))
        elif i >= 3:
            out = _mat_scale(
                Fraction(1, i - 2),
                _mat_sub(
                    _mat_mul(a_mat(1, i - 1 + n), a_mat(i - 1, n)),
                    _mat_mul(a_mat(i - 1, 1 + n), a_mat(1, n)),
                ),
            )
        else:
            out = _mat_scale(
                Fraction(1, -2 - i),
                _mat_sub(
                    _mat_mul(a_mat(i + 1, n - 1), a_mat(-1, n)),
                    _mat_mul(a_mat(-1, n + i + 1), a_mat(i + 1, n)),
                ),
            )
        cache[key] = out
        return out

    return a_mat


def _regular(alpha, i, j, n):
    """(alpha+n)(alpha+n+i)(alpha+n+j)(alpha+n+i+j) != 0, which can fail
    only at an integral alpha."""
    if alpha.denominator != 1:
        return True
    d = alpha.numerator + n
    return bool(d and (d + i) and (d + j) and (d + i + j))


def _exact_matrix(mat):
    """A 2x2 matrix of ints or Fractions as (integer entries, den) with
    mat = entries / den: four ints, row by row."""
    den = lcm(*(v.denominator for row in mat for v in row))
    entries = tuple(
        v.numerator * (den // v.denominator) for row in mat for v in row
    )
    return entries, den


def _int_mul(p, q):
    """Product of two 2x2 integer matrices given as four ints, row by row."""
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def verify_x_action(a_mat, alpha, window):
    """Check A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = (j - i) A(i+j, n).

    Raises ValueError at the first windowed triple (with all four shifted
    weights regular) where the candidate x-action breaks the x-bracket.
    The check is exact and runs on integers: each A(i, n) is cleared of
    denominators once, as P / d, and with A(i, j+n) = P/p, A(j, n) = Q/q,
    A(j, i+n) = U/u, A(i, n) = V/v and A(i+j, n) = W/w the relation is
    checked in the form (PQ uv - UV pq) w = (j - i) W pquv.
    """
    alpha = rat(alpha)
    cache = {}

    def exact(i, n):
        key = (i, n)
        if key not in cache:
            cache[key] = _exact_matrix(a_mat(i, n))
        return cache[key]

    rng = range(-window, window + 1)
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            for n in rng:
                if not _regular(alpha, i, j, n):
                    continue
                mp, p = exact(i, j + n)
                mq, q = exact(j, n)
                mu, u = exact(j, i + n)
                mv, v = exact(i, n)
                mw, w = exact(i + j, n)
                pq, uv = p * q, u * v
                left = [
                    (x * uv - y * pq) * w
                    for x, y in zip(_int_mul(mp, mq), _int_mul(mu, mv))
                ]
                scale = (j - i) * pq * uv
                if left != [scale * z for z in mw]:
                    raise ValueError(
                        "x-action matrices violate the x-bracket at "
                        "(i, j, n) = (%d, %d, %d)" % (i, j, n)
                    )


def _put(coeffs, col, value):
    if value:
        coeffs[col] = value


def build_matrix_system(alpha, betas, ext_type, window, normalized=True):
    """Linear/quadratic system for a 2x2-matrix I-action F(i, n).

    The x-action A(i, n) is fixed by (alpha, betas, ext_type); unknowns are
    the four entries of F(i, n) for |i|, |n| <= window plus C1.  Before any
    equation is emitted the A-matrices themselves are checked against the
    x-bracket on the window (a consistency failure raises ValueError).
    Index triples with (alpha+n)(alpha+n+i)(alpha+n+j)(alpha+n+i+j) = 0 are
    skipped: on those weights the derivation of the equations degenerates.

    With ``normalized`` (extension types only) the single inhomogeneous
    pinning equation F(1, 0)[2, 1] = alpha is added; the classification
    question is then whether any I-action meets that normalization.
    The equations with i = +-1, +-2 and the pinning equation are recorded
    as ``spanning``, as in ``build_f_system``.
    """
    alpha = rat(alpha)
    window = int(window)
    if window < 4:
        raise ValueError("window must be at least 4, got %d" % window)
    a_mat = make_x_matrices(alpha, betas, ext_type)
    verify_x_action(a_mat, alpha, window)

    rng = range(-window, window + 1)
    unknowns = tuple(
        _mat_name(i, n, r, s)
        for i in rng
        for n in rng
        for r in (1, 2)
        for s in (1, 2)
    ) + ("C1",)
    side = 2 * window + 1
    c1 = 4 * side * side

    def col(i, n, r, s):
        return ((i + window) * side + n + window) * 4 + 2 * r + s - 3

    minus = {}  # -A(i, n), negated once per matrix

    equations = []
    spanning = []
    for i in rng:
        # with i = 0 the columns of a row coincide
        add = _accumulate if i == 0 else _put
        for j in rng:
            if abs(i + j) > window:
                continue
            central = -Fraction(i**3 - i, 12) if i + j == 0 else 0
            for n in rng:
                if abs(i + n) > window or not _regular(alpha, i, j, n):
                    continue
                a_left = a_mat(i, j + n)
                if (i, n) not in minus:
                    minus[i, n] = _mat_scale(-1, a_mat(i, n))
                neg_right = minus[i, n]
                for r in (1, 2):
                    for s in (1, 2):
                        if 1 <= abs(i) <= 2:
                            spanning.append(len(equations))
                        coeffs = {}
                        for k in (1, 2):
                            add(coeffs, col(j, n, k, s), a_left[r - 1][k - 1])
                            add(coeffs, col(j, i + n, r, k),
                                neg_right[k - 1][s - 1])
                        add(coeffs, col(i + j, n, r, s), i - j)
                        if r == s:
                            add(coeffs, c1, central)
                        equations.append((coeffs, 0))

    if normalized and ext_type != "decomposable":
        spanning.append(len(equations))
        equations.append(({col(1, 0, 2, 1): 1}, alpha))

    quadratics = []
    for i in rng:
        for j in rng:
            if j <= i:
                continue
            for n in rng:
                if (
                    abs(i + n) > window
                    or abs(j + n) > window
                    or not _regular(alpha, i, j, n)
                ):
                    continue
                for r in (1, 2):
                    for s in (1, 2):
                        terms = []
                        for k in (1, 2):
                            terms.append(
                                (col(i, j + n, r, k), col(j, n, k, s), 1)
                            )
                            terms.append(
                                (col(j, i + n, r, k), col(i, n, k, s), -1)
                            )
                        quadratics.append(terms)

    meta = {
        "kind": "matrix-system",
        "alpha": rat_str(alpha),
        "betas": [rat_str(rat(betas[0])), rat_str(rat(betas[1]))]
        if betas
        else ["0", "0"],
        "ext_type": ext_type,
        "window": window,
        "normalized": bool(normalized and ext_type != "decomposable"),
    }
    return ConstraintSystem(
        unknowns, equations, quadratics, meta, spanning=tuple(spanning)
    )


def matrix_family_assignment(alpha, window, d_matrix):
    """The scalar family F(i, n) = (alpha + n) D for a constant matrix D."""
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
