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

Unknowns are referred to by name ("f(m,t)", "F(i,n)[k,l]", "C1") so that
reports and solution assignments stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import solve_sparse
from .rationals import rat, rat_str

EXT_TYPES = ("decomposable", "ext_a", "ext_b")


@dataclass(frozen=True)
class ConstraintSystem:
    """A finite linear-plus-quadratic constraint system over named unknowns.

    ``equations`` holds linear constraints as (name -> coeff, rhs) pairs,
    all to be read as sum(coeff * unknown) = rhs.  ``quadratics`` holds
    bilinear constraints as lists of (name, name, coeff) triples, to be
    read as sum(coeff * unknown1 * unknown2) = 0.
    """

    unknowns: tuple
    equations: list
    quadratics: list
    meta: dict = field(default_factory=dict)

    def evaluate_equations(self, assignment):
        """Residual (lhs - rhs) of every linear equation at an assignment."""
        out = []
        for coeffs, rhs in self.equations:
            acc = -rhs
            for name, coeff in coeffs.items():
                acc += coeff * assignment.get(name, Fraction(0))
            out.append(acc)
        return out

    def evaluate_quadratics(self, assignment):
        """Residual of every quadratic constraint at an assignment."""
        out = []
        for terms in self.quadratics:
            acc = Fraction(0)
            for left, right, coeff in terms:
                acc += (
                    coeff
                    * assignment.get(left, Fraction(0))
                    * assignment.get(right, Fraction(0))
                )
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
    """Solve the linear part of a ConstraintSystem exactly."""
    col = {name: i for i, name in enumerate(system.unknowns)}
    equations = []
    for coeffs, rhs in system.equations:
        equations.append(({col[n]: v for n, v in coeffs.items()}, rhs))
    feasible, particular, kernel = solve_sparse(equations, len(system.unknowns))
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
    ray lies on the quadratic variety.
    """
    survivors = []
    for i, ray in enumerate(solution.basis):
        if all(r == 0 for r in system.evaluate_quadratics(ray)):
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
    |n| >= 2, so the central unknown C1 would be unconstrained.
    """
    a = rat(a)
    b = rat(b)
    window = int(window)
    if window < 3:
        raise ValueError("window must be at least 3, got %d" % window)
    rng = range(-window, window + 1)
    unknowns = tuple(_f_name(m, t) for m in rng for t in rng) + ("C1",)

    equations = []
    for m in rng:
        for n in rng:
            if abs(n + m) > window:
                continue
            for t in rng:
                if abs(n + t) > window:
                    continue
                coeffs = {}
                _accumulate(coeffs, _f_name(m, t), a + t + m + b * n)
                _accumulate(coeffs, _f_name(m, n + t), -(a + t + b * n))
                _accumulate(coeffs, _f_name(n + m, t), Fraction(-(m - n)))
                if n + m == 0:
                    _accumulate(coeffs, "C1", -Fraction(n**3 - n, 12))
                equations.append((coeffs, Fraction(0)))

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
                        (_f_name(m, t), _f_name(n, m + t), Fraction(1)),
                        (_f_name(n, t), _f_name(m, n + t), Fraction(-1)),
                    ]
                )

    meta = {
        "kind": "f-system",
        "a": rat_str(a),
        "b": rat_str(b),
        "window": window,
    }
    return ConstraintSystem(unknowns, equations, quadratics, meta)


def _accumulate(coeffs, name, value):
    acc = coeffs.get(name, Fraction(0)) + value
    if acc:
        coeffs[name] = acc
    else:
        coeffs.pop(name, None)


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
    d = alpha + n
    return bool(d and (d + i) and (d + j) and (d + i + j))


def verify_x_action(a_mat, alpha, window):
    """Check A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = (j - i) A(i+j, n).

    Raises ValueError at the first windowed triple (with all four shifted
    weights regular) where the candidate x-action breaks the x-bracket.
    """
    alpha = rat(alpha)
    rng = range(-window, window + 1)
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            for n in rng:
                if not _regular(alpha, i, j, n):
                    continue
                lhs = _mat_sub(
                    _mat_mul(a_mat(i, j + n), a_mat(j, n)),
                    _mat_mul(a_mat(j, i + n), a_mat(i, n)),
                )
                if lhs != _mat_scale(Fraction(j - i), a_mat(i + j, n)):
                    raise ValueError(
                        "x-action matrices violate the x-bracket at "
                        "(i, j, n) = (%d, %d, %d)" % (i, j, n)
                    )


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

    equations = []
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            for n in rng:
                if abs(i + n) > window or not _regular(alpha, i, j, n):
                    continue
                a_left = a_mat(i, j + n)
                a_right = a_mat(i, n)
                for r in (1, 2):
                    for s in (1, 2):
                        coeffs = {}
                        for k in (1, 2):
                            _accumulate(
                                coeffs,
                                _mat_name(j, n, k, s),
                                a_left[r - 1][k - 1],
                            )
                            _accumulate(
                                coeffs,
                                _mat_name(j, i + n, r, k),
                                -a_right[k - 1][s - 1],
                            )
                        _accumulate(
                            coeffs, _mat_name(i + j, n, r, s), Fraction(-(j - i))
                        )
                        if i + j == 0 and r == s:
                            _accumulate(coeffs, "C1", -Fraction(i**3 - i, 12))
                        equations.append((coeffs, Fraction(0)))

    if normalized and ext_type != "decomposable":
        equations.append(({_mat_name(1, 0, 2, 1): Fraction(1)}, alpha))

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
                                (
                                    _mat_name(i, j + n, r, k),
                                    _mat_name(j, n, k, s),
                                    Fraction(1),
                                )
                            )
                            terms.append(
                                (
                                    _mat_name(j, i + n, r, k),
                                    _mat_name(i, n, k, s),
                                    Fraction(-1),
                                )
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
    return ConstraintSystem(unknowns, equations, quadratics, meta)


def export_triplets(system):
    """Render the linear equations as sparse text triplets.

    One line per nonzero coefficient: row index, unknown name, coefficient
    (tab-separated, fractions rendered without decimals).  Inhomogeneous
    rows get an extra line with the reserved name "rhs".  The format is
    meant for cross-checking against an external solver.
    """
    lines = []
    for row, (coeffs, rhs) in enumerate(system.equations):
        for name in system.unknowns:
            if name in coeffs:
                lines.append("%d\t%s\t%s" % (row, name, rat_str(coeffs[name])))
        if rhs:
            lines.append("%d\trhs\t%s" % (row, rat_str(rhs)))
    return "\n".join(lines) + ("\n" if lines else "")


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
