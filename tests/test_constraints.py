"""Constraint-system generators, solvers, and classification results."""

import dataclasses
from fractions import Fraction

import pytest

from w22 import constraints, linalg
from w22 import (
    EXT_TYPES,
    ConstraintSystem,
    ModuleSpec,
    SolutionSpace,
    build_f_system,
    build_matrix_system,
    c1_is_forced_zero,
    check_quadratic,
    coefficient,
    f_family_assignment,
    make_x_matrices,
    matrix_family_assignment,
    report,
    solve_linear,
    verify_x_action,
)


def F(a, b=1):
    return Fraction(a, b)


def f_triples(window):
    """Triples (m, n, t) in the order build_f_system generates equations."""
    rng = range(-window, window + 1)
    out = []
    for m in rng:
        for n in rng:
            if abs(n + m) > window:
                continue
            for t in rng:
                if abs(n + t) > window:
                    continue
                out.append((m, n, t))
    return out


class TestFSystemShape:
    def test_unknown_count(self):
        for window in (3, 4, 5):
            system = build_f_system(F(1, 2), F(1, 3), window)
            assert len(system.unknowns) == (2 * window + 1) ** 2 + 1
            assert system.unknowns[-1] == "C1"

    def test_equation_count_matches_triple_enumeration(self):
        system = build_f_system(F(1), F(0), 4)
        assert len(system.equations) == len(f_triples(4))

    def test_small_windows_rejected(self):
        with pytest.raises(ValueError, match="window must be at least 3"):
            build_f_system(F(1), F(0), 2)

    @pytest.mark.parametrize("window", [3.9, F(7, 2), "4"])
    def test_window_that_is_not_an_int_rejected(self, window):
        with pytest.raises(ValueError, match="window must be an int"):
            build_f_system(F(1), F(0), window)

    def test_meta(self):
        meta = build_f_system(F(1, 2), F(1, 3), 3).meta
        assert meta["kind"] == "f-system"
        assert meta["window"] == 3


class TestFSystemResiduals:
    def test_family_satisfies_linear_system(self):
        cases = [
            (F(1, 2), F(1, 3), 4),
            (F(0), F(1), 3),
            (F(0), F(0), 3),
        ]
        for a, b, window in cases:
            system = build_f_system(a, b, window)
            family = f_family_assignment(a, b, window)
            assert all(r == 0 for r in system.evaluate_equations(family))

    def test_family_fails_quadratics(self):
        # I(m) proportional to x(m) does not commute with itself: the
        # quadratic residual at (m, n, t) is (n - m)(a + t + b(n + m))
        # up to the square of the scale, so a generic family violates it.
        system = build_f_system(F(1, 2), F(1, 3), 3)
        family = f_family_assignment(F(1, 2), F(1, 3), 3, scale=2)
        residuals = system.evaluate_quadratics(family)
        assert any(r != 0 for r in residuals)

    def test_central_rows_isolate_c1(self):
        window = 5
        system = build_f_system(F(1), F(2), window)
        zero_f = {name: F(0) for name in system.unknowns}
        zero_f["C1"] = F(1)
        residuals = system.evaluate_equations(zero_f)
        triples = f_triples(window)
        assert len(residuals) == len(triples)
        expected = [
            -F(n**3 - n, 12) if n + m == 0 else F(0) for m, n, t in triples
        ]
        assert residuals == expected
        assert sum(1 for r in residuals if r != 0) == 60


class TestFSystemSolutions:
    def test_generic_window5_is_the_family_line(self):
        a, b = F(1, 2), F(1, 3)
        system = build_f_system(a, b, 5)
        solution = solve_linear(system)
        assert solution.feasible
        assert solution.dimension == 1
        assert c1_is_forced_zero(solution)
        ray = solution.ray(0)
        family = f_family_assignment(a, b, 5)
        # the ray is a scalar multiple of the family
        anchor = "f(1,0)"
        scale = ray.get(anchor, F(0)) / family[anchor]
        assert scale != 0
        for name in system.unknowns:
            assert ray.get(name, F(0)) == scale * family.get(name, F(0))
        assert check_quadratic(system, solution) == []

    @pytest.mark.parametrize("a,b", [(F(0), F(1)), (F(0), F(0))])
    def test_degenerate_families_still_one_dimensional(self, a, b):
        system = build_f_system(a, b, 5)
        solution = solve_linear(system)
        assert solution.dimension == 1
        assert c1_is_forced_zero(solution)
        ray = solution.ray(0)
        family = f_family_assignment(a, b, 5)
        anchor = next(n for n in system.unknowns if family.get(n, F(0)) != 0)
        scale = ray.get(anchor, F(0)) / family[anchor]
        assert scale != 0
        for name in system.unknowns:
            assert ray.get(name, F(0)) == scale * family.get(name, F(0))
        assert check_quadratic(system, solution) == []

    def test_dimension_shrinks_with_window(self):
        a, b = F(1, 2), F(1, 3)
        dims = [
            solve_linear(build_f_system(a, b, w)).dimension for w in (3, 4, 5)
        ]
        assert dims[0] >= dims[1] >= dims[2] == 1
        assert dims[0] >= 1

    def test_zero_solution_passes_quadratics(self):
        system = build_f_system(F(1), F(1), 3)
        zero = {}
        assert all(r == 0 for r in system.evaluate_quadratics(zero))


class TestFSystemOracle:
    def test_equations_match_module_action_coefficients(self):
        # Independent regeneration: the x-coefficients of the defining
        # relation [x(n), I(m)] = (m - n) I(n + m) + delta c1-term, written
        # against the weight-module action x(n) v_t = (a + t + b n) v_{n+t},
        # expressed through the same table the intermediate-series module
        # code uses.
        a, b = F(2, 3), F(1, 5)
        window = 3
        spec = ModuleSpec("Aab", a, b)
        system = build_f_system(a, b, window)
        triples = f_triples(window)
        assert len(triples) == len(system.equations)
        for (m, n, t), (coeffs, rhs) in zip(triples, system.equations):
            expected = {}
            for name, val in [
                ("f(%d,%d)" % (m, t), coefficient(spec, n, m + t)),
                ("f(%d,%d)" % (m, n + t), -coefficient(spec, n, t)),
                ("f(%d,%d)" % (n + m, t), -F(m - n)),
            ]:
                if val:
                    col = system.unknowns.index(name)
                    expected[col] = expected.get(col, F(0)) + val
            if n + m == 0 and n**3 != n:
                expected[system.unknowns.index("C1")] = -F(n**3 - n, 12)
            expected = {k: v for k, v in expected.items() if v}
            assert coeffs == expected, (m, n, t)
            assert rhs == 0


class TestMatrixSystemOracle:
    def test_rows_match_the_relation_on_2x2_blocks(self):
        # Independent regeneration from make_x_matrices: entry (r, s) of
        # A(i, j+n) F(j, n) - F(j, i+n) A(i, n) + (i - j) F(i+j, n)
        # - delta(i, -j) (i^3 - i)/12 C1 for every windowed triple, in the
        # order j, i, n, r, s, and then the pinning row F(1,0)[2,1] = alpha.
        alpha, window = F(1, 2), 4
        a_mat = make_x_matrices(alpha, (F(0), F(0)), "ext_b")
        system = build_matrix_system(alpha, (F(0), F(0)), "ext_b", window)

        def col(i, n, r, s):
            return system.unknowns.index("F(%d,%d)[%d,%d]" % (i, n, r, s))

        rng = range(-window, window + 1)
        expected = []
        for j in rng:
            for i in rng:
                if abs(i + j) > window:
                    continue
                for n in rng:
                    if abs(i + n) > window:
                        continue
                    left, right = a_mat(i, j + n), a_mat(i, n)
                    for r in (1, 2):
                        for s in (1, 2):
                            terms = [(col(i + j, n, r, s), F(i - j))]
                            for k in (1, 2):
                                terms.append(
                                    (col(j, n, k, s), left[r - 1][k - 1])
                                )
                                terms.append(
                                    (col(j, i + n, r, k), -right[k - 1][s - 1])
                                )
                            if i + j == 0 and r == s:
                                terms.append(
                                    (system.unknowns.index("C1"),
                                     -F(i**3 - i, 12))
                                )
                            row = {}
                            for c, v in terms:
                                row[c] = row.get(c, F(0)) + v
                            expected.append(
                                ({c: v for c, v in row.items() if v}, 0)
                            )
        expected.append(({col(1, 0, 2, 1): 1}, alpha))
        assert len(expected) == len(system.equations)
        for k, (row, want) in enumerate(zip(system.equations, expected)):
            assert row == want, k


def reference_corner(alpha):
    """The ext_b corner c(i, n) as the recursion the x-bracket forces.

    Seeds: c = 0 at i = 0, +-1, 1/((d+1)(d+2)) at i = 2 and
    -1/((d-1)(d-2)) at i = -2, with d = alpha + n; then
    c(i, n) = ((d+i-1) c(i-1, n) - d c(i-1, n+1)) / (i-2) for i >= 3 and
    c(i, n) = (d c(i+1, n-1) - (d+i+1) c(i+1, n)) / (-2-i) for i <= -3.
    """
    cache = {}

    def corner(i, n):
        key = (i, n)
        if key in cache:
            return cache[key]
        d = alpha + n
        if i >= 3:
            out = ((d + i - 1) * corner(i - 1, n)
                   - d * corner(i - 1, n + 1)) / (i - 2)
        elif i <= -3:
            out = (d * corner(i + 1, n - 1)
                   - (d + i + 1) * corner(i + 1, n)) / (-2 - i)
        elif i == 2:
            out = 1 / ((d + 1) * (d + 2))
        elif i == -2:
            out = -1 / ((d - 1) * (d - 2))
        else:
            out = Fraction(0)
        cache[key] = out
        return out

    return corner


def reference_x_bracket(a_mat, window):
    """The first (i, j, n), in the order i, j, n, at which the Fraction
    products break A(i, j+n) A(j, n) - A(j, i+n) A(i, n) = (j - i) A(i+j, n),
    or None: the oracle for verify_x_action's integer check."""

    def mul(p, q):
        return [
            [sum(p[r][k] * q[k][s] for k in range(2)) for s in range(2)]
            for r in range(2)
        ]

    rng = range(-window, window + 1)
    for i in rng:
        for j in rng:
            if abs(i + j) > window:
                continue
            for n in rng:
                pq = mul(a_mat(i, j + n), a_mat(j, n))
                uv = mul(a_mat(j, i + n), a_mat(i, n))
                w = a_mat(i + j, n)
                if any(
                    pq[r][s] - uv[r][s] != (j - i) * w[r][s]
                    for r in range(2)
                    for s in range(2)
                ):
                    return (i, j, n)
    return None


def shifted(a_mat, key, r, s, delta):
    """a_mat with delta added to entry (r, s) of the matrix at key."""

    def out(i, n):
        m = [list(row) for row in a_mat(i, n)]
        if (i, n) == key:
            m[r][s] += delta
        return tuple(tuple(row) for row in m)

    return out


X_BRACKET_CASES = {
    # clean actions of each type, over mixed denominators
    "decomposable": (F(5, 7), (F(1, 2), F(1, 7)), "decomposable", None, 4),
    "ext_a": (F(1, 3), (F(0), F(0)), "ext_a", None, 4),
    "ext_b": (F(-7, 2), (F(0), F(0)), "ext_b", None, 4),
    # the corruptions of the fault tests of TestXMatrices
    "plus-1": (F(1, 3), (F(0), F(0)), "ext_a", ((2, 1), 0, 1, F(1)), 3),
    "corner-2^-80": (
        F(1, 3), (F(0), F(0)), "ext_b", ((3, 0), 0, 1, F(1, 2**80)), 4,
    ),
    "bracket-side-2^-80": (
        F(1, 3), (F(0), F(0)), "ext_b", ((-3, 0), 0, 0, F(1, 2**80)), 4,
    ),
    # a denominator that no other entry of the table has
    "plus-1/7": (F(1, 3), (F(0), F(0)), "ext_a", ((2, 1), 0, 1, F(1, 7)), 3),
    # A(-1, 2) is first read at (-4, 3, 2), and there only as A(i + j, n)
    "i+j-side-2^-80": (
        F(5, 7), (F(1, 2), F(1, 7)), "decomposable",
        ((-1, 2), 1, 1, F(1, 2**80)), 4,
    ),
}


@pytest.mark.parametrize(
    "alpha, betas, ext_type, corruption, window",
    list(X_BRACKET_CASES.values()),
    ids=list(X_BRACKET_CASES),
)
def test_verify_x_action_names_the_reference_triple(
    alpha, betas, ext_type, corruption, window
):
    a_mat = make_x_matrices(alpha, betas, ext_type)
    if corruption is not None:
        a_mat = shifted(a_mat, *corruption)
    first = reference_x_bracket(a_mat, window)
    assert (first is None) == (corruption is None)
    if first is None:
        verify_x_action(a_mat, window)
        return
    with pytest.raises(ValueError) as caught:
        verify_x_action(a_mat, window)
    assert str(caught.value) == (
        "x-action matrices violate the x-bracket at "
        "(i, j, n) = (%d, %d, %d)" % first
    )


def test_verify_x_action_reads_each_matrix_the_triples_read_once():
    # exactly the matrices of the windowed triples, each read once
    clean = make_x_matrices(F(9, 8), (F(0), F(0)), "ext_b")
    calls = []

    def recorded(i, n):
        calls.append((i, n))
        return clean(i, n)

    window = 4
    verify_x_action(recorded, window)
    rng = range(-window, window + 1)
    expected = {
        key
        for i in rng
        for j in rng
        if abs(i + j) <= window
        for n in rng
        for key in ((i, j + n), (j, n), (j, i + n), (i, n), (i + j, n))
    }
    assert sorted(calls) == sorted(expected)


class TestXMatrices:
    def test_decomposable_is_diagonal(self):
        a_mat = make_x_matrices(F(1, 3), (F(1), F(2)), "decomposable")
        assert a_mat(2, 1) == ((F(1, 3) + 1 + 2, F(0)), (F(0), F(1, 3) + 1 + 4))

    def test_ext_a_shape(self):
        a_mat = make_x_matrices(F(1, 3), (F(0), F(0)), "ext_a")
        assert a_mat(2, 1) == ((F(1, 3) + 1, F(-2)), (F(0), F(1, 3) + 1))

    def test_ext_b_frozen_values(self):
        a_mat = make_x_matrices(F(1, 2), (F(0), F(0)), "ext_b")
        assert a_mat(3, 0) == ((F(1, 2), F(64, 105)), (F(0), F(1, 2)))
        assert a_mat(-3, 0) == ((F(1, 2), F(-32, 15)), (F(0), F(1, 2)))
        # corners at larger |i|, and off the n = 0 column
        for alpha, i, n, corner in [
            (F(1, 2), 5, 2, F(5024, 9009)),
            (F(1, 2), -5, -2, F(-12416, 15015)),
            (F(1, 2), 4, -1, F(296, 105)),
            (F(1, 2), -4, 1, F(-8, 5)),
            (F(9, 8), 6, -3, F(341056, 19635)),
            (F(9, 8), -6, 3, F(341056, 8925)),
        ]:
            d = alpha + n
            a_mat = make_x_matrices(alpha, (F(0), F(0)), "ext_b")
            assert a_mat(i, n) == ((d, corner), (F(0), d)), (alpha, i, n)

    @pytest.mark.parametrize(
        "alpha", [F(1, 2), F(-13, 11), F(9, 8), F(5, 7), F(-7, 2)]
    )
    def test_ext_b_corner_matches_the_recursion(self, alpha):
        a_mat = make_x_matrices(alpha, (F(0), F(0)), "ext_b")
        corner = reference_corner(alpha)
        for i in range(-12, 13):
            for n in range(-12, 13):
                d = alpha + n
                assert a_mat(i, n) == ((d, corner(i, n)), (F(0), d)), (i, n)

    @pytest.mark.parametrize("alpha", [F(1, 2), F(-13, 11), F(5, 7)])
    def test_ext_b_corner_meets_the_forced_recursion(self, alpha):
        # (i - 2) c(i, n) = (d + i - 1) c(i - 1, n) - d c(i - 1, n + 1)
        # for i >= 3, at d = alpha + n for several n
        a_mat = make_x_matrices(alpha, (F(0), F(0)), "ext_b")

        def c(i, n):
            return a_mat(i, n)[0][1]

        for n in (-7, -1, 0, 2, 9):
            d = alpha + n
            for i in range(3, 31):
                assert (i - 2) * c(i, n) == (
                    (d + i - 1) * c(i - 1, n) - d * c(i - 1, n + 1)
                ), (n, i)

    def test_every_type_satisfies_the_x_bracket(self):
        for ext_type, betas in [
            ("decomposable", (F(1, 2), F(1, 7))),
            ("ext_a", (F(0), F(0))),
            ("ext_b", (F(0), F(0))),
        ]:
            a_mat = make_x_matrices(F(1, 3), betas, ext_type)
            verify_x_action(a_mat, 4)

    def test_fault_injection_is_caught(self):
        clean = make_x_matrices(F(1, 3), (F(0), F(0)), "ext_a")

        def corrupted(i, n):
            m = clean(i, n)
            if (i, n) == (2, 1):
                return ((m[0][0], m[0][1] + 1), m[1])
            return m

        with pytest.raises(ValueError, match="violate the x-bracket"):
            verify_x_action(corrupted, 3)

    def test_ext_b_corner_off_by_2_pow_minus_80_is_caught(self):
        # the ext_b corner of A(3, 0) moved by 2^-80 breaks the bracket by
        # that much, far below any float resolution
        clean = make_x_matrices(F(1, 3), (F(0), F(0)), "ext_b")

        def corrupted(i, n):
            m = clean(i, n)
            if (i, n) == (3, 0):
                return ((m[0][0], m[0][1] + F(1, 2**80)), m[1])
            return m

        with pytest.raises(ValueError, match="violate the x-bracket"):
            verify_x_action(corrupted, 4)

    def test_bracket_side_off_by_2_pow_minus_80_is_caught(self):
        # The first triple that reads A(-3, 0) is (i, j, n) = (-4, 1, 0),
        # where it is only the (j - i) A(i + j, n) side: the products
        # read A(-4, 1), A(1, 0), A(1, -4) and A(-4, 0).
        clean = make_x_matrices(F(1, 3), (F(0), F(0)), "ext_b")

        def corrupted(i, n):
            m = clean(i, n)
            if (i, n) == (-3, 0):
                return ((m[0][0] + F(1, 2**80), m[0][1]), m[1])
            return m

        with pytest.raises(
            ValueError, match=r"x-bracket at \(i, j, n\) = \(-4, 1, 0\)"
        ):
            verify_x_action(corrupted, 4)

    @pytest.mark.parametrize("window", [-1, 0, 2.0])
    def test_empty_or_non_int_window_refused(self, window):
        # a corrupted action that a window of 1 or more catches: at -1 the
        # check would run no triple and at 0 only (0, 0, 0)
        clean = make_x_matrices(F(1, 3), (F(0), F(0)), "ext_a")

        def corrupted(i, n):
            m = clean(i, n)
            if i == 0:
                return ((m[0][0] + 1, m[0][1]), m[1])
            return m

        with pytest.raises(ValueError, match="violate the x-bracket"):
            verify_x_action(corrupted, 1)
        with pytest.raises(ValueError, match="window must be"):
            verify_x_action(corrupted, window)

    # _build writes the i = 0 rows as empty rows on the precondition that
    # x(0) acts on V_n as (alpha + n) Id, which every type must meet on
    # every weight the rows read, |n| <= 2 window.
    @pytest.mark.parametrize(
        "alpha, betas, ext_type",
        [
            (alpha, betas, ext_type)
            for alpha in (F(1, 3), F(9, 8), F(1), F(-2), F(3))
            for betas, ext_type in [
                ((F(0), F(0)), "decomposable"),
                ((F(1), F(2)), "decomposable"),
                ((F(0), F(0)), "ext_a"),
                ((F(0), F(0)), "ext_b"),
            ]
            if ext_type != "ext_b" or alpha.denominator != 1
        ],
    )
    def test_x0_acts_as_a_scalar(self, alpha, betas, ext_type):
        a_mat = make_x_matrices(alpha, betas, ext_type)
        for n in range(-10, 11):
            d = alpha + n
            assert a_mat(0, n) == ((d, 0), (0, d)), n

    def test_rejections(self):
        with pytest.raises(ValueError, match="non-integral alpha"):
            make_x_matrices(F(2), (F(0), F(0)), "ext_b")
        with pytest.raises(ValueError, match="beta1 = beta2 = 0"):
            make_x_matrices(F(1, 3), (F(1), F(0)), "ext_a")
        with pytest.raises(ValueError):
            make_x_matrices(F(1, 3), (F(0), F(0)), "diagonal")

    @pytest.mark.parametrize(
        "betas", [(F(1),), (1, 2, 3), (), "12", 5, {0: 1, 1: 2}],
        ids=["one", "three", "empty", "str", "int", "dict"],
    )
    def test_betas_that_are_not_a_pair_refused(self, betas):
        with pytest.raises(ValueError, match="betas must be a pair"):
            make_x_matrices(F(1, 3), betas, "decomposable")
        with pytest.raises(ValueError, match="betas must be a pair"):
            build_matrix_system(F(1, 3), betas, "decomposable", 4)

    def test_betas_none_is_the_zero_pair(self):
        zero = make_x_matrices(F(1, 3), (0, 0), "ext_a")
        none = make_x_matrices(F(1, 3), None, "ext_a")
        assert all(none(i, 2) == zero(i, 2) for i in range(-3, 4))
        assert build_matrix_system(F(1, 3), None, "ext_a", 4) == (
            build_matrix_system(F(1, 3), [F(0), F(0)], "ext_a", 4)
        )

    def test_ext_types_tuple(self):
        assert EXT_TYPES == ("decomposable", "ext_a", "ext_b")


@pytest.mark.parametrize(
    "build, d, window",
    [
        (lambda: build_f_system(F(1, 2), F(1, 3), 5), 1, 5),
        (lambda: build_f_system(F(0), F(0), 3), 1, 3),
        (lambda: build_matrix_system(F(1, 3), (F(1), F(2)), "decomposable",
                                     4), 2, 4),
        (lambda: build_matrix_system(F(9, 8), (F(0), F(0)), "ext_b", 5), 2,
         5),
    ],
    ids=["f", "f-degenerate", "decomposable", "ext_b"],
)
def test_x0_rows_are_empty(build, d, window):
    # one row per entry of each windowed triple, in the order j, i, n
    system = build()
    dd = d * d
    rows = [
        system.equations[k * dd + e]
        for k, (_, i, _) in enumerate(f_triples(window))
        if i == 0
        for e in range(dd)
    ]
    assert len(rows) == dd * (2 * window + 1) ** 2
    assert all(row == ({}, 0) for row in rows)


class TestMatrixSystem:
    def test_window_rejection(self):
        with pytest.raises(ValueError, match="window must be at least 4"):
            build_matrix_system(F(1, 3), (F(0), F(0)), "decomposable", 3)

    @pytest.mark.parametrize("window", [4.5, F(9, 2), "4"])
    def test_window_that_is_not_an_int_rejected(self, window):
        with pytest.raises(ValueError, match="window must be an int"):
            build_matrix_system(F(1, 3), (F(0), F(0)), "decomposable", window)

    def test_decomposable_solution_space(self):
        alpha, betas = F(1, 3), (F(0), F(0))
        system = build_matrix_system(alpha, betas, "decomposable", 4)
        solution = solve_linear(system)
        assert solution.feasible
        assert solution.dimension == 4
        assert c1_is_forced_zero(solution)
        # each ray lives in a single entry sector (r, s) and is the
        # (alpha + n)-multiple pattern there, with no i-dependence
        sectors = []
        for k in range(solution.dimension):
            ray = solution.ray(k)
            seen = {}
            for name, value in ray.items():
                if name == "C1" or value == 0:
                    continue
                i, n, r, s = _parse_mat_name(name)
                seen.setdefault((r, s), []).append((i, n, value))
            assert len(seen) == 1
            (sector, entries), = seen.items()
            scale = None
            for i, n, value in entries:
                assert alpha + n != 0
                ratio = value / (alpha + n)
                scale = ratio if scale is None else scale
                assert ratio == scale
            sectors.append(sector)
        assert sorted(sectors) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        # quadratics keep exactly the off-diagonal nilpotent directions
        survivors = check_quadratic(system, solution)
        surviving_sectors = sorted(sectors[k] for k in survivors)
        assert surviving_sectors == [(1, 2), (2, 1)]

    def test_decomposable_family_residuals(self):
        # with beta1 = beta2 = 0 the x-action is scalar, so (alpha + n) D
        # solves the linear system for every constant matrix D
        alpha = F(1, 3)
        system = build_matrix_system(alpha, (F(0), F(0)), "decomposable", 4)
        d_matrix = ((F(2), F(3)), (F(5), F(7)))
        family = matrix_family_assignment(alpha, 4, d_matrix)
        assert all(r == 0 for r in system.evaluate_equations(family))

    def test_decomposable_distinct_betas_same_classification(self):
        system = build_matrix_system(F(1, 3), (F(0), F(1)), "decomposable", 4)
        solution = solve_linear(system)
        assert solution.dimension == 4
        assert sorted(check_quadratic(system, solution)) == sorted(
            k
            for k in range(4)
            if _ray_sector(solution.ray(k)) in [(1, 2), (2, 1)]
        )

    @pytest.mark.parametrize("ext_type", ["ext_a", "ext_b"])
    def test_extensions_are_infeasible_when_normalized(self, ext_type):
        system = build_matrix_system(F(1, 3), (F(0), F(0)), ext_type, 4)
        solution = solve_linear(system)
        assert not solution.feasible
        assert solution.dimension == 0

    def test_ext_a_unnormalized_keeps_only_nilpotent_line(self):
        system = build_matrix_system(
            F(1, 3), (F(0), F(0)), "ext_a", 4, normalized=False
        )
        solution = solve_linear(system)
        assert solution.feasible
        assert solution.dimension == 2
        assert c1_is_forced_zero(solution)
        survivors = check_quadratic(system, solution)
        assert len(survivors) == 1
        # the surviving line is (alpha + n) E12: square-zero, i-independent
        alpha = F(1, 3)
        ray = solution.ray(survivors[0])
        anchor = ray.get("F(1,0)[1,2]", F(0))
        assert anchor != 0
        scale = anchor / alpha
        for name, value in ray.items():
            if name == "C1" or value == 0:
                continue
            i, n, r, s = _parse_mat_name(name)
            assert (r, s) == (1, 2)
            assert value == scale * (alpha + n)

    def test_report_shapes(self):
        system = build_f_system(F(1, 2), F(1, 3), 3)
        solution = solve_linear(system)
        survivors = check_quadratic(system, solution)
        data = report(system, solution, survivors)
        assert data["kind"] == "f-system"
        assert data["infeasible"] is False
        assert data["dimension"] == solution.dimension
        assert data["c1_forced_zero"] is True
        assert data["quadratic_survivors"] == len(survivors)
        assert data["surviving_rays"] == survivors
        assert len(data["basis"]) == solution.dimension

    def test_report_infeasible(self):
        system = build_matrix_system(F(1, 3), (F(0), F(0)), "ext_a", 4)
        solution = solve_linear(system)
        data = report(system, solution)
        assert data["infeasible"] is True
        assert data["dimension"] == 0
        assert "quadratic_survivors" not in data


def test_check_quadratic_on_rays_with_mixed_denominators():
    # a b - c^2 = 0 over the columns (a, b, c): the ray (1/2, 2, 1) gives
    # 1 - 1 = 0 and survives, the ray (1/3, 1, 1) gives 1/3 - 1 and does
    # not; their numerators alone would give the opposite answers
    system = ConstraintSystem(("a", "b", "c"), [], [[(0, 1, 1), (2, 2, -1)]])
    rays = [{"a": F(1, 2), "b": F(2), "c": F(1)},
            {"a": F(1, 3), "b": F(1), "c": F(1)}]
    solution = SolutionSpace(True, {}, rays, 2)
    assert check_quadratic(system, solution) == [0]


def test_solve_linear_hands_the_rows_over_unchanged(monkeypatch):
    system = build_matrix_system(F(9, 8), (F(0), F(0)), "ext_a", 4)
    seen = []
    solve_sparse = constraints.solve_sparse

    def recording(equations, ncols, spanning=None, order=None):
        seen.append((equations, ncols, spanning, order))
        return solve_sparse(equations, ncols, spanning=spanning, order=order)

    monkeypatch.setattr(constraints, "solve_sparse", recording)
    solve_linear(system)
    [(equations, ncols, spanning, order)] = seen
    assert equations is system.equations
    assert ncols == len(system.unknowns)
    assert spanning == system.spanning
    assert order == system.order


class TestEliminationOrder:
    """Both builders hand the solver a column order (n descending inside
    each j block, C1 last); the answer is the natural-order answer."""

    @pytest.mark.parametrize(
        "build, d, name",
        [
            (lambda: build_f_system(F(1, 2), F(1, 3), 4), 1,
             lambda j, n, r, s: "f(%d,%d)" % (j, n)),
            (lambda: build_matrix_system(
                F(9, 8), (F(1), F(2)), "decomposable", 4), 2,
             lambda j, n, r, s: "F(%d,%d)[%d,%d]" % (j, n, r + 1, s + 1)),
        ],
        ids=["f-system", "matrix"],
    )
    def test_order_is_a_permutation_with_c1_last(self, build, d, name):
        system = build()
        assert sorted(system.order) == list(range(len(system.unknowns)))
        rng = range(-4, 5)
        blocks = range(d)
        expected = [
            name(j, n, r, s)
            for j in rng for n in reversed(rng) for r in blocks
            for s in blocks
        ] + ["C1"]
        assert [system.unknowns[c] for c in system.order] == expected

    @pytest.mark.parametrize(
        "alpha, betas, ext_type, normalized, primes",
        [
            (F(9, 8), (F(0), F(0)), "decomposable", True, 1),
            (F(9, 8), (F(1), F(2)), "decomposable", True, 1),
            (F(9, 8), (F(1, 2), F(-1, 3)), "decomposable", True, 1),
            (F(9, 8), (F(0), F(0)), "ext_a", True, 1),
            (F(9, 8), (F(0), F(0)), "ext_b", True, 2),
            (F(9, 8), (F(0), F(0)), "ext_b", False, 2),
            (F(1), (F(1), F(2)), "decomposable", True, 1),
        ],
    )
    def test_matrix_order_gives_the_natural_answer(
        self, monkeypatch, alpha, betas, ext_type, normalized, primes
    ):
        system = build_matrix_system(alpha, betas, ext_type, 4, normalized)
        folds = TestSpanningRows.folded_rows(monkeypatch)
        ordered = solve_linear(system)
        assert len(folds) == primes
        assert ordered == solve_linear(
            dataclasses.replace(system, order=None)
        )

    @pytest.mark.parametrize(
        "a, b", [(F(1, 2), F(1, 3)), (F(0), F(1)), (F(0), F(0))]
    )
    def test_f_order_gives_the_natural_answer(self, a, b):
        system = build_f_system(a, b, 5)
        assert solve_linear(system) == solve_linear(
            dataclasses.replace(system, order=None)
        )


def _built_system(act, d, window):
    """A ConstraintSystem straight from _build, for actions no public
    builder makes."""
    unknowns, equations, quadratics, spanning, order = constraints._build(
        act, d, window, lambda j, n, r, s: "F(%d,%d)[%d,%d]" % (j, n, r, s)
    )
    return ConstraintSystem(
        unknowns, equations, quadratics, spanning=tuple(spanning), order=order
    )


def _d3_system(b_matrix):
    """x(i) acting on V_n as (alpha + n) Id + i B, at alpha = 1/3, window 4."""
    return _built_system(
        lambda i, n: tuple(
            tuple((F(1, 3) + n) * (r == s) + i * b_matrix[r][s]
                  for s in range(3))
            for r in range(3)
        ),
        3, 4,
    )


def _module_system(spec, window):
    """The f-system of an intermediate-series family, read through
    ``coefficient``."""
    return _built_system(
        lambda i, n: ((coefficient(spec, i, n),),), 1, window
    )


class TestSpanningRows:
    """The solver folds only the rows of x(1), x(-1) and x(-2).

    These three generate only the x(n) with n <= 1, so the hint is not a
    theorem.  The row counts below follow from the hint.  On most systems
    here it spans, so the solver folds it once and nothing else; on the
    decomposable systems at alpha = 3 and 4 with betas 1 and 2 it falls
    short, and the solver folds every row a second time.  Either way the
    answer equals the one found by folding every row.
    """

    @staticmethod
    def folded_rows(monkeypatch):
        seen = []
        fold = linalg._fold

        def recording_fold(equations, p):
            seen.append(list(equations))
            return fold(equations, p)

        monkeypatch.setattr(linalg, "_fold", recording_fold)
        return seen

    @pytest.mark.parametrize(
        "build, size",
        [
            # 4 (9 - |i|)^2 rows for each i = 1, -1, -2 at a non-integral
            # alpha (every triple regular), plus the pinning row
            (
                lambda: build_matrix_system(F(9, 8), (F(0), F(0)), "ext_a", 4),
                4 * (2 * 8**2 + 7**2) + 1,
            ),
            (
                lambda: build_matrix_system(
                    F(9, 8), (F(0), F(0)), "decomposable", 4
                ),
                4 * (2 * 8**2 + 7**2),
            ),
            # (11 - |n|)^2 rows for each n = 1, -1, -2
            (lambda: build_f_system(F(1, 2), F(1, 3), 5), 2 * 10**2 + 9**2),
        ],
        ids=["matrix-ext_a", "matrix-decomposable", "f-system"],
    )
    def test_only_spanning_rows_are_folded(self, monkeypatch, build, size):
        system = build()
        assert len(system.spanning) == size
        # the folded rows carry each column relabelled by its place in
        # the elimination order
        position = {c: k for k, c in enumerate(system.order)}
        expected = linalg._exact_rows(
            [system.equations[k] for k in system.spanning],
            len(system.unknowns),
            position,
        )
        seen = self.folded_rows(monkeypatch)
        hinted = solve_linear(system)
        assert seen and all(rows == expected for rows in seen)
        seen.clear()
        unhinted = solve_linear(dataclasses.replace(system, spanning=None))
        assert len(seen[0]) == len(system.equations)
        assert hinted == unhinted

    # The relation holds on every weight, so an integral alpha gets every
    # row: the answers are those of alpha = 1/3 (dimension 4 / 3 / 2 for
    # the three betas), and the x(1), x(-1), x(-2) rows span, folded once.
    @pytest.mark.parametrize("alpha", [0, 1, -1, 2, -2])
    def test_integral_alpha_folds_the_spanning_rows_once(
        self, monkeypatch, alpha
    ):
        seen = self.folded_rows(monkeypatch)
        for betas, dimension, survivors in [
            ((F(0), F(0)), 4, 2),
            ((F(1), F(2)), 3, 1),
            ((F(1, 2), F(-1, 3)), 2, 0),
        ]:
            system = build_matrix_system(F(alpha), betas, "decomposable", 4)
            solution = solve_linear(system)
            assert [len(rows) for rows in seen] == [708]
            assert solution.dimension == dimension
            assert len(check_quadratic(system, solution)) == survivors
            seen.clear()
        if alpha:
            system = build_matrix_system(F(alpha), (F(0), F(0)), "ext_a", 4)
            assert not solve_linear(system).feasible
            assert [len(rows) for rows in seen] == [709]

    # The only package-built systems here on which a row outside the hint
    # fails a kernel vector of the hint.
    @pytest.mark.parametrize("alpha", [3, 4])
    @pytest.mark.parametrize("betas", [(1, 2), (2, 1)])
    def test_hint_that_falls_short_is_refolded(
        self, monkeypatch, alpha, betas
    ):
        system = build_matrix_system(
            F(alpha), (F(betas[0]), F(betas[1])), "decomposable", 4
        )
        seen = self.folded_rows(monkeypatch)
        hinted = solve_linear(system)
        assert [len(rows) for rows in seen] == [708, 1716]
        assert hinted.dimension == 3
        assert hinted == solve_linear(
            dataclasses.replace(system, spanning=None)
        )

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda w=w, a=a, b=b: build_f_system(a, b, w),
                id="f-%s,%s-w%d" % (a, b, w),
            )
            for w in (3, 4, 5, 6)
            for a, b in [
                (F(3, 7), F(-2, 5)), (F(2), F(-1)), (F(0), F(0)),
                (F(0), F(1)), (F(1), F(2)),
            ]
        ] + [
            pytest.param(
                lambda w=w, alpha=alpha, betas=betas, ext=ext:
                build_matrix_system(alpha, betas, ext, w),
                id="%s-%s-%s-w%d" % (ext, alpha, betas[0], w),
            )
            for w in (4, 5)
            for alpha, betas, ext in [
                (F(1, 3), (F(1, 2), F(-1, 3)), "decomposable"),
                (F(1), (F(1, 2), F(-1, 3)), "decomposable"),
                (F(-2), (F(1), F(2)), "decomposable"),
                (F(-7, 2), (F(0), F(0)), "ext_a"),
                (F(2), (F(0), F(0)), "ext_a"),
                (F(5, 7), (F(0), F(0)), "ext_b"),
            ]
        ] + [
            pytest.param(lambda b=b: _d3_system(b), id="d3-" + name)
            for name, b in [
                ("0", [[0] * 3] * 3),
                ("-J3", [[0, -1, 0], [0, 0, -1], [0, 0, 0]]),
                ("diag012", [[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
            ]
        ] + [
            pytest.param(
                lambda spec=spec: _module_system(spec, 5),
                id="%s-%s" % (spec.family, spec.a),
            )
            for spec in [
                ModuleSpec("Aa", F(1, 2)), ModuleSpec("Aa", F(0)),
                ModuleSpec("Ba", F(2, 3)), ModuleSpec("Ba", F(-1)),
            ]
        ],
    )
    def test_hint_spans(self, monkeypatch, build):
        system = build()
        seen = self.folded_rows(monkeypatch)
        hinted = solve_linear(system)
        assert seen and all(len(rows) == len(system.spanning) for rows in seen)
        assert hinted == solve_linear(
            dataclasses.replace(system, spanning=None)
        )

    def test_normalized_extension_refused_at_alpha_zero(self):
        # the pin F(1,0)[2,1] = alpha would be homogeneous
        with pytest.raises(ValueError, match="alpha != 0"):
            build_matrix_system(F(0), (F(0), F(0)), "ext_a", 4)
        system = build_matrix_system(
            F(0), (F(0), F(0)), "ext_a", 4, normalized=False
        )
        solution = solve_linear(system)
        assert solution.dimension == 2
        assert len(check_quadratic(system, solution)) == 1


def _parse_mat_name(name):
    # F(i,n)[r,s]
    inner, bracket = name[2:].split(")[")
    i, n = (int(v) for v in inner.split(","))
    r, s = (int(v) for v in bracket.rstrip("]").split(","))
    return i, n, r, s


def _ray_sector(ray):
    sectors = {
        _parse_mat_name(name)[2:]
        for name, value in ray.items()
        if name != "C1" and value != 0
    }
    assert len(sectors) == 1
    return sectors.pop()
