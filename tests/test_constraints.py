"""Constraint-system generators, solvers, and classification results."""

import dataclasses
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w22 import constraints, intermediate
from w22.rationals import clear_table
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
    pair_bracket,
    report,
    solve_linear,
    verify_x_action,
)

from oracles import equation_residuals, matrix_family_assignment


def F(a, b=1):
    return Fraction(a, b)


def relation_rows(act, d, window, col, c1):
    """(i, row) for every row of x(i) of the defining relation on d x d
    blocks, over Q, in the order j, i, n, (r, s): entry (r, s) of

        A(i, j+n) F(j, n) - F(j, i+n) A(i, n) + (i - j) F(i+j, n)
            - delta(i, -j) (i^3 - i)/12 C1,

    with A(i, n) = act(i, n), col(j, n, r, s) the column of F(j, n)[r, s]
    (r and s from 0) and c1 the column of C1.
    """
    rng = range(-window, window + 1)
    out = []
    for j in rng:
        for i in rng:
            if abs(i + j) > window:
                continue
            for n in rng:
                if abs(i + n) > window:
                    continue
                left, right = act(i, j + n), act(i, n)
                for r in range(d):
                    for s in range(d):
                        terms = [(col(i + j, n, r, s), F(i - j))]
                        for k in range(d):
                            terms.append((col(j, n, k, s), left[r][k]))
                            terms.append((col(j, i + n, r, k), -right[k][s]))
                        if i + j == 0 and r == s:
                            terms.append((c1, -F(i**3 - i, 12)))
                        row = {}
                        for c, v in terms:
                            row[c] = row.get(c, F(0)) + v
                        out.append((i, {c: v for c, v in row.items() if v}))
    return out


def row_scales(rows, expected):
    """{i: D_i} for built rows that are D_i times their rational rows.

    rows are (col -> coeff, rhs) rows of a built system; expected lists
    the (i, col -> rational) row of x(i) that each should be a multiple
    of, in the same order.  Every coefficient and right-hand side must be
    an int, and all rows of one x(i) one positive int D_i times their
    expected rows.  An x(i) whose expected rows are all 0 gets no D_i.
    """
    assert len(rows) == len(expected)
    scales = {}
    for k, ((coeffs, rhs), (i, want)) in enumerate(zip(rows, expected)):
        assert type(rhs) is int and rhs == 0, k
        assert all(type(v) is int for v in coeffs.values()), k
        assert coeffs.keys() == want.keys(), k
        for c, v in coeffs.items():
            scale = scales.setdefault(i, v / want[c])
            assert v == scale * want[c], (k, i)
    assert all(s > 0 and s.denominator == 1 for s in scales.values())
    return scales


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

    @pytest.mark.parametrize(
        "window, message",
        [(-1, "window must be at least 0, got -1"),
         (2.5, "window must be an int, got 2.5")],
    )
    def test_family_assignment_refuses_a_bad_window(self, window, message):
        with pytest.raises(ValueError) as exc:
            f_family_assignment(1, 2, window)
        assert str(exc.value) == message

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
            assert all(r == 0 for r in equation_residuals(system, family))

    def test_family_fails_quadratics(self):
        # I(m) proportional to x(m) does not commute with itself: the
        # quadratic residual at (m, n, t) is (n - m)(a + t + b(n + m)), so
        # a generic family violates it.
        system = build_f_system(F(1, 2), F(1, 3), 3)
        family = f_family_assignment(F(1, 2), F(1, 3), 3)
        residuals = system.evaluate_quadratics(family)
        assert any(r != 0 for r in residuals)

    def test_central_rows_isolate_c1(self):
        # A row of x(n) is D_n times the relation, so at f = 0, C1 = 1 its
        # residual is -D_n (n^3 - n)/12 when n + m = 0 and 0 otherwise.
        # The x-action (1, 2) is integral, so D_n = 12 / gcd(n^3 - n, 12):
        # 2 at n = +-2, where (n^3 - n)/12 = +-1/2, and 1 elsewhere.
        window = 5
        system = build_f_system(F(1), F(2), window)
        assert all(
            type(v) is int and type(rhs) is int
            for coeffs, rhs in system.equations for v in coeffs.values()
        )
        zero_f = {name: F(0) for name in system.unknowns}
        zero_f["C1"] = F(1)
        residuals = equation_residuals(system, zero_f)
        triples = f_triples(window)
        assert len(residuals) == len(triples)
        expected = [
            -F(n**3 - n, 12) * (12 // gcd(n**3 - n, 12)) if n + m == 0
            else F(0)
            for m, n, t in triples
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
        ray = solution.basis[0]
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
        ray = solution.basis[0]
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
        # code uses.  Each row of x(n) is that rational row times one int
        # D_n: the lcm of den a and den b, times 2 at n = +-2, where the
        # C1 coefficient -(n^3 - n)/12 is +-1/2.
        window = 3
        for a, b, den in [(F(2, 3), F(1, 5), 15), (F(1, 3), F(1, 5), 15),
                          (F(1), F(2), 1)]:
            spec = ModuleSpec("Aab", a, b)
            system = build_f_system(a, b, window)
            expected = []
            for m, n, t in f_triples(window):
                row = {}
                for name, val in [
                    ("f(%d,%d)" % (m, t), coefficient(spec, n, m + t)),
                    ("f(%d,%d)" % (m, n + t), -coefficient(spec, n, t)),
                    ("f(%d,%d)" % (n + m, t), -F(m - n)),
                ]:
                    if val:
                        col = system.unknowns.index(name)
                        row[col] = row.get(col, F(0)) + val
                if n + m == 0 and n**3 != n:
                    row[system.unknowns.index("C1")] = -F(n**3 - n, 12)
                expected.append((n, {k: v for k, v in row.items() if v}))
            assert row_scales(system.equations, expected) == {
                n: den * (2 if abs(n) == 2 else 1)
                for n in range(-window, window + 1) if n
            }, (a, b)


class TestMatrixSystemOracle:
    def test_rows_match_the_relation_on_2x2_blocks(self):
        # Independent regeneration from make_x_matrices: every row of x(i)
        # is one positive int D_i times its row of the relation on 2 x 2
        # blocks (see relation_rows), with int coefficients, and a
        # normalized extension ends with the pinning row F(1,0)[2,1] =
        # alpha written over the ints, q F(1,0)[2,1] = p for alpha = p/q.
        window = 4
        for alpha, betas, ext_type in [
            (F(1, 2), (F(1, 2), F(-1, 3)), "decomposable"),
            (F(1, 3), (F(0), F(0)), "ext_a"),
            (F(1, 2), (F(0), F(0)), "ext_b"),
        ]:
            a_mat = make_x_matrices(alpha, betas, ext_type)
            system = build_matrix_system(alpha, betas, ext_type, window)
            column = {name: c for c, name in enumerate(system.unknowns)}
            expected = relation_rows(
                a_mat, 2, window,
                lambda j, n, r, s: column[
                    "F(%d,%d)[%d,%d]" % (j, n, r + 1, s + 1)
                ],
                column["C1"],
            )
            rows = system.equations
            if ext_type != "decomposable":
                (pin, rhs), rows = rows[-1], rows[:-1]
                assert pin == {column["F(1,0)[2,1]"]: alpha.denominator}
                assert type(pin[column["F(1,0)[2,1]"]]) is int
                assert type(rhs) is int and rhs == alpha.numerator
            scales = row_scales(rows, expected)
            assert sorted(scales) == [
                i for i in range(-window, window + 1) if i
            ], ext_type


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
    first = assert_names_the_reference_triple(a_mat, window)
    assert (first is None) == (corruption is None)


def assert_names_the_reference_triple(a_mat, window):
    """verify_x_action passes exactly when reference_x_bracket finds no
    violation, and otherwise names its triple; returns that triple."""
    first = reference_x_bracket(a_mat, window)
    if first is None:
        verify_x_action(a_mat, window)
        return None
    with pytest.raises(ValueError) as caught:
        verify_x_action(a_mat, window)
    assert str(caught.value) == (
        "x-action matrices violate the x-bracket at "
        "(i, j, n) = (%d, %d, %d)" % first
    )
    return first


X_ACTIONS = {
    ext_type: make_x_matrices(*X_BRACKET_CASES[ext_type][:3])
    for ext_type in EXT_TYPES
}


@st.composite
def x_corruptions(draw):
    """One of the three x-action types at window 3 or 4, and a nonzero
    delta on one entry of one matrix A(k, m) that the check reads."""
    ext_type = draw(st.sampled_from(EXT_TYPES))
    window = draw(st.integers(3, 4))
    k = draw(st.integers(-window, window))
    m = draw(st.integers(max(-2 * window, -2 * window - k),
                         min(2 * window, 2 * window - k)))
    r, s = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    delta = draw(
        st.fractions(-3, 3, max_denominator=8).filter(lambda d: d != 0)
    )
    return ext_type, window, ((k, m), r, s, delta)


@settings(max_examples=60, deadline=None)
@given(x_corruptions())
def test_verify_x_action_names_the_reference_triple_of_any_corruption(case):
    # only i < j is evaluated; the message must still name the first
    # violating triple of the walk over every (i, j, n)
    ext_type, window, corruption = case
    assert_names_the_reference_triple(
        shifted(X_ACTIONS[ext_type], *corruption), window
    )


def test_verify_x_action_reads_each_matrix_the_triples_read_once():
    # exactly the matrices of the windowed triples with i != j, each read
    # once: E(i, i, n) = 0 for any matrices, so no corruption of a matrix
    # that only an i = j triple reads could ever be caught
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
        if abs(i + j) <= window and i != j
        for n in rng
        for key in ((i, j + n), (j, n), (j, i + n), (i, n), (i + j, n))
    }
    assert sorted(calls) == sorted(expected)


def test_verify_x_action_reads_the_bracket_from_pair_bracket(monkeypatch):
    # Halving every bracket gives x-terms over E = 2; the modules of the
    # halved algebra are the halved actions, so each clean type fails and
    # its half passes.
    monkeypatch.setattr(intermediate, "pair_bracket",
                        lambda g, h: F(1, 2) * pair_bracket(g, h))
    for ext_type, a_mat in X_ACTIONS.items():
        with pytest.raises(ValueError, match="violate the x-bracket"):
            verify_x_action(a_mat, 4)

        def halved(i, n, a_mat=a_mat):
            return tuple(tuple(v / 2 for v in row) for row in a_mat(i, n))

        verify_x_action(halved, 4)


def test_x_terms_are_cleared_once_per_bracket_table(monkeypatch):
    # the memo is keyed on the table read at call time: a patched table
    # gets its own entry, and the package's own entry is reused after it
    a_mat = X_ACTIONS["ext_b"]
    verify_x_action(a_mat, 4)
    hits = intermediate._x_terms.cache_info().hits
    verify_x_action(a_mat, 4)
    assert intermediate._x_terms.cache_info().hits == hits + 1
    with monkeypatch.context() as patch:
        patch.setattr(intermediate, "pair_bracket",
                      lambda g, h: F(1, 2) * pair_bracket(g, h))
        with pytest.raises(ValueError, match="violate the x-bracket"):
            verify_x_action(a_mat, 4)
    verify_x_action(a_mat, 4)
    assert intermediate._x_terms.cache_info().hits == hits + 2


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
            ray = solution.basis[k]
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
        assert all(r == 0 for r in equation_residuals(system, family))

    def test_decomposable_distinct_betas_same_classification(self):
        system = build_matrix_system(F(1, 3), (F(0), F(1)), "decomposable", 4)
        solution = solve_linear(system)
        assert solution.dimension == 4
        assert sorted(check_quadratic(system, solution)) == sorted(
            k
            for k in range(4)
            if _ray_sector(solution.basis[k]) in [(1, 2), (2, 1)]
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
        ray = solution.basis[survivors[0]]
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
        data = report(system, solution, check_quadratic(system, solution))
        assert data["infeasible"] is True
        assert data["dimension"] == 0
        assert data["quadratic_survivors"] == 0
        assert data["surviving_rays"] == []


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
        self, folds, alpha, betas, ext_type, normalized, primes
    ):
        system = build_matrix_system(alpha, betas, ext_type, 4, normalized)
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
    """A ConstraintSystem straight from _build, for rational actions
    act(i, n) that no public builder makes; each x(i) is cleared with
    ``clear_table`` over the weights the rows read, as
    ``build_matrix_system`` clears its own."""
    unknowns, equations, quadratics, spanning, order = constraints._build(
        lambda i, weights: clear_table({
            n: dict(enumerate(v for row in act(i, n) for v in row))
            for n in weights
        }),
        d, window, lambda j, n, r, s: "F(%d,%d)[%d,%d]" % (j, n, r, s),
    )
    return ConstraintSystem(
        unknowns, equations, quadratics, spanning=tuple(spanning), order=order
    )


def _d3_act(b_matrix):
    """x(i) acting on V_n as (alpha + n) Id + i B, at alpha = 1/3."""
    return lambda i, n: tuple(
        tuple((F(1, 3) + n) * (r == s) + i * b_matrix[r][s] for s in range(3))
        for r in range(3)
    )


def _d3_system(b_matrix):
    """The d = 3 system of ``_d3_act`` at window 4."""
    return _built_system(_d3_act(b_matrix), 3, 4)


def _module_act(spec):
    """x(i) on v_n of an intermediate-series family, read through
    ``coefficient``, as a 1 x 1 matrix."""
    return lambda i, n: ((coefficient(spec, i, n),),)


def _module_system(spec, window):
    """The f-system of an intermediate-series family."""
    return _built_system(_module_act(spec), 1, window)


# alpha = 1/3 and a = 1/3 give x(+-2) denominators prime to 2, so the
# rows of x(+-2) are integer only because D_2 carries the 2 of
# (2^3 - 2)/12 = 1/2.
@pytest.mark.parametrize(
    "act, d, window",
    [
        (_d3_act([[0, -1, 0], [0, 0, -1], [0, 0, 0]]), 3, 4),
        (_module_act(ModuleSpec("Aa", F(1, 3))), 1, 5),
    ],
    ids=["d3--J3", "Aa-1/3"],
)
def test_built_rows_are_integer_and_solve_as_the_relation(act, d, window):
    system = _built_system(act, d, window)
    column = {name: c for c, name in enumerate(system.unknowns)}
    expected = relation_rows(
        act, d, window,
        lambda j, n, r, s: column["F(%d,%d)[%d,%d]" % (j, n, r, s)],
        column["C1"],
    )
    assert 2 in row_scales(system.equations, expected)
    rational = dataclasses.replace(
        system, equations=[(row, 0) for _, row in expected]
    )
    assert solve_linear(system) == solve_linear(rational)


def _cell_triples(window):
    """(i, j, n) of each cell of the relation's rows, in row order (j, i,
    n), over the windowed triples; a cell stands for d^2 rows."""
    rng = range(-window, window + 1)
    return [(i, j, n) for j in rng for i in rng if abs(i + j) <= window
            for n in rng if abs(i + n) <= window]


def _free(window, j, n):
    """Whether F(j, n) is a block that no x(1) row with j != 1 solves for:
    such a row has coefficient 1 - j on F(j + 1, n), and reads only F(j, .)
    besides, so it leaves F(-window, .), F(2, .) and F(., window) free."""
    return j in (-window, 2) or n == window


class TestSpanningRows:
    """The solver folds only the hint: the x(1) rows with j != 1, and the
    x(-1) and x(-2) rows whose cell names a block those leave free.

    x(1), x(-1) and x(-2) generate only the x(n) with n <= 1, so the hint
    is not a theorem.  The row counts below follow from the hint.  On most
    systems here it spans, so the solver folds it once and nothing else;
    on the decomposable systems at alpha = 3 and 4 with betas 1 and 2 it
    falls short, and the solver folds the other nonempty rows into the
    hint's echelon basis, at the same prime.  Either way the answer equals
    the one found by folding every row.
    """

    @pytest.mark.parametrize(
        "d, window", [(1, 3), (1, 5), (1, 7), (2, 4), (2, 5), (2, 6), (3, 4)]
    )
    def test_hint_is_the_x1_rows_and_the_rows_at_a_free_block(
        self, d, window
    ):
        spanning = constraints._frame(d, window).spanning
        chosen = set(spanning)
        hinted = []
        for cell, (i, j, n) in enumerate(_cell_triples(window)):
            rows = range(cell * d * d, (cell + 1) * d * d)
            if i == 1:
                # coefficient 1 - j on F(j + 1, n): in the hint unless 0
                expected = j != 1
            else:
                # the blocks the cell names, F(i + j, n) included even
                # where its coefficient i - j is 0
                expected = i in (-1, -2) and any(
                    _free(window, *block)
                    for block in [(j, n), (j, i + n), (i + j, n)]
                )
            assert [row in chosen for row in rows] == [expected] * (d * d), (
                i, j, n)
            if expected:
                hinted.extend(rows)
        assert list(spanning) == hinted

    @pytest.mark.parametrize(
        "build, size",
        [
            # 4 rows per cell at a non-integral alpha (every triple
            # regular), plus the pinning row.  x(1): 7 values of j != 1
            # times 8 of n; x(-1): the 8 n at j = -3, 2, 3 and n = 4 at
            # the 5 other j, 29 cells; x(-2): the 7 n at j = -2, 2, 4 and
            # n = 4 at the 4 other j, 25 cells.
            (
                lambda: build_matrix_system(F(9, 8), (F(0), F(0)), "ext_a", 4),
                4 * (7 * 8 + 29 + 25) + 1,
            ),
            (
                lambda: build_matrix_system(
                    F(9, 8), (F(0), F(0)), "decomposable", 4
                ),
                4 * (7 * 8 + 29 + 25),
            ),
            # the same count at window 5, one row per cell: 9 * 10 cells
            # of x(1), 3 * 10 + 7 of x(-1) and 3 * 9 + 6 of x(-2)
            (lambda: build_f_system(F(1, 2), F(1, 3), 5), 9 * 10 + 37 + 33),
        ],
        ids=["matrix-ext_a", "matrix-decomposable", "f-system"],
    )
    def test_only_spanning_rows_are_folded(self, folds, build, size):
        system = build()
        assert len(system.spanning) == size
        # the folded rows are the builder's own rows, read in place: each
        # is the very object at its index of system.equations
        expected = [system.equations[k] for k in system.spanning]
        hinted = solve_linear(system)
        assert folds and all(
            len(fold.rows) == size
            and all(row is want for row, want in zip(fold.rows, expected))
            for fold in folds
        )
        folds.clear()
        unhinted = solve_linear(dataclasses.replace(system, spanning=None))
        assert len(folds[0].rows) == len(system.equations)
        assert hinted == unhinted

    # The relation holds on every weight, so an integral alpha gets every
    # row: the answers are those of alpha = 1/3 (dimension 4 / 3 / 2 for
    # the three betas), and the hint spans, folded once.
    @pytest.mark.parametrize("alpha", [0, 1, -1, 2, -2])
    def test_integral_alpha_folds_the_spanning_rows_once(self, folds, alpha):
        for betas, dimension, survivors in [
            ((F(0), F(0)), 4, 2),
            ((F(1), F(2)), 3, 1),
            ((F(1, 2), F(-1, 3)), 2, 0),
        ]:
            system = build_matrix_system(F(alpha), betas, "decomposable", 4)
            solution = solve_linear(system)
            assert [len(fold.rows) for fold in folds] == [440]
            assert solution.dimension == dimension
            assert len(check_quadratic(system, solution)) == survivors
            folds.clear()
        if alpha:
            system = build_matrix_system(F(alpha), (F(0), F(0)), "ext_a", 4)
            assert not solve_linear(system).feasible
            assert [len(fold.rows) for fold in folds] == [441]

    # The only package-built systems here on which a row outside the hint
    # fails a kernel vector of the hint.  The rows left to fold are the
    # nonempty ones outside the hint: 1716 - 440 - 325 at window 4 and
    # 3124 - 640 - 486 at window 5.  The empty ones are the 324 and 484
    # x(0) rows, and 1 and 2 rows of a cell (i, i, n), i = -1 or -2,
    # whose two coefficients alpha + j + n + i beta_r and
    # alpha + n + i beta_s both vanish at these integral alphas.
    @pytest.mark.parametrize(
        "alpha, betas, window, sizes",
        [
            pytest.param(alpha, betas, 4, [440, 951],
                         id="betas%d-%d" % (k, alpha))
            for alpha in (3, 4)
            for k, betas in enumerate([(1, 2), (2, 1)])
        ] + [
            pytest.param(4, (1, 2), 5, [640, 1998], id="window5-betas0-4"),
        ],
    )
    def test_hint_that_falls_short_is_refolded(
        self, folds, alpha, betas, window, sizes
    ):
        system = build_matrix_system(
            F(alpha), (F(betas[0]), F(betas[1])), "decomposable", window
        )
        hinted = solve_linear(system)
        assert [len(fold.rows) for fold in folds] == sizes
        # the second fold continues the first at the same prime: it is
        # given the first fold's pivots and keeps each of them
        (_, p, given, first, _), (_, q, pivots, second, _) = folds
        assert p == q == 2**61 - 1
        assert given is None and pivots == first
        assert all(second[col] == tail for col, tail in first.items())
        assert len(second) > len(first)
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
                lambda a=a, b=b: build_f_system(a, b, 7),
                id="f-%s,%s-w7" % (a, b),
            )
            for a, b in [(F(3, 7), F(-2, 5)), (F(0), F(1))]
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
            pytest.param(
                lambda alpha=alpha, betas=betas, ext=ext:
                build_matrix_system(alpha, betas, ext, 6),
                id="%s-%s-%s-w6" % (ext, alpha, betas[0]),
            )
            for alpha, betas, ext in [
                (F(1, 3), (F(1, 2), F(-1, 3)), "decomposable"),
                (F(-7, 2), (F(0), F(0)), "ext_a"),
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
    def test_hint_spans(self, folds, build):
        system = build()
        hinted = solve_linear(system)
        assert folds and all(
            len(fold.rows) == len(system.spanning) for fold in folds
        )
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


def _frame_builds():
    """(label, build) pairs over d = 1 and 2, interleaved: f-systems at
    windows 3-6 and matrix systems at windows 4-6, normalized and not."""
    builds = []
    for window in (3, 4, 5, 6):
        builds.append((
            "f %d" % window,
            lambda w=window: build_f_system(F(2), F(-3, 5), w),
        ))
        if window < 4:
            continue
        for ext_type, normalized in [
            ("ext_a", True), ("decomposable", False), ("ext_b", False),
            ("ext_b", True),
        ]:
            builds.append((
                "%s %d %s" % (ext_type, window, normalized),
                lambda w=window, t=ext_type, z=normalized: build_matrix_system(
                    F(9, 8), (F(0), F(0)), t, w, normalized=z
                ),
            ))
        builds.append((
            "f %d again" % window,
            lambda w=window: build_f_system(F(0), F(1), w),
        ))
    return builds


def _frame_outputs(system):
    return (
        system.unknowns,
        [(list(row.items()), rhs) for row, rhs in system.equations],
        [list(terms) for terms in system.quadratics],
        system.spanning,
        system.order,
    )


class TestFrame:
    """``_build`` shares one parameter-free frame per (d, window)."""

    def test_memoized_builds_equal_fresh_ones(self):
        builds = _frame_builds()
        built = [build() for _, build in builds]
        for (label, build), system in zip(builds, built):
            constraints._frame.cache_clear()
            assert _frame_outputs(build()) == _frame_outputs(system), label

    def test_systems_at_one_window_share_their_quadratics(self):
        first = build_f_system(F(1, 2), F(1, 3), 5)
        second = build_f_system(F(0), F(0), 5)
        assert first.quadratics is second.quadratics
        assert type(first.quadratics) is tuple
        assert all(type(terms) is tuple for terms in first.quadratics)
        matrix = build_matrix_system(F(1, 3), (F(1), F(2)), "decomposable", 4)
        extension = build_matrix_system(F(9, 8), None, "ext_b", 4)
        assert matrix.quadratics is extension.quadratics
        assert matrix.quadratics is not first.quadratics

    def test_systems_at_one_window_share_their_names(self):
        first = build_f_system(F(1, 2), F(1, 3), 5)
        assert first.unknowns is build_f_system(F(0), F(0), 5).unknowns
        matrix = build_matrix_system(F(1, 3), (F(1), F(2)), "decomposable", 4)
        extension = build_matrix_system(F(9, 8), None, "ext_b", 4)
        assert matrix.unknowns is extension.unknowns
        assert matrix.unknowns[:2] == ("F(-4,-4)[1,1]", "F(-4,-4)[1,2]")
        assert first.unknowns[:2] == ("f(-5,-5)", "f(-5,-4)")

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_the_pin_is_written_on_its_named_column(self, window):
        extension = build_matrix_system(F(9, 8), None, "ext_a", window)
        row, rhs = extension.equations[-1]
        assert [extension.unknowns[col] for col in row] == ["F(1,0)[2,1]"]
        assert (list(row.values()), rhs) == ([8], 9)

    def test_the_pin_stays_out_of_the_shared_spanning(self):
        constraints._frame.cache_clear()
        extension = build_matrix_system(F(9, 8), None, "ext_a", 4)
        pin = len(extension.equations) - 1
        assert extension.spanning[-1] == pin
        decomposable = build_matrix_system(
            F(9, 8), (F(0), F(0)), "decomposable", 4
        )
        assert len(decomposable.equations) == pin
        assert pin not in decomposable.spanning
        assert decomposable.spanning == extension.spanning[:-1]


def test_import_builds_no_frame():
    # a fresh interpreter, so that no earlier test has built a frame
    script = (
        "import w22, w22.cli\n"
        "from w22 import constraints\n"
        "print(constraints._frame.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout == "0\n"


def test_import_names_no_columns_and_clears_no_x_terms():
    script = (
        "import w22, w22.cli\n"
        "from w22 import constraints, intermediate\n"
        "print(constraints._unknowns.cache_info().currsize,\n"
        "      intermediate._x_terms.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout == "0 0\n"
