"""Exact linear algebra: the certified modular kernel engine.

Every answer below is a known one: worked by hand, or (for the random
systems) the rref-normalised answer of sympy's DomainMatrix over QQ, an
implementation written independently of this package.  The solver
computes only kernels: A u = b is the kernel of [A | -b], feasible when
the column of -b is free, with the particular solution read from its
kernel vector (x, 1).  It clears each row of [A | -b] of denominators
once, on entry, and folds and checks those integer rows mod one
Mersenne prime at a time, up a fixed ladder.  The certificate cases
force the paths the first prime cannot settle alone: entries too large
for one modulus, a coefficient, denominator or right-hand side divisible
by the first primes (each then an unlucky prime, never a skipped one),
an exhausted ladder, and an infeasibility that shows only after later
rows.  The spanning-row cases force the paths of a fold restricted
to some rows: a hint that does not span, after which every row is
folded (also when only an unfolded row shows the last column to be a
pivot: an infeasibility, or a smaller kernel), and a contradiction
inside the folded rows.  The column-order
cases force a pivot that the natural order would leave free, so the
answer must be mapped back.
"""

import random
from fractions import Fraction

import pytest

from w22 import linalg
from w22.linalg import nullspace, solve_sparse
from w22.rationals import clear_denominators

P = 2**61 - 1  # the first prime the solver tries
P127 = 2**127 - 1  # the second
P521 = 2**521 - 1  # the third


def F(a, b=1):
    return Fraction(a, b)


def count_primes(monkeypatch):
    """Record every prime the solver completes a fold with."""
    seen = []
    fold = linalg._fold

    def recording_fold(equations, p):
        result = fold(equations, p)
        seen.append(p)
        return result

    monkeypatch.setattr(linalg, "_fold", recording_fold)
    return seen


def count_folded_rows(monkeypatch):
    """Record the number of rows of every fold the solver runs."""
    seen = []
    fold = linalg._fold

    def recording_fold(equations, p):
        seen.append(len(equations))
        return fold(equations, p)

    monkeypatch.setattr(linalg, "_fold", recording_fold)
    return seen


def test_nullspace_rank_deficient_dense():
    # 2x + 4y = 0 and x + 2y = 0: rank 1, pivot column 0, kernel (-2, 1)
    assert nullspace([[F(2), F(4)], [F(1), F(2)]], 2) == [[F(-2), F(1)]]


def test_nullspace_known_line():
    # x + 2y = 0 has kernel spanned by (-2, 1)
    kernel = nullspace([[F(1), F(2)]], 2)
    assert kernel == [[F(-2), F(1)]]


def test_nullspace_full_rank():
    assert nullspace([[F(1), F(0)], [F(0), F(1)]], 2) == []


def test_solve_sparse_feasible_unique():
    # x + y = 3, y = 1
    ok, particular, kernel = solve_sparse(
        [({0: F(1), 1: F(1)}, F(3)), ({1: F(1)}, F(1))], 2
    )
    assert ok and particular == [F(2), F(1)] and kernel == []


def test_solve_sparse_infeasible_dependent_rows():
    # x + y = 1 and 2x + 2y = 3
    ok, particular, kernel = solve_sparse(
        [({0: F(1), 1: F(1)}, F(1)), ({0: F(2), 1: F(2)}, F(3))], 2
    )
    assert not ok and particular is None and kernel == []


def test_solve_sparse_empty_system_is_all_of_space():
    ok, particular, kernel = solve_sparse([], 3)
    assert ok
    assert particular == [F(0), F(0), F(0)]
    assert len(kernel) == 3
    for i, v in enumerate(kernel):
        assert v[i] == 1 and sum(map(abs, v)) == 1


def test_solve_sparse_infeasible():
    ok, particular, kernel = solve_sparse(
        [({0: F(1)}, F(1)), ({0: F(1)}, F(2))], 1
    )
    assert not ok and particular is None and kernel == []


def test_answer_with_large_entries_needs_several_primes(monkeypatch):
    # (2^35 + 1) x + 3 y = 2^40: the particular solution and the kernel
    # vector have 36-bit denominators, beyond one 61-bit modulus (Wang
    # reconstruction from modulus M reaches numerators and denominators
    # up to sqrt(M / 2)).
    seen = count_primes(monkeypatch)
    a = 2**35 + 1
    ok, particular, kernel = solve_sparse([({0: F(a), 1: F(3)}, F(2**40))], 2)
    assert ok
    assert particular == [F(2**40, a), F(0)]
    assert kernel == [[F(-3, a), F(1)]]
    assert len(seen) == 2

    # 70-bit entries take a third prime
    seen.clear()
    big = F(2**70 + 1, 2**64 + 3)
    ok, particular, kernel = solve_sparse([({0: F(1)}, big)], 1)
    assert ok and particular == [big] and kernel == []
    assert len(seen) == 3


def test_coefficient_vanishing_mod_the_first_prime(monkeypatch):
    # P x + y = 1.  Mod P the row reads y = 1, so the first prime puts the
    # pivot in column 1 and its lift fails the exact check.  Over Q the
    # pivot is column 0 and y is free; 1/P lifts from the second prime.
    seen = count_primes(monkeypatch)
    ok, particular, kernel = solve_sparse([({0: F(P), 1: F(1)}, F(1))], 2)
    assert ok
    assert particular == [F(1, P), F(0)]
    assert kernel == [[F(-1, P), F(1)]]
    assert seen == [P, P127]

    # the first prime also sees a lower rank: P x = 2 has no kernel over Q
    ok, particular, kernel = solve_sparse([({0: F(P)}, F(2))], 1)
    assert ok and particular == [F(2, P)] and kernel == []


def test_right_hand_side_vanishing_mod_the_first_prime(monkeypatch):
    # x + a y = 0 and x + a y = b contradict each other over Q: [A | -b]
    # has rank 2.  The first two primes divide b and see rank 1, so they
    # are unlucky: each leaves column 2 (the column of -b) free, and the
    # attempt fails.  The third prime sees rank 2; the kernel vector
    # (-a, 1, 0), with its 71-bit numerator, lifts from it and certifies
    # column 2 as a pivot.
    seen = count_primes(monkeypatch)
    a = F(2**70 + 1, 3)
    b = F(P * P127)
    row = {0: F(1), 1: a}
    assert solve_sparse([(row, F(0)), (row, b)], 2) == (False, None, [])
    assert seen == [P, P127, P521]
    # the same rows with equal right-hand sides: the line x = b - a y
    ok, particular, kernel = solve_sparse([(row, b), (row, b)], 2)
    assert ok and particular == [b, F(0)] and kernel == [[-a, F(1)]]


def test_denominator_divisible_by_the_first_prime(monkeypatch):
    # x / P + y = 1 clears to x + P y = P, which reads x = 0 mod P: the
    # first prime's lift (0, 0) fails the exact check, and x = P lifts
    # from the second prime
    seen = count_primes(monkeypatch)
    ok, particular, kernel = solve_sparse(
        [({0: F(1, P), 1: F(1)}, F(1)), ({1: F(1)}, F(0))], 2
    )
    assert ok and particular == [F(P), F(0)] and kernel == []
    assert seen == [P, P127]

    ok, particular, kernel = solve_sparse([({0: F(1)}, F(3, 2 * P))], 1)
    assert ok and particular == [F(3, 2 * P)] and kernel == []


def test_ladder_is_of_mersenne_prime_exponents():
    ntheory = pytest.importorskip("sympy.ntheory")
    known = {ntheory.mersenne_prime_exponent(n) for n in range(1, 29)}
    assert set(linalg._EXPONENTS) <= known
    assert linalg._EXPONENTS[0] == 61
    for e, after in zip(linalg._EXPONENTS, linalg._EXPONENTS[1:]):
        assert 10 * after >= 17 * e


def test_exhausted_ladder_raises(monkeypatch):
    # (2^35 + 1) x = 1: the 36-bit denominator is beyond the reach of
    # 2^61 - 1 alone, so a ladder of that prime gives no certified answer
    monkeypatch.setattr(linalg, "_EXPONENTS", (61,))
    with pytest.raises(ArithmeticError):
        solve_sparse([({0: F(2**35 + 1)}, F(1))], 1)
    monkeypatch.undo()
    assert solve_sparse([({0: F(2**35 + 1)}, F(1))], 1) == (
        True, [F(1, 2**35 + 1)], []
    )


@pytest.mark.parametrize(
    "solve",
    [
        # column 2 is the column of -b in [A | -b]
        lambda: solve_sparse([({2: F(1)}, F(0)), ({0: F(1)}, F(1))], 2),
        lambda: solve_sparse([({-1: F(1)}, F(0))], 2),
        lambda: solve_sparse([({0: F(1), 2: F(1)}, F(0))], 2, order=(1, 0)),
        lambda: nullspace([[1, 2, 3]], 2),
    ],
    ids=["column-of-b", "negative", "with-order", "dense-row-too-long"],
)
def test_column_out_of_range_rejected(solve):
    with pytest.raises(ValueError, match=r"range\(2\)"):
        solve()


def test_infeasibility_after_later_rows():
    # Rows 0-2 are consistent; row 3 = row 0 - row 1 + row 2 with the
    # wrong right-hand side; rows after it still fold.
    equations = [
        ({0: F(1), 1: F(1)}, F(1)),
        ({1: F(1), 2: F(1)}, F(2)),
        ({2: F(1), 3: F(1)}, F(4)),
        ({0: F(1), 3: F(1)}, F(2)),  # 1 - 2 + 4 = 3 != 2
        ({4: F(5)}, F(1)),
        ({0: F(1), 4: F(7, 3)}, F(0)),
    ]
    assert solve_sparse(equations, 5) == (False, None, [])
    # with the right-hand side 3 the same rows are consistent, of rank 5
    equations[3] = ({0: F(1), 3: F(1)}, F(3))
    ok, particular, kernel = solve_sparse(equations, 5)
    assert ok
    assert particular == [F(-7, 15), F(22, 15), F(8, 15), F(52, 15), F(1, 5)]
    assert kernel == []


def test_hint_that_does_not_span_falls_back(monkeypatch):
    # Folding x + y = 1 alone gives the kernel vector (-1, 1), which fails
    # y = 2: the hint misses a row, so every row is folded again.
    seen = count_folded_rows(monkeypatch)
    equations = [({0: F(1), 1: F(1)}, F(1)), ({1: F(1)}, F(2))]
    answer = (True, [F(-1), F(2)], [])
    assert solve_sparse(equations, 2, spanning=(0,)) == answer
    assert seen == [1, 2]
    assert solve_sparse(equations, 2) == answer


def test_infeasibility_seen_only_by_an_unfolded_row(monkeypatch):
    # The kernel vector (-1, 1) of the hint x + y = 1 passes 2x + 2y = 3,
    # but the particular solution (1, 0) is exact on the hint and gives
    # 2 != 3 on the other row.  The hint does not span [A | -b], so every
    # row is folded again, and the column of -b is then a pivot: no
    # solution exists.
    seen = count_folded_rows(monkeypatch)
    equations = [({0: F(1), 1: F(1)}, F(1)), ({0: F(2), 1: F(2)}, F(3))]
    assert solve_sparse(equations, 2, spanning=(0,)) == (False, None, [])
    assert seen == [1, 2]
    assert solve_sparse(equations, 2) == (False, None, [])
    # with the right-hand side 2 the same hint certifies the line
    equations[1] = ({0: F(2), 1: F(2)}, F(2))
    assert solve_sparse(equations, 2, spanning=(0,)) == (
        True,
        [F(1), F(0)],
        [[F(-1), F(1)]],
    )


def test_hint_containing_the_inconsistent_row(monkeypatch):
    # Rows 0 and 1 contradict each other (x + y = 1, 2x + 2y = 3) and are
    # both folded; row 2 (3x + 3y = 0) is not.  The kernel vector (-1, 1)
    # passes row 2, so the hint spans and the contradiction decides.
    seen = count_folded_rows(monkeypatch)
    equations = [
        ({0: F(1), 1: F(1)}, F(1)),
        ({0: F(2), 1: F(2)}, F(3)),
        ({0: F(3), 1: F(3)}, F(0)),
    ]
    assert solve_sparse(equations, 2, spanning=(0, 1)) == (False, None, [])
    assert seen == [2]


def test_last_column_failing_an_unfolded_row_refolds(monkeypatch):
    # Folding x + y = 0 alone gives the vector (-1, 1) of the last column,
    # which fails y = 0: the hint does not span, and folding every row
    # makes column 1 a pivot, so the kernel is 0.
    seen = count_folded_rows(monkeypatch)
    equations = [({0: 1, 1: 1}, 0), ({1: 1}, 0)]
    assert solve_sparse(equations, 2, spanning=(0,)) == (True, [0, 0], [])
    assert seen == [1, 2]
    # x + z = 0 alone: (0, 1, 0) passes z = 0 and (-1, 0, 1) fails it, so
    # every row is folded, and the kernel is the line of y
    seen.clear()
    equations = [({0: 1, 2: 1}, 0), ({2: 1}, 0)]
    assert solve_sparse(equations, 3, spanning=(0,)) == (
        True, [0, 0, 0], [[0, 1, 0]]
    )
    assert seen == [1, 2]
    assert solve_sparse(equations, 3) == (True, [0, 0, 0], [[0, 1, 0]])


def test_empty_rows_outside_the_hint(monkeypatch):
    # Row 1 reads 0 = 0 and is never checked outside the hint; row 2
    # reads 0 = 3/2, the row 2 * (0 | -3/2) = (0 | -3) of [A | -b], which
    # the particular solution of the hint fails: every row is folded
    # again, and row 2 proves that x + y = 2 has no solution together
    # with it.
    seen = count_folded_rows(monkeypatch)
    checked = []
    satisfies = linalg._satisfies

    def recording(rows, ints):
        checked.extend(rows)
        return satisfies(rows, ints)

    monkeypatch.setattr(linalg, "_satisfies", recording)
    equations = [({0: F(1), 1: F(1)}, F(2)), ({}, F(0))]
    answer = (True, [F(2), F(0)], [[F(-1), F(1)]])
    assert solve_sparse(equations, 2, spanning=(0,)) == answer
    assert [] not in checked and [(0, 1), (1, 1), (2, -2)] in checked
    assert seen == [1]
    seen.clear()
    checked.clear()
    equations.append(({}, F(3, 2)))
    assert solve_sparse(equations, 2, spanning=(0,)) == (False, None, [])
    assert [(2, -3)] in checked
    assert seen == [1, 3]
    # folded, the same rows give the same answers
    assert solve_sparse(equations[:2], 2) == answer
    assert solve_sparse(equations, 2) == (False, None, [])


def test_order_changes_the_free_column_but_not_the_answer():
    # x + 2y = 1 eliminated in the order (y, x) has y as its pivot and x
    # free: relabelled, it reads 2y' + x' = 1 with the answer particular
    # (1/2, 0) and kernel (-1/2, 1), which in the natural columns are
    # (0, 1/2) and (1, -1/2).  Mapped back, the answer is the natural
    # one: x pivot, y free.
    equations = [({0: F(1), 1: 2}, 1)]
    relabelled = [({1: F(1), 0: 2}, 1)]
    assert solve_sparse(relabelled, 2) == (
        True, [F(1, 2), F(0)], [[F(-1, 2), F(1)]]
    )
    answer = (True, [F(1), F(0)], [[F(-2), F(1)]])
    assert solve_sparse(equations, 2, order=(1, 0)) == answer
    assert solve_sparse(equations, 2) == answer
    # three columns, rank 1: the kernel basis is rebuilt from the free
    # columns 1 and 2 of the natural order, whatever the permutation
    equations = [({0: F(2), 1: F(1, 3), 2: -1}, F(5))]
    natural = solve_sparse(equations, 3)
    assert natural == (
        True,
        [F(5, 2), F(0), F(0)],
        [[F(-1, 6), F(1), F(0)], [F(1, 2), F(0), F(1)]],
    )
    for order in [(2, 1, 0), (1, 2, 0), (2, 0, 1), (1, 0, 2)]:
        assert solve_sparse(equations, 3, order=order) == natural


@pytest.mark.parametrize(
    "order", [(0, 0), (0,), (0, 1, 2), (1, 2), (-1, 0), (0.0, 1)]
)
def test_order_must_be_a_permutation(order):
    with pytest.raises(ValueError, match="permutation"):
        solve_sparse([({0: F(1)}, F(1))], 2, order=order)


# -1 would wrap to the last row, 5 would end in IndexError and 0.0 in
# TypeError
@pytest.mark.parametrize("spanning", [(-1,), (0, 5), (0.0,)])
def test_spanning_must_list_row_indices(spanning):
    equations = [({0: F(1)}, F(1)), ({1: F(1)}, F(2))]
    with pytest.raises(ValueError, match=r"spanning .* range\(2\)"):
        solve_sparse(equations, 2, spanning=spanning)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_sparse([({0: 1.5}, F(1))], 1),
        lambda: solve_sparse([({0: F(1)}, 0.5)], 1),
        lambda: nullspace([[1, 0.5]], 2),
    ],
    ids=["coefficient", "right-hand-side", "nullspace"],
)
def test_float_values_are_refused(solve):
    with pytest.raises(TypeError, match="ints or Fractions"):
        solve()


def _sympy_answer(rows, rhs, ncols):
    """(feasible, particular, kernel) in rref-normalised form, by sympy."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def to_fraction(q):
        return Fraction(int(q.numerator), int(q.denominator))

    aug = DomainMatrix(
        [[QQ(v.numerator, v.denominator) for v in row + [b]]
         for row, b in zip(rows, rhs)],
        (len(rows), ncols + 1),
        QQ,
    )
    reduced, pivots = aug.rref()
    reduced = [[to_fraction(q) for q in row] for row in reduced.to_list()]
    if ncols in pivots:
        return False, None, []
    particular = [F(0)] * ncols
    for i, p in enumerate(pivots):
        particular[p] = reduced[i][ncols]
    kernel = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        kernel.append(v)
    return True, particular, kernel


def test_solve_sparse_matches_dense_on_random_systems():
    pytest.importorskip("sympy")
    rng = random.Random(1724)
    hints = random.Random(4271)  # apart from rng, so the systems stay fixed
    for trial in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 6)
        size = rng.choice([3, 3, 10**6, 10**12])
        rows = [
            [
                F(rng.randint(-size, size), rng.choice([1, 1, 2, 9]))
                if rng.random() < 0.7
                else F(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        rhs = [F(rng.randint(-3, 3)) for _ in range(nrows)]
        equations = [
            ({j: row[j] for j in range(ncols) if row[j]}, b)
            for row, b in zip(rows, rhs)
        ]
        answer = _sympy_answer(rows, rhs, ncols)
        assert solve_sparse(equations, ncols) == answer, (trial, rows, rhs)
        # any subset of the rows as the hint gives the same answer
        hint = sorted(hints.sample(range(nrows), hints.randint(0, nrows)))
        assert solve_sparse(equations, ncols, spanning=hint) == answer, (
            trial,
            hint,
        )
        assert nullspace(rows, ncols) == _sympy_answer(
            rows, [F(0)] * nrows, ncols
        )[2]


def test_solve_sparse_deterministic():
    eqs = [({0: F(1), 2: F(-1)}, F(0)), ({1: F(2)}, F(4))]
    first = solve_sparse(eqs, 4)
    second = solve_sparse(eqs, 4)
    assert first == second
    assert first[1] == [F(0), F(2), F(0), F(0)]
    assert first[2] == [[F(1), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]]


# The exact certificate runs on integers: each row is cleared of its own
# denominators once, on entry, each lifted vector once, and a row holds
# when its integer dot product equals rhs * den.  The cases below pin the
# scaling of rows, right-hand sides and vectors with answers worked by hand.


def certified(equations, vec, t):
    """The solver's exact check of the vector (vec, t) of [A | -b].

    t = 1 checks A vec = b, as for the particular solution; t = 0 checks
    A vec = 0, as for a kernel vector.
    """
    return linalg._satisfies(
        linalg._exact_rows(equations, len(vec)),
        clear_denominators(vec + [F(t)])[0],
    )


# (1/3) x + (1/2) y + (5/6) z = 1/5 and (1/2) x + (5/6) y = 1/7.  Times 6
# the pivot block reads 2x + 3y, 3x + 5y, of determinant 1, so with z = 0
# x = 30/5 - 18/7 = 24/7 and y = -18/5 + 12/7 = -66/35; with z = 1 and
# right-hand sides 0, x = -25 and y = 15.
MIXED = [
    ({0: F(1, 3), 1: F(1, 2), 2: F(5, 6)}, F(1, 5)),
    ({0: F(1, 2), 1: F(5, 6)}, F(1, 7)),
]
MIXED_PARTICULAR = [F(24, 7), F(-66, 35), F(0)]
MIXED_KERNEL = [F(-25), F(15), F(1)]


def test_certificate_rows_are_cleared_row_by_row():
    # row 0 by lcm(3, 2, 6, 5) = 30, row 1 by lcm(2, 6, 7) = 42; the
    # right-hand sides become the entries -6 in column 3
    assert linalg._exact_rows(MIXED, 3) == [
        [(0, 10), (1, 15), (2, 25), (3, -6)],
        [(0, 21), (1, 35), (3, -6)],
    ]
    # the particular solution, as the vector (x, 1), is (120, -66, 0, 35) / 35
    assert clear_denominators(MIXED_PARTICULAR + [F(1)]) == (
        [120, -66, 0, 35],
        35,
    )


def test_certificate_on_mixed_denominators():
    assert certified(MIXED, MIXED_PARTICULAR, t=1)
    assert certified(MIXED, MIXED_KERNEL, t=0)
    # the kernel vector does not solve the inhomogeneous rows
    assert not certified(MIXED, MIXED_KERNEL, t=1)
    assert solve_sparse(MIXED, 3) == (True, MIXED_PARTICULAR, [MIXED_KERNEL])


def test_certificate_rejects_a_residual_of_2_pow_minus_80():
    # z moved by (6/5) 2^-80 leaves row 1 exact and row 0 off by 2^-80
    off = MIXED_PARTICULAR[:2] + [F(6, 5 * 2**80)]
    assert not certified(MIXED, off, t=1)
    off = [MIXED_PARTICULAR[0] + F(1, 2**80)] + MIXED_PARTICULAR[1:]
    assert not certified(MIXED, off, t=1)
    off = MIXED_KERNEL[:2] + [F(1) + F(6, 5 * 2**80)]
    assert not certified(MIXED, off, t=0)


def test_certificate_on_kernel_vectors_with_large_coprime_denominators():
    # a x + z = 0 and b y + z = 0 with the Mersenne primes a = 2^89 - 1
    # and b = 2^107 - 1: the kernel vector (-1/a, -1/b, 1) clears to
    # (-b, -a, ab) / ab, and its lift needs a 196-bit modulus
    a, b = 2**89 - 1, 2**107 - 1
    equations = [({0: F(a), 2: F(1)}, F(0)), ({1: F(b), 2: F(1)}, F(0))]
    kernel = [F(-1, a), F(-1, b), F(1)]
    assert clear_denominators(kernel) == ([-b, -a, a * b], a * b)
    assert certified(equations, kernel, t=0)
    assert not certified(
        equations, [F(-1, a) + F(1, 2**80), F(-1, b), F(1)], t=0
    )
    assert solve_sparse(equations, 3) == (True, [F(0)] * 3, [kernel])


def test_certificate_on_the_nullspace_path():
    # nullspace hands the rows over with the int right-hand side 0, which
    # adds no column of -b; (1/3) x + (1/2) y + (5/6) z = 0 clears by 6 to
    # 2x + 3y + 5z = 0, so x = -(3/2) y - (5/2) z
    row = [F(1, 3), F(1, 2), F(5, 6)]
    equations = [({0: row[0], 1: row[1], 2: row[2]}, 0)]
    assert linalg._exact_rows(equations, 3) == [[(0, 2), (1, 3), (2, 5)]]
    kernel = [[F(-3, 2), F(1), F(0)], [F(-5, 2), F(0), F(1)]]
    assert nullspace([row], 3) == kernel
    assert all(certified(equations, vec, t=0) for vec in kernel)
    assert not certified(equations, [F(-3, 2), F(1), F(1, 2**80)], t=0)
