"""Exact linear algebra: the certified multi-modular solver.

Every answer below is a known one: worked by hand, or (for the random
systems) the rref-normalised answer of sympy's DomainMatrix over QQ, an
implementation written independently of this package.  The certificate
cases force the paths the first prime cannot settle alone: entries too
large for one modulus, a coefficient or denominator divisible by the
first prime, and an infeasibility that shows only after later rows.
"""

import random
from fractions import Fraction

import pytest

from w22 import linalg
from w22.linalg import nullspace, solve_sparse

P = 2**61 - 1  # the first prime the solver tries


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
    # pivot is column 0 and y is free.
    seen = count_primes(monkeypatch)
    ok, particular, kernel = solve_sparse([({0: F(P), 1: F(1)}, F(1))], 2)
    assert ok
    assert particular == [F(1, P), F(0)]
    assert kernel == [[F(-1, P), F(1)]]
    assert seen[0] == P and len(seen) == 3

    # the first prime also sees a lower rank: P x = 2 has no kernel over Q
    ok, particular, kernel = solve_sparse([({0: F(P)}, F(2))], 1)
    assert ok and particular == [F(2, P)] and kernel == []


def test_right_hand_side_vanishing_mod_the_first_prime(monkeypatch):
    # x + a y = 0 and x + a y = b contradict each other over Q.  The first
    # and third primes divide b, so only the second prime sees it.  The
    # kernel vector (-a, 1) has a 71-bit numerator and lifts only at the
    # third prime; the second prime's contradiction must still decide.
    seen = count_primes(monkeypatch)
    a = F(2**70 + 1, 3)
    b = F(P * (2**62 - 87))
    row = {0: F(1), 1: a}
    assert solve_sparse([(row, F(0)), (row, b)], 2) == (False, None, [])
    assert seen == [P, 2**62 - 57, 2**62 - 87]
    # the same rows with equal right-hand sides: the line x = b - a y
    ok, particular, kernel = solve_sparse([(row, b), (row, b)], 2)
    assert ok and particular == [b, F(0)] and kernel == [[-a, F(1)]]


def test_denominator_divisible_by_the_first_prime(monkeypatch):
    # 1/P has no residue mod P, so the first prime is skipped
    seen = count_primes(monkeypatch)
    ok, particular, kernel = solve_sparse(
        [({0: F(1, P), 1: F(1)}, F(1)), ({1: F(1)}, F(0))], 2
    )
    assert ok and particular == [F(P), F(0)] and kernel == []
    assert P not in seen

    ok, particular, kernel = solve_sparse([({0: F(1)}, F(3, 2 * P))], 1)
    assert ok and particular == [F(3, 2 * P)] and kernel == []


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
        sparse = solve_sparse(
            [
                ({j: row[j] for j in range(ncols) if row[j]}, b)
                for row, b in zip(rows, rhs)
            ],
            ncols,
        )
        assert sparse == _sympy_answer(rows, rhs, ncols), (trial, rows, rhs)
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
