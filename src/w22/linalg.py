"""Exact linear algebra: one certified multi-modular solver.

``solve_sparse`` solves A u = b for a system given as rows
(col -> coeff dict, rhs) and returns (feasible, particular, kernel_basis)
with list-of-Fraction vectors.  ``nullspace`` is the same engine on dense
rows with rhs 0.  No elimination runs over Fraction:

1. The rows are folded, in input order, into an echelon basis keyed by
   leading column (the smallest column left in the reduced row), over
   GF(p) on plain ints.  The first prime is 2^61 - 1; the next ones are
   the primes below 2^62 in descending order.  A prime that divides an
   input denominator is skipped.
2. Back-substitution mod p gives the particular solution (free unknowns
   0) and one kernel vector per free column f (1 at f, 0 at the other
   free columns).
3. The residues of every prime with the same pivot columns are lifted by
   CRT and Wang's rational reconstruction (Wang, SYMSAC 1981; Monagan,
   ISSAC 2004).
4. The lift is returned only after an exact Fraction check: A k = 0 for
   every kernel vector and A x = b for the particular solution.  A lift
   that fails takes one more prime.

The check is a certificate, not a heuristic.  A verified kernel vector
of free column f has k[f] = 1 and is supported on f and the pivots left
of f, so column f is a combination of earlier columns over Q; every free
column mod p is then free over Q, and since rank over Q is at least rank
mod p the two free sets are equal.  The pivot columns, the kernel basis
and the particular solution are therefore the unique ones of the exact
leading-column echelon form: the answer does not depend on p.  When a
row reduces to 0 = b != 0 mod p, the certified equality of ranks gives
rank_Q[A|b] >= rank_p[A|b] > rank_p(A) = rank_Q(A), so the system is
infeasible over Q.  Folding goes on past such a row, because the kernel
certificate needs the full pivot set of A.

A prime is unlucky when it divides a minor that decides a pivot: its
rank is lower, or its rank is equal and its pivot list (ascending) is
lexicographically larger, since over Q the k-th pivot is never right of
the k-th pivot mod p.  The smallest (-rank, pivot list) seen so far is
kept; residues from a prime with a larger key are dropped, and a prime
with a smaller key discards the residues gathered before it.
"""

from fractions import Fraction
from math import isqrt

_FIRST_PRIME = 2**61 - 1
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_prime(n):
    """Miller-Rabin with the first 12 prime bases, exact for n < 3.3e24."""
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """2^61 - 1, then every prime below 2^62 in descending order."""
    yield _FIRST_PRIME
    n = 2**62 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


class _DenominatorDivisible(Exception):
    """The prime divides an input denominator."""


def _residue(value, p, inverses):
    """An int or Fraction mod p, with denominator inverses cached."""
    d = value.denominator
    inv = inverses.get(d)
    if inv is None:
        if d % p == 0:
            raise _DenominatorDivisible
        inv = inverses[d] = pow(d, -1, p)
    return value.numerator * inv % p


def _fold(equations, p):
    """Leading-column echelon fold mod p.

    Returns (pivots, consistent).  pivots maps each leading column to the
    (tail, rhs) of its monic pivot row; the tail holds the (col, coeff)
    pairs after the leading 1.  Each input row is reduced mod p only when
    it is folded, so no second copy of the system is held.
    """
    inverses = {1: 1}
    pivots = {}
    consistent = True
    for coeffs, rhs in equations:
        row = {}
        for c, v in coeffs.items():
            r = _residue(v, p, inverses)
            if r:
                row[c] = r
        b = _residue(rhs, p, inverses)
        # Entries are reduced mod p only when they lead or the row becomes
        # a pivot row, so an entry that cancels is dropped when it leads.
        get = row.get
        while row:
            lead = min(row)
            factor = row.pop(lead) % p
            if not factor:
                continue
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(factor, -1, p)
                tail = []
                for c, v in row.items():
                    v = v * inv % p
                    if v:
                        tail.append((c, v))
                pivots[lead] = (tuple(tail), b * inv % p)
                break
            tail, prhs = pivot
            for c, v in tail:
                row[c] = get(c, 0) - factor * v
            b = (b - factor * prhs) % p
        else:
            if b:
                consistent = False
    return pivots, consistent


def _back_substitute(pivots, order, v, homogeneous, p):
    """Fill the pivot entries of v (free entries already set) mod p."""
    for col in order:
        tail, prhs = pivots[col]
        acc = 0 if homogeneous else prhs
        for c, coeff in tail:
            value = v[c]
            if value:
                acc -= coeff * value
        v[col] = acc % p
    return v


def _reconstruct(r, m, bound):
    """Wang's a/b with a = b r (mod m) and |a|, b <= bound, or None."""
    if r <= bound:
        return Fraction(r)
    if m - r <= bound:
        return Fraction(r - m)
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _lift(residues, cols, modulus, vec):
    """Write the reconstructions of residues at cols into vec.

    Returns False when an entry has no reconstruction within the bound.
    """
    bound = isqrt(modulus // 2)
    for i in cols:
        value = _reconstruct(residues[i], modulus, bound)
        if value is None:
            return False
        vec[i] = value
    return True


def _satisfies(equations, vec, homogeneous):
    """Exact check of A vec = 0 (homogeneous) or A vec = b."""
    for coeffs, rhs in equations:
        acc = 0
        for c, coeff in coeffs.items():
            value = vec[c]
            if value:
                acc += coeff * value
        if acc != (0 if homogeneous else rhs):
            return False
    return True


def _image(equations, ncols, p):
    """The answer mod p, or None when p divides an input denominator.

    Returns (key, order, targets, residues).  key is (-rank, ascending
    pivot list); order lists the pivots in descending order.  targets
    holds (f, cols) for each free column f (the vector is 1 at f and has
    entries at the pivots cols left of f), then (None, order) for the
    particular solution when the system is consistent mod p; residues
    holds the matching vectors mod p.  The echelon basis is dropped on
    return, so two of them are never held at once.
    """
    try:
        pivots, consistent = _fold(equations, p)
    except _DenominatorDivisible:
        return None
    order = sorted(pivots, reverse=True)
    targets = [
        (f, [col for col in order if col < f])
        for f in range(ncols)
        if f not in pivots
    ]
    if consistent:
        targets.append((None, order))
    residues = []
    for f, cols in targets:
        v = [0] * ncols
        if f is not None:
            v[f] = 1
        residues.append(_back_substitute(pivots, cols, v, f is not None, p))
    return (-len(order), order[::-1]), order, targets, residues


def _solve(equations, ncols):
    """The certified (feasible, particular, kernel) triple."""
    key = None  # key of the primes whose residues are kept; lower is luckier
    for p in _primes():
        image = _image(equations, ncols, p)
        if image is None:
            continue
        new_key, order, targets, residues = image
        if key is not None and new_key > key:
            continue
        if key is None or new_key < key:
            key, modulus, kept = new_key, p, residues
        else:
            # An inconsistent prime drops the particular solution for good.
            del kept[len(residues):]
            scale = pow(modulus, -1, p)
            for acc, res in zip(kept, residues):
                for i in order:
                    acc[i] += modulus * ((res[i] - acc[i]) * scale % p)
            modulus *= p
        # The residues are left as they are, so a failed lift can still be
        # combined with the next prime.
        lifted = []
        for (f, cols), res in zip(targets, kept):
            vec = [_ZERO] * ncols
            if f is not None:
                vec[f] = _ONE
            if not (
                _lift(res, cols, modulus, vec)
                and _satisfies(equations, vec, f is not None)
            ):
                break
            lifted.append(vec)
        else:
            if len(lifted) == ncols - len(order):
                return False, None, []
            return True, lifted[-1], lifted[:-1]


def solve_sparse(equations, ncols):
    """Solve a sparse linear system given as [(col -> coeff dict, rhs), ...].

    Coefficients and right-hand sides are ints or Fractions.  Returns
    (feasible, particular, kernel_basis); particular is None and the
    basis empty when the system is infeasible.  The particular solution
    is 0 on the free columns, and the kernel vector of free column f is 1
    at f and 0 on the other free columns, so the answer is unique and
    fully deterministic.  Every returned vector has passed an exact check
    (see the module docstring).
    """
    return _solve(equations, ncols)


def nullspace(rows, ncols):
    """Kernel basis of dense rows: one vector per free column, ascending."""
    # _solve rather than solve_sparse, so that wrapping either public name
    # (as perfbench's layer tracer does) times the two callers apart.
    equations = [({c: v for c, v in enumerate(row) if v}, 0) for row in rows]
    return _solve(equations, ncols)[2]
