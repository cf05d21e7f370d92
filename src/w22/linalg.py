"""Exact linear algebra: one certified multi-modular solver.

``solve_sparse`` solves A u = b for a system given as rows
(col -> coeff dict, rhs) and returns (feasible, particular, kernel_basis)
with list-of-Fraction vectors.  ``nullspace`` is the same engine on dense
rows with rhs 0.  No elimination runs over Fraction:

1. Each row is cleared of its denominators once, on entry: it is scaled
   by the lcm of its own denominators (rhs included), which keeps its
   solutions.  The integer rows are folded, in input order, into an
   echelon basis keyed by leading column (the smallest column left in
   the reduced row), over GF(p) on plain ints.  The first prime is
   2^61 - 1; the next ones are the primes below 2^62 in descending order.
   Every prime is used: a prime that divides a row's lcm is at worst
   unlucky (see below).
2. Back-substitution mod p gives the particular solution (free unknowns
   0) and one kernel vector per free column f (1 at f, 0 at the other
   free columns).  When every right-hand side is 0 the particular
   solution is 0 and is neither computed nor checked.
3. The residues of every prime with the same pivot columns are lifted by
   CRT and Wang's rational reconstruction (Wang, SYMSAC 1981; Monagan,
   ISSAC 2004).
4. The lift is returned only after an exact check: A k = 0 for every
   kernel vector and A x = b for the particular solution.  A lift that
   fails takes one more prime.  The check reads the same integer rows as
   the fold: each lifted vector is cleared once, as ints / den, and a row
   (pairs, rhs) holds when its integer dot product with the ints equals
   rhs * den (0 for a kernel vector).

The check is a certificate, not a heuristic.  A verified kernel vector
of free column f has k[f] = 1 and is supported on f and the pivots left
of f, so column f is a combination of earlier columns over Q; every free
column mod p is then free over Q, and since the rows are integer, rank
over Q is at least rank mod p for every p, so the two free sets are
equal.  The pivot columns, the kernel basis and the particular solution
are therefore the unique ones of the exact leading-column echelon form:
the answer does not depend on p.  When a row reduces to 0 = b != 0 mod
p, the certified equality of ranks and the integer rows of [A|b] give
rank_Q[A|b] >= rank_p[A|b] > rank_p(A) = rank_Q(A), so the system is
infeasible over Q.  Folding goes on past such a row, because the kernel
certificate needs the full pivot set of A.

A caller that expects some rows to span the row space (the constraint
systems pass the rows of the relations with x(+-1) and x(+-2)) can pass
their indices as ``spanning``; only those rows S are folded, and the
exact check still runs on every row of A.  A lifted vector that fails a
row of S takes one more prime, as above.  A kernel vector that passes S
but fails another row lies in ker(A_S) and not in ker(A), which proves
that S does not span; the system is then solved again with every row
folded.  When every kernel vector passes every row, they are independent
vectors of ker(A), one per free column of A_S mod p, so
rank_Q(A) <= rank_p(A_S) <= rank_Q(A_S) <= rank_Q(A): the ranks are
equal, ker(A) = ker(A_S), and the free columns and the answer are those
of A.  A contradiction 0 = b != 0 mod p among the rows of S then proves
infeasibility as above.  A particular solution x that is exact on S but
fails another row proves it too: any solution y of A would solve S, so
x - y would lie in ker(A_S) = ker(A), and x would meet every row that y
meets.

A caller can also pass ``order``, a permutation of the columns: column
order[k] is relabelled k as the rows are cleared, so the fold takes its
pivots in that order, and the certified answer of the relabelled rows is
mapped back over Q.  The natural answer depends only on ker(A) and the
solution set: the vector of free column f is the only vector of ker(A)
that is 1 at f, 0 at the other free columns and 0 right of f, and the
particular solution is the only solution that is 0 on the free columns.
The relabelled answer, un-permuted, is a certified basis of ker(A) and a
certified solution (above).  So its reduced trailing-column echelon form
(each vector 1 at its largest nonzero column and 0 at the other such
columns) is exactly the natural kernel basis, and the particular solution
reduced by it to 0 on those columns is the natural one: the answer does
not depend on the order, and an infeasible answer has nothing to map.
The kernel has dimension at most 4 on the constraint systems, so the map
costs little next to the fold.

A prime is unlucky when it divides a minor of the integer rows that
decides a pivot (a prime that divides a row's lcm can be one): its rank
is lower, or its rank is equal and its pivot list (ascending) is
lexicographically larger, since over Q the k-th pivot is never right of
the k-th pivot mod p.  The smallest (-rank, pivot list) seen so far is
kept; residues from a prime with a larger key are dropped, and a prime
with a smaller key discards the residues gathered before it.
"""

from fractions import Fraction
from math import isqrt, lcm

from .rationals import clear_denominators

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


def _fold(rows, p):
    """Leading-column echelon fold mod p of integer rows from _exact_rows.

    Returns (pivots, consistent).  pivots maps each leading column to the
    (tail, rhs) of its monic pivot row; the tail holds the (col, coeff)
    pairs after the leading 1.  Each input row is reduced mod p only when
    it is folded, so no second copy of the system is held.
    """
    pivots = {}
    consistent = True
    for pairs, rhs in rows:
        row = {c: r for c, v in pairs if (r := v % p)}
        b = rhs % p
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


def _exact_rows(equations, position=None):
    """Each row cleared of denominators once: ((col, int), ...), int rhs.

    A row is scaled by the lcm of its own denominators (rhs included),
    so it keeps its solutions and every entry stays exact.  With a
    position list, column c is relabelled position[c] in the same pass.
    """
    out = []
    for coeffs, rhs in equations:
        den = lcm(rhs.denominator, *[v.denominator for v in coeffs.values()])
        pairs = [(c if position is None else position[c],
                  v.numerator * (den // v.denominator))
                 for c, v in coeffs.items()]
        out.append((pairs, rhs.numerator * (den // rhs.denominator)))
    return out


def _satisfies(rows, vector, homogeneous):
    """Exact check of A vec = 0 (homogeneous) or A vec = b.

    rows come from _exact_rows and vector from clear_denominators; the
    check is row . ints == rhs * den, all in integers.
    """
    ints, den = vector
    for pairs, rhs in rows:
        acc = 0
        for c, coeff in pairs:
            acc += coeff * ints[c]
        if acc != (0 if homogeneous else rhs * den):
            return False
    return True


def _image(rows, ncols, p, zero_rhs):
    """The answer mod p: (key, order, targets, residues).

    key is (-rank, ascending pivot list); order lists the pivots in
    descending order.  targets holds (f, cols) for each free column f (the
    vector is 1 at f and has entries at the pivots cols left of f), then
    (None, order) for the particular solution when the system is
    consistent mod p and not zero_rhs; residues holds the matching vectors
    mod p.  The echelon basis is dropped on return, so two of them are
    never held at once.
    """
    pivots, consistent = _fold(rows, p)
    order = sorted(pivots, reverse=True)
    targets = [
        (f, [col for col in order if col < f])
        for f in range(ncols)
        if f not in pivots
    ]
    if consistent and not zero_rhs:
        targets.append((None, order))
    residues = []
    for f, cols in targets:
        v = [0] * ncols
        if f is not None:
            v[f] = 1
        residues.append(_back_substitute(pivots, cols, v, f is not None, p))
    return (-len(order), order[::-1]), order, targets, residues


def _solve(rows, ncols, spanning=None):
    """The certified (feasible, particular, kernel) triple of integer rows."""
    if spanning is None:
        folded, others = rows, ()
    else:
        chosen = set(spanning)
        folded = [rows[i] for i in spanning]
        # A row 0 = 0 holds for every vector; 0 = b != 0 is kept, it
        # proves infeasibility.
        others = [row for i, row in enumerate(rows)
                  if i not in chosen and (row[0] or row[1])]
    # With every rhs 0 the particular solution is 0: no lift, no check.
    zero_rhs = not any(rhs for _, rhs in rows)
    key = None  # key of the primes whose residues are kept; lower is luckier
    for p in _primes():
        new_key, order, targets, residues = _image(folded, ncols, p, zero_rhs)
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
            homogeneous = f is not None
            vec = [_ZERO] * ncols
            if homogeneous:
                vec[f] = _ONE
            if not _lift(res, cols, modulus, vec):
                break
            vector = clear_denominators(vec)
            if not _satisfies(folded, vector, homogeneous):
                break
            if not _satisfies(others, vector, homogeneous):
                if homogeneous:
                    # The kernel of the folded rows is larger than that of
                    # A: the hint does not span, so fold every row.
                    return _solve(rows, ncols)
                # The kernel vectors came first and passed every row, so
                # ker(A) = ker(A_S) and no solution meets this row.
                return False, None, []
            lifted.append(vec)
        else:
            if zero_rhs:
                return True, [_ZERO] * ncols, lifted
            if len(lifted) == ncols - len(order):
                return False, None, []
            return True, lifted[-1], lifted[:-1]


def _in_natural_order(answer, order):
    """The answer of rows relabelled by order, in the natural columns.

    Each vector is un-permuted; the kernel basis is brought to reduced
    trailing-column echelon form (each vector 1 at its largest nonzero
    column f and 0 at the other such columns, ascending in f) and the
    particular solution is reduced to 0 on those columns.  This is the
    answer of the natural order (see the module docstring).
    """
    feasible, particular, kernel = answer
    if not feasible:
        return answer

    def natural(vec):
        out = [_ZERO] * len(order)
        for k, c in enumerate(order):
            out[c] = vec[k]
        return out

    def reduce(vec, f, by):
        scale = vec[f]
        if scale:
            for i, x in enumerate(by):
                if x:
                    vec[i] -= scale * x

    echelon = {}
    for vec in map(natural, kernel):
        for f, by in echelon.items():
            reduce(vec, f, by)
        f = max(i for i, x in enumerate(vec) if x)
        scale = vec[f]
        if scale != 1:
            vec = [x / scale if x else x for x in vec]
        for by in echelon.values():
            reduce(by, f, vec)
        echelon[f] = vec
    particular = natural(particular)
    for f, by in echelon.items():
        reduce(particular, f, by)
    return True, particular, [echelon[f] for f in sorted(echelon)]


def solve_sparse(equations, ncols, spanning=None, order=None):
    """Solve a sparse linear system given as [(col -> coeff dict, rhs), ...].

    Coefficients and right-hand sides are ints or Fractions.  Returns
    (feasible, particular, kernel_basis); particular is None and the
    basis empty when the system is infeasible.  The particular solution
    is 0 on the free columns, and the kernel vector of free column f is 1
    at f and 0 on the other free columns, so the answer is unique and
    fully deterministic.  Every returned vector has passed an exact check
    against every row (see the module docstring).

    spanning, when given, lists the indices of rows expected to span the
    row space; only those rows are folded.  A wrong hint costs a second
    solve with every row folded, never a different answer.

    order, when given, is a permutation of range(ncols) that lists the
    columns in elimination order: the fold runs on column order[k]
    relabelled k, and the certified answer is mapped back to the natural
    columns.  The answer is the same with or without it (see the module
    docstring); only the work of the fold changes.  Anything but a
    permutation raises ValueError.
    """
    if order is None:
        return _solve(_exact_rows(equations), ncols, spanning)
    order = tuple(order)
    if (not all(isinstance(c, int) for c in order)
            or sorted(order) != list(range(ncols))):
        raise ValueError("order must be a permutation of range(%d)" % ncols)
    position = [0] * ncols
    for k, c in enumerate(order):
        position[c] = k
    answer = _solve(_exact_rows(equations, position), ncols, spanning)
    return _in_natural_order(answer, order)


def nullspace(rows, ncols):
    """Kernel basis of dense rows: one vector per free column, ascending."""
    # _solve rather than solve_sparse, so that wrapping either public name
    # (as perfbench's layer tracer does) times the two callers apart.
    equations = [({c: v for c, v in enumerate(row) if v}, 0) for row in rows]
    return _solve(_exact_rows(equations), ncols)[2]
