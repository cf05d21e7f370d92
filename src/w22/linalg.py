"""Exact linear algebra: one certified modular kernel engine.

``solve_sparse`` solves A u = b for a system given as rows
(col -> coeff dict, rhs) and returns (feasible, particular, kernel_basis)
with list-of-Fraction vectors.  ``nullspace`` returns the kernel basis of
dense rows.  Both read one routine, which computes only kernels: A u = b
is solved as the kernel of M = [A | -b], the matrix A with -b as column
ncols.  The system is feasible exactly when column ncols of M is free;
its kernel vector is then (x, 1), and x is the particular solution, 0 on
the free columns of A.  The other kernel vectors of M are 0 at column
ncols and form the kernel basis of A.  When every rhs is 0 the column of
-b is left out, since its kernel vector would be (0, 1).  No elimination
runs over Fraction:

1. Each row of M is cleared of its denominators once, on entry: it is
   scaled by the lcm of its own denominators (b included), which keeps
   its kernel.  The integer rows are folded, in input order, into an
   echelon basis keyed by leading column (the smallest column left in
   the reduced row), over GF(p) on plain ints.  p runs up a ladder of
   Mersenne primes 2^e - 1, e = 61, 127, 521, ..., 86243; each attempt
   starts from scratch with one prime, and no residues are combined.
2. Back-substitution mod p gives one kernel vector per free column f (1
   at f, 0 at the other free columns).
3. The residues are lifted by Wang's rational reconstruction (Wang,
   SYMSAC 1981; Monagan, ISSAC 2004), which reaches numerators and
   denominators up to sqrt(p / 2).
4. The lift is returned only after an exact check: M k = 0 for every
   kernel vector, (x, 1) included.  A lift that fails takes the next
   prime of the ladder; past the last one ArithmeticError is raised,
   never an unchecked answer.  The check reads the same integer rows as
   the fold: each lifted vector is cleared once to ints over a common
   denominator, and a row holds when its integer dot product with the
   ints is 0.

The check is a certificate, not a heuristic.  A verified kernel vector
of free column f has k[f] = 1 and is supported on f and the pivots left
of f, so column f is a combination of earlier columns over Q; every free
column mod p is then free over Q, and since the rows are integer, rank
over Q is at least rank mod p for every p, so the two free sets are
equal.  The pivot columns and the kernel basis are therefore the unique
ones of the exact leading-column echelon form of M: the answer does not
depend on p.  Whether column ncols is free, and so whether the system is
feasible, is certified with the rest.

A caller that expects some rows to span the row space can pass their
indices as ``spanning`` (the constraint systems pass the rows of the
relations with x(1), x(-1) and x(-2), a hint measured to span on most
systems, not proved to); only those rows S are folded, and the exact
check still runs on every row of M.  A lifted vector that fails a row of
S takes the next prime, as above.  When every vector passes every row,
they are independent vectors of ker(M), one per free column of M_S mod
p, so rank_Q(M) <= rank_p(M_S) <= rank_Q(M_S) <= rank_Q(M): the ranks
are equal, ker(M) = ker(M_S), and the free columns and the answer are
those of M.  A vector that passes S but fails another row lies in
ker(M_S) and not in ker(M), so S does not span, and the system is solved
again with every row folded.

A caller can also pass ``order``, a permutation of the columns of A:
column order[k] is relabelled k as the rows are cleared, so the fold
takes its pivots in that order, and the certified answer of the
relabelled rows is mapped back over Q.  Column ncols keeps its place.
The natural answer depends only on ker(M): the vector of free column f
is the only vector of ker(M) that is 1 at f, 0 at the other free columns
and 0 right of f.  The relabelled answer, un-permuted, is a certified
basis of ker(M) (above).  So its reduced trailing-column echelon form
(each vector 1 at its largest nonzero column and 0 at the other such
columns) is exactly the natural kernel basis, (x, 1) included: the
answer does not depend on the order.  Feasibility is read before the
map, since whether column ncols is free does not depend on the order of
the columns left of it; an infeasible answer has nothing to map.  The
kernel has dimension at most 4 on the constraint systems, so the map
costs little next to the fold.

A prime that divides a minor deciding a pivot (one that divides a row's
lcm or its b can) is unlucky: it sees a free column that is a pivot over
Q, whose vector cannot pass the exact check, so it is one failed attempt.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import isqrt, lcm

from .rationals import clear_denominators

# Exponents e of the Mersenne primes 2^e - 1 (OEIS A000043), each at least
# 1.7 times the last, so that ten attempts lift entries of up to about
# 43 000 bits.
_EXPONENTS = (61, 127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fold(rows, p):
    """Leading-column echelon fold mod p of integer rows from _exact_rows.

    Returns pivots, which maps each leading column to the tail of its
    monic pivot row: the (col, coeff) pairs after the leading 1.  Each
    input row is reduced mod p only when it is folded, so no second copy
    of the system is held.  The columns of the working row are kept in a
    heap, so the leading column is popped rather than searched for.
    """
    pivots = {}
    for pairs in rows:
        row = {c: r for c, v in pairs if (r := v % p)}
        # Entries are reduced mod p only when they lead or the row becomes
        # a pivot row, so an entry that cancels is dropped when it leads.
        # heap holds each key of row once: a column is pushed only when a
        # pivot tail first creates it, and leaves both when it leads.
        heap = sorted(row)
        get = row.get
        while heap:
            lead = heappop(heap)
            factor = row.pop(lead) % p
            if not factor:
                continue
            tail = pivots.get(lead)
            if tail is None:
                inv = pow(factor, -1, p)
                pivots[lead] = [(c, r) for c, v in row.items()
                                if (r := v * inv % p)]
                break
            for c, v in tail:
                old = get(c)
                if old is None:
                    row[c] = -factor * v
                    heappush(heap, c)
                else:
                    row[c] = old - factor * v
    return pivots


def _back_substitute(pivots, order, v, p):
    """Fill the pivot entries of v (free entries already set) mod p."""
    for col in order:
        acc = 0
        for c, coeff in pivots[col]:
            value = v[c]
            if value:
                acc -= coeff * value
        v[col] = acc % p
    return v


def _reconstruct(r, m, bound):
    """Wang's a/b with a = b r (mod m) and |a|, b <= bound, or None."""
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


def _exact_rows(equations, ncols, position=None):
    """The rows of [A | -b], each cleared of denominators once.

    Each row is a list of (col, int) pairs; a nonzero right-hand side b is
    the entry -b in column ncols.  A row is scaled by the lcm of its own
    denominators (b included), so it keeps its kernel and every entry
    stays exact.  With a position list, column c < ncols is relabelled
    position[c] in the same pass.  A column outside range(ncols) raises
    ValueError, and a value that is not an int or a Fraction TypeError.
    """
    # One check on the union of the keys costs a fifth of one per row.
    cols = set().union(*[coeffs for coeffs, _ in equations])
    if cols and (min(cols) < 0 or max(cols) >= ncols):
        raise ValueError("columns must lie in range(%d)" % ncols)
    out = []
    try:
        for coeffs, rhs in equations:
            den = lcm(rhs.denominator,
                      *[v.denominator for v in coeffs.values()])
            pairs = [(c if position is None else position[c],
                      v.numerator * (den // v.denominator))
                     for c, v in coeffs.items()]
            if rhs:
                pairs.append(
                    (ncols, -rhs.numerator * (den // rhs.denominator))
                )
            out.append(pairs)
    except AttributeError:
        # A float has no denominator; one handler keeps valid rows free
        # of a per-coefficient type check.
        raise TypeError(
            "coefficients and right-hand sides must be ints or Fractions"
        ) from None
    return out


def _satisfies(rows, ints):
    """Exact check that every integer row from _exact_rows is 0 on ints."""
    for pairs in rows:
        acc = 0
        for c, coeff in pairs:
            acc += coeff * ints[c]
        if acc:
            return False
    return True


def _image(rows, width, p):
    """The kernel mod p: (targets, residues).

    targets holds (f, cols) for each free column f (the vector is 1 at f
    and has entries at the pivots cols left of f); residues holds the
    matching vectors mod p.  The echelon basis is dropped on return, so
    two of them are never held at once.
    """
    pivots = _fold(rows, p)
    order = sorted(pivots, reverse=True)
    targets = [
        (f, [col for col in order if col < f])
        for f in range(width)
        if f not in pivots
    ]
    residues = []
    for f, cols in targets:
        v = [0] * width
        v[f] = 1
        residues.append(_back_substitute(pivots, cols, v, p))
    return targets, residues


def _kernel(rows, width, spanning=None):
    """The certified kernel basis of integer rows with width columns."""
    if spanning is None:
        folded, others = rows, ()
    else:
        chosen = set(spanning)
        folded = [rows[i] for i in spanning]
        # An empty row holds for every vector.
        others = [row for i, row in enumerate(rows)
                  if i not in chosen and row]
    for e in _EXPONENTS:
        p = 2**e - 1
        lifted = []
        for (f, cols), res in zip(*_image(folded, width, p)):
            vec = [_ZERO] * width
            vec[f] = _ONE
            if not _lift(res, cols, p, vec):
                break
            ints = clear_denominators(vec)[0]
            if not _satisfies(folded, ints):
                break
            if not _satisfies(others, ints):
                # ker(M_S) is larger than ker(M): the hint does not span,
                # so fold every row.
                return _kernel(rows, width)
            lifted.append(vec)
        else:
            return lifted
    raise ArithmeticError(
        "no prime up to 2^%d - 1 certifies the kernel" % _EXPONENTS[-1]
    )


def _in_natural_order(kernel, order):
    """The kernel basis of rows relabelled by order, in the natural columns.

    Each vector is un-permuted (a column past order keeps its place) and
    the basis is brought to reduced trailing-column echelon form: each
    vector 1 at its largest nonzero column f and 0 at the other such
    columns, ascending in f.  This is the basis of the natural order (see
    the module docstring).
    """

    def natural(vec):
        out = vec[:]
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
            num, den = scale.numerator, scale.denominator
            vec = [
                Fraction(x.numerator * den, x.denominator * num) if x else x
                for x in vec
            ]
        for by in echelon.values():
            reduce(by, f, vec)
        echelon[f] = vec
    return [echelon[f] for f in sorted(echelon)]


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
    solve with every row folded, never a different answer.  An index that
    is not an int in range(len(equations)) raises ValueError.

    order, when given, is a permutation of range(ncols) that lists the
    columns in elimination order: the fold runs on column order[k]
    relabelled k, and the certified answer is mapped back to the natural
    columns.  The answer is the same with or without it (see the module
    docstring); only the work of the fold changes.  Anything but a
    permutation raises ValueError, and so does a column key outside
    range(ncols).  A coefficient or right-hand side that is not an int or
    a Fraction raises TypeError.
    """
    if spanning is not None:
        spanning = tuple(spanning)
        if not all(isinstance(i, int) and 0 <= i < len(equations)
                   for i in spanning):
            raise ValueError(
                "spanning must list row indices in range(%d)" % len(equations)
            )
    position = None
    if order is not None:
        order = tuple(order)
        if (not all(isinstance(c, int) for c in order)
                or sorted(order) != list(range(ncols))):
            raise ValueError(
                "order must be a permutation of range(%d)" % ncols
            )
        position = [0] * ncols
        for k, c in enumerate(order):
            position[c] = k
    # The column of -b is left out when every b is 0.
    width = ncols + any(rhs for _, rhs in equations)
    kernel = _kernel(_exact_rows(equations, ncols, position), width, spanning)
    # A u = b is feasible exactly when column ncols of [A | -b] is free;
    # its vector (x, 1) is then the last one, the only one nonzero there.
    if width > ncols and not (kernel and kernel[-1][ncols]):
        return False, None, []
    if order is not None:
        kernel = _in_natural_order(kernel, order)
    particular = kernel.pop()[:ncols] if width > ncols else [_ZERO] * ncols
    return True, particular, [vec[:ncols] for vec in kernel]


def nullspace(rows, ncols):
    """Kernel basis of dense rows: one vector per free column, ascending."""
    # _kernel rather than solve_sparse, so that wrapping either public name
    # (as perfbench's layer tracer does) times the two callers apart.
    equations = [({c: v for c, v in enumerate(row) if v}, 0) for row in rows]
    return _kernel(_exact_rows(equations, ncols), ncols)
