"""Exact linear algebra: one certified modular kernel engine.

``solve_sparse`` solves A u = b for a system given as rows
(col -> coeff dict, rhs) and returns (feasible, particular, kernel_basis)
with list-of-Fraction vectors.  ``nullspace`` returns the kernel basis of
rows given as the same col -> coeff dicts.  Both read their rows through
one reader and one routine, which computes only kernels: A u = b
is solved as the kernel of M = [A | -b], the matrix A with -b as column
ncols.  The system is feasible exactly when column ncols of M is free;
its kernel vector is then (x, 1), and x is the particular solution, 0 on
the free columns of A.  The other kernel vectors of M are 0 at column
ncols and form the kernel basis of A.  When every rhs is 0 the column of
-b is left out, since its kernel vector would be (0, 1).  No elimination
runs over Fraction:

1. A system whose values are all ints (b included) is read in place, as
   the caller wrote it: every builder of the package writes such rows
   (the constraint systems and the Verma joint kernels), and they are
   neither copied nor relabelled on entry.  The clearing path is left
   for a caller that passes Fractions: such a system is cleared once,
   on entry, by ``rationals.clear_denominators``, each row scaled by the
   lcm of its own denominators, which keeps its kernel.  The integer
   rows to fold (all of them, or a hint, below) are folded, in input
   order, into an echelon basis keyed by leading column (the smallest
   column left in the reduced row), over GF(p) on plain ints.  A row is reduced mod p, its columns relabelled
   and b moved into column ncols as -b, only as it is folded.  p runs up
   a ladder of Mersenne primes 2^e - 1, e = 61, 127, 521, ..., 86243;
   each attempt starts from scratch with one prime, and no residues are
   combined.
2. Back-substitution mod p gives one kernel vector per free column f (1
   at f, 0 at the other free columns).
3. The residues are lifted by Wang's rational reconstruction (Wang,
   SYMSAC 1981; Monagan, ISSAC 2004), which reaches numerators and
   denominators up to sqrt(p / 2).
4. The lift is returned only after an exact check: M k = 0 for every
   kernel vector, (x, 1) included.  A vector with no lift, or one that
   fails a folded row, takes the next prime of the ladder; past the last
   one ArithmeticError is raised, never an unchecked answer.  The check
   reads the same integer rows as the fold, as they are: each lifted
   vector (x, t) is cleared once to ints over a common denominator and
   read back in the natural columns, and a row (A_i, b_i) holds when the
   integer dot product of A_i with x equals b_i t.

The check is a certificate, not a heuristic, whichever rows were folded.
Let M_F be the folded rows and suppose every vector passes every row of
M.  The lifted vector k of a free column f of M_F mod p has k[f] = 1
and is supported on f and the pivots left of f, so column f of M is a
combination of earlier columns over Q, and f is free in M over Q.  Since
the rows are integer, rank_Q(M) >= rank_Q(M_F) >= rank_p(M_F), so M has
no more free columns over Q than M_F has mod p: the two free sets are
equal, the three ranks too, and ker(M) = ker(M_F).  The pivot columns
and the kernel basis are therefore the unique ones of the exact
leading-column echelon form of M: the answer depends neither on p nor
on which rows were folded.  Whether column ncols is free, and so
whether the system is feasible, is certified with the rest.

A basis with a pivot in every column is certified by its rank alone.
The same inequality gives rank_Q(M) >= rank_p(M_F) = width, the number
of columns, so ker(M) = {0}: a homogeneous system has only the zero
solution, and a full-width [A | -b] is infeasible.  So the fold stops at
the row whose pivot fills the last column and draws no further row,
each of which would reduce to 0 mod p; the basis then has no free
column, and there is nothing to lift or check.  The stop runs only at
full rank: a prime at which the rank drops mod p never fills every
column, and folds and checks as before.

A caller that expects some rows to span the row space can pass their
indices as ``spanning`` (the constraint systems pass the x(1) rows with
j != 1, which are triangular, and the x(-1) and x(-2) rows that name a
block those leave free: a hint measured to span on most systems, not
proved to; see ``constraints._build``); only those rows are folded
first, and the exact check still runs on every row of M.  A vector that
passes the folded rows but fails another lies in ker(M_F) and not in
ker(M), so the hint does not span.  The fold then continues at the same
prime: the nonempty rows outside the hint join the hint's echelon basis,
which becomes one of every row, and the vectors it gives are checked on
every row again.
Each row is folded at most once per prime (a hint of full rank leaves
nothing to continue, above).

A caller can also pass ``order``, a permutation of the columns of A:
column order[k] is relabelled k as the rows are folded, so the fold
takes its pivots in that order, and the certified answer of the
relabelled rows is mapped back over Q.  Column ncols keeps its place.
The exact check reads each vector in the natural columns.
Without ``order`` the order is the identity, and the map leaves the
answer as it is.
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
from math import isqrt

from .rationals import check_int, clear_denominators

# Exponents e of the Mersenne primes 2^e - 1 (OEIS A000043), each at least
# 1.7 times the last, so that ten attempts lift entries of up to about
# 43 000 bits.
_EXPONENTS = (61, 127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243)
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _fold(rows, p, position, width, pivots=None):
    """Leading-column echelon fold mod p of the rows from _exact_rows.

    Each row is read as the caller wrote it, a (col -> int dict, rhs)
    pair in the natural columns, and is reduced mod p only when it is
    folded: column c becomes column position[c], and a nonzero rhs b the
    entry -b in column len(position), the column of -b.  So no second
    copy of the system is held.  Returns pivots, which maps each leading
    column to the tail of its monic pivot row: the (col, coeff) pairs
    after the leading 1.  Given the pivots of earlier rows at the same p,
    the rows are folded into them, which are extended in place: the
    result is the one a single fold of the earlier rows followed by these
    would build.  The columns of the working row are kept in a heap, so
    the leading column is popped rather than searched for.

    width is the number of columns of the fold: len(position), plus 1
    when the column of -b is present.  The fold returns as soon as a new
    pivot makes the basis fill every column, and draws no further row:
    each later row would reduce to 0 mod p, so the pivots are those of a
    fold of every row.  A full basis is its own certificate (see the
    module docstring).
    """
    if pivots is None:
        pivots = {}
    for coeffs, rhs in rows:
        row = {position[c]: r for c, v in coeffs.items() if (r := v % p)}
        if rhs and (r := -rhs % p):
            row[len(position)] = r
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
                if len(pivots) == width:
                    return pivots
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

    vec holds 0 at cols, and a residue of 0 lifts to 0, so it is skipped.
    Returns False when an entry has no reconstruction within the bound.
    """
    bound = isqrt(modulus // 2)
    for i in cols:
        residue = residues[i]
        if not residue:
            continue
        value = _reconstruct(residue, modulus, bound)
        if value is None:
            return False
        vec[i] = value
    return True


def _exact_rows(equations, ncols):
    """The rows of [A | -b] as the fold and the exact check read them.

    Each row is a (col -> int dict, int rhs) pair in the natural columns.
    When every coefficient and right-hand side is an int (bool included),
    as every builder of the package writes them, equations are returned
    as they are: no row is copied.  Otherwise, as for a caller that
    passes Fractions, each row is cleared of denominators once by
    ``clear_denominators``, into a new pair: it is scaled by the lcm of
    its denominators (rhs included), so it keeps its kernel and every
    entry stays exact, and a row whose lcm is 1 keeps its values, read
    as ints (a Fraction k/1 becomes k).  A row that is not a col -> coeff
    dict raises TypeError, a column outside range(ncols) ValueError, and
    a value that is not an int or a Fraction TypeError.
    """
    # One pass over each row's items checks its columns and its types.
    integral = True
    for coeffs, rhs in equations:
        try:
            items = coeffs.items()
        except AttributeError:
            raise TypeError("each row must be a col -> coeff dict") from None
        for c, v in items:
            if not 0 <= c < ncols:
                raise ValueError("columns must lie in range(%d)" % ncols)
            integral = integral and isinstance(v, int)
        integral = integral and isinstance(rhs, int)
    if integral:
        return equations
    rows = []
    try:
        for coeffs, b in equations:
            (rhs, *ints), _ = clear_denominators([b, *coeffs.values()])
            rows.append((dict(zip(coeffs, ints)), rhs))
    except AttributeError:
        # A float has no denominator; one handler keeps valid rows free
        # of a per-coefficient type check.
        raise TypeError(
            "coefficients and right-hand sides must be ints or Fractions"
        ) from None
    return rows


def _satisfies(rows, ints):
    """Exact check that every row from _exact_rows holds on ints.

    ints is a vector (x, t) of [A | -b] cleared to ints, x in the natural
    columns: a row (coeffs, b) holds when coeffs . x = b t.
    """
    for coeffs, rhs in rows:
        acc = 0
        for c, coeff in coeffs.items():
            acc += coeff * ints[c]
        if acc != rhs * ints[-1]:
            return False
    return True


def _lifted(pivots, position, width, p, rows):
    """The kernel vectors of an echelon basis mod p, lifted over Q.

    Returns a (vec, ints) pair for each free column f, ascending: vec is 1
    at f and has entries at the pivots left of f, in the columns of the
    fold, and ints is vec cleared to ints and read back as (x, t) in the
    natural columns.  Returns None as soon as an entry has no lift within
    the bound or a vector fails one of rows, which are checked exactly.
    """
    order = sorted(pivots, reverse=True)
    out = []
    for f in range(width):
        if f in pivots:
            continue
        cols = [col for col in order if col < f]
        residues = [0] * width
        residues[f] = 1
        _back_substitute(pivots, cols, residues, p)
        vec = [_ZERO] * width
        vec[f] = _ONE
        if not _lift(residues, cols, p, vec):
            return None
        cleared = clear_denominators(vec)[0]
        # The last entry is t, at the column of -b; without that column
        # every b is 0, and the last entry only meets b = 0.
        ints = [cleared[k] for k in position] + [cleared[-1]]
        if not _satisfies(rows, ints):
            return None
        out.append((vec, ints))
    return out


def _attempt(folded, rest, position, width, p):
    """The certified kernel from the prime p, or None if p gives none.

    folded are the rows to fold and rest the nonempty rows outside them.
    A vector that holds on folded and fails a row of rest shows that
    folded do not span (see the module docstring), so rest joins the
    echelon basis of folded at the same p.  The basis is local, so that
    the next prime never folds while this one is held.
    """
    pivots = _fold(folded, p, position, width)
    lifted = _lifted(pivots, position, width, p, folded)
    if lifted and not all(_satisfies(rest, ints) for _, ints in lifted):
        _fold(rest, p, position, width, pivots)
        lifted = _lifted(pivots, position, width, p, folded + rest)
    return None if lifted is None else [vec for vec, _ in lifted]


def _kernel(rows, position, width, spanning=None):
    """The certified kernel basis of the rows from _exact_rows, folded in
    the columns of position, with width columns."""
    if spanning is None:
        folded, rest = rows, []
    else:
        chosen = set(spanning)
        folded = [rows[i] for i in spanning]
        # An empty row holds for every vector.
        rest = [row for i, row in enumerate(rows)
                if i not in chosen and any(row)]
    for e in _EXPONENTS:
        kernel = _attempt(folded, rest, position, width, 2**e - 1)
        if kernel is not None:
            return kernel
    raise ArithmeticError(
        "no prime up to 2^%d - 1 certifies the kernel" % _EXPONENTS[-1]
    )


def _in_natural_order(kernel, position):
    """The kernel basis of rows folded in the columns of position, in the
    natural columns.

    Each vector is read back through position (a column past it keeps its
    place) and the basis is brought to reduced trailing-column echelon
    form: each vector 1 at its largest nonzero column f and 0 at the other
    such columns, ascending in f.  This is the basis of the natural order
    (see the module docstring).
    """

    def reduce(vec, f, by):
        scale = vec[f]
        if scale:
            for i, x in enumerate(by):
                if x:
                    vec[i] -= scale * x

    ncols = len(position)
    echelon = {}
    for vec in ([v[k] for k in position] + v[ncols:] for v in kernel):
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

    equations is any iterable of rows, read once; a list is read in
    place.  Coefficients and right-hand sides are ints or Fractions.
    Returns (feasible, particular, kernel_basis); particular is None and
    the basis empty when the system is infeasible.  The particular solution
    is 0 on the free columns, and the kernel vector of free column f is 1
    at f and 0 on the other free columns, so the answer is unique and
    fully deterministic.  Every returned vector has passed an exact check
    against every row (see the module docstring).

    spanning, when given, lists the indices of rows expected to span the
    row space; only those rows are folded first.  When they fall short,
    the rows outside them join the same echelon basis at the same prime,
    so a wrong hint costs the fold of the other rows, never a different
    answer.  An index that is not an int in range(len(equations)) raises
    ValueError.

    order, when given, is a permutation of range(ncols) that lists the
    columns in elimination order: the fold runs on column order[k]
    relabelled k, and the certified answer is mapped back to the natural
    columns.  Without it the order is the identity.  The answer is the
    same in every order (see the module docstring); only the work of the
    fold changes.  Anything but a permutation raises ValueError, and so
    does a column key outside range(ncols), and an ncols that is not an
    int or is negative.  A coefficient or right-hand side that is not an
    int or a Fraction raises TypeError.
    """
    check_int(ncols, 0, "ncols")
    # Read once: an iterator would be used up by its first reader.
    if not isinstance(equations, list):
        equations = list(equations)
    if spanning is not None:
        spanning = tuple(spanning)
        if not all(isinstance(i, int) and 0 <= i < len(equations)
                   for i in spanning):
            raise ValueError(
                "spanning must list row indices in range(%d)" % len(equations)
            )
    order = tuple(range(ncols) if order is None else order)
    if (not all(isinstance(c, int) for c in order)
            or sorted(order) != list(range(ncols))):
        raise ValueError("order must be a permutation of range(%d)" % ncols)
    position = [0] * ncols
    for k, c in enumerate(order):
        position[c] = k
    # The column of -b is left out when every b is 0.
    width = ncols + any(rhs for _, rhs in equations)
    kernel = _kernel(_exact_rows(equations, ncols), position, width, spanning)
    # A u = b is feasible exactly when column ncols of [A | -b] is free;
    # its vector (x, 1) is then the last one, the only one nonzero there.
    if width > ncols and not (kernel and kernel[-1][ncols]):
        return False, None, []
    kernel = _in_natural_order(kernel, position)
    particular = kernel.pop()[:ncols] if width > ncols else [_ZERO] * ncols
    return True, particular, [vec[:ncols] for vec in kernel]


def nullspace(rows, ncols):
    """Kernel basis of rows given as col -> coeff dicts.

    One vector per free column, ascending, read and certified as by
    ``solve_sparse`` with every right-hand side 0.  An ncols that is not
    an int, or is negative, raises ValueError.
    """
    check_int(ncols, 0, "ncols")
    # _kernel rather than solve_sparse, so that wrapping either public name
    # (as perfbench's layer tracer does) times the two callers apart.
    equations = [(row, 0) for row in rows]
    return _kernel(_exact_rows(equations, ncols), list(range(ncols)), ncols)
