"""Exact scalars and the integers that index everything else.

Every coefficient in this package is a ``fractions.Fraction``.  Two text
forms are accepted, each with an optional leading minus, ASCII digits
only, and no sign ``+``, digit separator ``_``, decimal or exponent:
``n`` for an integer (``integer``), and ``p`` or ``p/q`` with q > 0 for a
rational (``rat``, printed back by ``rat_str``).  Both readers strip
surrounding whitespace first, so ``" 1/2 "`` reads as 1/2.

``check_int`` is the one bound check on an integer argument (a window, a
level): the value must be an int and at least a given least value.
``clear_denominators`` moves a list of rationals to integers, and
``clear_table`` a table of them, over the lcm of their denominators.
The package clears rationals through these two: for the exact checks
that run in integer arithmetic, the integer rows of the constraint
systems, the one denominator of a PBW actor and the rows that a caller
passes the solver as ``Fraction``s.
"""

import re
from fractions import Fraction
from math import lcm

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def integer(text):
    """Parse ``n`` into an int; reject anything else."""
    s = str(text).strip()
    if not _INTEGER_RE.fullmatch(s):
        raise ValueError("not an integer: %r (expected n)" % (text,))
    return int(s)


def check_int(value, least, name):
    """Refuse a value that is not an int, or is below least, with ValueError
    naming it (``range`` would raise TypeError on the one, and may quietly
    run empty on the other)."""
    if not isinstance(value, int):
        raise ValueError("%s must be an int, got %r" % (name, value))
    if value < least:
        raise ValueError(
            "%s must be at least %d, got %d" % (name, least, value)
        )


def rat(text):
    """Parse ``p`` or ``p/q`` into a Fraction; reject anything else."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError("not a rational: %r (expected p or p/q)" % (text,))
    return Fraction(s)


def rat_str(value):
    """Render a Fraction as ``p`` or ``p/q`` (lowest terms, positive q)."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def clear_denominators(values):
    """values as (ints, den) with values[i] == ints[i] / den.

    den is the lcm of the denominators (1 when there are none); values is
    a sequence of ints or Fractions, read twice.
    """
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def clear_table(table):
    """table as (cleared, den) with table[key][term] == int / den for every
    (term, int) pair of cleared[key].

    table maps each key to a {term: rational} dict; cleared maps it to the
    list of (term, int) pairs in the dict's order, and den is the lcm of
    every denominator in the table (1 when there are none).
    """
    ints, den = clear_denominators(
        [v for terms in table.values() for v in terms.values()]
    )
    it = iter(ints)
    cleared = {
        key: [(term, next(it)) for term in terms]
        for key, terms in table.items()
    }
    return cleared, den
