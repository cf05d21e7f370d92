"""Exact scalars.

Every coefficient in this package is a ``fractions.Fraction``.  ``rat``
and ``rat_str`` pin down the single accepted text form: ``p`` or ``p/q``
with an optional leading minus and no decimals or exponents; ``rat``
strips surrounding whitespace first, so ``" 1/2 "`` reads as 1/2.
``clear_denominators`` moves a list of rationals to integers for the exact
checks that run in integer arithmetic.
"""

import re
from fractions import Fraction
from math import lcm

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def rat(text):
    """Parse ``p`` or ``p/q`` into a Fraction; reject anything else."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
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
