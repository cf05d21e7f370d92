"""Intermediate-series weight modules with trivial I-action.

Three families over the index lattice Z, each with one-dimensional weight
spaces spanned by v_i and with I(n), C, C1 acting as zero:

  Aab(a, b):  x(m) v_i = (a + i + b m) v_{m+i}
  Aa(a):      x(m) v_i = (i + m) v_{m+i}   (i != 0),
              x(m) v_0 = m (m + a) v_m
  Ba(a):      x(m) v_i = i v_{m+i}         (i != -m),
              x(m) v_{-m} = -m (m + a) v_0

A ModuleSpec may mask an index set, of ints; masked indices are excluded
from the module (sources give zero, flows into masked targets are
dropped).
``coefficient`` alone holds the x-action and applies the mask; ``act``
and ``bracket_compatibility_check`` read the module only through it.  The
simple subquotient of Aab(0, 1) -- everything off the v_0 line -- is the
masked table returned by ``simple_subquotient``.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .liecore import X_KIND, pair_bracket, x
from .rationals import check_int, clear_denominators, clear_table, rat, rat_str

FAMILIES = ("Aab", "Aa", "Ba")


@dataclass(frozen=True)
class ModuleSpec:
    family: str
    a: Fraction
    b: Fraction | None = None
    masked: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r (want one of %s)" % (self.family, ", ".join(FAMILIES)))
        object.__setattr__(self, "a", rat(self.a))
        if self.family == "Aab":
            if self.b is None:
                raise ValueError("family Aab needs both a and b")
            object.__setattr__(self, "b", rat(self.b))
        elif self.b is not None:
            raise ValueError("family %s takes no b parameter" % self.family)
        masked = frozenset(self.masked)
        for i in masked:
            if not isinstance(i, int):
                raise ValueError("mask entries must be ints, got %r" % (i,))
        object.__setattr__(self, "masked", masked)


def simple_subquotient():
    """The simple subquotient of Aab(0, 1): indices != 0, same action."""
    return ModuleSpec("Aab", 0, 1, masked=frozenset([0]))


def coefficient(spec, m, i):
    """Scalar in x(m) v_i = coefficient * v_{m+i}."""
    if i in spec.masked or (m + i) in spec.masked:
        return Fraction(0)
    if spec.family == "Aab":
        return spec.a + i + spec.b * m
    if spec.family == "Aa":
        if i != 0:
            return Fraction(i + m)
        return Fraction(m) * (m + spec.a)
    # Ba
    if i != -m:
        return Fraction(i)
    return -Fraction(m) * (m + spec.a)


def act(spec, gen, vec):
    """Apply one generator to an indexed vector {index: coeff}.

    I(n), C and C1 act as zero on every family.
    """
    if isinstance(gen, int):
        raise TypeError("gen must be a BasisElement; index maps are the vectors")
    if gen.kind != "X":
        return {}
    m = gen.index
    return {m + i: c for i, v in vec.items() if (c := coefficient(spec, m, i) * v)}


def bracket_compatibility_check(spec, window):
    """Check g(h v_i) - h(g v_i) = [g,h] v_i on the window, exactly.

    Runs over the x-generator pairs with |index| <= window and all seeds
    |i| <= window.  I(n), C and C1 act as zero and [x, I] lies in the span
    of I and C1, so every pair with a non-x side compares 0 with 0.  Both
    sides are multiples of the one basis vector v_{i + deg g + deg h}, so
    each check compares two scalars built from ``coefficient`` and the
    ``pair_bracket`` table.  Returns violation triples (g, h, i); empty
    means the table is a Lie module on the window.

    The check runs on integers, cleared through ``rationals``.  The scalars
    s(m, i) of x(m) v_i that the comparisons read are tabled once, as
    S(m, i) = D s(m, i) with D the lcm of their denominators
    (``clear_denominators``).  The x-terms c x(b) of the brackets form one
    table that ``clear_table`` turns into integers e = E c over the lcm E
    of its denominators (central terms act as 0).  With g = x(dg) and
    h = x(dh) the comparison

        s(dg, i+dh) s(dh, i) - s(dh, i+dg) s(dg, i) = sum c s(b, i)

    multiplied through by D^2 E reads

        E (S(dg, i+dh) S(dh, i) - S(dh, i+dg) S(dg, i)) = D sum e S(b, i),

    and as D^2 E != 0 the two decide the same.
    """
    check_int(window, 1, "window")
    near = range(-window, window + 1)
    far = range(-2 * window, 2 * window + 1)
    keys = [
        (m, i) for m in far for i in far if abs(m) <= window or abs(i) <= window
    ]
    ints, den = clear_denominators([coefficient(spec, m, i) for m, i in keys])
    s = dict(zip(keys, ints))
    xterms, xden = clear_table({
        (dg, dh): {
            b.index: c for b, c in pair_bracket(x(dg), x(dh)).terms.items()
            if b.kind == X_KIND
        }
        for dg in near
        for dh in near
    })
    violations = []
    for dg in near:
        for dh in near:
            terms = xterms[dg, dh]
            for i in near:
                lhs = s[dg, i + dh] * s[dh, i] - s[dh, i + dg] * s[dg, i]
                rhs = sum(c * s[n, i] for n, c in terms)
                if xden * lhs != den * rhs:
                    violations.append((x(dg), x(dh), i))
    return violations


@dataclass
class ProbeReport:
    spec: ModuleSpec
    window: int
    verdict: str
    proper_invariant_sets: list  # sorted index lists, distinct proper closures

    def to_json(self):
        return {
            "family": self.spec.family,
            "a": rat_str(self.spec.a),
            "b": None if self.spec.b is None else rat_str(self.spec.b),
            "window": self.window,
            "verdict": self.verdict,
            "candidate_submodules": [list(s) for s in self.proper_invariant_sets],
        }


def simplicity_probe(spec, window):
    """Reachability of every windowed seed under windowed generators.

    From v_i the generators x(m), |m| <= window, reach v_{i+m} whenever the
    action coefficient is nonzero and |i+m| <= window.  If every seed
    reaches the whole window the verdict is
    "no-proper-invariant-window-subspace"; otherwise the distinct proper
    closures are reported as candidate submodules.  Window truncation can
    only shrink closures, so a "candidate-submodule" verdict is a hint,
    not a proof of reducibility.
    """
    check_int(window, 1, "window")
    indices = [i for i in range(-window, window + 1) if i not in spec.masked]
    index_set = set(indices)
    reach = {}
    for seed in indices:
        seen = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            for m in range(-window, window + 1):
                j = cur + m
                if j in seen or j not in index_set:
                    continue
                if coefficient(spec, m, cur):
                    seen.add(j)
                    frontier.append(j)
        reach[seed] = sorted(seen)
    proper = []
    for seed in indices:
        if len(reach[seed]) < len(indices) and reach[seed] not in proper:
            proper.append(reach[seed])
    verdict = (
        "no-proper-invariant-window-subspace" if not proper else "candidate-submodule"
    )
    return ProbeReport(
        spec=spec,
        window=window,
        verdict=verdict,
        proper_invariant_sets=proper,
    )


def action_table_rows(spec, window):
    """Action-table rows (generator kind, generator index, source, coeff).

    Covers x-generators with |m| <= window on sources |i| <= window; the
    I-rows are omitted since every I(n) acts as zero.  Rows with zero
    coefficient are kept so the table shape is predictable.
    """
    check_int(window, 1, "window")
    rows = []
    for m in range(-window, window + 1):
        for i in range(-window, window + 1):
            if i in spec.masked:
                continue
            rows.append(("X", m, i, coefficient(spec, m, i)))
    return rows
