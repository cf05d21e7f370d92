"""Verma modules: graded bases, raising-operator matrices, singular vectors.

The Verma module M(lambda, c, c0, c1) is spanned by PBW monomials in
x(-k) and I(-k), k >= 1, applied to the highest-weight vector v.  Level n
collects the monomials of total degree -n; its dimension is the number of
two-colored partitions of n.  A vector at level n >= 1 is singular when
every positive-index generator kills it.  Since [x(1), x(n)] = (n-1) x(n+1)
and [x(1), I(n)] = (n-1) I(n+1), the generators x(1), x(2), I(1), I(2)
generate the positive part, so it suffices to check gen(1) and gen(2) of
both kinds (gen(1) alone at level 1).

``find_singular`` computes joint kernels of the raising matrices with the
certified exact solver in ``linalg``, at every level up to the maximum.
``is_verma_irreducible`` stops at the first level with a nonzero kernel and
reports that evidence next to the closed-form root list
2 c0 - (m^2-1)/12 c1 = 0, flagging any disagreement between the two rather
than suppressing it.

The closed form is the Zhang-Dong criterion 2 h_W + (m^2-1)/12 c_W = 0
(Comm. Math. Phys. 2009, arXiv:0711.4624), stated for the usual
presentation with generators L_n, W_n and central charges c, c_W.  This
package's brackets are that presentation under the dictionary

    x(n) = -L_n,  I(n) = W_n,  C = c,  C1 = -c_W,

so on a highest-weight vector lambda = -h, c0 = h_W and c1 = -c_W.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .liecore import I, x
from .pbw import (
    HighestWeightActor,
    HighestWeightParams,
    monomial_key,
    monomial_to_json,
)
from .rationals import rat_str


def _partitions(n, largest=None):
    """Partitions of n as descending part tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _check_level(level, name="level"):
    """Refuse a level that is not an int, or is negative, with ValueError
    (``range`` would raise TypeError on the one, and find no level in the
    other)."""
    if not isinstance(level, int) or level < 0:
        raise ValueError(
            "%s must be a nonnegative int, got %r" % (name, level)
        )


def level_basis(n):
    """Ordered PBW monomial basis of level n (degree -n).

    A level that is not an int, or is negative, raises ValueError.
    """
    _check_level(n)
    return list(_level_basis(n))


@lru_cache(maxsize=None)
def _level_basis(n):
    """level_basis(n) as a tuple, built once per level."""
    monos = []
    for s in range(n + 1):
        for ipart in _partitions(s):
            ifactors = tuple(I(-k) for k in sorted(ipart, reverse=True))
            for xpart in _partitions(n - s):
                xfactors = tuple(x(-k) for k in sorted(xpart, reverse=True))
                monos.append(ifactors + xfactors)
    monos.sort(key=monomial_key)
    return tuple(monos)


def character_dims(max_n):
    """Level dimensions 0..max_n, by direct basis enumeration.

    A max_n that is not an int, or is negative, raises ValueError.
    """
    _check_level(max_n, "max_n")
    return [len(_level_basis(n)) for n in range(max_n + 1)]


@dataclass
class VermaVector:
    level: int
    coords: dict  # basis position -> Fraction

    def to_json(self):
        basis = _level_basis(self.level)
        return {
            "level": self.level,
            "coords": {
                str(pos): rat_str(self.coords[pos]) for pos in sorted(self.coords)
            },
            "monomials": [
                monomial_to_json(basis[pos]) for pos in sorted(self.coords)
            ],
        }


@dataclass
class SingularVectorReport:
    params: HighestWeightParams
    level: int
    vector: VermaVector

    def to_json(self):
        return {
            "params": self.params.to_json(),
            "level": self.level,
            "vector": self.vector.to_json(),
        }


def raising_matrix(k, n, params, gen_kind, actor=None):
    """Matrix of gen(+k) from level n to level n - k.

    Rows are indexed by the level n-k basis, columns by the level n basis,
    both in canonical monomial order.  gen_kind is "X" or "I".  A level n
    that is not an int, or is negative, raises ValueError.
    """
    _check_level(n)
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if gen_kind not in ("X", "I"):
        raise ValueError("gen_kind must be 'X' or 'I'")
    if actor is None:
        actor = HighestWeightActor(params)
    g = x(k) if gen_kind == "X" else I(k)
    source = _level_basis(n)
    target = _level_basis(n - k)
    target_pos = {mono: i for i, mono in enumerate(target)}
    matrix = [[Fraction(0)] * len(source) for _ in target]
    for col, mono in enumerate(source):
        image = actor.apply_generator(g, mono)
        for m2, coeff in image.items():
            matrix[target_pos[m2]][col] = coeff
    return matrix


def joint_kernel(params, level, actor=None):
    """Kernel of every raising operator at a level: gen(1), gen(2), both kinds.

    These generate the positive part (module docstring), so the kernel is
    the joint kernel of all gen(k), k = 1..level.  A level that is not an
    int, or is negative, raises ValueError.
    """
    _check_level(level)
    if actor is None:
        actor = HighestWeightActor(params)
    dim = len(_level_basis(level))
    rows = []
    for k in range(1, min(level, 2) + 1):
        for kind in ("I", "X"):
            rows.extend(raising_matrix(k, level, params, kind, actor=actor))
    return linalg.nullspace(rows, dim)


def _normalize_first_one(vec):
    for v in vec:
        if v:
            scale = 1 / v
            return [scale * u for u in vec]
    return vec


def _singular_reports(params, max_level):
    """The reports of ``find_singular`` in level order, each level built
    only when the next report is asked for.  A max_level that is not an
    int, or is negative, raises ValueError when the first report is asked
    for."""
    _check_level(max_level, "max_level")
    actor = HighestWeightActor(params)
    for level in range(1, max_level + 1):
        kernel = joint_kernel(params, level, actor=actor)
        if not kernel:
            continue
        vec = _normalize_first_one(kernel[0])
        coords = {i: v for i, v in enumerate(vec) if v}
        yield SingularVectorReport(
            params=params,
            level=level,
            vector=VermaVector(level=level, coords=coords),
        )


def find_singular(params, max_level):
    """One report per level in 1..max_level whose joint kernel is nonzero.

    Every level is searched.  The reported vector is the first kernel basis
    vector, rescaled so its first nonzero coordinate (in canonical monomial
    order) equals 1.  A max_level that is not an int, or is negative,
    raises ValueError; max_level 0 searches nothing.
    """
    return list(_singular_reports(params, max_level))


def criterion_value(m, c0, c1):
    """The closed-form reducibility expression 2 c0 - (m^2-1)/12 c1.

    This is 2 h_W + (m^2-1)/12 c_W at h_W = c0, c_W = -c1, the image of
    (c0, c1) under the dictionary in the module docstring.
    """
    return 2 * Fraction(c0) - Fraction(m * m - 1, 12) * Fraction(c1)


def criterion_roots(params, max_level):
    """The m in 1..max_level with 2 c0 - (m^2-1)/12 c1 = 0, ascending."""
    return [
        m
        for m in range(1, max_level + 1)
        if criterion_value(m, params.c0, params.c1) == 0
    ]


@dataclass
class IrreducibilityReport:
    params: HighestWeightParams
    max_level: int
    verdict: str
    witness: SingularVectorReport | None
    criterion_roots: list
    criterion_agrees: bool

    def to_json(self):
        out = {
            "criterion_roots": self.criterion_roots,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if not self.criterion_agrees:
            out["criterion_note"] = (
                "closed-form roots and kernel evidence disagree on this window"
            )
        return out


def is_verma_irreducible(params, max_level):
    """Kernel-based verdict next to the closed-form criterion roots.

    The verdict comes from the raising-matrix kernels, which are the
    ground truth for these conventions.  The search stops at the first
    level with a nonzero kernel, whose report is the witness; later
    levels are never built.  criterion_roots lists the m in 1..max_level
    with 2 c0 - (m^2-1)/12 c1 = 0; when the smallest root and the first
    kernel level differ the report says so.  A max_level that is not an
    int, or is negative, raises ValueError.
    """
    witness = next(_singular_reports(params, max_level), None)
    roots = criterion_roots(params, max_level)
    if witness is not None:
        verdict = "reducible"
        agrees = bool(roots) and roots[0] == witness.level
    else:
        verdict = "no-singular-vector-up-to-%d" % max_level
        agrees = not roots
    return IrreducibilityReport(
        params=params,
        max_level=max_level,
        verdict=verdict,
        witness=witness,
        criterion_roots=roots,
        criterion_agrees=agrees,
    )
