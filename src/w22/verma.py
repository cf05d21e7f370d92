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
certified exact solver in ``linalg``.  ``is_verma_irreducible`` reports the
kernel evidence next to the closed-form root list 2 c0 - (m^2-1)/12 c1 = 0
and flags any disagreement between the two rather than suppressing it.

The closed form is the Zhang-Dong criterion 2 h_W + (m^2-1)/12 c_W = 0
(Comm. Math. Phys. 2009, arXiv:0711.4624), stated for the usual
presentation with generators L_n, W_n and central charges c, c_W.  This
package's brackets are that presentation under the dictionary

    x(n) = -L_n,  I(n) = W_n,  C = c,  C1 = -c_W,

so on a highest-weight vector lambda = -h, c0 = h_W and c1 = -c_W.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .liecore import I, x
from .pbw import HighestWeightActor, HighestWeightParams, monomial_to_json
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


def level_basis(n):
    """Ordered PBW monomial basis of level n (degree -n)."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    monos = []
    for s in range(n + 1):
        for ipart in _partitions(s):
            ifactors = tuple(I(-k) for k in sorted(ipart, reverse=True))
            for xpart in _partitions(n - s):
                xfactors = tuple(x(-k) for k in sorted(xpart, reverse=True))
                monos.append(ifactors + xfactors)
    from .pbw import monomial_key

    monos.sort(key=monomial_key)
    return monos


def character_dims(max_n):
    """Level dimensions 0..max_n, by direct basis enumeration."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return [len(level_basis(n)) for n in range(max_n + 1)]


@dataclass
class VermaVector:
    level: int
    coords: dict  # basis position -> Fraction

    def to_json(self):
        basis = level_basis(self.level)
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
    both in canonical monomial order.  gen_kind is "X" or "I".
    """
    if k < 1 or k > n:
        raise ValueError("need 1 <= k <= n")
    if gen_kind not in ("X", "I"):
        raise ValueError("gen_kind must be 'X' or 'I'")
    if actor is None:
        actor = HighestWeightActor(params)
    g = x(k) if gen_kind == "X" else I(k)
    source = level_basis(n)
    target = level_basis(n - k)
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
    the joint kernel of all gen(k), k = 1..level.
    """
    if actor is None:
        actor = HighestWeightActor(params)
    dim = len(level_basis(level))
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


def find_singular(params, max_level):
    """One report per level in 1..max_level whose joint kernel is nonzero.

    The reported vector is the first kernel basis vector, rescaled so its
    first nonzero coordinate (in canonical monomial order) equals 1.
    """
    actor = HighestWeightActor(params)
    reports = []
    for level in range(1, max_level + 1):
        kernel = joint_kernel(params, level, actor=actor)
        if not kernel:
            continue
        vec = _normalize_first_one(kernel[0])
        coords = {i: v for i, v in enumerate(vec) if v}
        reports.append(
            SingularVectorReport(
                params=params,
                level=level,
                vector=VermaVector(level=level, coords=coords),
            )
        )
    return reports


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
    ground truth for these conventions.  criterion_roots lists the m in
    1..max_level with 2 c0 - (m^2-1)/12 c1 = 0; when the smallest root
    and the first kernel level differ the report says so.
    """
    reports = find_singular(params, max_level)
    roots = criterion_roots(params, max_level)
    if reports:
        verdict = "reducible"
        witness = reports[0]
        agrees = bool(roots) and roots[0] == witness.level
    else:
        verdict = "no-singular-vector-up-to-%d" % max_level
        witness = None
        agrees = not roots
    return IrreducibilityReport(
        params=params,
        max_level=max_level,
        verdict=verdict,
        witness=witness,
        criterion_roots=roots,
        criterion_agrees=agrees,
    )
