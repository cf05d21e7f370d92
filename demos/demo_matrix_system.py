"""The same question one level up: two-dimensional weight spaces.

Now the x-action is a known 2x2 matrix family A(i, n) and the unknown
I-action is a matrix F(i, n) per generator and weight.  Three x-actions
are built in:

  decomposable  diag(alpha + n + i beta1, alpha + n + i beta2)
  ext_a         upper triangular, polynomial corner
  ext_b         upper triangular, corner in closed form: with d = alpha + n,
                s = sign(i) and m = |i|, it is the sum over 0 < k < m of
                s k (m - k) / ((d + s k)(d + i)), the action the x-bracket
                forces from its values at |i| <= 2

All three satisfy the x-bracket exactly (the builder checks).
"""

from fractions import Fraction as F

from w22 import (
    build_matrix_system,
    check_quadratic,
    make_x_matrices,
    solve_linear,
)

print("== the built-in x-actions at (i, n) = (3, 0), alpha = 1/2 ==")
for ext_type, betas in (
    ("decomposable", (F(1), F(2))),
    ("ext_a", (F(0), F(0))),
    ("ext_b", (F(0), F(0))),
):
    a_mat = make_x_matrices(F(1, 2), betas, ext_type)
    print("%-14s A(3,0) = %s" % (ext_type, a_mat(3, 0)))


def classify(ext_type, window=4, normalized=True):
    system = build_matrix_system(F(1, 3), (F(0), F(0)), ext_type, window, normalized)
    solution = solve_linear(system)
    if not solution.feasible:
        print("%-14s normalized=%-5s: infeasible" % (ext_type, normalized))
        return
    survivors = check_quadratic(system, solution)
    print(
        "%-14s normalized=%-5s: dim %d, survivors %r"
        % (ext_type, normalized, solution.dimension, survivors)
    )
    return solution, survivors


print()
print("== classification at alpha = 1/3, window 4 ==")
result = classify("decomposable")

# The decomposable linear space is (alpha + n) D for an arbitrary constant
# matrix D (dimension 4).  [I, I] = 0 keeps only the two off-diagonal
# sectors: D must be nilpotent, so up to conjugation the I-action is
# either zero or the square-zero corner (alpha + n) E_{12}.
solution, survivors = result
for k in survivors:
    entries = {name: str(v) for name, v in solution.basis[k].items() if v and name != "C1"}
    sector = sorted({name.split(")[")[1] for name in entries})
    print("  surviving ray %d lives in entry sector [%s]" % (k, sector[0].rstrip("]")))

# Both indecomposable x-actions refuse the natural normalization of the
# corner entry outright: the linear system is already contradictory.
print()
classify("ext_a")
classify("ext_b")

# Dropping the normalization shows what little survives: a 2-dimensional
# space whose quadratic-consistent line is again (alpha + n) E_{12}.
print()
classify("ext_a", normalized=False)
solution, survivors = classify("ext_b", normalized=False) or (None, None)
if solution is not None:
    ray = solution.basis[survivors[0]]
    nonzero = {n: str(v) for n, v in ray.items() if v and n != "C1"}
    print("  ext_b surviving ray, first entries:", dict(sorted(nonzero.items())[:4]))
