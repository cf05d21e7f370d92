"""Can I(m) act nontrivially on a module with one-dimensional weight spaces?

Fix the x-action x(n) v_t = (a + t + b n) v_{n+t} and make the I-action an
unknown, I(m) v_t = f(m, t) v_{m+t}.  The mixed bracket gives linear
equations in the f values and the central value C1; requiring [I, I] = 0
adds quadratics.  This script solves that system on a finite window and
shows that the quadratics kill everything the linear part allows.
"""

import time
from fractions import Fraction as F

from w22 import (
    build_f_system,
    c1_is_forced_zero,
    check_quadratic,
    f_family_assignment,
    solve_linear,
)


def classify(a, b, window):
    started = time.perf_counter()
    system = build_f_system(a, b, window)
    solution = solve_linear(system)
    survivors = check_quadratic(system, solution)
    elapsed = time.perf_counter() - started
    print(
        "a=%-4s b=%-4s window=%d: %d unknowns, %d equations -> dim %d, "
        "C1 forced zero: %s, quadratic survivors: %d  (%.2fs)"
        % (
            a,
            b,
            window,
            len(system.unknowns),
            len(system.equations),
            solution.dimension,
            c1_is_forced_zero(solution),
            len(survivors),
            elapsed,
        )
    )
    return system, solution


print("== generic parameters ==")
system, solution = classify(F(1, 2), F(1, 3), 5)

# The one linear ray is the expected family f(m, t) = a + b m + t (up to
# scale), which is I acting as a multiple of x.
ray = solution.basis[0]
family = f_family_assignment(F(1, 2), F(1, 3), 5)
scale = ray["f(1,0)"] / family["f(1,0)"]
print(
    "linear ray equals scale * (a + b m + t):",
    all(ray.get(k, F(0)) == scale * family.get(k, F(0)) for k in system.unknowns),
)

# ...but a multiple of x cannot commute with itself unless it is zero,
# which is exactly what the quadratic check reports: zero survivors, so
# the only consistent I-action on these modules is I = 0.
residuals = system.evaluate_quadratics(family)
print("family violates [I,I]=0:", any(r != 0 for r in residuals))

print()
print("== degenerate parameter lines ==")
for a, b in ((F(0), F(1)), (F(0), F(0))):
    classify(a, b, 5)
# (0,1): the ray is f(m,t) = c (m + t); (0,0): the ray is f(m,t) = c t.
# Both are again multiples of the x-action pattern and both die on the
# quadratics.

print()
print("== window growth ==")
for window in (3, 4, 5, 6):
    classify(F(1, 2), F(1, 3), window)
# The distance from a dimension-1 answer never grows with the window; a
# larger window only adds equations.
