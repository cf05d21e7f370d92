"""Acceptance gate: one test per required capability, exact arithmetic only.

Every test prints a single line

    criterion NN <name>: PASS | FAIL (<detail>)

before asserting, so the suite emits one verdict line per criterion.
No floats and no tolerances appear anywhere: all comparisons are exact
Fraction or integer equality.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from w22 import (
    C,
    HighestWeightParams,
    LieElement,
    ModuleSpec,
    UEAElement,
    basis_window,
    bracket,
    bracket_compatibility_check,
    build_f_system,
    build_matrix_system,
    c1_is_forced_zero,
    character_dims,
    check_quadratic,
    criterion_roots,
    f_family_assignment,
    find_singular,
    jacobi_check,
    simplicity_probe,
    solve_linear,
    vir_embed,
)

from oracles import element_from_json


def F(a, b=1):
    return Fraction(a, b)


def _verdict(number, name, ok, detail=""):
    line = "criterion %02d %s: %s" % (number, name, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_structure_soundness():
    start = time.perf_counter()
    violations = jacobi_check(6)
    gens = basis_window(8)
    asymmetric = [
        (g, h)
        for g in gens
        for h in gens
        if bracket(g, h) + bracket(h, g) != LieElement({})
    ]
    elapsed = time.perf_counter() - start
    ok = violations == [] and asymmetric == [] and elapsed < 5.0
    _verdict(
        1,
        "structure-soundness",
        ok,
        "jacobi violations=%d, antisymmetry failures=%d, elapsed=%.2fs"
        % (len(violations), len(asymmetric), elapsed),
    )


def test_criterion_02_virasoro_closure():
    bad = []
    for e in (F(0), F(1), F(-1, 2)):
        for n in range(-6, 7):
            for m in range(-6, 7):
                got = bracket(vir_embed(e, n), vir_embed(e, m))
                want = (m - n) * vir_embed(e, n + m)
                if m == -n:
                    want = want + LieElement({C: F(n**3 - n, 12)})
                if got != want:
                    bad.append((e, n, m))
    _verdict(2, "virasoro-closure", bad == [], "mismatches at %r" % bad[:3])


def _two_colored_counts(max_n):
    """Independent counter: partitions with parts in two colors.

    Bounded-knapsack DP over the colored parts (k, color); deliberately a
    different algorithm from the library's generating-function recursion.
    """
    counts = [1] + [0] * max_n
    for k in range(1, max_n + 1):
        for _color in (0, 1):
            for total in range(k, max_n + 1):
                counts[total] += counts[total - k]
    return counts


def test_criterion_03_verma_dimensions():
    got = character_dims(8)
    want = _two_colored_counts(8)
    _verdict(
        3,
        "verma-dimensions",
        got == want,
        "character_dims(8)=%r, independent counter=%r" % (got, want),
    )


def test_criterion_04_reducible_direction():
    cases = [
        (1, HighestWeightParams(F(2), F(0), F(0), F(7))),
        (2, HighestWeightParams(F(3), F(1), F(1), F(8))),
        (3, HighestWeightParams(F(1), F(2), F(2), F(6))),
    ]
    details = []
    ok = True
    for m0, params in cases:
        roots = criterion_roots(params, 4)
        assert roots and roots[0] == m0  # the sample targets this root
        start = time.perf_counter()
        reports = find_singular(params, m0)
        elapsed = time.perf_counter() - start
        found = any(r.level == m0 for r in reports)
        in_time = elapsed < 10.0
        ok = ok and found and in_time
        details.append(
            "m0=%d c0=%s c1=%s: %s in %.2fs"
            % (
                m0,
                params.c0,
                params.c1,
                "kernel at level %d" % m0 if found else "no kernel",
                elapsed,
            )
        )
    _verdict(4, "reducible-direction", ok, "; ".join(details))


def test_criterion_05_irreducible_direction():
    rng = random.Random(2)

    def criterion_value(m, c0, c1):
        return 2 * c0 - F(m**2 - 1, 12) * c1

    samples = []
    while len(samples) < 50:
        c0 = F(rng.randint(-9, 9), rng.randint(1, 9))
        c1 = F(rng.randint(-9, 9), rng.randint(1, 9))
        if any(criterion_value(m, c0, c1) == 0 for m in range(1, 5)):
            continue
        lam = F(rng.randint(-5, 5), rng.randint(1, 5))
        c = F(rng.randint(-5, 5), rng.randint(1, 5))
        samples.append(HighestWeightParams(lam, c, c0, c1))
    offenders = [
        params for params in samples if find_singular(params, 4) != []
    ]
    _verdict(
        5,
        "irreducible-direction",
        offenders == [],
        "%d of 50 samples produced a singular vector: %r"
        % (len(offenders), offenders[:2]),
    )


def test_criterion_06_one_dimensional_weight_spaces():
    rng = random.Random(6)
    samples = []
    while len(samples) < 20:
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        if a == 0 or any(a + b * n == 0 for n in range(-5, 6)):
            continue
        samples.append((a, b))
    start = time.perf_counter()
    failures = []
    for a, b in samples:
        system = build_f_system(a, b, 5)
        solution = solve_linear(system)
        survivors = check_quadratic(system, solution)
        if not (
            solution.feasible
            and solution.dimension == 1
            and c1_is_forced_zero(solution)
            and survivors == []
        ):
            failures.append((a, b, solution.dimension, survivors))
    elapsed = time.perf_counter() - start
    ok = failures == [] and elapsed < 30.0
    _verdict(
        6,
        "one-dimensional-weight-spaces",
        ok,
        "failures=%r, elapsed=%.2fs" % (failures[:3], elapsed),
    )


def _matches_family(system, solution, family):
    """The solution space equals the line spanned by the family assignment."""
    if solution.dimension != 1:
        return False
    ray = solution.basis[0]
    anchor = next(
        (n for n in system.unknowns if family.get(n, F(0)) != 0), None
    )
    if anchor is None or ray.get(anchor, F(0)) == 0:
        return False
    scale = ray[anchor] / family[anchor]
    return all(
        ray.get(name, F(0)) == scale * family.get(name, F(0))
        for name in system.unknowns
    )


def test_criterion_07_degenerate_regimes():
    details = []
    ok = True
    for a, b in ((F(0), F(1)), (F(0), F(0))):
        system = build_f_system(a, b, 5)
        solution = solve_linear(system)
        family = f_family_assignment(a, b, 5)
        matches = _matches_family(system, solution, family)
        survivors = check_quadratic(system, solution)
        ok = ok and matches and survivors == []
        details.append(
            "(a,b)=(%s,%s): dim=%d family_match=%s survivors=%r"
            % (a, b, solution.dimension, matches, survivors)
        )
    _verdict(7, "degenerate-regimes", ok, "; ".join(details))


def test_criterion_08_two_dimensional_weight_spaces():
    alpha = F(1, 3)
    system = build_matrix_system(alpha, (F(0), F(0)), "decomposable", 4)
    solution = solve_linear(system)
    shape_ok = (
        solution.feasible
        and solution.dimension == 4
        and c1_is_forced_zero(solution)
    )
    # every basis ray (hence every solution) is (alpha + n) times a
    # constant matrix D, with no dependence on the first label
    pattern_ok = shape_ok
    if shape_ok:
        for k in range(4):
            ray = solution.basis[k]
            d = {}
            for name, value in ray.items():
                if name == "C1":
                    continue
                inner, brak = name[2:].split(")[")
                _i, n = (int(v) for v in inner.split(","))
                r, s = (int(v) for v in brak.rstrip("]").split(","))
                if n == 0 and value != 0:
                    d[(r, s)] = value / alpha
            for name in system.unknowns:
                if name == "C1":
                    continue
                inner, brak = name[2:].split(")[")
                _i, n = (int(v) for v in inner.split(","))
                r, s = (int(v) for v in brak.rstrip("]").split(","))
                if ray.get(name, F(0)) != (alpha + n) * d.get((r, s), F(0)):
                    pattern_ok = False
    ext_system = build_matrix_system(alpha, (F(0), F(0)), "ext_a", 4)
    ext_solution = solve_linear(ext_system)
    ext_ok = not ext_solution.feasible
    ok = shape_ok and pattern_ok and ext_ok
    _verdict(
        8,
        "two-dimensional-weight-spaces",
        ok,
        "decomposable dim=%d pattern=%s; normalized extension feasible=%s"
        % (solution.dimension, pattern_ok, ext_solution.feasible),
    )


def test_criterion_09_intermediate_series_integrity():
    compat_bad = {}
    for spec in (
        ModuleSpec("Aab", F(1, 2), F(1, 3)),
        ModuleSpec("Aa", F(1)),
        ModuleSpec("Ba", F(0)),
    ):
        violations = bracket_compatibility_check(spec, 4)
        if violations:
            compat_bad[spec.family] = len(violations)
    generic = simplicity_probe(ModuleSpec("Aab", F(1, 2), F(0)), 5)
    trapped = simplicity_probe(ModuleSpec("Aab", F(0), F(0)), 5)
    ok = (
        compat_bad == {}
        and generic.verdict == "no-proper-invariant-window-subspace"
        and [0] in trapped.proper_invariant_sets
    )
    _verdict(
        9,
        "intermediate-series-integrity",
        ok,
        "compat violations=%r, generic verdict=%s, trapped sets=%r"
        % (compat_bad, generic.verdict, trapped.proper_invariant_sets),
    )


CLI_MATRIX = [
    ("bracket", "--left", "x:2", "--right", "x:-2"),
    ("jacobi", "--window", "2"),
    ("vir-embed", "--e", "-1/2", "--n", "3"),
    ("normal-order", "x:2", "x:-2", "i:1"),
    ("verma-basis", "--level", "3"),
    ("verma-singular", "--lambda", "2", "--c", "0",
     "--c0", "0", "--c1", "7", "--max-level", "2"),
    ("verma-check", "--lambda", "1", "--c", "0",
     "--c0", "1", "--c1", "0", "--max-level", "4"),
    ("im-act", "--family", "Aab", "--a", "1/2", "--b", "0", "--window", "2"),
    ("im-probe", "--family", "Aab", "--a", "1/2", "--b", "1/3",
     "--window", "3"),
    ("verify-f", "--a", "1/2", "--b", "1/3", "--window", "3"),
    ("verify-matrix", "--alpha", "1/3", "--ext-type", "decomposable",
     "--window", "4"),
]


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "w22", *args], capture_output=True, text=True
    )


def test_criterion_10_cli_determinism():
    unstable = []
    for argv in CLI_MATRIX:
        first = _cli(*argv)
        second = _cli(*argv)
        if not (
            first.returncode == 0
            and second.returncode == 0
            and first.stdout == second.stdout
        ):
            unstable.append(argv[0])
    lie_data = json.loads(_cli("bracket", "--left", "x:3", "--right", "x:-3").stdout)
    lie_ok = element_from_json(LieElement, lie_data).to_json() == lie_data
    uea_data = json.loads(_cli("normal-order", "x:2", "x:-2", "i:1").stdout)
    uea_ok = element_from_json(UEAElement, uea_data).to_json() == uea_data
    ok = unstable == [] and lie_ok and uea_ok
    _verdict(
        10,
        "cli-determinism",
        ok,
        "unstable verbs=%r, element round-trip=%s, product round-trip=%s"
        % (unstable, lie_ok, uea_ok),
    )
