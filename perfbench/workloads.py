"""Seeded workload inputs, the calls that produce each verdict, and the
known answers the verdicts are checked against.

Inputs are plain ``Fraction`` data drawn from ``random.Random(seed)``; the
library sees only those values.  Every known answer comes from the
mathematics, not from the code under test:

* Verma modules: the reducibility locus of Zhang-Dong (Comm. Math. Phys.
  2009, arXiv:0711.4624), 2 h_W + (m^2 - 1)/12 c_W = 0, read in this
  package's conventions (x(n) = -L_n, I(n) = W_n, C1 = -c_W, lambda = -h,
  c0 = h_W) as c1 = 24 c0 / (m^2 - 1).  On such a line the first singular
  level is m; off every line m <= max level there is none.  The shipped
  ``criterion_value`` / ``criterion_agrees`` are never read.
* Constraint systems: the statements behind acceptance criteria 6-8
  (dimension, forced C1 = 0, span of the closed-form families,
  infeasibility of the normalized extensions, no quadratic survivor on a
  one-dimensional space).  Nothing compares against a kernel basis as
  returned, so a solver that returns another basis checks the same.
* Structure and CLI: identities of the algebra (Jacobi, antisymmetry),
  hand-derived normal orders, the module formulas of the intermediate
  series and the two-colored partition count of Verma level dimensions.

A check returns None when the verdict matches, or a one-line reason.
"""

import collections
import contextlib
import io
import json
import random
from fractions import Fraction

WORKLOADS = ("verma-sweep", "constraints-matrix", "constraints-scalar",
             "structure-cli")

# Full and tiny (smoke test) sizes per workload.
SIZES = {
    "verma-sweep": {
        "full": {"max_level": 6, "generic": 2, "per_locus": 1},
        "tiny": {"max_level": 3, "generic": 1, "per_locus": 1},
    },
    "constraints-matrix": {
        "full": {"window": 4, "alphas": 2, "ext_types": ("ext_a", "ext_b")},
        "tiny": {"window": 4, "alphas": 1, "ext_types": ()},
    },
    "constraints-scalar": {
        "full": {"window": 5, "generic": 12},
        "tiny": {"window": 3, "generic": 2},
    },
    "structure-cli": {
        "full": {"jacobi": 6, "antisymmetry": 8, "compat": 4, "probe": 5},
        "tiny": {"jacobi": 2, "antisymmetry": 3, "compat": 2, "probe": 3},
    },
}


# One timed call into the library and the check of its answer.
Verdict = collections.namedtuple("Verdict", "label run check")


def _nonintegral(rng):
    """p/q with 1 <= |p| <= 9, 2 <= q <= 9 and q not dividing p."""
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(2, 9))
        if value.denominator != 1:
            return value


def _small(rng):
    """p/q with |p| <= 9, 1 <= q <= 9, as drawn by acceptance criterion 6."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def locus_c1(m, c0):
    """c1 on the level-m reducibility line through c0 (m >= 2)."""
    return 24 * c0 / (m * m - 1)


def on_some_locus(c0, c1, max_level):
    return c0 == 0 or any(
        c1 == locus_c1(m, c0) for m in range(2, max_level + 1)
    )


def make_inputs(name, seed, size="full"):
    """The seeded inputs of one workload as plain data."""
    if name not in SIZES:
        raise ValueError("unknown workload %r" % (name,))
    rng = random.Random("%s:%d" % (name, seed))
    spec = dict(SIZES[name][size])
    if name == "verma-sweep":
        points = []
        while len(points) < spec["generic"]:
            c0, c1 = _nonintegral(rng), _nonintegral(rng)
            if not on_some_locus(c0, c1, spec["max_level"]):
                points.append((_nonintegral(rng), _nonintegral(rng), c0, c1,
                               None))
        for m in (1, 2, 3):
            if m > spec["max_level"]:
                continue
            for _ in range(spec["per_locus"]):
                lam, c = _nonintegral(rng), _nonintegral(rng)
                if m == 1:
                    c0, c1 = Fraction(0), _nonintegral(rng)
                else:
                    c0 = _nonintegral(rng)
                    c1 = locus_c1(m, c0)
                points.append((lam, c, c0, c1, m))
        spec["points"] = points
    elif name == "constraints-matrix":
        alphas = []
        while len(alphas) < spec["alphas"]:
            alpha = _nonintegral(rng)
            if alpha not in alphas:
                alphas.append(alpha)
        spec["alpha"] = alphas
    elif name == "constraints-scalar":
        pairs = []
        while len(pairs) < spec["generic"]:
            a, b = _small(rng), _small(rng)
            if a == 0 or any(a + b * n == 0 for n in range(-5, 6)):
                continue
            pairs.append((a, b))
        spec["pairs"] = pairs + [(Fraction(0), Fraction(1)),
                                 (Fraction(0), Fraction(0))]
    else:
        spec["bracket_n"] = rng.randint(2, 6)
        spec["vir"] = (_nonintegral(rng), rng.choice((-1, 1)) * rng.randint(1, 6))
        spec["basis_level"] = rng.randint(3, 4)
        spec["singular"] = (_nonintegral(rng), _nonintegral(rng),
                            _nonintegral(rng))
        while True:
            c0, c1 = _nonintegral(rng), _nonintegral(rng)
            if not on_some_locus(c0, c1, 3):
                break
        spec["generic"] = (_nonintegral(rng), _nonintegral(rng), c0, c1)
        spec["module"] = _aab_parameters(rng, spec["probe"])
        spec["family_a"] = _nonintegral(rng)
        spec["scalar"] = _aab_parameters(rng, 5)
    return spec


def _aab_parameters(rng, window):
    """(a, b) with a non-integral, a + i + b m != 0 on the window, and
    a + b n != 0 for |n| <= 5 (generic as in acceptance criterion 6)."""
    while True:
        a, b = _nonintegral(rng), _small(rng)
        rng_w = range(-window, window + 1)
        if all(a + i + b * m != 0 for i in rng_w for m in rng_w) and all(
            a + b * n != 0 for n in range(-5, 6)
        ):
            return a, b


def input_sizes(name, spec):
    """What one batch holds, for the result header."""
    if name == "verma-sweep":
        return {"points": len(spec["points"]), "max_level": spec["max_level"]}
    if name == "constraints-matrix":
        return {"alphas": len(spec["alpha"]), "window": spec["window"],
                "systems_per_alpha": 1 + len(spec["ext_types"])}
    if name == "constraints-scalar":
        return {"f_systems": len(spec["pairs"]), "window": spec["window"]}
    return {"jacobi_window": spec["jacobi"], "cli_verbs": len(CLI_VERBS)}


def verdicts(name, spec, tracer=None):
    """The batch of one workload: a list of Verdict objects."""
    return {
        "verma-sweep": _verma_verdicts,
        "constraints-matrix": _matrix_verdicts,
        "constraints-scalar": _scalar_verdicts,
        "structure-cli": _structure_verdicts,
    }[name](spec, tracer)


# ---------------------------------------------------------------------------
# verma-sweep
# ---------------------------------------------------------------------------


def _verma_verdicts(spec, _tracer):
    from w22 import pbw, verma

    max_level = spec["max_level"]
    out = []
    for lam, c, c0, c1, m in spec["points"]:

        def run(point=(lam, c, c0, c1)):
            params = pbw.HighestWeightParams(*point)
            return verma.is_verma_irreducible(params, max_level)

        def check(report, m=m):
            if m is None:
                if report.witness is not None or report.verdict != (
                    "no-singular-vector-up-to-%d" % max_level
                ):
                    return "generic point has a singular vector: %s" % (
                        report.verdict,
                    )
                return None
            if report.verdict != "reducible" or report.witness is None:
                return "level-%d locus point has no singular vector" % m
            if report.witness.level != m:
                return "first singular level %d, expected %d" % (
                    report.witness.level,
                    m,
                )
            return None

        label = "verma(%s,%s,%s,%s)" % (lam, c, c0, c1)
        out.append(Verdict(label, run, check))
    return out


# ---------------------------------------------------------------------------
# constraints-matrix
# ---------------------------------------------------------------------------


def _matrix_name(i, n, r, s):
    return "F(%d,%d)[%d,%d]" % (i, n, r, s)


def _solve_system(build, report=False):
    from w22 import constraints

    system = build()
    solution = constraints.solve_linear(system)
    survivors = constraints.check_quadratic(system, solution)
    if report:
        constraints.report(system, solution, survivors)
    return system, solution, survivors


def _c1_forced_zero(solution):
    rays = list(solution.basis) + [solution.particular]
    return all(ray.get("C1", 0) == 0 for ray in rays)


def _rank(rows):
    """Rank of a small list of Fraction rows (benchmark-side elimination)."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_decomposable(alpha, window):
    """Criterion 8: the space is exactly {(alpha + n) D}, C1 = 0."""
    rng = range(-window, window + 1)

    def check(result):
        system, solution, _survivors = result
        if not solution.feasible or solution.dimension != 4:
            return "decomposable dimension %d, expected 4" % solution.dimension
        if not _c1_forced_zero(solution):
            return "C1 not forced to 0"
        ds = []
        for ray in solution.basis:
            d = {(r, s): ray.get(_matrix_name(0, 0, r, s), 0) / alpha
                 for r in (1, 2) for s in (1, 2)}
            for i in rng:
                for n in rng:
                    for (r, s), value in d.items():
                        if ray.get(_matrix_name(i, n, r, s), 0) != (
                            (alpha + n) * value
                        ):
                            return "ray outside the (alpha+n) D family"
            ds.append([d[key] for key in sorted(d)])
        if _rank(ds) != 4:
            return "rays do not span the (alpha+n) D family"
        return None

    return check


def _check_infeasible(result):
    _system, solution, _survivors = result
    if solution.feasible:
        return "normalized extension is feasible (dimension %d)" % (
            solution.dimension,
        )
    return None


def _matrix_verdicts(spec, _tracer):
    from w22 import constraints

    window = spec["window"]
    out = []
    for alpha in spec["alpha"]:
        for ext_type in ("decomposable",) + spec["ext_types"]:
            out.append(Verdict(
                "matrix(%s,%s)" % (alpha, ext_type),
                lambda alpha=alpha, ext_type=ext_type: _solve_system(
                    lambda: constraints.build_matrix_system(
                        alpha, (Fraction(0), Fraction(0)), ext_type, window
                    )
                ),
                _check_decomposable(alpha, window)
                if ext_type == "decomposable" else _check_infeasible,
            ))
    return out


# ---------------------------------------------------------------------------
# constraints-scalar
# ---------------------------------------------------------------------------


def _check_f_family(a, b, window):
    """Criteria 6-7: the line spanned by f(m, t) = a + b m + t, C1 = 0,
    with no quadratic survivor."""
    rng = range(-window, window + 1)
    family = {"f(%d,%d)" % (m, t): a + b * m + t for m in rng for t in rng}

    def check(result):
        _system, solution, survivors = result
        if not solution.feasible or solution.dimension != 1:
            return "dimension %d, expected 1" % solution.dimension
        if not _c1_forced_zero(solution):
            return "C1 not forced to 0"
        ray = solution.basis[0]
        anchor = next(name for name, value in family.items() if value)
        scale = ray.get(anchor, 0) / family[anchor]
        if scale == 0 or any(
            ray.get(name, 0) != scale * value for name, value in family.items()
        ):
            return "solution line is not the a + b m + t family"
        if survivors:
            return "quadratic survivor on a one-dimensional space"
        return None

    return check


def _scalar_verdicts(spec, _tracer):
    from w22 import constraints

    window = spec["window"]
    return [
        Verdict(
            "f(%s,%s)" % (a, b),
            lambda a=a, b=b: _solve_system(
                lambda: constraints.build_f_system(a, b, window), report=True
            ),
            _check_f_family(a, b, window),
        )
        for a, b in spec["pairs"]
    ]


# ---------------------------------------------------------------------------
# structure-cli
# ---------------------------------------------------------------------------

# Normal orders derived by hand under the documented generator order
# C < C1 < I(n) < x(n), index ascending.  Monomials are tuples of
# (kind, index) factors, central factors with index None.
_NORMAL_ORDERS = {
    (("X", 2), ("X", -2), ("I", 1)): {
        (("I", 1), ("X", -2), ("X", 2)): Fraction(1),
        (("I", -1), ("X", 2)): Fraction(3),
        (("I", 3), ("X", -2)): Fraction(-1),
        (("I", 1), ("X", 0)): Fraction(-4),
        (("I", 1),): Fraction(-9),
        (("C", None), ("I", 1)): Fraction(1, 2),
    },
    (("X", 3), ("X", -3)): {
        (("X", -3), ("X", 3)): Fraction(1),
        (("X", 0),): Fraction(-6),
        (("C", None),): Fraction(2),
    },
    (("X", 1), ("X", 1), ("X", -2)): {
        (("X", -2), ("X", 1), ("X", 1)): Fraction(1),
        (("X", -1), ("X", 1)): Fraction(-6),
        (("X", 0),): Fraction(6),
    },
    (("X", 2), ("I", -2)): {
        (("I", -2), ("X", 2)): Fraction(1),
        (("I", 0),): Fraction(-4),
        (("C1", None),): Fraction(1, 2),
    },
}

_KIND_RANK = {"C": 0, "C1": 1, "I": 2, "X": 3}

CLI_VERBS = ("bracket", "jacobi", "vir-embed", "normal-order", "verma-basis",
              "verma-singular", "verma-check", "im-act", "im-probe",
              "verify-f", "verify-matrix")


def _factor(rec):
    return (rec["kind"], rec.get("index"))


def _terms_of(payload):
    """{(kind, index): coeff} of a LieElement JSON."""
    return {_factor(t): Fraction(t["coeff"]) for t in payload["terms"]}


def _uea_terms(payload):
    return {
        tuple(_factor(f) for f in t["monomial"]): Fraction(t["coeff"])
        for t in payload["terms"]
    }


def _two_colored(n):
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for _color in (0, 1):
            for total in range(k, n + 1):
                counts[total] += counts[total - k]
    return counts[n]


def _ordered(mono):
    keys = [(_KIND_RANK[k], i or 0) for k, i in mono]
    return keys == sorted(keys)


def _cli(argv):
    from w22 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_json(check):
    def wrapped(result):
        code, out, _err = result
        if code != 0:
            return "exit code %r" % (code,)
        return check(json.loads(out))

    return wrapped


def _expect(ok, reason):
    return None if ok else reason


def _cli_verdicts(spec):
    n = spec["bracket_n"]
    e, k = spec["vir"]
    level = spec["basis_level"]
    s_lam, s_c, s_c1 = spec["singular"]
    g_lam, g_c, g_c0, g_c1 = spec["generic"]
    a, b = spec["module"]
    fa, fb = spec["scalar"]
    words = {}

    words["bracket"] = (
        ("bracket", "--left", "x:%d" % n, "--right", "x:%d" % -n),
        lambda p: _expect(_terms_of(p) == {
            ("X", 0): Fraction(-2 * n), ("C", None): Fraction(n**3 - n, 12)
        }, "bracket [x(n), x(-n)] wrong"),
    )
    words["jacobi"] = (
        ("jacobi", "--window", "2"),
        lambda p: _expect(p["violations"] == [], "Jacobi violation"),
    )
    words["vir-embed"] = (
        ("vir-embed", "--e", str(e), "--n", str(k)),
        lambda p: _expect(_terms_of(p) == {("X", k): 1, ("I", k): k * e},
                          "x(n) + n e I(n) wrong"),
    )
    words["normal-order"] = (
        ("normal-order", "x:2", "x:-2", "i:1"),
        lambda p: _expect(
            _uea_terms(p) == _NORMAL_ORDERS[(("X", 2), ("X", -2), ("I", 1))],
            "normal order of x(2) x(-2) I(1) wrong"),
    )

    def basis_ok(p):
        monos = [tuple(_factor(f) for f in m) for m in p["monomials"]]
        return _expect(
            p["dimension"] == len(monos) == len(set(monos)) == _two_colored(level)
            and all(sum(i for _k, i in m) == -level and _ordered(m)
                    and all(i < 0 for _k, i in m) for m in monos),
            "level %d basis is not the two-colored partition basis" % level,
        )

    words["verma-basis"] = (("verma-basis", "--level", str(level)), basis_ok)
    words["verma-singular"] = (
        ("verma-singular", "--lambda", str(s_lam), "--c", str(s_c),
         "--c0", "0", "--c1", str(s_c1), "--max-level", "2"),
        lambda p: _expect(bool(p["reports"]) and p["reports"][0]["level"] == 1,
                          "c0 = 0 point has no level-1 singular vector"),
    )
    words["verma-check"] = (
        ("verma-check", "--lambda", str(g_lam), "--c", str(g_c),
         "--c0", str(g_c0), "--c1", str(g_c1), "--max-level", "3"),
        lambda p: _expect(p["verdict"] == "no-singular-vector-up-to-3"
                          and "witness" not in p,
                          "generic point reported reducible"),
    )
    words["im-act"] = (
        ("im-act", "--family", "Aab", "--a", str(a), "--b", str(b),
         "--window", "2"),
        lambda p: _expect(
            len(p["rows"]) == 25 and all(
                kind == "X" and Fraction(coeff) == a + i + b * m
                for kind, m, i, coeff in p["rows"]),
            "Aab action table wrong"),
    )
    words["im-probe"] = (
        ("im-probe", "--family", "Aab", "--a", str(a), "--b", str(b),
         "--window", "3"),
        lambda p: _expect(
            p["verdict"] == "no-proper-invariant-window-subspace"
            and p["candidate_submodules"] == [],
            "Aab with nonzero coefficients reported a submodule"),
    )
    words["verify-f"] = (
        ("verify-f", "--a", str(fa), "--b", str(fb), "--window", "3"),
        lambda p: _expect(
            p == {"dimension": 1, "c1_forced_zero": True,
                  "quadratic_survivors": 0},
            "generic f-system summary wrong"),
    )
    out = []
    for verb, (argv, check) in words.items():
        out.append(Verdict("cli " + verb, lambda argv=argv: _cli(argv),
                           _cli_json(check)))

    # The smallest matrix system the verb solves (window 4) is a ~2 s
    # sparse elimination, which would put the solver into this workload;
    # constraints-matrix measures that path.  Here the verb runs its
    # argument and window validation: window 3 is refused with exit 2.
    def refused(result):
        code, out_text, err_text = result
        return _expect(
            code == 2 and out_text == ""
            and "window must be at least 4" in err_text,
            "verify-matrix --window 3 not refused with exit 2")

    out.append(Verdict(
        "cli verify-matrix",
        lambda: _cli(("verify-matrix", "--alpha", str(spec["family_a"]),
                      "--ext-type", "decomposable", "--window", "3")),
        refused,
    ))
    return out


def _structure_verdicts(spec, tracer):
    from w22 import intermediate, liecore, pbw

    def sweep(window):
        gens = liecore.basis_window(window)
        return [
            (g, h)
            for g in gens
            for h in gens
            if not (liecore.bracket(g, h) + liecore.bracket(h, g)).is_zero
        ]

    def antisymmetry():
        if tracer is None:
            return sweep(spec["antisymmetry"])
        with tracer.span("liecore.antisymmetry_sweep"):
            return sweep(spec["antisymmetry"])

    out = [
        Verdict("jacobi_check(%d)" % spec["jacobi"],
                lambda: liecore.jacobi_check(spec["jacobi"]),
                lambda r: _expect(r == [], "Jacobi violations: %d" % len(r))),
        Verdict("antisymmetry(%d)" % spec["antisymmetry"], antisymmetry,
                lambda r: _expect(r == [], "antisymmetry failures: %d" % len(r))),
    ]

    def as_word(key):
        return tuple(
            liecore.x(i) if kind == "X" else liecore.I(i) for kind, i in key
        )

    for key, want in _NORMAL_ORDERS.items():

        def check(elem, want=want):
            got = {
                tuple((g.kind, g.index) for g in mono): coeff
                for mono, coeff in elem.terms.items()
                if coeff
            }
            return _expect(got == want, "normal order wrong")

        out.append(Verdict("normal_order%s" % (key,),
                           lambda key=key: pbw.normal_order(as_word(key)),
                           check))

    a, b = spec["module"]
    fa = spec["family_a"]
    families = (
        intermediate.ModuleSpec("Aab", a, b),
        intermediate.ModuleSpec("Aa", fa),
        intermediate.ModuleSpec("Ba", fa),
    )
    for module in families:
        out.append(Verdict(
            "compat(%s)" % module.family,
            lambda module=module: intermediate.bracket_compatibility_check(
                module, spec["compat"]),
            lambda r: _expect(r == [], "module violations: %d" % len(r)),
        ))

    # Proper invariant sets read off the module formulas: with every
    # coefficient a + i + b m nonzero, Aab(a, b) has none; in Aab(0, 0) and
    # Ba(a) (a non-integral) x(m) v_0 = 0 traps v_0; in Aa(a) no x(m) maps
    # v_i, i != 0, to v_0, while v_0 reaches everything.
    window = spec["probe"]
    nonzero = [i for i in range(-window, window + 1) if i != 0]
    probes = (
        (families[0], []),
        (intermediate.ModuleSpec("Aab", 0, 0), [[0]]),
        (families[1], [nonzero]),
        (families[2], [[0]]),
    )
    for module, want in probes:
        out.append(Verdict(
            "probe(%s,%s,%s)" % (module.family, module.a, module.b),
            lambda module=module: intermediate.simplicity_probe(module, window),
            lambda r, want=want: _expect(
                r.proper_invariant_sets == want,
                "probe sets %r, expected %r" % (r.proper_invariant_sets, want)),
        ))
    return out + _cli_verdicts(spec)
