"""Command-line front end.

Every library operation is reachable through one verb with deterministic,
machine-readable output: JSON (compact, one object per line) or TSV for
action tables.  Scalars are written and read as decimal-free fraction
strings, generators as the shell-safe tokens ``x:n``, ``i:n``, ``c``,
``c1``.

Exit codes: 0 on success, 1 when ``--strict`` is set and the verb found
something to complain about (bracket violations, singular vectors,
candidate submodules, infeasible or quadratically surviving systems),
2 on usage errors.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import constraints as con
from . import intermediate as im
from .liecore import C, C1, I, bracket, jacobi_check, vir_embed, x
from .pbw import HighestWeightParams, monomial_to_json, normal_order
from .rationals import rat, rat_str
from .verma import find_singular, is_verma_irreducible, level_basis


class Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts negative fractions like -1/2 as values.

    Stock argparse only recognizes -<digits> as a value rather than an
    option; widening the matcher covers -p/q tokens too (the = form,
    --e=-1/2, works either way).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$")


def generator_token(text):
    """Parse ``x:n``, ``i:n``, ``c`` or ``c1`` into a BasisElement."""
    s = str(text)
    if s == "c":
        return C
    if s == "c1":
        return C1
    head, sep, tail = s.partition(":")
    if sep and head in ("x", "i"):
        try:
            n = int(tail)
        except ValueError:
            n = None
        if n is not None:
            return x(n) if head == "x" else I(n)
    raise argparse.ArgumentTypeError(
        "not a generator token: %r (expected x:n, i:n, c or c1)" % (text,)
    )


def token_of(gen):
    """Inverse of generator_token."""
    if gen.kind == "X":
        return "x:%d" % gen.index
    if gen.kind == "I":
        return "i:%d" % gen.index
    return "c" if gen.kind == "C" else "c1"


def _int_at_least(least):
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < least:
            raise argparse.ArgumentTypeError(
                "not an integer >= %d: %r" % (least, text)
            )
        return n

    return parse


nonnegative_int = _int_at_least(0)
positive_int = _int_at_least(1)


def rational(text):
    try:
        return rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def rational_pair(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "not a rational pair: %r (expected p/q,p/q)" % (text,)
        )
    return (rational(parts[0]), rational(parts[1]))


def int_set(text):
    try:
        return frozenset(int(p) for p in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "not a comma-separated integer list: %r" % (text,)
        ) from None


def emit(obj):
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _add_params(sub):
    sub.add_argument("--lambda", dest="lam", type=rational, required=True,
                     help="highest weight of x(0)")
    sub.add_argument("--c", type=rational, required=True,
                     help="value of the central element C")
    sub.add_argument("--c0", type=rational, required=True,
                     help="highest-weight value of I(0)")
    sub.add_argument("--c1", type=rational, required=True,
                     help="value of the central element C1")
    sub.add_argument("--max-level", type=nonnegative_int, required=True,
                     help="search depth (levels 1..max-level)")


def _add_module_spec(sub, need_window=True):
    sub.add_argument("--family", choices=im.FAMILIES, required=True)
    sub.add_argument("--a", type=rational, required=True)
    sub.add_argument("--b", type=rational, default=None,
                     help="second parameter (family Aab only)")
    sub.add_argument("--mask", type=int_set, default=frozenset(),
                     help="comma-separated weight indices acting as zero")
    if need_window:
        sub.add_argument("--window", type=positive_int, required=True)


def build_parser():
    parser = Parser(
        prog="w22",
        description="Exact computations in the W-algebra W(2,2): brackets, "
        "normal ordering, Verma modules, weight-module catalogs and "
        "finite-window classification systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bracket", help="bracket of two basis generators")
    p.add_argument("--left", type=generator_token, required=True)
    p.add_argument("--right", type=generator_token, required=True)

    p = sub.add_parser("jacobi", help="Jacobi identity sweep on a window")
    p.add_argument("--window", type=nonnegative_int, required=True)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("vir-embed", help="Virasoro copy element x(n)+n*e*I(n)")
    p.add_argument("--e", type=rational, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("normal-order", help="straighten a product of generators")
    p.add_argument("generators", nargs="+", type=generator_token,
                   metavar="GEN", help="factors, e.g. x:2 x:-2")

    p = sub.add_parser("verma-basis", help="PBW basis of one Verma level")
    p.add_argument("--level", type=nonnegative_int, required=True)

    p = sub.add_parser("verma-singular", help="joint-kernel singular vector search")
    _add_params(p)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("verma-check",
                       help="irreducibility verdict with closed-form roots")
    _add_params(p)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("im-act", help="weight-module action (table or single)")
    _add_module_spec(p, need_window=False)
    p.add_argument("--window", type=positive_int, default=None)
    p.add_argument("--gen", type=generator_token, default=None,
                   help="single-application mode: generator token")
    p.add_argument("--index", type=int, default=None,
                   help="single-application mode: source weight index")
    p.add_argument("--output", choices=("json", "tsv"), default="json")

    p = sub.add_parser("im-probe", help="windowed reachability probe")
    _add_module_spec(p)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("verify-f",
                       help="solve the scalar I-action system on a window")
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("verify-matrix",
                       help="solve the 2x2 matrix I-action system on a window")
    p.add_argument("--alpha", type=rational, required=True)
    p.add_argument("--betas", type=rational_pair, default=(Fraction(0), Fraction(0)),
                   help="diagonal parameters, e.g. 0,1 (decomposable only)")
    p.add_argument("--ext-type", choices=con.EXT_TYPES, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--no-normalize", action="store_true",
                   help="omit the pinning equation F(1,0)[2,1] = alpha")
    p.add_argument("--full", action="store_true")
    p.add_argument("--strict", action="store_true")

    return parser


def _module_spec(parser, args):
    if args.family == "Aab":
        if args.b is None:
            parser.error("--b is required for family Aab")
    elif args.b is not None:
        parser.error("--b applies only to family Aab")
    return im.ModuleSpec(args.family, args.a, args.b, masked=args.mask)


def _run_bracket(args):
    emit(bracket(args.left, args.right).to_json())
    return 0


def _run_jacobi(args):
    violations = jacobi_check(args.window)
    emit({
        "window": args.window,
        "violations": [[token_of(g) for g in triple] for triple in violations],
    })
    return 1 if args.strict and violations else 0


def _run_vir_embed(args):
    emit(vir_embed(args.e, args.n).to_json())
    return 0


def _run_normal_order(args):
    emit(normal_order(tuple(args.generators)).to_json())
    return 0


def _run_verma_basis(args):
    basis = level_basis(args.level)
    emit({
        "level": args.level,
        "dimension": len(basis),
        "monomials": [monomial_to_json(m) for m in basis],
    })
    return 0


def _params(args):
    return HighestWeightParams(args.lam, args.c, args.c0, args.c1)


def _run_verma_singular(args):
    reports = find_singular(_params(args), args.max_level)
    emit({
        "max_level": args.max_level,
        "reports": [r.to_json() for r in reports],
    })
    return 1 if args.strict and reports else 0


def _run_verma_check(args):
    verdict = is_verma_irreducible(_params(args), args.max_level)
    emit(verdict.to_json())
    return 1 if args.strict and verdict.verdict == "reducible" else 0


def _run_im_act(parser, args):
    spec = _module_spec(parser, args)
    if args.gen is not None:
        if args.index is None:
            parser.error("--gen requires --index")
        if args.output == "tsv":
            parser.error("--output tsv applies to table mode only")
        result = im.act(spec, args.gen, {args.index: Fraction(1)})
        emit({
            "family": spec.family,
            "gen": token_of(args.gen),
            "index": args.index,
            "result": {str(j): rat_str(result[j]) for j in sorted(result)},
        })
        return 0
    if args.window is None:
        parser.error("table mode requires --window")
    rows = im.action_table_rows(spec, args.window)
    if args.output == "tsv":
        for kind, m, i, coeff in rows:
            sys.stdout.write("%s\t%d\t%d\t%s\n" % (kind, m, i, rat_str(coeff)))
        return 0
    emit({
        "family": spec.family,
        "a": rat_str(spec.a),
        "b": rat_str(spec.b) if spec.b is not None else None,
        "window": args.window,
        "rows": [[kind, m, i, rat_str(coeff)] for kind, m, i, coeff in rows],
    })
    return 0


def _run_im_probe(parser, args):
    spec = _module_spec(parser, args)
    probe = im.simplicity_probe(spec, args.window)
    emit(probe.to_json())
    bad = probe.verdict != "no-proper-invariant-window-subspace"
    return 1 if args.strict and bad else 0


def _solved_summary(system, solution, survivors, full):
    if full:
        return con.report(system, solution, survivors)
    out = {}
    if not solution.feasible:
        out["infeasible"] = True
    out["dimension"] = solution.dimension
    out["c1_forced_zero"] = con.c1_is_forced_zero(solution)
    out["quadratic_survivors"] = len(survivors)
    return out


def _run_verify_f(parser, args):
    try:
        system = con.build_f_system(args.a, args.b, args.window)
    except ValueError as exc:
        parser.error(str(exc))
    solution = con.solve_linear(system)
    survivors = con.check_quadratic(system, solution)
    emit(_solved_summary(system, solution, survivors, args.full))
    findings = (not solution.feasible) or bool(survivors)
    return 1 if args.strict and findings else 0


def _run_verify_matrix(parser, args):
    try:
        system = con.build_matrix_system(
            args.alpha,
            args.betas,
            args.ext_type,
            args.window,
            normalized=not args.no_normalize,
        )
    except ValueError as exc:
        parser.error(str(exc))
    solution = con.solve_linear(system)
    survivors = con.check_quadratic(system, solution)
    emit(_solved_summary(system, solution, survivors, args.full))
    findings = (not solution.feasible) or bool(survivors)
    return 1 if args.strict and findings else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    verb = args.verb
    if verb == "bracket":
        return _run_bracket(args)
    if verb == "jacobi":
        return _run_jacobi(args)
    if verb == "vir-embed":
        return _run_vir_embed(args)
    if verb == "normal-order":
        return _run_normal_order(args)
    if verb == "verma-basis":
        return _run_verma_basis(args)
    if verb == "verma-singular":
        return _run_verma_singular(args)
    if verb == "verma-check":
        return _run_verma_check(args)
    if verb == "im-act":
        return _run_im_act(parser, args)
    if verb == "im-probe":
        return _run_im_probe(parser, args)
    if verb == "verify-f":
        return _run_verify_f(parser, args)
    if verb == "verify-matrix":
        return _run_verify_matrix(parser, args)
    parser.error("unknown verb: %r" % (verb,))


if __name__ == "__main__":
    sys.exit(main())
