"""Command-line front end.

Every library operation is reachable through one verb with deterministic,
machine-readable output: JSON (compact, one object per line) or TSV for
action tables.  Scalars are written and read as decimal-free fraction
strings, generators as the shell-safe tokens ``x:n``, ``i:n``, ``c``,
``c1``.

The command line reads, the library decides.  Every integer token (an
option value, the n of ``x:n`` and ``i:n``, a ``--mask`` entry) is read
by ``rationals.integer`` and every rational by ``rationals.rat``, with no
bound of their own; whether a window, a level or a module is valid is
left to the library call the verb makes.  A ``ValueError`` that call
raises becomes the verb's usage error, as one that a reader raises does.

Exit codes: 0 on success, 1 when ``--strict`` is set and the verb found
something to complain about (bracket violations, singular vectors,
candidate submodules, infeasible or quadratically surviving systems),
2 on usage errors: one line ``w22 <verb>: error: <message>`` under the
verb's usage, or ``w22: error: <message>`` under the top-level usage when
the verb is missing or unknown.

``main(argv)`` is the in-process entry point.  It builds the parser on its
first call and reuses it for every later call; ``build_parser()`` gives a
fresh one to a caller that wants its own.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import constraints as con
from . import intermediate as im
from . import rationals
from .liecore import C, C1, I, bracket, jacobi_check, vir_embed, x
from .pbw import HighestWeightParams, monomial_to_json, normal_order
from .rationals import rat, rat_str
from .verma import find_singular, is_verma_irreducible, level_basis


class Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts negative values like -1/2 or -1/2,1.

    Stock argparse only recognizes -<digits> as a value rather than an
    option; widening the matcher covers -p/q tokens and comma lists of
    p or p/q that start with a negative entry too (the = form,
    --betas=-1/2,1, works either way).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*$"
        )


def _reader(read):
    """An argparse type that reads with read and keeps its ValueError's
    message."""

    def parse(text):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


rational = _reader(rat)
integer = _reader(rationals.integer)


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
            return (x if head == "x" else I)(rationals.integer(tail))
        except ValueError:
            pass
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


def rational_pair(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            "not a rational pair: %r (expected p/q,p/q)" % (text,)
        )
    return (rational(parts[0]), rational(parts[1]))


def int_set(text):
    return frozenset(integer(p) for p in str(text).split(","))


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
    sub.add_argument("--max-level", type=integer, required=True,
                     help="search depth (levels 1..max-level)")


def _add_module_spec(sub):
    sub.add_argument("--family", choices=im.FAMILIES, required=True)
    sub.add_argument("--a", type=rational, required=True)
    sub.add_argument("--b", type=rational, default=None,
                     help="second parameter (family Aab only)")
    sub.add_argument("--mask", type=int_set, default=frozenset(),
                     help="comma-separated weight indices acting as zero")


def build_parser():
    parser = Parser(
        prog="w22",
        description="Exact computations in the W-algebra W(2,2): brackets, "
        "normal ordering, Verma modules, weight-module catalogs and "
        "finite-window classification systems.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, run, **kwargs):
        # The runner gets its own subparser, so that its errors show the
        # verb's usage line, as parse-time errors do.
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run, parser=p)
        return p

    p = verb("bracket", _run_bracket, help="bracket of two basis generators")
    p.add_argument("--left", type=generator_token, required=True)
    p.add_argument("--right", type=generator_token, required=True)

    p = verb("jacobi", _run_jacobi, help="Jacobi identity sweep on a window")
    p.add_argument("--window", type=integer, required=True)
    p.add_argument("--strict", action="store_true")

    p = verb("vir-embed", _run_vir_embed,
             help="Virasoro copy element x(n)+n*e*I(n)")
    p.add_argument("--e", type=rational, required=True)
    p.add_argument("--n", type=integer, required=True)

    p = verb("normal-order", _run_normal_order,
             help="straighten a product of generators")
    p.add_argument("generators", nargs="+", type=generator_token,
                   metavar="GEN", help="factors, e.g. x:2 x:-2")

    p = verb("verma-basis", _run_verma_basis,
             help="PBW basis of one Verma level")
    p.add_argument("--level", type=integer, required=True)

    p = verb("verma-singular", _run_verma_singular,
             help="joint-kernel singular vector search")
    _add_params(p)
    p.add_argument("--strict", action="store_true")

    p = verb("verma-check", _run_verma_check,
             help="irreducibility verdict with closed-form roots")
    _add_params(p)
    p.add_argument("--strict", action="store_true")

    p = verb("im-act", _run_im_act,
             help="weight-module action (table or single)")
    _add_module_spec(p)
    p.add_argument("--window", type=integer, default=None)
    p.add_argument("--gen", type=generator_token, default=None,
                   help="single-application mode: generator token")
    p.add_argument("--index", type=integer, default=None,
                   help="single-application mode: source weight index")
    p.add_argument("--output", choices=("json", "tsv"), default="json")

    p = verb("im-probe", _run_im_probe, help="windowed reachability probe")
    _add_module_spec(p)
    p.add_argument("--window", type=integer, required=True)
    p.add_argument("--strict", action="store_true")

    p = verb("verify-f", _run_verify,
             help="solve the scalar I-action system on a window")
    p.set_defaults(build=_f_system)
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)
    p.add_argument("--window", type=integer, required=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--strict", action="store_true")

    p = verb("verify-matrix", _run_verify,
             help="solve the 2x2 matrix I-action system on a window")
    p.set_defaults(build=_matrix_system)
    p.add_argument("--alpha", type=rational, required=True)
    p.add_argument("--betas", type=rational_pair, default=(Fraction(0), Fraction(0)),
                   help="diagonal parameters, e.g. 0,1 (decomposable only)")
    p.add_argument("--ext-type", choices=con.EXT_TYPES, required=True)
    p.add_argument("--window", type=integer, required=True)
    p.add_argument("--no-normalize", action="store_true",
                   help="omit the pinning equation F(1,0)[2,1] = alpha")
    p.add_argument("--full", action="store_true")
    p.add_argument("--strict", action="store_true")

    return parser


@functools.cache
def _parser():
    """The parser that main reuses, built on main's first call."""
    return build_parser()


def _module_spec(args):
    return im.ModuleSpec(args.family, args.a, args.b, masked=args.mask)


def _run_bracket(args):
    emit(bracket(args.left, args.right).to_json())


def _run_jacobi(args):
    violations = jacobi_check(args.window)
    emit({
        "window": args.window,
        "violations": [[token_of(g) for g in triple] for triple in violations],
    })
    return bool(violations)


def _run_vir_embed(args):
    emit(vir_embed(args.e, args.n).to_json())


def _run_normal_order(args):
    emit(normal_order(tuple(args.generators)).to_json())


def _run_verma_basis(args):
    basis = level_basis(args.level)
    emit({
        "level": args.level,
        "dimension": len(basis),
        "monomials": [monomial_to_json(m) for m in basis],
    })


def _params(args):
    return HighestWeightParams(args.lam, args.c, args.c0, args.c1)


def _run_verma_singular(args):
    reports = find_singular(_params(args), args.max_level)
    emit({
        "max_level": args.max_level,
        "reports": [r.to_json() for r in reports],
    })
    return bool(reports)


def _run_verma_check(args):
    verdict = is_verma_irreducible(_params(args), args.max_level)
    emit(verdict.to_json())
    return verdict.verdict == "reducible"


def _run_im_act(args):
    spec = _module_spec(args)
    if args.gen is not None:
        if args.index is None:
            raise ValueError("--gen requires --index")
        if args.output == "tsv":
            raise ValueError("--output tsv applies to table mode only")
        if args.window is not None:
            raise ValueError("--window applies to table mode only")
        result = im.act(spec, args.gen, {args.index: Fraction(1)})
        emit({
            "family": spec.family,
            "gen": token_of(args.gen),
            "index": args.index,
            "result": {str(j): rat_str(result[j]) for j in sorted(result)},
        })
        return
    if args.index is not None:
        raise ValueError("--index requires --gen")
    if args.window is None:
        raise ValueError("table mode requires --window")
    rows = im.action_table_rows(spec, args.window)
    if args.output == "tsv":
        for kind, m, i, coeff in rows:
            sys.stdout.write("%s\t%d\t%d\t%s\n" % (kind, m, i, rat_str(coeff)))
        return
    emit({
        "family": spec.family,
        "a": rat_str(spec.a),
        "b": rat_str(spec.b) if spec.b is not None else None,
        "window": args.window,
        "rows": [[kind, m, i, rat_str(coeff)] for kind, m, i, coeff in rows],
    })


def _run_im_probe(args):
    spec = _module_spec(args)
    probe = im.simplicity_probe(spec, args.window)
    emit(probe.to_json())
    return probe.verdict != "no-proper-invariant-window-subspace"


def _f_system(args):
    return con.build_f_system(args.a, args.b, args.window)


def _matrix_system(args):
    return con.build_matrix_system(args.alpha, args.betas, args.ext_type,
                                   args.window, normalized=not args.no_normalize)


_SUMMARY = ("infeasible", "dimension", "c1_forced_zero", "quadratic_survivors")


def _run_verify(args):
    system = args.build(args)
    solution = con.solve_linear(system)
    out = con.report(system, solution, con.check_quadratic(system, solution))
    # Without --full the summary is the report's keys in _SUMMARY, with
    # "infeasible" only when it holds.
    emit(out if args.full else {
        key: out[key] for key in _SUMMARY if key != "infeasible" or out[key]
    })
    return out["infeasible"] or bool(out["quadratic_survivors"])


def main(argv=None):
    """Run one verb; each runner returns whether it found something.

    Returns 0, or 1 when ``--strict`` is set and the verb found something.
    A usage error raises ``SystemExit(2)`` with one error line on stderr:
    argparse's, or a ValueError from the runner, which is a refusal of the
    library call it makes or of a combination of im-act options, under the
    verb's usage; a missing or unknown verb reads ``w22: error: ...``
    under the top-level usage.

    The parser is built on the first call and reused by every later one.
    It holds the functions it was built with (the ``_run_*`` runners and
    the verify builders), so replacing one of them after the first call
    does not change what main runs.
    """
    args = _parser().parse_args(argv)
    try:
        found = args.run(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    return 1 if found and getattr(args, "strict", False) else 0


if __name__ == "__main__":
    sys.exit(main())
