"""Property tests: CLI arguments parse back to the values written into them.

Values are written the way the CLI prints them (``rat_str`` for rationals,
``token_of`` for generators) and parsed in-process with ``build_parser``.
Lists that start with a negative entry are tried both as a separate token
(``--betas -1/2,1``) and in the ``=`` form (``--betas=-1/2,1``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from w22.cli import build_parser, generator_token, token_of  # noqa: E402
from w22.liecore import C, C1, I, x  # noqa: E402
from w22.rationals import rat_str  # noqa: E402

rationals = st.fractions(min_value=-10**9, max_value=10**9,
                         max_denominator=10**9)
indices = st.integers(-10**6, 10**6)
generators = st.one_of(st.builds(x, indices), st.builds(I, indices),
                       st.sampled_from([C, C1]))

bounded = settings(max_examples=50, deadline=None)


parser = build_parser()


def parse(*argv):
    return parser.parse_args(list(argv))


def option(name, value, joined):
    return ["%s=%s" % (name, value)] if joined else [name, value]


@bounded
@given(lam=rationals, c=rationals, c0=rationals, c1=rationals,
       level=st.integers(0, 20))
def test_rationals_round_trip(lam, c, c0, c1, level):
    args = parse("verma-check", "--lambda", rat_str(lam), "--c", rat_str(c),
                 "--c0", rat_str(c0), "--c1", rat_str(c1),
                 "--max-level", str(level))
    assert (args.lam, args.c, args.c0, args.c1) == (lam, c, c0, c1)
    assert args.max_level == level


@bounded
@given(e=rationals, n=indices)
def test_vir_embed_arguments_round_trip(e, n):
    args = parse("vir-embed", "--e", rat_str(e), "--n", str(n))
    assert (args.e, args.n) == (e, n)


@bounded
@given(alpha=rationals, betas=st.tuples(rationals, rationals),
       joined=st.booleans())
def test_beta_pair_round_trip(alpha, betas, joined):
    text = "%s,%s" % (rat_str(betas[0]), rat_str(betas[1]))
    args = parse("verify-matrix", "--alpha", rat_str(alpha),
                 *option("--betas", text, joined),
                 "--ext-type", "decomposable", "--window", "4")
    assert args.alpha == alpha
    assert args.betas == betas


@bounded
@given(mask=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       joined=st.booleans())
def test_mask_round_trip(mask, joined):
    text = ",".join(str(i) for i in mask)
    args = parse("im-probe", "--family", "Ba", "--a", "2",
                 *option("--mask", text, joined), "--window", "3")
    assert args.mask == frozenset(mask)


@bounded
@given(gens=st.lists(generators, min_size=2, max_size=6))
def test_generator_tokens_round_trip(gens):
    tokens = [token_of(g) for g in gens]
    assert parse("normal-order", *tokens).generators == gens
    args = parse("bracket", "--left", tokens[0], "--right", tokens[1])
    assert (args.left, args.right) == (gens[0], gens[1])


@bounded
@given(gen=generators)
def test_generator_token_inverts_token_of(gen):
    assert generator_token(token_of(gen)) == gen
