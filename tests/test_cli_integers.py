"""The command line reads integers strictly and leaves every bound to the
library.

Every integer slot of every verb (an option value, the n of ``x:n`` and
``i:n``, a ``--mask`` entry) takes ASCII digits with an optional leading
minus and nothing else, and each bounded option is refused exactly below
the least value its library call accepts, with that call's message as the
verb's one error line.  The verbs run in-process through ``w22.cli.main``.
"""

import argparse

import pytest

from w22 import cli
from w22.cli import build_parser, main

SLOT = "{}"
PARAMS = ("--lambda", "1/3", "--c", "2", "--c0", "1", "--c1", "8")
MODULE = ("--family", "Ba", "--a", "2")

# One invocation per integer slot, SLOT marking where the token goes.
INTEGER_SLOTS = {
    "jacobi --window": ("jacobi", "--window", SLOT),
    "vir-embed --n": ("vir-embed", "--e", "1/2", "--n", SLOT),
    "verma-basis --level": ("verma-basis", "--level", SLOT),
    "verma-singular --max-level": ("verma-singular", *PARAMS,
                                   "--max-level", SLOT),
    "verma-check --max-level": ("verma-check", *PARAMS, "--max-level", SLOT),
    "im-act --window": ("im-act", *MODULE, "--window", SLOT),
    "im-act --index": ("im-act", *MODULE, "--gen", "x:1", "--index", SLOT),
    "im-probe --window": ("im-probe", *MODULE, "--window", SLOT),
    "verify-f --window": ("verify-f", "--a", "1/2", "--b", "1/3",
                          "--window", SLOT),
    "verify-matrix --window": ("verify-matrix", "--alpha", "1/3",
                               "--ext-type", "decomposable", "--window", SLOT),
    "x:n": ("bracket", "--left", "x:" + SLOT, "--right", "x:-2"),
    "i:n": ("normal-order", "x:1", "i:" + SLOT),
    "im-act --gen": ("im-act", *MODULE, "--gen", "i:" + SLOT, "--index", "1"),
    "im-probe --mask": ("im-probe", *MODULE, "--mask", "0," + SLOT,
                        "--window", "3"),
    "im-act --mask": ("im-act", *MODULE, "--mask", SLOT, "--window", "3"),
}

REFUSED_TOKENS = ["1_0", "+3", "٣", "３", "3.0", "0x3", ""]


def fill(template, token):
    return [arg.replace(SLOT, token) for arg in template]


def run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process invocation."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_usage_error(argv, capsys):
    """The verb's one error line, after checking exit 2 and empty stdout."""
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0].startswith("usage: w22 %s " % argv[0])
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert errors[0].startswith("w22 %s: error: " % argv[0])
    return errors[0]


def options():
    """(verb, option string, action) for every option of every verb."""
    (verbs,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        (verb, action.option_strings[-1] if action.option_strings
         else action.dest, action)
        for verb, sub in verbs.items()
        for action in sub._actions
    ]


def test_no_option_reads_with_a_bare_builtin():
    # a bare int or str type would let an option bypass the strict readers
    loose = [(verb, name) for verb, name, action in options()
             if action.type in (int, str, float)]
    assert loose == []


def test_every_integer_option_has_a_slot():
    integer_options = {
        "%s %s" % (verb, name)
        for verb, name, action in options()
        if action.type is cli.integer
    }
    assert len(integer_options) == 10
    assert integer_options <= set(INTEGER_SLOTS)


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_the_slot_accepts_a_plain_integer(slot, capsys):
    code, out, _ = run(fill(INTEGER_SLOTS[slot], "4"), capsys)
    assert code == 0
    assert out.endswith("\n")


@pytest.mark.parametrize("token", REFUSED_TOKENS)
@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_loose_integer_token_is_refused(slot, token, capsys):
    template = INTEGER_SLOTS[slot]
    line = assert_usage_error(fill(template, token), capsys)
    (arg,) = fill([a for a in template if SLOT in a], token)
    assert repr(token) in line or repr(arg) in line


# (invocation, name in the library's message, largest refused value,
# smallest accepted value): the thresholds the command line has always had.
THRESHOLDS = [
    (INTEGER_SLOTS["jacobi --window"], "window", -1, 0),
    (INTEGER_SLOTS["verma-basis --level"], "level", -1, 0),
    (INTEGER_SLOTS["verma-singular --max-level"], "max_level", -1, 0),
    (INTEGER_SLOTS["verma-check --max-level"], "max_level", -1, 0),
    (INTEGER_SLOTS["im-act --window"], "window", 0, 1),
    (INTEGER_SLOTS["im-probe --window"], "window", 0, 1),
    (INTEGER_SLOTS["verify-f --window"], "window", 2, 3),
    (INTEGER_SLOTS["verify-matrix --window"], "window", 3, 4),
]


@pytest.mark.parametrize(
    "template, name, refused, accepted",
    THRESHOLDS,
    ids=["%s %s" % (t[0], t[-2]) for t, _, _, _ in THRESHOLDS],
)
def test_bound_is_the_library_bound(template, name, refused, accepted,
                                    capsys):
    line = assert_usage_error(fill(template, str(refused)), capsys)
    assert line == "w22 %s: error: %s must be at least %d, got %d" % (
        template[0], name, accepted, refused)
    code, out, _ = run(fill(template, str(accepted)), capsys)
    assert code == 0
    assert out.endswith("\n")
