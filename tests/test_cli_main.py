"""``w22.cli.main`` as the in-process entry point.

``main`` builds its parser on its first call, not at import, and reuses
it for every later call; each call must print and exit exactly as a
one-shot ``python -m w22`` of the same argv does.  A missing or unknown
verb is refused by the top-level parser with one ``w22: error:`` line.
"""

import json
import subprocess
import sys

import pytest

from w22.cli import build_parser, main

# Run in a fresh interpreter, so that no earlier main call of the test
# session has built the parser already.  Prints how many parsers the
# import built, how many build_parser calls the main calls made, and each
# call's (code, stdout, stderr).
REUSE_SCRIPT = r"""
import argparse, contextlib, io, json, sys

built = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
from w22 import cli
argparse.ArgumentParser.__init__ = init

calls = []
build = cli.build_parser

def counting_build():
    calls.append(1)
    return build()

cli.build_parser = counting_build
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"at_import": len(built), "builds": len(calls),
                  "results": results}))
"""

# (argv, exit code): usage errors, help, and verbs that find nothing or
# something, interleaved so that each call follows a different kind.
SEQUENCE = [
    (["jacobi"], 2),
    (["--help"], 0),
    (["jacobi", "--window", "2", "--strict"], 0),
    (["jacobi", "--window", "-1"], 2),
    (["jacobi", "--window", "2"], 0),
    ([], 2),
    (["verify-f", "--a", "1/2", "--b", "1/3", "--window", "5", "--strict"], 0),
    (["nosuch"], 2),
    (["verify-matrix", "--help"], 0),
    (["verify-matrix", "--alpha", "9/8", "--ext-type", "ext_b",
      "--window", "4", "--strict"], 1),
]


def run(argv):
    return subprocess.run(
        [sys.executable, "-m", "w22", *argv], capture_output=True, text=True
    )


def test_main_builds_one_parser_after_import_and_matches_one_shot_runs():
    argvs = [argv for argv, _ in SEQUENCE]
    proc = subprocess.run(
        [sys.executable, "-c", REUSE_SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, check=True,
    )
    record = json.loads(proc.stdout)
    assert record["at_import"] == 0
    assert record["builds"] == 1
    for (argv, code), got in zip(SEQUENCE, record["results"], strict=True):
        once = run(argv)
        assert got == [once.returncode, once.stdout, once.stderr], argv
        assert got[0] == code, argv


def test_build_parser_gives_a_fresh_parser():
    assert build_parser() is not build_parser()


def assert_top_level_refusal(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("usage: w22 [-h]")
    errors = [line for line in err.splitlines() if line.startswith("w22")
              and ": error:" in line]
    assert len(errors) == 1 and errors[0].startswith("w22: error:"), err
    assert err.splitlines()[-1] == errors[0]


@pytest.mark.parametrize("argv", [[], ["nosuch"]], ids=["empty", "nosuch"])
def test_missing_or_unknown_verb_is_one_top_level_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert_top_level_refusal(exc.value.code, captured.out, captured.err)
    proc = run(argv)
    assert_top_level_refusal(proc.returncode, proc.stdout, proc.stderr)
