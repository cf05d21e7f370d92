"""End-to-end command line checks via subprocess."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from w22 import LieElement, ModuleSpec, UEAElement, action_table_rows


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "w22", *args],
        capture_output=True,
        text=True,
    )


class TestPinnedOutputs:
    def test_bracket(self):
        proc = run("bracket", "--left", "x:2", "--right", "x:-2")
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"terms":[{"kind":"C","coeff":"1/2"},'
            '{"kind":"X","index":0,"coeff":"-4"}]}\n'
        )

    def test_verma_check(self):
        proc = run(
            "verma-check", "--lambda", "1", "--c", "0",
            "--c0", "1", "--c1", "0", "--max-level", "4",
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"criterion_roots":[],"verdict":"no-singular-vector-up-to-4"}\n'
        )

    def test_verify_f(self):
        proc = run("verify-f", "--a", "1/2", "--b", "1/3", "--window", "5")
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"dimension":1,"c1_forced_zero":true,"quadratic_survivors":0}\n'
        )

    def test_verify_matrix_decomposable(self):
        proc = run(
            "verify-matrix", "--alpha", "1/3",
            "--ext-type", "decomposable", "--window", "4",
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"dimension":4,"c1_forced_zero":true,"quadratic_survivors":2}\n'
        )

    def test_verify_matrix_extension_infeasible(self):
        proc = run(
            "verify-matrix", "--alpha", "1/3",
            "--ext-type", "ext_a", "--window", "4",
        )
        assert proc.returncode == 0
        assert proc.stdout == (
            '{"infeasible":true,"dimension":0,'
            '"c1_forced_zero":false,"quadratic_survivors":0}\n'
        )


DETERMINISM_MATRIX = [
    ("bracket", "--left", "x:2", "--right", "i:-2"),
    ("jacobi", "--window", "2"),
    ("vir-embed", "--e", "-1/2", "--n", "3"),
    ("normal-order", "x:2", "x:-2", "i:1"),
    ("verma-basis", "--level", "3"),
    ("verma-singular", "--lambda", "2", "--c", "0",
     "--c0", "0", "--c1", "7", "--max-level", "2"),
    ("verma-check", "--lambda", "1", "--c", "0",
     "--c0", "1", "--c1", "0", "--max-level", "3"),
    ("im-act", "--family", "Aab", "--a", "1/2", "--b", "0", "--window", "2"),
    ("im-probe", "--family", "Ba", "--a", "2", "--window", "3"),
    ("verify-f", "--a", "1/2", "--b", "1/3", "--window", "3", "--full"),
    ("verify-matrix", "--alpha", "1/3", "--ext-type", "ext_a",
     "--window", "4", "--no-normalize", "--full"),
]


@pytest.mark.parametrize(
    "argv", DETERMINISM_MATRIX, ids=lambda argv: argv[0]
)
def test_two_runs_are_byte_identical(argv):
    first = run(*argv)
    second = run(*argv)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    if argv[0] != "im-act" or "--output" in argv:
        json.loads(first.stdout)  # every json-mode line parses


class TestExitCodes:
    def test_strict_probe_finding(self):
        clean = run("im-probe", "--family", "Aab", "--a", "1/2", "--b", "1/3",
                    "--window", "3", "--strict")
        assert clean.returncode == 0
        trapped = run("im-probe", "--family", "Aab", "--a", "0", "--b", "0",
                      "--window", "3", "--strict")
        assert trapped.returncode == 1
        assert json.loads(trapped.stdout)["verdict"] == "candidate-submodule"

    def test_strict_singular_finding(self):
        proc = run("verma-singular", "--lambda", "2", "--c", "0", "--c0", "0",
                   "--c1", "7", "--max-level", "2", "--strict")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["reports"]

    def test_strict_quadratic_survivors(self):
        proc = run("verify-matrix", "--alpha", "1/3",
                   "--ext-type", "decomposable", "--window", "4", "--strict")
        assert proc.returncode == 1

    def test_bad_generator_token(self):
        proc = run("bracket", "--left", "y:2", "--right", "x:1")
        assert proc.returncode == 2
        assert "not a generator token" in proc.stderr

    def test_decimal_rational_rejected(self):
        proc = run("verify-f", "--a", "0.5", "--b", "0", "--window", "3")
        assert proc.returncode == 2

    def test_unknown_verb(self):
        assert run("frobnicate").returncode == 2

    def test_missing_required(self):
        assert run("bracket", "--left", "x:1").returncode == 2

    def test_b_required_for_aab(self):
        proc = run("im-probe", "--family", "Aab", "--a", "1", "--window", "3")
        assert proc.returncode == 2
        assert "--b" in proc.stderr

    def test_b_rejected_for_aa(self):
        proc = run("im-probe", "--family", "Aa", "--a", "1", "--b", "2",
                   "--window", "3")
        assert proc.returncode == 2

    def test_window_too_small_reported_as_usage(self):
        proc = run("verify-f", "--a", "1", "--b", "0", "--window", "2")
        assert proc.returncode == 2
        assert "window must be at least 3" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("verma-basis", "--level", "-1"),
            ("im-probe", "--family", "Ba", "--a", "2", "--window", "0"),
            ("im-act", "--family", "Ba", "--a", "2", "--window", "-1"),
            ("verma-singular", "--lambda", "1", "--c", "0", "--c0", "1",
             "--c1", "0", "--max-level", "-1"),
            ("verma-check", "--lambda", "1", "--c", "0", "--c0", "1",
             "--c1", "0", "--max-level", "-1"),
            ("jacobi", "--window", "-1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_of_range_integer_is_usage_error(self, argv):
        proc = run(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if "error:" in ln]
        assert len(errors) == 1 and "not an integer >=" in errors[0]

    def test_integral_alpha_ext_b_reported_as_usage(self):
        proc = run("verify-matrix", "--alpha", "2", "--ext-type", "ext_b",
                   "--window", "4")
        assert proc.returncode == 2
        assert "non-integral alpha" in proc.stderr


class TestRoundTrips:
    def test_bracket_output_parses_as_lie_element(self):
        proc = run("bracket", "--left", "x:3", "--right", "x:-3")
        data = json.loads(proc.stdout)
        element = LieElement.from_json(data)
        assert element.to_json() == data

    def test_vir_embed_output_parses(self):
        proc = run("vir-embed", "--e", "-1/2", "--n", "3")
        data = json.loads(proc.stdout)
        element = LieElement.from_json(data)
        assert element.to_json() == data

    def test_normal_order_output_parses_as_uea_element(self):
        proc = run("normal-order", "x:2", "x:-2", "i:1")
        data = json.loads(proc.stdout)
        element = UEAElement.from_json(data)
        assert element.to_json() == data

    def test_verma_singular_report_round_trip(self):
        proc = run("verma-singular", "--lambda", "2", "--c", "0", "--c0", "0",
                   "--c1", "7", "--max-level", "2")
        data = json.loads(proc.stdout)
        assert [r["level"] for r in data["reports"]] == [1, 2]
        assert all(r["params"]["lambda"] == "2" for r in data["reports"])
        # coordinate vectors survive the round trip losslessly
        assert data["reports"][0]["vector"]["coords"] == {"0": "1"}


class TestImAct:
    def test_tsv_matches_library_table(self):
        proc = run("im-act", "--family", "Aab", "--a", "0", "--b", "1",
                   "--window", "2", "--output", "tsv")
        assert proc.returncode == 0
        rows = action_table_rows(ModuleSpec("Aab", Fraction(0), Fraction(1)), 2)
        expected = "".join(
            "%s\t%d\t%d\t%s\n" % (kind, m, i, coeff)
            for kind, m, i, coeff in rows
        )
        assert proc.stdout == expected

    def test_single_generator_mode(self):
        proc = run("im-act", "--family", "Aab", "--a", "1/2", "--b", "0",
                   "--gen", "x:2", "--index", "3")
        data = json.loads(proc.stdout)
        assert data["result"] == {"5": "7/2"}

    def test_gen_without_index_is_usage_error(self):
        proc = run("im-act", "--family", "Aab", "--a", "1/2", "--b", "0",
                   "--gen", "x:2")
        assert proc.returncode == 2
