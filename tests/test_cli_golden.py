"""Golden stdout digests of the verify verbs, of the verbs that render
Lie and enveloping-algebra elements, and of the module verbs.

Each command's stdout is pinned by its sha256.  The six non-integral
alpha digests were taken before the constraint systems moved to integer
columns and an integer exact check; the integral-alpha digest was taken
once the builders stopped skipping the triples with a zero weight factor
(alpha + n)(alpha + n + i)(alpha + n + j)(alpha + n + i + j).  The seven
element-verb digests (bracket, vir-embed, normal-order and the verma
verbs) were taken before ``LieElement`` and ``UEAElement`` became
subclasses of one ``liecore.Combination``.  The seven module-verb digests
(im-act, im-probe and jacobi) were taken before ``intermediate.act`` and
the module check came to read the action only through ``coefficient``.
Three digests were taken before a short spanning hint came to continue
its fold and the short verify summary came to be read off ``report``:
the decomposable system at alpha = 3 with betas (1, 2), whose hint
falls short, and the short summaries of a feasible f-system and of an
infeasible ``ext_b`` system.  Three digests were taken before the Verma
joint kernel came to read sparse rows straight from the PBW action: the
deepest Verma searches, a generic point to level 6 (no kernel), the
m = 3 line to level 5 (witness at level 3) and c0 = 0 to level 5 (a
kernel at every level).  A change that keeps the answers keeps
these digests; a change of the output contract must update them and say
so.  Every command runs in under a second.

The same commands also run in one process through ``w22.cli.main``,
forward and then reversed, so that the parser ``main`` reuses keeps every
byte and no call leaves anything behind for the next."""

import contextlib
import hashlib
import io
import subprocess
import sys

import pytest

from w22.cli import main

GOLDEN = [
    (("verify-f", "--a", "1/2", "--b", "1/3", "--window", "5", "--full"),
     "cfcba0a1f9835f3e23f141755a9e8045696d67036328ded3f72e51b1dcf8379b"),
    (("verify-f", "--a", "0", "--b", "1", "--window", "5", "--full"),
     "0f615f1b1e24efae0a98ebe556340df512888245b92b96c393c3d3d64bc7912d"),
    (("verify-matrix", "--alpha", "9/8", "--ext-type", "decomposable",
      "--window", "4", "--full"),
     "6aa17753118b0cd1765c6743c73ee60039919368bc1e1522025a96e85eec6419"),
    (("verify-matrix", "--alpha", "9/8", "--ext-type", "ext_a",
      "--window", "4", "--full"),
     "70df093ae236aaeddc347848e0c26d9ca2613632e05bc455d4233ed7ff0c80a9"),
    (("verify-matrix", "--alpha", "9/8", "--ext-type", "ext_b",
      "--window", "4", "--full"),
     "c6262681f1867f7ff3b12825d28aca065a5a42f544c78de6e3e94f9ac8f47c67"),
    (("verify-matrix", "--alpha", "1/3", "--ext-type", "ext_a",
      "--window", "4", "--no-normalize", "--full"),
     "fb98a6fc29b5b0fbfcfd66ddcf5b453588b17ff7738577c7776ec79c9fc332c9"),
    (("verify-matrix", "--alpha", "1", "--betas", "1,2", "--ext-type",
      "decomposable", "--window", "4", "--full"),
     "1efcb98e03044076074fc7aea797fa1f0735f10ea8868d089bfe5e3dd2296cf5"),
    (("verify-matrix", "--alpha", "3", "--betas", "1,2", "--ext-type",
      "decomposable", "--window", "4", "--full"),
     "a450aa9f81bdf99d758990e0a94a05c7edc1d51e5e0be3e73017db6f465b13cc"),
    (("verify-f", "--a", "1/2", "--b", "1/3", "--window", "5"),
     "df3390d650adefb75f3c3846f7c51e2c4b21d9457c1d0a87a752185e40435267"),
    (("verify-matrix", "--alpha", "9/8", "--ext-type", "ext_b",
      "--window", "4"),
     "edbabd34a9f104e023fff86b4e77c014074b4a855afea1152addf3eb51a5fce5"),
    (("bracket", "--left", "x:3", "--right", "x:-3"),
     "79eb652c04dd8fff1a5813749ab6cfa31c94da5d687dd213666b4fb5d219c999"),
    (("bracket", "--left", "i:2", "--right", "x:-2"),
     "a0cc0c408e15afe1ff01fb8567655d35617604659a4130ec2211c5cda89215ac"),
    (("vir-embed", "--e", "-1/2", "--n", "3"),
     "e3c7d6541f770f609ed0183a6e008ad666153502f61c7518a2c8b2ee54cf9ab8"),
    (("normal-order", "x:2", "x:-2", "i:1", "c", "x:-1"),
     "375030c3e25beb5d4d0541bc680021e0f293c5e8ee32b05c06bfd157a86a07e4"),
    (("verma-basis", "--level", "4"),
     "d79bf5dfa5e88bb29c5b45e0ff74b6645a1a5d3a97e552a6f371a605e9e725ee"),
    (("verma-singular", "--lambda", "2", "--c", "0", "--c0", "0", "--c1",
      "7", "--max-level", "3"),
     "7349f096a374317238dda9a202903655daa4ce80189f84b6112238a7d7a01824"),
    (("verma-check", "--lambda", "1/3", "--c", "2", "--c0", "1", "--c1",
      "8", "--max-level", "4"),
     "28ff260bcb7e7887c38691d5f4e53cd4b8920c13af91fbd2e156d0e8897b6ebd"),
    (("verma-singular", "--lambda", "5", "--c", "3", "--c0", "2/7", "--c1",
      "3/11", "--max-level", "6"),
     "c27e01cc609226ee608760e22849b5dde7baf23d4165ffd02e295655366cd84c"),
    (("verma-check", "--lambda", "2", "--c", "1", "--c0", "2", "--c1", "6",
      "--max-level", "5"),
     "6f9c0d5959c03c9eb9df8dc6481987f8b7ae9b64078f1aefd94755e955d5254d"),
    (("verma-singular", "--lambda", "2", "--c", "1", "--c0", "0", "--c1",
      "7", "--max-level", "5"),
     "7463850a74bde897128f1b9eca3f981ef049377f7da31e234e53fd17230ac9c8"),
    (("im-act", "--family", "Aa", "--a", "1/2", "--window", "3"),
     "dce092bbc729e172555300b5e2b9558afc15b232f35960a58a0a903861c5a59e"),
    (("im-act", "--family", "Ba", "--a", "-2", "--window", "3", "--output",
      "tsv"),
     "c69a60e70599eb0e7a055b9f0017819a57fb1283d756f4053b2ded7231f8a4e2"),
    (("im-act", "--family", "Aab", "--a", "0", "--b", "1", "--mask", "0",
      "--gen", "x:-2", "--index", "2"),
     "ed61052b8fcedae8d8bd19f1e7cb61e4bbe976c30c47b7e13a139ed3a5725cb5"),
    (("im-act", "--family", "Aab", "--a", "1/2", "--b", "1/3", "--gen",
      "x:3", "--index", "-1"),
     "189b3049b9b879f441fc3724de1efc5129cef177c8d6f551b841aa4deb748bb0"),
    (("im-probe", "--family", "Aab", "--a", "0", "--b", "1", "--window", "4"),
     "54b88d1a63d402f4579a770e6c71abec59eec4e47668bce831d0765799723793"),
    (("im-probe", "--family", "Aa", "--a", "1/2", "--mask", "0", "--window",
      "3"),
     "0c4946ff588b9a65f9cd1234c9bd62e83272676d1937905a517dfc893e62bf05"),
    (("jacobi", "--window", "3"),
     "1216d623e1807f0532c5a79a3ba55945561e0b1d174dbfed4924778372914e40"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_stdout_digest(argv, digest):
    proc = subprocess.run(
        [sys.executable, "-m", "w22", *argv], capture_output=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_in_process_digests_in_both_orders():
    for argv, digest in GOLDEN + GOLDEN[::-1]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv
