"""Golden stdout digests of the verify verbs.

Each command's stdout is pinned by its sha256.  The six non-integral
alpha digests were taken before the constraint systems moved to integer
columns and an integer exact check; the integral-alpha digest was taken
once the builders stopped skipping the triples with a zero weight factor
(alpha + n)(alpha + n + i)(alpha + n + j)(alpha + n + i + j).  A change
that keeps the answers keeps these digests; a change of the output
contract must update them and say so.  Every command runs in under a
second.
"""

import hashlib
import subprocess
import sys

import pytest

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
