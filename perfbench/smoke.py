"""Smoke test of the benchmark itself; not part of the tier-1 test suite.

    python3 perfbench/smoke.py

Runs a tiny variant of every workload in-process (untraced and traced),
checks that every verdict matches its known answer and that the exact
size counters repeat between two traced runs, that the traced metric
names are the per-layer names in BENCHMARK.json, that run.py prints the
end-to-end result line for a short run, and that run.py refuses a
directory holding only the benchmark.  Takes about ten seconds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402


def fail(message):
    sys.stderr.write("smoke: FAIL %s\n" % message)
    sys.exit(1)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in config["per_layer"]}
    end_to_end = {m["name"] for m in config["end_to_end"]}
    worker.import_w22()

    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            plain = worker.measure(name, seed, 0, False, size="tiny")
            first = worker.measure(name, seed, 0, True, size="tiny")
            second = worker.measure(name, seed, 0, True, size="tiny")
            for result in (plain, first, second):
                if result["failed"]:
                    fail("%s seed %d: %r" % (name, seed, result["failures"]))
            if not all(ref > 0 for refs in plain["refs"] for ref in refs):
                fail("%s seed %d: verdict times in ref not positive"
                     % (name, seed))
            if first["counters"] != second["counters"]:
                fail("%s seed %d: counters differ between runs" % (name, seed))
            if set(first["layers"]) != per_layer:
                fail("%s: traced metrics %r differ from BENCHMARK.json"
                     % (name, sorted(set(first["layers"]) ^ per_layer)))
        print("smoke: %s ok (%d verdicts per tiny batch)"
              % (name, plain["attempted"]))

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "structure-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not last["correct"]:
        fail("run.py structure-cli: exit %d, %r" % (proc.returncode, last))
    if set(last) != {"correct", "attempted", "failed", "metrics"} or set(
        last["metrics"]
    ) != end_to_end:
        fail("run.py result line has keys %r" % sorted(last["metrics"]))
    print("smoke: run.py result line ok")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / "run.py"), "--workload",
             "structure-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("run.py without w22 source: exit %d, stdout %r"
                 % (proc.returncode, proc.stdout))
    print("smoke: refused without w22 source ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
