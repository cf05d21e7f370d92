"""Time-to-verdict benchmark for the w22 package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: verma-sweep,
constraints-matrix, constraints-scalar, structure-cli (see README.md).

Set-up is timed in fresh processes, each importing the package and
generating the seeded inputs: one warm-up, then SETUP_PROCESSES timed ones
before the workload and as many after it.  ``setup_s`` is their median.
The workload itself runs in one more fresh process between them.

Verdict times are reported in ref (see contention.py): wall seconds on a
shared machine swing by up to 1.9x with other tenants' load, while the
ratio of a verdict's time to a reference computation timed beside it
holds still.  The raw seconds are printed too, outside the result line.
The last line of output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Earlier lines give every metric
with its unit, the run's metadata and the input sizes.

Exit status: 0 when a result was printed (``correct`` says whether every
verdict matched its known answer), 2 when the checkout holds no w22 source
or the arguments are bad, 1 when the workload process failed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 4
WORKER_TIMEOUT_S = 170


def _python(args, timeout):
    """Run the worker in a fresh interpreter that ignores PYTHON* settings
    and user site-packages; return its parsed last output line."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", str(WORKER), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed, count=SETUP_PROCESSES):
    argv = ["--setup", "--workload", workload, "--seed", str(seed)]
    return [_python(argv, 60)["setup_s"] for _ in range(count)]


def metadata():
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "w22").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "w22" / "__init__.py").is_file():
        sys.stderr.write("no w22 source under %s\n" % (ROOT / "src"))
        return 2

    try:
        setups = []
        if not args.trace:
            # The warm-up byte-compiles the package on first use.
            setup_seconds(args.workload, args.seed, count=1)
            setups += setup_seconds(args.workload, args.seed)
        result = _python(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            WORKER_TIMEOUT_S,
        )
        if not args.trace:
            setups += setup_seconds(args.workload, args.seed)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1

    print("meta %s" % json.dumps(metadata(), sort_keys=True))
    print("workload %s seed %d inputs %s" % (
        args.workload, args.seed, json.dumps(result["inputs"], sort_keys=True)))
    for label, reason in result["failures"]:
        print("FAILED %s: %s" % (label, reason))
    # Per verdict, the median over the run's repetitions.
    refs = [statistics.median(r) for r in result["refs"]]
    seconds = [statistics.median(t) for t in result["times"]]
    print("failed_frac %.6f (%d of %d verdicts)" % (
        result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))

    if args.trace:
        metrics = result["layers"]
        if result["absent"]:
            print("absent layers: %s" % ", ".join(result["absent"]))
        print("counters per verdict: %s" % json.dumps(result["counters"]))
        print("counters repeat across traced batches: %s"
              % result["counters_repeat"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "batch_ref": {"value": sum(refs), "unit": "ref"},
            "verdict_ref.p50": {"value": statistics.median(refs),
                                "unit": "ref"},
            "verdict_ref.max": {"value": max(refs), "unit": "ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    per_verdict = "%d verdicts, each the median of %d" % (
        len(refs), result["repetitions"])
    samples = {
        "setup_s": "median of %d processes" % len(setups),
        "batch_ref": "sum over " + per_verdict,
        "verdict_ref.p50": "median over " + per_verdict,
        "verdict_ref.max": "max over " + per_verdict,
    }
    for name in metrics:
        print("%-48s %-22r %-5s %s" % (name, metrics[name]["value"],
                                        metrics[name]["unit"],
                                        samples.get(name, "")))
    print("seconds (contended, not a metric): batch %.4f, verdict p50 "
          "%.4f, max %.4f; 1 ref = %.1f us (median probe)" % (
              sum(seconds), statistics.median(seconds), max(seconds),
              result["probe_median_s"] * 1e6))
    correct = result["failed"] == 0 and result["counters_repeat"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
