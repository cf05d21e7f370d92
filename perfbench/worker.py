"""Runs one workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --setup --workload NAME --seed N
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

With ``--setup`` it times ``import w22`` (and ``w22.cli``, which every CLI
call loads) plus the generation of the seeded inputs, and prints that.
Otherwise it repeats the workload's fixed batch of verdicts while another
whole batch still fits in ``--seconds`` (always at least once), checks every
verdict after the timed loop, and prints one JSON object on its last line.

Verdict times are taken with the reference probe running (contention.py)
and are kept both in seconds and in ref, the time of the probe's reference
computation at that moment on the same core.  Ref is what the end-to-end
metrics report: on a shared machine the seconds swing with the load of
other tenants, and the ratio does not.

With ``--trace 1`` every round runs the batch once untraced and once with
the layer wrappers installed; end-to-end numbers come only from the
untraced batches, and their difference is the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import contention  # noqa: E402  (sibling modules; the script dir is on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Layers reported by self time, and the ones also reported by call count.
SELF_TIMES = (
    "linalg.nullspace",
    "linalg.solve_sparse",
    "verma.raising_matrix",
    "verma.level_basis",
    "constraints.build",
    "constraints.verify_x_action",
    "constraints.solve_linear",
    "constraints.check_quadratic",
    "constraints.report",
    "liecore.jacobi_check",
    "pbw.normal_order",
    "intermediate.bracket_compatibility_check",
    "intermediate.simplicity_probe",
)
CALL_COUNTS = (
    "linalg.nullspace",
    "linalg.solve_sparse",
    "verma.raising_matrix",
    "verma.level_basis",
    "constraints.build",
    "pbw.normal_order",
)


def import_w22():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import w22
    import w22.cli  # noqa: F401

    if Path(w22.__file__).resolve().parent != SRC / "w22":
        raise ImportError("w22 imported from %s, not %s" % (w22.__file__, SRC))
    return w22


def run_batch(batch, tracer=None, probe=None):
    """Run every verdict once; time each call, then check the answers.

    With a running ``probe``, each time is also expressed in ref."""
    counters = []
    results = []
    times = []
    refs = []
    if tracer is not None:
        tracer.spans = []
        tracer.install()
    try:
        start = time.perf_counter()
        for index, verdict in enumerate(batch):
            if tracer is not None:
                tracer.begin_verdict(index)
            mark = probe.mark() if probe is not None else 0
            began = time.perf_counter()
            try:
                results.append((verdict.run(), None))
            except Exception as exc:  # a raising verdict is a failed verdict
                results.append((None, "%s: %s" % (type(exc).__name__, exc)))
            elapsed = time.perf_counter() - began
            if probe is not None:
                elapsed, ref = probe.region(mark, probe.mark(), elapsed)
                refs.append(ref)
            times.append(elapsed)
            if tracer is not None:
                counters.append(tracer.end_verdict())
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    failures = []
    for verdict, (result, error) in zip(batch, results):
        if error is None:
            try:
                error = verdict.check(result)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failures.append([verdict.label, error])
    out = {"wall": wall, "times": times, "refs": refs, "failures": failures}
    if tracer is not None:
        out["counters"] = counters
        out["layers"] = tracer.aggregate()
    return out


def best_times(batches):
    """Per-verdict best time over the batches of one run."""
    return [min(times) for times in zip(*(b["times"] for b in batches))]


def layer_metrics(traced, untraced_wall):
    """Per-layer metrics of the traced batches (best of the batches)."""

    def best(get):
        return min(get(batch) for batch in traced)

    metrics = {}
    for layer in SELF_TIMES:
        metrics[layer + ".self_s"] = (
            best(lambda b, k=layer: b["layers"][0].get(k, 0.0)), "s")
    metrics["liecore.antisymmetry_sweep_s"] = (
        best(lambda b: b["layers"][0].get("liecore.antisymmetry_sweep", 0.0)),
        "s")
    for layer in CALL_COUNTS:
        metrics[layer + ".calls"] = (traced[0]["layers"][1].get(layer, 0),
                                     "count")
    for verb in workloads.CLI_VERBS:
        metrics["cli.main.%s_s" % verb] = (
            best(lambda b, v=verb: b["layers"][2].get(v, 0.0)), "s")
    for name, value in tracing.merge_counts(traced[0]["counters"]).items():
        metrics[name] = (value, "bits" if name.endswith("_bits") else "count")
    traced_wall = sum(best_times(traced))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def measure(name, seed, seconds, trace, size="full"):
    spec = workloads.make_inputs(name, seed, size)
    tracer = tracing.Tracer() if trace else None
    batch = workloads.verdicts(name, spec, tracer)
    plain, traced = [], []
    probe = contention.Probe()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        probe.start()
        try:
            plain.append(run_batch(batch, probe=probe))
        finally:
            probe.stop()
        if tracer is not None:
            traced.append(run_batch(batch, tracer))
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break

    runs = plain + traced
    failures = [f for b in runs for f in b["failures"]]
    best = best_times(plain)
    out = {
        "workload": name,
        "seed": seed,
        "inputs": workloads.input_sizes(name, spec),
        "attempted": len(batch) * len(runs),
        "failed": len(failures),
        "failures": failures[:5],
        "repetitions": len(plain),
        "best_times": best,
        "refs": [list(r) for r in zip(*(b["refs"] for b in plain))],
        "times": [list(t) for t in zip(*(b["times"] for b in plain))],
        "probe_median_s": probe.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters_repeat": True,
    }
    if tracer is not None:
        out["counters"] = traced[0]["counters"]
        out["counters_repeat"] = all(
            b["counters"] == traced[0]["counters"] for b in traced
        )
        out["absent"] = tracer.absent
        out["layers"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in layer_metrics(traced, sum(best)).items()
            if not any(metric.startswith(layer + ".")
                       for layer in tracer.absent)
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    if args.setup:
        start = time.perf_counter()
        import_w22()
        workloads.make_inputs(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    import_w22()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
