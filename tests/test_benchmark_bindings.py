"""The benchmark's traced bindings still name callables of the package.

perfbench's tracer wraps each (module, attribute) binding listed in
``perfbench/tracing.py``'s ``LAYERS``, and reports a layer whose every
binding is missing as absent rather than failing the run: a renamed or
removed function would silently drop that layer's metrics from the
benchmark result.  The tracer's source is read and executed here in a
fresh namespace, so nothing under ``perfbench/`` is imported or written.

Each workload also runs once, traced, through ``perfbench/worker.py``
with bytecode writing off, and its result line must be strict JSON that
reports no failure, repeating counters, no absent layer and exactly the
per-layer metrics that ``BENCHMARK.json`` declares.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ("verma-sweep", "constraints-matrix", "constraints-scalar",
             "structure-cli")


def _tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "layer, module_name, attr",
    [
        (layer, module_name, attr)
        for layer, bindings, _ in _tracing().LAYERS
        for module_name, attr in bindings
    ],
)
def test_traced_binding_is_a_callable(layer, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), layer


def _strict_constant(name):
    raise ValueError("not strict JSON: %s" % name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_reports_every_declared_layer(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/worker.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1], parse_constant=_strict_constant)
    assert result["workload"] == workload
    assert result["failed"] == 0, result["failures"]
    assert result["counters_repeat"] is True
    assert result["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["layers"]) == sorted(m["name"] for m in declared)
