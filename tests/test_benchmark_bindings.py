"""The benchmark's traced bindings still name callables of the package.

perfbench's tracer wraps each (module, attribute) binding listed in
``perfbench/tracing.py``'s ``LAYERS``, and reports a layer whose every
binding is missing as absent rather than failing the run: a renamed or
removed function would silently drop that layer's metrics from the
benchmark result.  The tracer's source is read and executed here in a
fresh namespace, so nothing under ``perfbench/`` is imported or written.
"""

import importlib
import pathlib
import types

import pytest

TRACING = (
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)


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
