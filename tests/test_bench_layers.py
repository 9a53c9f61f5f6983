"""The benchmark tracer's layer list against the package it wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path


def test_every_traced_layer_is_a_package_function():
    # the tracer refuses to install when a listed function is missing, so
    # a renamed function would otherwise fail only in a traced benchmark run
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"nyqmirror.{layer}.{name}"
               for layer, names in tracer.LAYERS.items()
               for name in names
               if not inspect.isfunction(getattr(
                   importlib.import_module(f"nyqmirror.{layer}"), name, None))]
    assert tracer.LAYERS and not missing
