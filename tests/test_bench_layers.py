"""The benchmark tracer's layer list against the package it wraps."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


def test_tracer_times_every_curve_csv_of_a_run(tmp_path):
    # Tracer.install has no uninstall, so the traced run gets a process of
    # its own.  simulate writes five curve CSVs, interpolated.csv through
    # formats.write_uniform_csv: each must be one cli.write_curve_csv span
    root = Path(__file__).parents[1]
    code = ("import importlib.util, json, sys\n"
            "spec = importlib.util.spec_from_file_location('bench_tracer', sys.argv[1])\n"
            "tracer = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracer)\n"
            "trace = tracer.Tracer()\n"
            "trace.install()\n"
            "from nyqmirror import cli\n"
            "code = cli.main(sys.argv[2:])\n"
            "print(json.dumps([code, [span['name'] for span in trace.spans]]))\n")
    scenario = {"signal": {"kind": "harmonic", "freq_hz": 1.2},
                "scheme": {"kind": "uniform", "rate_hz": 5.0},
                "duration_s": 12.0, "resample_hz": 16.0}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code, str(root / "bench" / "tracer.py"),
                          "simulate", "--set", f"scenario={json.dumps(scenario)}",
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    *written, last = run.stdout.splitlines()
    code, spans = json.loads(last)
    assert code == 0
    assert sorted(Path(path).name for path in written) == [
        "interpolant.csv", "interpolated.csv", "samples.csv", "truth_if.csv",
        "truth_isr.csv"]
    assert spans.count("cli.write_curve_csv") == len(written)
