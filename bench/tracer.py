"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public layer function listed in ``LAYERS``
with a wrapper that records a span (name, start, end, parent, run id) and
the work counts of that call.  The wrapper is bound wherever the original
is bound in a ``nyqmirror`` module, so callers that imported the function
by name (``cli`` calling ``synchrosqueeze``, ``multitaper`` calling it
through ``tf_analysis``) reach the wrapper too.  A listed function that is
missing raises at install time, so a refactor cannot hide its time.

``layer_metrics`` turns the spans of one pass into the per-layer metrics:
self time per function (span minus direct child spans), work counts, and
exceptions that left a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> public functions wrapped in it.  cli.main is the root span of
# each job; its self time is the CLI glue no other span covers.
LAYERS = {
    "cli": ("main", "write_tfr_csv", "write_curve_csv", "write_tfr_binary",
            "write_pgm"),
    "signal_model": ("builtin_scenario",),
    "sampling": ("sample_signal", "sampling_times", "estimate_isr"),
    "spline_interp": ("interpolate_nonuniform", "interpolate_pchip",
                      "resample_uniform"),
    "tf_analysis": ("stft", "synchrosqueeze", "reassign", "multitaper",
                    "log_display", "ridge_extract"),
    "reflection": ("predict_components", "synthesize_prediction",
                   "verify_reflection_theorem", "above_inf_energy_ratio"),
    "mitigation": ("inf_hard_threshold",),
    "physio_io": ("parse_rpeaks", "synth_rpeaks", "ihr_signal", "edr_signal"),
}

# work counts recorded at the layer boundaries from one call's arguments
# and result, keyed by per-layer metric name
_FFT_PASSES = {"stft": 1, "synchrosqueeze": 1, "reassign": 2}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _tf_counts(name):
    def counts(args, kwargs, result):
        out = {"tf_analysis.matrix_mb": result.matrix.nbytes / 1e6}
        if name in _FFT_PASSES:
            # frames transformed by this call itself; the base STFT of sst
            # and rm is its own child span
            out["tf_analysis.fft_frames"] = \
                _FFT_PASSES[name] * result.matrix.shape[1]
        if name != "log_display":
            out["tf_analysis.cells"] = result.matrix.size
        return out
    return counts


COUNTERS = {
    **{f"tf_analysis.{n}": _tf_counts(n)
       for n in ("stft", "synchrosqueeze", "reassign", "multitaper",
                 "log_display")},
    "reflection.synthesize_prediction": lambda args, kwargs, result: {
        "reflection.series_points": len(result)},
    "spline_interp.interpolate_nonuniform": lambda args, kwargs, result: {
        "spline_interp.knots_solved": len(_first_arg(args, kwargs, "samples"))},
    "spline_interp.resample_uniform": lambda args, kwargs, result: {
        "spline_interp.points_resampled": len(result)},
    "sampling.sampling_times": lambda args, kwargs, result: {
        "sampling.instants": len(result)},
    "physio_io.parse_rpeaks": lambda args, kwargs, result: {
        "physio_io.beats": len(result)},
    "physio_io.synth_rpeaks": lambda args, kwargs, result: {
        "physio_io.beats": len(result)},
}


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []

    def install(self):
        pkg = "nyqmirror"
        layers = {layer: importlib.import_module(f"{pkg}.{layer}")
                  for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == pkg or name.startswith(pkg + ".")]
        for layer, names in LAYERS.items():
            for name in names:
                orig = getattr(layers[layer], name, None)
                if not callable(orig):
                    raise RuntimeError(
                        f"traced function {pkg}.{layer}.{name} is missing")
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, span_name, fn):
        counter = COUNTERS.get(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": span_name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None,
                    "error": None, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result
        return wrapper


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [("cli.self_s", "s")]
    for layer, funcs in LAYERS.items():
        names += [(f"{layer}.{f}_s", "s") for f in funcs if f != "main"]
    names += [
        ("cli.bytes_written", "bytes"),
        ("cli.files_written", "count"),
        ("tf_analysis.cells", "count"),
        ("tf_analysis.fft_frames", "count"),
        ("tf_analysis.matrix_mb", "MB"),
        ("reflection.series_points", "count"),
        ("spline_interp.knots_solved", "count"),
        ("spline_interp.points_resampled", "count"),
        ("sampling.instants", "count"),
        ("physio_io.beats", "count"),
    ]
    names += [(f"{layer}.errors", "count") for layer in LAYERS]
    names.append(("trace.overhead_s", "s"))
    return names


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the cli.*_written
    counts and trace.overhead_s, which the runner fills in."""
    out = {name: 0 for name, _ in metric_names()}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        layer = span["name"].split(".")[0]
        key = "cli.self_s" if span["name"] == "cli.main" else f"{span['name']}_s"
        out[key] += span["end"] - span["start"] - child_time[i]
        parent = spans[span["parent"]]["name"] if span["parent"] is not None else ""
        if span["error"] and not parent.startswith(layer + "."):
            out[f"{layer}.errors"] += 1
        for count, value in span["counts"].items():
            # tf_analysis.cells counts the TF products handed out of the
            # layer, not the inner STFTs of sst, rm and multitaper
            if count != "tf_analysis.cells" or not parent.startswith("tf_analysis."):
                out[count] += value
    return out
