"""Command-line surface: ``nyqmirror simulate|tfr|predict|physio``.

Runs are driven by a JSON config, overridden by ``--set key=value``
assignments and ``--out``.  Every key has a default, a type and, where
it applies, choices and bounds (see the README); a value outside them is
a config error that names the key.  Every command writes only the files
whose format is in ``output.formats``, plus its JSON reports, and prints
their paths in write order.  Output files are written atomically, embed
a metadata header and are bit-reproducible (no wall clock, no RNG).

Exit codes: 0 success, 1 usage/config error, 2 data error.

Output formats: CSV (metadata lines starting with ``#``, ``# key=value``,
then an RFC 4180 body: numbers printed as ``%.17g``, rows ending in
CRLF), TFR1 binary (magic ``TFR1``, little-endian uint64 dims
``freq_bins, frames``, float64 frequency axis, float64 time axis, then
row-major float64 magnitudes; the reader checks the file length against
the dims), and 8-bit binary PGM (P5) images of the log-scale display
matrix (1e-2 maps to 0, the display maximum to 255, linear in between;
row 0 is the highest frequency).  Every artifact gets mode
``0666 & ~umask``, as a plain ``open`` would give it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .mitigation import inf_hard_threshold, lowpass_prefilter
from .physio_io import edr_signal, ihr_signal, parse_rpeaks, synth_rpeaks
from .reflection import (
    above_inf_energy_ratio,
    predict_components,
    verify_reflection_theorem,
)
from .sampling import cosine_warp, estimate_isr, quadratic_warp, sample_signal
from .signal_model import Scenario, builtin_scenario, harmonic
from .spline_interp import (
    UniformSignal,
    interpolate_nonuniform,
    interpolate_pchip,
    resample_uniform,
)
from .tf_analysis import (
    TFRepresentation,
    log_display,
    make_windows,
    multitaper,
    reassign,
    ridge_extract,
    stft,
    synchrosqueeze,
)

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "main",
    "scenario_from_config",
]


class ConfigError(Exception):
    """Unusable configuration or command line (exit code 1)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_MISSING = object()  # the value of an object key left out, if it has no default
# bounds on work: spline collocation fails its 1e12 condition check near
# order 40 on fig2, and predict costs about 10 ms per reflection order k
_MAX_ORDER = 31
_MAX_K = 64


class _Leaf(NamedTuple):
    """One config value: its default, its ``kind`` (a tuple of types; by
    default the type of the default), the ``choices`` of a string or of
    each list item, the inclusive bounds ``lo``/``hi`` of a number
    (``positive``: above 0), and the keys of an object, as ``fields`` or
    as ``variants`` picked by its ``kind`` key.  It may be null only if
    its default is.  ``_typed`` checks a value against it."""

    default: object
    kind: tuple = ()
    choices: tuple = ()
    lo: float = -math.inf
    hi: float = math.inf
    positive: bool = False
    fields: dict | None = None
    variants: dict | None = None


_POSITIVE = _Leaf(_MISSING, (float,), positive=True)
_SCENARIO_FIELDS = {
    "signal": _Leaf(_MISSING, (dict,), variants={"harmonic": {
        "freq_hz": _Leaf(1.0, positive=True), "amp": _Leaf(1.0, positive=True),
    }}),
    "scheme": _Leaf(_MISSING, (dict,), variants={
        "uniform": {"rate_hz": _Leaf(8.0, positive=True)},
        "cosine": {"base_hz": _Leaf(8.0), "depth_hz": _Leaf(0.5),
                   "period_s": _Leaf(20.0, positive=True)},
        "quadratic": {"base_hz": _Leaf(6.0, positive=True),
                      "quad_denom": _Leaf(800.0, positive=True),
                      "t_center": _Leaf(0.0)},
    }),
    "duration_s": _POSITIVE,
    "resample_hz": _POSITIVE,
}

# Every config key, "section.key" or a top-level key; unknown keys are rejected.
_LEAVES = {
    "scenario": _Leaf("fig1", (str, dict), ("fig1", "fig2"),
                      fields=_SCENARIO_FIELDS),
    "input": _Leaf(None, (str,)),
    "interpolation.scheme": _Leaf("bspline", choices=("bspline", "pchip")),
    "interpolation.order": _Leaf(3, lo=1, hi=_MAX_ORDER),
    "analysis.method": _Leaf("sst", choices=("stft", "sst", "rm", "mt_sst", "mt_rm")),
    "analysis.window": _Leaf("gaussian", choices=("gaussian", "hermite")),
    "analysis.window_s": _Leaf(10.0, positive=True),
    "analysis.hop": _Leaf(None, (int,), lo=1, hi=sys.maxsize),   # None: 8 frames/s
    "analysis.nfft": _Leaf(None, (int,), lo=1, hi=sys.maxsize),  # None: >= 16x window
    "analysis.tapers": _Leaf(3, lo=2, hi=10),
    "analysis.threshold": _Leaf(1e-8, lo=0.0),
    "mitigation.inf_mask": _Leaf(False),
    "mitigation.lowpass": _Leaf(None, (dict,), fields={"cutoff_hz": _POSITIVE,
                                                    "transition_hz": _POSITIVE}),
    "physio.rate_hz": _Leaf(8.0, positive=True),
    "physio.edr_scheme": _Leaf("cubic", (str, int), ("cubic", "pchip"), lo=1,
                               hi=_MAX_ORDER),
    "physio.synth": _Leaf(None, (dict,), fields={
        "ihr_hz": _Leaf(1.4, positive=True), "resp_hz": _Leaf(0.5),
        "duration_s": _Leaf(240.0, positive=True), "modulation_depth": _Leaf(0.1),
    }),
    "predict.k_min": _Leaf(-1, lo=-_MAX_K, hi=0),
    "predict.k_max": _Leaf(3, lo=0, hi=_MAX_K),
    "output.directory": _Leaf("out"),
    "output.formats": _Leaf(["csv", "tfr1", "pgm"], choices=("csv", "tfr1", "pgm")),
}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object"}


def _nest(flat: dict) -> dict:
    """``{"section.key": value}`` as ``{"section": {"key": value}}``."""
    nested = {}
    for where, value in flat.items():
        section, _, key = where.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[key] = value
    return nested


DEFAULT_CONFIG = _nest({where: leaf.default for where, leaf in _LEAVES.items()})


def _typed(value, leaf: _Leaf, where: str):
    """``value`` as the type ``leaf`` allows (an integral number as an int,
    an int as a float, an object with its defaults filled in) and within
    its choices and bounds; anything else is a ConfigError naming ``where``."""
    kinds = leaf.kind or (type(leaf.default),)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and float in kinds and abs(value) <= sys.float_info.max:
        value = float(value)
    elif number and int in kinds and (isinstance(value, int) or value.is_integer()):
        value = int(value)
    elif isinstance(value, list) and list in kinds:
        item = _Leaf(_MISSING, (str,), leaf.choices)
        return [_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict) and dict in kinds:
        return _typed_object(value, leaf, where)
    elif number or not (value is None and leaf.default is None or type(value) in kinds):
        names = [_KIND_NAMES[k] for k in kinds] + ["null"] * (leaf.default is None)
        got = "nothing" if value is _MISSING else json.dumps(value)
        raise ConfigError(f"{where} must be {' or '.join(names)}, got {got}")
    if isinstance(value, str) and leaf.choices and value not in leaf.choices:
        raise ConfigError(f"{where} must be one of {', '.join(leaf.choices)}, "
                          f"got {json.dumps(value)}")
    if number and (not leaf.lo <= value <= leaf.hi or leaf.positive and value <= 0):
        bounds = "> 0" if leaf.positive else f"in [{leaf.lo}, {leaf.hi}]"
        raise ConfigError(f"{where} must be {bounds}, got {value}")
    return value


def _typed_object(obj: dict, leaf: _Leaf, where: str) -> dict:
    fields = leaf.fields
    if leaf.variants:
        kind = _Leaf(_MISSING, (str,), tuple(leaf.variants))
        picked = _typed(obj.get("kind", _MISSING), kind, f"{where}.kind")
        fields = {"kind": kind, **leaf.variants[picked]}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key: {where}.{unknown[0]}")
    return {key: _typed(obj.get(key, field.default), field, f"{where}.{key}")
            for key, field in fields.items()}


def _assign(flat: dict, where: str, value):
    """Set the leaf ``where`` of the flat config ``flat``, or each key of
    the section ``where`` ("" for the root), as a config file sets it."""
    if where in flat:
        flat[where] = value
    elif where and not isinstance(DEFAULT_CONFIG.get(where), dict):
        raise ConfigError(f"unknown config key: {where}")
    elif not isinstance(value, dict):
        raise ConfigError(f"config section {where or '<root>'} must be an object")
    else:
        for key, item in value.items():
            name = f"{where}.{key}" if where else key
            if "." in key:  # dotted names are for --set only
                raise ConfigError(f"unknown config key: {name}")
            _assign(flat, name, item)


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Defaults, overlaid with a JSON file and then key=value assignments;
    each leaf of the result is then checked once against its ``_LEAVES`` row."""
    flat = {where: leaf.default for where, leaf in _LEAVES.items()}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        _assign(flat, "", user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _assign(flat, dotted, value)  # like a config file: a section stays an object
    return _nest({where: _typed(flat[where], leaf, where)
                  for where, leaf in _LEAVES.items()})


def scenario_from_config(obj) -> Scenario:
    """Scenario from its config form, a builtin name or a parametric
    object, after checking it against the ``scenario`` row of ``_LEAVES``;
    the keys of a scheme object are its warp constructor's parameters."""
    obj = _typed(obj, _LEAVES["scenario"], "scenario")
    if isinstance(obj, str):
        return builtin_scenario(obj)
    kind, scheme = obj["scheme"]["kind"], dict(obj["scheme"])
    del scheme["kind"]
    if kind == "quadratic":
        warp = quadratic_warp(**scheme)
    elif kind == "uniform":
        warp = cosine_warp(scheme["rate_hz"], 0.0, 1.0)
    elif scheme["base_hz"] <= abs(scheme["depth_hz"]):
        raise ConfigError("scenario.scheme needs base_hz > |depth_hz|")
    else:
        warp = cosine_warp(**scheme)
    signal = harmonic(obj["signal"]["freq_hz"], obj["signal"]["amp"])
    return Scenario("custom", signal, warp, obj["duration_s"], obj["resample_hz"])


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_write(path: Path):
    """Yield a binary temp file beside ``path``; on success give it mode
    ``0666 & ~umask`` and rename it over ``path``, on failure remove it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp created it 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj: dict):
    with _atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_lines(meta: dict) -> str:
    lines = [f"# artifact=nyqmirror {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (str, np.str_)):
        return value
    return _fmt(value)


def write_curve_csv(path: Path, columns: dict[str, np.ndarray], meta: dict):
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    with _atomic_write(path) as fh:
        fh.write((_meta_lines(meta) + ",".join(names) + "\r\n").encode("utf-8"))
        for row in zip(*arrays):
            fh.write((",".join(_cell(v) for v in row) + "\r\n").encode("utf-8"))


def read_uniform_csv(path: Path) -> UniformSignal:
    """Read back a uniform-signal CSV produced by this tool."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    meta = {}
    values = []
    for line in text.splitlines():
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            continue
        if not line or line.startswith("time_s"):
            continue
        parts = line.split(",")
        values.append(float(parts[-1]))
    if "rate_hz" not in meta:
        raise ValueError(f"{path} lacks the rate_hz metadata of a uniform signal")
    return UniformSignal(
        values=np.asarray(values),
        rate=float(meta["rate_hz"]),
        t_start=float(meta.get("t_start_s", 0.0)),
    )


def write_uniform_csv(path: Path, sig: UniformSignal, meta: dict):
    full = dict(meta)
    full["rate_hz"] = _fmt(sig.rate)
    full["t_start_s"] = _fmt(sig.t_start)
    write_curve_csv(path, {"time_s": sig.times, "value": sig.values}, full)


def write_tfr_binary(path: Path, tfr: TFRepresentation):
    mag = np.ascontiguousarray(np.abs(tfr.matrix), dtype="<f8")
    with _atomic_write(path) as fh:
        fh.write(b"TFR1")
        fh.write(np.asarray(mag.shape, dtype="<u8").tobytes())
        fh.write(tfr.freq_axis.astype("<f8").tobytes())
        fh.write(tfr.time_axis.astype("<f8").tobytes())
        fh.write(mag)


def read_tfr_binary(path: Path):
    raw = path.read_bytes()
    if len(raw) < 20 or raw[:4] != b"TFR1":
        raise ValueError(f"{path} is not a TFR1 file")
    bins, frames = (int(n) for n in np.frombuffer(raw, dtype="<u8", count=2,
                                                   offset=4))
    want = 20 + 8 * (bins + frames + bins * frames)
    if len(raw) != want:
        raise ValueError(f"{path}: a {bins} x {frames} TFR1 file has {want} "
                         f"bytes, this one has {len(raw)}")
    off = 4 + 16
    freq = np.frombuffer(raw, dtype="<f8", count=bins, offset=off)
    off += bins * 8
    times = np.frombuffer(raw, dtype="<f8", count=frames, offset=off)
    off += frames * 8
    mat = np.frombuffer(raw, dtype="<f8", offset=off).reshape(bins, frames)
    return mat, freq, times


# rows formatted per bulk ``%`` call in write_tfr_csv: large enough to
# amortise the per-block numpy calls, small enough that a block's text
# (about 3 MB at 640 frames) stays far below the matrix itself
_CSV_BLOCK_ROWS = 256


def write_tfr_csv(path: Path, tfr: TFRepresentation, meta: dict):
    mag = np.abs(tfr.matrix)
    rows, frames = mag.shape
    # A block's text is one ``%`` call on a template holding "%.17g" per
    # cell, except that cells equal to the matrix minimum hold its
    # formatted text: sharpened and masked matrices are mostly zeros and
    # display matrices mostly their floor.  Equal floats format alike once
    # np.abs has turned -0.0 into 0.0; fmin skips NaN cells, which equal
    # no value and so take the "%.17g" path.
    low = np.fmin.reduce(mag, axis=None) if mag.size else np.nan
    low_cell = "," + _fmt(low)
    template = np.empty((min(rows, _CSV_BLOCK_ROWS), frames + 2), dtype=object)
    template[:, 0] = "%.17g"
    template[:, 1:-1] = ",%.17g"
    template[:, -1] = "\r\n"
    with _atomic_write(path) as fh:
        fh.write((_meta_lines(meta) + "freq_hz,"
                  + ",".join(_fmt(t) for t in tfr.time_axis) + "\r\n")
                 .encode("utf-8"))
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            block = mag[start:start + _CSV_BLOCK_ROWS]
            is_low = block == low
            cells = template[:len(block)].copy()
            cells[:, 1:-1][is_low] = low_cell
            values = np.empty((len(block), frames + 1))
            values[:, 0] = tfr.freq_axis[start:start + len(block)]
            values[:, 1:] = block
            keep = np.ones(values.shape, dtype=bool)
            np.logical_not(is_low, out=keep[:, 1:])
            text = "".join(cells.ravel().tolist()) % tuple(values[keep].tolist())
            fh.write(text.encode("utf-8"))


def write_pgm(path: Path, display, meta: dict | None = None) -> None:
    mat = display.matrix
    span = float(mat.max() - 1e-2)
    if span <= 0.0:
        pixels = np.zeros(mat.shape, dtype=np.uint8)
    else:
        pixels = np.rint((mat - 1e-2) / span * 255.0).astype(np.uint8)
    pixels = pixels[::-1, :]  # highest frequency on top
    comment = f"# artifact=nyqmirror {__version__}"
    if meta:
        brief = " ".join(f"{k}={meta[k]}" for k in ("method", "window_s", "hop")
                         if k in meta)
        comment += f" {brief}" if brief else ""
    header = f"P5\n{comment}\n{mat.shape[1]} {mat.shape[0]}\n255\n".encode("ascii")
    with _atomic_write(path) as fh:
        fh.write(header)
        fh.write(pixels.tobytes())


class _Outputs:
    """The run's output sink: the directory, the requested
    ``output.formats`` and the paths written so far, in write order.
    ``write`` writes a file only if its suffix is a requested format;
    JSON reports are always written."""

    def __init__(self, cfg: dict):
        self.directory = Path(cfg["output"]["directory"])
        self.formats = {*cfg["output"]["formats"], "json"}
        self.written: list[Path] = []

    def wants(self, *formats: str) -> bool:
        """Whether any of ``formats`` is requested: for skipping the work
        behind files that would not be written."""
        return not self.formats.isdisjoint(formats)

    def write(self, name: str, writer, *args):
        """``writer(directory / name, *args)``, if ``name``'s suffix is a
        requested format."""
        path = self.directory / name
        if self.wants(path.suffix[1:]):
            writer(path, *args)
            self.written += [path]


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _interpolate(cfg, samples):
    if cfg["interpolation"]["scheme"] == "pchip":
        return interpolate_pchip(samples)
    return interpolate_nonuniform(samples, cfg["interpolation"]["order"])


def _analysis_params(cfg, rate):
    ana = cfg["analysis"]
    w_len = int(round(ana["window_s"] * rate)) | 1
    hop = ana["hop"] or max(1, int(round(rate / 8.0)))
    nfft = ana["nfft"] or 1 << int(np.ceil(np.log2(16 * w_len)))
    if nfft < w_len:
        raise ConfigError(f"analysis.nfft must be >= the window length "
                          f"({w_len} samples), got {nfft}")
    return ana["window_s"], hop, nfft


def _run_analysis(cfg, sig: UniformSignal) -> TFRepresentation:
    ana = cfg["analysis"]
    method = ana["method"]
    window_s, hop, nfft = _analysis_params(cfg, sig.rate)
    threshold = ana["threshold"]
    if method in ("mt_sst", "mt_rm"):
        return multitaper(sig, window_s, ana["tapers"], hop, nfft,
                          method.removeprefix("mt_"), threshold)
    window = make_windows(ana["window"], window_s, sig.rate)[0]
    if method == "stft":
        return stft(sig, window, hop, nfft)
    if method == "sst":
        return synchrosqueeze(sig, window, hop, nfft, threshold)
    return reassign(sig, window, hop, nfft, threshold)


def _scenario_pipeline(cfg):
    scenario = scenario_from_config(cfg["scenario"])
    samples = sample_signal(scenario.signal, scenario.scheme, 0.0,
                            scenario.duration_s)
    interp = _interpolate(cfg, samples)
    sig = resample_uniform(interp, scenario.resample_hz,
                           samples.times[0], samples.times[-1])
    return scenario, samples, interp, sig


def _base_meta(cfg, **extra) -> dict:
    meta = {
        "scenario": cfg["scenario"] if isinstance(cfg["scenario"], str) else "custom",
        "interpolation": cfg["interpolation"]["scheme"],
        "order": cfg["interpolation"]["order"],
    }
    meta.update(extra)
    return meta


def _tfr_meta(cfg, tfr, **extra) -> dict:
    meta = _base_meta(cfg, **extra)
    meta.update({
        "method": tfr.method,
        "window": tfr.window_meta.family,
        "window_s": _fmt(tfr.window_meta.duration_s),
        "hop": tfr.window_meta.hop,
        "tapers": tfr.window_meta.taper_count,
        "nfft_bins": tfr.freq_axis.size,
        "threshold": _fmt(cfg["analysis"]["threshold"]),
    })
    return meta


def _write_tfr_products(outputs: _Outputs, stem: str, tfr: TFRepresentation,
                        meta: dict, display=None):
    """TFR1, CSV and PGM products of ``tfr``; ``display`` is its
    ``log_display`` when the caller has already computed it."""
    outputs.write(f"{stem}.tfr1", write_tfr_binary, tfr)
    outputs.write(f"{stem}.csv", write_tfr_csv, tfr, meta)
    if outputs.wants("pgm"):
        outputs.write(f"{stem}.pgm", write_pgm,
                      log_display(tfr) if display is None else display, meta)


def _ridge_products(outputs: _Outputs, tfr, inf_curve, meta):
    """Ridge curves below and strictly above the INF overlay.

    A frame whose INF reaches the top bin has no bin above it; its
    above-INF ridge is written as NaN.
    """
    if not outputs.wants("csv"):
        return
    inf_vals = np.asarray(inf_curve(tfr.time_axis), dtype=float)
    df = tfr.freq_axis[1] - tfr.freq_axis[0]
    top = float(tfr.freq_axis[-1])
    ridge_lo = ridge_extract(tfr, df, max(float(inf_vals.min()), 2 * df), 0.0)
    # each frame's band starts strictly above its INF; a frame whose INF
    # reaches the top bin (resampled at or below the ISR) keeps that bin
    # for the ridge search and is then written as NaN
    ridge_hi = ridge_extract(tfr, np.minimum(np.nextafter(inf_vals, np.inf), top),
                             top, 0.0)
    ridge_hi = np.where(inf_vals >= top, np.nan, ridge_hi)
    for name, ridge in (("ridge_below_inf.csv", ridge_lo),
                        ("ridge_above_inf.csv", ridge_hi)):
        outputs.write(name, write_curve_csv,
                      {"time_s": tfr.time_axis, "freq_hz": ridge}, meta)


def _mask_products(outputs: _Outputs, stem: str, tfr, inf_curve, meta: dict):
    """Products of ``tfr`` masked above the INF, under ``{stem}_masked``,
    then ``mask_report.json`` with the above-INF ratio before and after."""
    masked = inf_hard_threshold(tfr, inf_curve)
    _write_tfr_products(outputs, f"{stem}_masked", masked, {**meta, "inf_mask": True})
    outputs.write("mask_report.json", _write_json, {
        "above_inf_ratio_before": above_inf_energy_ratio(tfr, inf_curve),
        "above_inf_ratio_after": above_inf_energy_ratio(masked, inf_curve),
    })


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outputs: _Outputs):
    scenario, samples, interp, sig = _scenario_pipeline(cfg)
    meta = _base_meta(cfg)
    grid = np.linspace(0.0, scenario.duration_s, 801)
    outputs.write("samples.csv", write_curve_csv,
                  {"time_s": samples.times, "value": samples.values}, meta)
    outputs.write("truth_if.csv", write_curve_csv,
                  {"time_s": grid, "if_hz": scenario.signal.iff(grid)}, meta)
    outputs.write("truth_isr.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": scenario.scheme.psi_prime(grid)}, meta)
    outputs.write("interpolated.csv", write_uniform_csv, sig, meta)

    # debugging dump of the interpolant internals (long format: the knot
    # sequence and, for B-splines, the basis coefficients)
    kinds = ["knot"] * len(interp.knots)
    indices = list(range(len(interp.knots)))
    values = list(np.asarray(interp.knots, dtype=float))
    coeffs = getattr(interp, "coefficients", None)
    if coeffs is not None:
        kinds += ["coefficient"] * len(coeffs)
        indices += list(range(len(coeffs)))
        values += list(np.asarray(coeffs, dtype=float))
    outputs.write("interpolant.csv", write_curve_csv,
                  {"kind": np.asarray(kinds, dtype=object),
                   "index": np.asarray(indices),
                   "value": np.asarray(values)}, meta)


def cmd_tfr(cfg: dict, outputs: _Outputs):
    scenario = None
    if cfg["input"]:
        if cfg["mitigation"]["inf_mask"]:
            raise ConfigError("mitigation.inf_mask needs a scenario: an input "
                              "signal has no INF to mask above")
        sig = read_uniform_csv(Path(cfg["input"]))
    else:
        scenario, _, _, sig = _scenario_pipeline(cfg)
    if (lp := cfg["mitigation"]["lowpass"]) is not None:
        sig = lowpass_prefilter(sig, lp["cutoff_hz"], lp["transition_hz"])
    tfr = _run_analysis(cfg, sig)
    meta = _tfr_meta(cfg, tfr, lowpass=bool(cfg["mitigation"]["lowpass"]))
    disp = log_display(tfr) if outputs.wants("csv", "pgm") else None
    _write_tfr_products(outputs, "tfr", tfr, meta, disp)
    if outputs.wants("csv"):
        outputs.write("display.csv", write_tfr_csv,
                      TFRepresentation(disp.matrix, tfr.freq_axis, tfr.time_axis,
                                       tfr.method, tfr.window_meta),
                      {**meta, "quantile_q": _fmt(disp.quantile_q)})
    if scenario is not None:
        inf_curve = scenario.scheme.inf
        outputs.write("inf.csv", write_curve_csv,
                      {"time_s": tfr.time_axis, "inf_hz": inf_curve(tfr.time_axis)},
                      meta)
        _ridge_products(outputs, tfr, inf_curve, meta)
        if cfg["mitigation"]["inf_mask"]:
            _mask_products(outputs, "tfr", tfr, inf_curve, meta)


def cmd_predict(cfg: dict, outputs: _Outputs):
    scenario = scenario_from_config(cfg["scenario"])
    order = cfg["interpolation"]["order"]
    k_min, k_max = cfg["predict"]["k_min"], cfg["predict"]["k_max"]
    grid = np.linspace(0.0, scenario.duration_s, 801)
    comps = predict_components(scenario.signal, scenario.scheme, order,
                               (k_min, k_max), grid)
    meta = _base_meta(cfg, k_min=k_min, k_max=k_max)
    if outputs.wants("csv"):
        cols = {"k": [], "time_s": [], "if_hz": [], "amplitude": []}
        for comp in sorted(comps, key=lambda c: c.k):
            cols["k"].extend([comp.k] * grid.size)
            cols["time_s"].extend(grid)
            cols["if_hz"].extend(np.asarray(comp.if_curve(grid)))
            cols["amplitude"].extend(np.asarray(comp.amp_curve(grid)))
        outputs.write("components.csv", write_curve_csv,
                      {k: np.asarray(v) for k, v in cols.items()}, meta)
    report = verify_reflection_theorem(
        scenario.signal, scenario.scheme, order, max(abs(k_min), abs(k_max)),
        scenario.resample_hz, (0.0, scenario.duration_s),
    )
    outputs.write("residual_report.json", _write_json, {
        "residual": report.residual,
        "order": report.order,
        "k_max": report.k_max,
        "rate_hz": report.rate,
        "span_s": list(report.span),
        "trimmed_span_s": list(report.trimmed_span),
    })


def cmd_physio(cfg: dict, outputs: _Outputs):
    phys = cfg["physio"]
    meta = _base_meta(cfg, edr_scheme=phys["edr_scheme"])
    if cfg["input"]:
        rec = parse_rpeaks(Path(cfg["input"]).read_bytes())
    elif (synth := phys["synth"]) is not None:
        rec = synth_rpeaks(
            lambda t: np.full_like(np.asarray(t, dtype=float), synth["ihr_hz"]),
            lambda t: np.full_like(np.asarray(t, dtype=float), synth["resp_hz"]),
            synth["duration_s"], synth["modulation_depth"],
        )
        outputs.write("rpeaks.csv", write_curve_csv,
                      {"time_s": rec.times, "amplitude": rec.amplitudes}, meta)
    else:
        raise ConfigError("physio needs either input (R-peak CSV) or physio.synth")

    rate = phys["rate_hz"]
    est = estimate_isr(rec.times)
    grid = np.linspace(est.domain[0], est.domain[1], 801)
    outputs.write("isr_estimate.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": est.isr(grid)}, meta)
    outputs.write("inf_estimate.csv", write_curve_csv,
                  {"time_s": grid, "inf_hz": est.inf(grid)}, meta)

    ihr_sig = ihr_signal(rec, rate)
    outputs.write("ihr.csv", write_uniform_csv, ihr_sig, meta)
    if rec.amplitudes is not None:
        target = edr_signal(rec, rate, phys["edr_scheme"])
        stem = "edr"
        outputs.write("edr.csv", write_uniform_csv, target, meta)
    else:
        target = UniformSignal(ihr_sig.values - np.mean(ihr_sig.values),
                               rate=ihr_sig.rate, t_start=ihr_sig.t_start)
        stem = "ihr_centered"

    tfr = _run_analysis(cfg, target)
    tmeta = _tfr_meta(cfg, tfr, edr_scheme=str(phys["edr_scheme"]))
    _write_tfr_products(outputs, f"{stem}_tfr", tfr, tmeta)
    if cfg["mitigation"]["inf_mask"]:
        _mask_products(outputs, f"{stem}_tfr", tfr, est.inf, tmeta)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nyqmirror", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("tfr", cmd_tfr),
                     ("predict", cmd_predict), ("physio", cmd_physio)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path)")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        outputs = _Outputs(cfg)
        args.fn(cfg, outputs)
    except ConfigError as exc:
        print(f"nyqmirror: config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"nyqmirror: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nyqmirror: i/o error: {exc}", file=sys.stderr)
        return 2
    for path in outputs.written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
