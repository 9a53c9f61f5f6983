"""Command-line surface: ``nyqmirror simulate|tfr|predict|physio``.

Runs are driven by a JSON config with documented defaults (below); CLI
``--set key=value`` assignments override config keys, ``--out`` overrides
the output directory.  Every output file is written atomically and embeds
a metadata header; runs are bit-reproducible (no wall clock, no RNG).

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
import copy
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .mitigation import inf_hard_threshold, lowpass_prefilter
from .physio_io import edr_signal, ihr_signal, parse_rpeaks, synth_rpeaks
from .reflection import (
    above_inf_energy_ratio,
    predict_components,
    verify_reflection_theorem,
)
from .sampling import SamplingScheme, estimate_isr, sample_signal
from .signal_model import IMTSignal, Scenario, builtin_scenario
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


# Every key and its default; unknown keys are rejected.
DEFAULT_CONFIG = {
    "scenario": "fig1",
    "input": None,
    "interpolation": {
        "scheme": "bspline",   # bspline | pchip
        "order": 3,
    },
    "analysis": {
        "method": "sst",       # stft | sst | rm | mt_sst | mt_rm
        "window": "gaussian",  # gaussian | hermite
        "window_s": 10.0,
        "hop": None,           # samples; None -> 8 frames per second
        "nfft": None,          # None -> next power of two >= 16x window
        "tapers": 3,
        "threshold": 1e-8,
    },
    "mitigation": {
        "inf_mask": False,
        "lowpass": None,       # {"cutoff_hz": ..., "transition_hz": ...}
    },
    "physio": {
        "rate_hz": 8.0,
        "edr_scheme": "cubic",  # cubic | pchip | integer order
        "synth": None,          # {"ihr_hz", "resp_hz", "duration_s",
                                #  "modulation_depth"}
    },
    "predict": {
        "k_min": -1,
        "k_max": 3,
    },
    "output": {
        "directory": "out",
        "formats": ["csv", "tfr1", "pgm"],
    },
}

_FORMATS = ("csv", "tfr1", "pgm")
_SCENARIO_KEYS = {"signal", "scheme", "duration_s", "resample_hz"}
_LOWPASS_KEYS = {"cutoff_hz", "transition_hz"}
_SYNTH_KEYS = {"ihr_hz", "resp_hz", "duration_s", "modulation_depth"}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _merge_checked(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict) and key not in (
            "scenario", "lowpass", "synth"
        ):
            merged[key] = _merge_checked(defaults[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _check_free_section(obj, allowed, where):
    if obj is None:
        return
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be null or an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown config key: {where}.{sorted(unknown)[0]}")


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Defaults, overlaid with a JSON file and then key=value assignments."""
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    cfg = _merge_checked(DEFAULT_CONFIG, user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        keys = dotted.split(".")
        probe = DEFAULT_CONFIG
        for key in keys:
            if not isinstance(probe, dict) or key not in probe:
                raise ConfigError(f"unknown config key: {dotted}")
            probe = probe[key]
        # merged like a config file, so a section must stay an object
        for key in reversed(keys):
            value = {key: value}
        cfg = _merge_checked(cfg, value)
    formats = cfg["output"]["formats"]
    if not isinstance(formats, list) or any(f not in _FORMATS for f in formats):
        raise ConfigError(f"output.formats must be a list drawn from "
                          f"{', '.join(_FORMATS)}, got {json.dumps(formats)}")
    _check_free_section(
        cfg["scenario"] if isinstance(cfg["scenario"], dict) else None,
        _SCENARIO_KEYS, "scenario",
    )
    _check_free_section(cfg["mitigation"]["lowpass"], _LOWPASS_KEYS,
                        "mitigation.lowpass")
    _check_free_section(cfg["physio"]["synth"], _SYNTH_KEYS, "physio.synth")
    return cfg


def _signal_from_config(obj) -> IMTSignal:
    if not isinstance(obj, dict) or obj.get("kind") != "harmonic":
        raise ConfigError("scenario.signal supports {'kind': 'harmonic', ...}")
    freq = float(obj.get("freq_hz", 1.0))
    amp = float(obj.get("amp", 1.0))
    if freq <= 0.0 or amp <= 0.0:
        raise ConfigError("harmonic signal needs positive freq_hz and amp")
    return IMTSignal(
        am=lambda t: np.full_like(np.asarray(t, dtype=float), amp),
        phase=lambda t: freq * np.asarray(t, dtype=float),
        iff=lambda t: np.full_like(np.asarray(t, dtype=float), freq),
        model_params=(min(amp, freq), max(amp, freq), 0.01),
    )


def _scheme_from_config(obj) -> SamplingScheme:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("scenario.scheme needs a 'kind'")
    kind = obj["kind"]
    if kind == "uniform":
        rate = float(obj.get("rate_hz", 8.0))
        if rate <= 0.0:
            raise ConfigError("uniform scheme needs positive rate_hz")
        return SamplingScheme(
            psi=lambda t: rate * np.asarray(t, dtype=float),
            psi_prime=lambda t: np.full_like(np.asarray(t, dtype=float), rate),
            scheme_params=(rate, 0.0),
        )
    if kind == "cosine":
        base = float(obj.get("base_hz", 8.0))
        depth = float(obj.get("depth_hz", 0.5))
        period = float(obj.get("period_s", 20.0))
        if base - abs(depth) <= 0.0 or period <= 0.0:
            raise ConfigError("cosine scheme needs base_hz > |depth_hz|, period_s > 0")
        w = 2.0 * np.pi / period
        return SamplingScheme(
            psi=lambda t: base * np.asarray(t, dtype=float)
            + depth / w * np.sin(w * np.asarray(t, dtype=float)),
            psi_prime=lambda t: base + depth * np.cos(w * np.asarray(t, dtype=float)),
            scheme_params=(base - abs(depth), abs(depth) * w / (base - abs(depth))),
        )
    if kind == "quadratic":
        base = float(obj.get("base_hz", 6.0))
        denom = float(obj.get("quad_denom", 800.0))
        center = float(obj.get("t_center", 0.0))
        if base <= 0.0 or denom <= 0.0:
            raise ConfigError("quadratic scheme needs positive base_hz, quad_denom")
        return SamplingScheme(
            psi=lambda t: base * np.asarray(t, dtype=float)
            + ((np.asarray(t, dtype=float) - center) ** 3 + center**3)
            / (3.0 * denom),
            psi_prime=lambda t: base
            + (np.asarray(t, dtype=float) - center) ** 2 / denom,
            scheme_params=(base, 0.0),
        )
    raise ConfigError(f"unknown scheme kind {kind!r}")


def scenario_from_config(obj) -> Scenario:
    """Scenario from its config form: a builtin name or a parametric object."""
    if isinstance(obj, str):
        try:
            return builtin_scenario(obj)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ConfigError("scenario must be a name or an object")
    missing = _SCENARIO_KEYS - set(obj)
    if missing:
        raise ConfigError(f"scenario object missing keys: {sorted(missing)}")
    duration = float(obj["duration_s"])
    resample = float(obj["resample_hz"])
    if duration <= 0.0 or resample <= 0.0:
        raise ConfigError("scenario needs positive duration_s and resample_hz")
    return Scenario(
        name="custom",
        signal=_signal_from_config(obj["signal"]),
        scheme=_scheme_from_config(obj["scheme"]),
        duration_s=duration,
        resample_hz=resample,
    )


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


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _interpolate(cfg, samples):
    scheme = cfg["interpolation"]["scheme"]
    if scheme == "bspline":
        return interpolate_nonuniform(samples, int(cfg["interpolation"]["order"]))
    if scheme == "pchip":
        return interpolate_pchip(samples)
    raise ConfigError(f"unknown interpolation scheme {scheme!r}")


def _analysis_params(cfg, rate):
    ana = cfg["analysis"]
    window_s = float(ana["window_s"])
    w_len = int(round(window_s * rate)) | 1
    hop = ana["hop"]
    hop = max(1, int(round(rate / 8.0))) if hop is None else int(hop)
    nfft = ana["nfft"]
    nfft = 1 << int(np.ceil(np.log2(16 * w_len))) if nfft is None else int(nfft)
    return window_s, hop, nfft


def _run_analysis(cfg, sig: UniformSignal) -> TFRepresentation:
    ana = cfg["analysis"]
    method = ana["method"]
    window_s, hop, nfft = _analysis_params(cfg, sig.rate)
    threshold = float(ana["threshold"])
    if method in ("mt_sst", "mt_rm"):
        return multitaper(sig, window_s, int(ana["tapers"]), hop, nfft,
                          method.removeprefix("mt_"), threshold)
    window = make_windows(ana["window"], window_s, sig.rate)[0]
    if method == "stft":
        return stft(sig, window, hop, nfft)
    if method == "sst":
        return synchrosqueeze(sig, window, hop, nfft, threshold)
    if method == "rm":
        return reassign(sig, window, hop, nfft, threshold)
    raise ConfigError(f"unknown analysis method {method!r}")


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


def _write_tfr_products(cfg, out: Path, stem: str, tfr: TFRepresentation,
                        meta: dict, written: list[Path], display=None):
    """TFR1, CSV and PGM products of ``tfr``; ``display`` is its
    ``log_display`` when the caller has already computed it."""
    formats = cfg["output"]["formats"]
    if "tfr1" in formats:
        path = out / f"{stem}.tfr1"
        write_tfr_binary(path, tfr)
        written.append(path)
    if "csv" in formats:
        path = out / f"{stem}.csv"
        write_tfr_csv(path, tfr, meta)
        written.append(path)
    if "pgm" in formats:
        path = out / f"{stem}.pgm"
        write_pgm(path, log_display(tfr) if display is None else display,
                  meta)
        written.append(path)


def _ridge_products(cfg, out: Path, tfr, inf_curve, written: list[Path], meta):
    """Ridge curves below and strictly above the INF overlay.

    A frame whose INF reaches the top bin has no bin above it; its
    above-INF ridge is written as NaN.
    """
    if "csv" not in cfg["output"]["formats"]:
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
        path = out / name
        write_curve_csv(path, {"time_s": tfr.time_axis, "freq_hz": ridge}, meta)
        written.append(path)


def _mask_products(cfg, out: Path, stem: str, tfr, inf_curve, meta: dict,
                   written: list[Path]):
    """Products of ``tfr`` masked above the INF, under ``{stem}_masked``,
    then ``mask_report.json`` with the above-INF ratio before and after."""
    masked = inf_hard_threshold(tfr, inf_curve)
    _write_tfr_products(cfg, out, f"{stem}_masked", masked,
                        {**meta, "inf_mask": True}, written)
    path = out / "mask_report.json"
    _write_json(path, {
        "above_inf_ratio_before": above_inf_energy_ratio(tfr, inf_curve),
        "above_inf_ratio_after": above_inf_energy_ratio(masked, inf_curve),
    })
    written.append(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, out: Path) -> list[Path]:
    scenario, samples, interp, sig = _scenario_pipeline(cfg)
    meta = _base_meta(cfg)
    written = []
    grid = np.linspace(0.0, scenario.duration_s, 801)
    files = [
        ("samples.csv", {"time_s": samples.times, "value": samples.values}),
        ("truth_if.csv", {"time_s": grid, "if_hz": scenario.signal.iff(grid)}),
        ("truth_isr.csv", {"time_s": grid, "isr_hz": scenario.scheme.psi_prime(grid)}),
    ]
    for name, cols in files:
        path = out / name
        write_curve_csv(path, cols, meta)
        written.append(path)
    path = out / "interpolated.csv"
    write_uniform_csv(path, sig, meta)
    written.append(path)

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
    path = out / "interpolant.csv"
    write_curve_csv(path, {"kind": np.asarray(kinds, dtype=object),
                           "index": np.asarray(indices),
                           "value": np.asarray(values)}, meta)
    written.append(path)
    return written


def cmd_tfr(cfg: dict, out: Path) -> list[Path]:
    written = []
    scenario = None
    if cfg["input"]:
        sig = read_uniform_csv(Path(cfg["input"]))
    else:
        scenario, _, _, sig = _scenario_pipeline(cfg)
    if cfg["mitigation"]["lowpass"]:
        lp = cfg["mitigation"]["lowpass"]
        sig = lowpass_prefilter(sig, float(lp["cutoff_hz"]),
                                float(lp["transition_hz"]))
    tfr = _run_analysis(cfg, sig)
    meta = _tfr_meta(cfg, tfr, lowpass=bool(cfg["mitigation"]["lowpass"]))
    formats = cfg["output"]["formats"]
    disp = log_display(tfr) if "csv" in formats or "pgm" in formats else None
    _write_tfr_products(cfg, out, "tfr", tfr, meta, written, disp)
    if "csv" in formats:
        path = out / "display.csv"
        display_tfr = TFRepresentation(disp.matrix, tfr.freq_axis,
                                       tfr.time_axis, tfr.method,
                                       tfr.window_meta)
        write_tfr_csv(path, display_tfr,
                      {**meta, "quantile_q": _fmt(disp.quantile_q)})
        written.append(path)
    if scenario is not None:
        inf_curve = scenario.scheme.inf
        if "csv" in cfg["output"]["formats"]:
            path = out / "inf.csv"
            write_curve_csv(path, {"time_s": tfr.time_axis,
                                   "inf_hz": inf_curve(tfr.time_axis)}, meta)
            written.append(path)
        _ridge_products(cfg, out, tfr, inf_curve, written, meta)
        if cfg["mitigation"]["inf_mask"]:
            _mask_products(cfg, out, "tfr", tfr, inf_curve, meta, written)
    return written


def cmd_predict(cfg: dict, out: Path) -> list[Path]:
    scenario = scenario_from_config(cfg["scenario"])
    order = int(cfg["interpolation"]["order"])
    k_min = int(cfg["predict"]["k_min"])
    k_max = int(cfg["predict"]["k_max"])
    grid = np.linspace(0.0, scenario.duration_s, 801)
    comps = predict_components(scenario.signal, scenario.scheme, order,
                               (k_min, k_max), grid)
    meta = _base_meta(cfg, k_min=k_min, k_max=k_max)
    written = []
    if "csv" in cfg["output"]["formats"]:
        cols = {"k": [], "time_s": [], "if_hz": [], "amplitude": []}
        for comp in sorted(comps, key=lambda c: c.k):
            cols["k"].extend([comp.k] * grid.size)
            cols["time_s"].extend(grid)
            cols["if_hz"].extend(np.asarray(comp.if_curve(grid)))
            cols["amplitude"].extend(np.asarray(comp.amp_curve(grid)))
        path = out / "components.csv"
        write_curve_csv(path, {k: np.asarray(v) for k, v in cols.items()}, meta)
        written.append(path)
    report = verify_reflection_theorem(
        scenario.signal, scenario.scheme, order, max(abs(k_min), abs(k_max)),
        scenario.resample_hz, (0.0, scenario.duration_s),
    )
    path = out / "residual_report.json"
    _write_json(path, {
        "residual": report.residual,
        "order": report.order,
        "k_max": report.k_max,
        "rate_hz": report.rate,
        "span_s": list(report.span),
        "trimmed_span_s": list(report.trimmed_span),
    })
    written.append(path)
    return written


def cmd_physio(cfg: dict, out: Path) -> list[Path]:
    phys = cfg["physio"]
    if cfg["input"]:
        rec = parse_rpeaks(Path(cfg["input"]).read_bytes())
        synthesized = False
    elif phys["synth"]:
        synth = phys["synth"]
        ihr = float(synth.get("ihr_hz", 1.4))
        resp = float(synth.get("resp_hz", 0.5))
        duration = float(synth.get("duration_s", 240.0))
        depth = float(synth.get("modulation_depth", 0.1))
        rec = synth_rpeaks(
            lambda t: np.full_like(np.asarray(t, dtype=float), ihr),
            lambda t: np.full_like(np.asarray(t, dtype=float), resp),
            duration, depth,
        )
        synthesized = True
    else:
        raise ConfigError("physio needs either input (R-peak CSV) or physio.synth")

    rate = float(phys["rate_hz"])
    meta = _base_meta(cfg, edr_scheme=phys["edr_scheme"])
    written = []
    csv_on = "csv" in cfg["output"]["formats"]

    if synthesized and csv_on:
        path = out / "rpeaks.csv"
        write_curve_csv(path, {"time_s": rec.times, "amplitude": rec.amplitudes},
                        meta)
        written.append(path)

    est = estimate_isr(rec.times)
    grid = np.linspace(est.domain[0], est.domain[1], 801)
    if csv_on:
        path = out / "isr_estimate.csv"
        write_curve_csv(path, {"time_s": grid, "isr_hz": est.isr(grid)}, meta)
        written.append(path)
        path = out / "inf_estimate.csv"
        write_curve_csv(path, {"time_s": grid, "inf_hz": est.inf(grid)}, meta)
        written.append(path)

    ihr_sig = ihr_signal(rec, rate)
    if csv_on:
        path = out / "ihr.csv"
        write_uniform_csv(path, ihr_sig, meta)
        written.append(path)

    if rec.amplitudes is not None:
        scheme = phys["edr_scheme"]
        if isinstance(scheme, str) and scheme.isdigit():
            scheme = int(scheme)
        target = edr_signal(rec, rate, scheme)
        stem = "edr"
        if csv_on:
            path = out / "edr.csv"
            write_uniform_csv(path, target, meta)
            written.append(path)
    else:
        target = UniformSignal(ihr_sig.values - np.mean(ihr_sig.values),
                               rate=ihr_sig.rate, t_start=ihr_sig.t_start)
        stem = "ihr_centered"

    tfr = _run_analysis(cfg, target)
    tmeta = _tfr_meta(cfg, tfr, edr_scheme=str(phys["edr_scheme"]))
    _write_tfr_products(cfg, out, f"{stem}_tfr", tfr, tmeta, written)
    if cfg["mitigation"]["inf_mask"]:
        _mask_products(cfg, out, f"{stem}_tfr", tfr, est.inf, tmeta, written)
    return written


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
        out = Path(cfg["output"]["directory"])
        written = args.fn(cfg, out)
    except ConfigError as exc:
        print(f"nyqmirror: config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"nyqmirror: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nyqmirror: i/o error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
