"""Command-line surface: ``nyqmirror simulate|tfr|predict|physio``.

Runs are driven by a JSON config, overridden by ``--set key=value``
assignments and ``--out``.  Every key has a default, a type and, where
it applies, choices and bounds (see the README); a value outside them is
a config error that names the key.  Every command writes only the files
whose format is in ``output.formats``, plus its JSON reports, and prints
their paths in write order.  Output files are written atomically, embed
a metadata header naming what ran (each pipeline stage returns its own)
and are bit-reproducible (no wall clock, no RNG).
Every product of a TF matrix is a magnitude: the analysis stage gets the
real magnitude from ``tf_analysis.tf_magnitude`` (the library transforms
stay complex; the SST never builds its complex matrix here), and the run
keeps that one real matrix: its masked and display products are made from
it a block of rows at a time, never in full.  Every artifact gets mode
``0666 & ~umask``, as a plain ``open`` would give it; ``formats`` encodes
its bytes.

Exit codes: 0 success, 1 usage/config error, 2 data error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, scenario_from_config
from .formats import (fmt, read_uniform_csv, write_curve_csv, write_json, write_pgm,
                      write_tfr_binary, write_tfr_csv, write_uniform_csv)
from .mitigation import inf_masked_rows, lowpass_prefilter
from .physio_io import edr_signal, ihr_signal, parse_rpeaks, synth_rpeaks
from .reflection import (
    above_inf_energy_ratio,
    predict_components,
    verify_reflection_theorem,
)
from .rowblocks import row_blocks
from .sampling import IsrEstimate, estimate_isr, sample_signal
from .spline_interp import (
    UniformSignal,
    interpolate_nonuniform,
    interpolate_pchip,
    resample_uniform,
)
from .tf_analysis import TFRepresentation, display_rows, ridge_extract, tf_magnitude

__all__ = ["main"]


# ---------------------------------------------------------------------------
# output files: ``_Outputs.write`` opens and commits each one; the writers
# of ``formats`` only encode an artifact's bytes into the binary stream ``fh``
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


class _Outputs:
    """The run's output sink: the directory, the requested
    ``output.formats`` and the paths written so far, in write order.
    ``write`` owns every artifact file; it writes one only if its suffix is
    a requested format, and JSON reports are always written."""

    def __init__(self, cfg: dict):
        self.directory = Path(cfg["output"]["directory"])
        self.formats = {*cfg["output"]["formats"], "json"}
        self.written: list[Path] = []

    def wants(self, *formats: str) -> bool:
        """Whether any of ``formats`` is requested: for skipping the work
        behind files that would not be written."""
        return not self.formats.isdisjoint(formats)

    def write(self, name: str, encode, *args):
        """If ``name``'s suffix is a requested format, ``encode(fh, *args)`` writes
        ``directory / name`` atomically; its path is recorded once committed."""
        path = self.directory / name
        if self.wants(path.suffix[1:]):
            with _atomic_write(path) as fh:
                encode(fh, *args)
            self.written += [path]


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _analysis_params(cfg, rate):
    ana = cfg["analysis"]
    # capped at sys.maxsize (the product may be inf); make_windows refuses it
    w_len = int(round(min(ana["window_s"] * rate, sys.maxsize))) | 1
    hop = ana["hop"] or max(1, int(round(rate / 8.0)))
    nfft = ana["nfft"] or 1 << int(np.ceil(np.log2(16.0 * w_len)))
    if nfft < w_len:
        raise ConfigError(f"analysis.nfft must be >= the window length "
                          f"({w_len} samples), got {nfft}")
    return ana["window_s"], hop, nfft


def _run_analysis(cfg, sig: UniformSignal) -> tuple[TFRepresentation, dict]:
    """The analysing commands' one TF stage: ``mitigation.lowpass``, the
    configured method and its magnitude, with the metadata of what ran."""
    ana, lowpass = cfg["analysis"], cfg["mitigation"]["lowpass"]
    if lowpass is not None:
        sig = lowpass_prefilter(sig, lowpass["cutoff_hz"], lowpass["transition_hz"])
    window_s, hop, nfft = _analysis_params(cfg, sig.rate)
    tfr = tf_magnitude(sig, ana["method"], window_s, hop, nfft, ana["tapers"],
                       ana["threshold"])
    ran = tfr.window_meta
    meta = {"method": tfr.method, "window": ran.family,
            "window_s": fmt(ran.duration_s), "hop": ran.hop,
            "tapers": ran.taper_count, "nfft_bins": tfr.freq_axis.size,
            "lowpass": lowpass is not None}
    if tfr.method != "stft":  # the only method without a threshold
        meta["threshold"] = fmt(ana["threshold"])
    return tfr, meta


def _scenario_pipeline(cfg):
    """The configured scenario, its samples, the interpolant, the resampled
    signal and the metadata naming the scenario and the interpolant (its
    order only for a B-spline)."""
    scenario = scenario_from_config(cfg["scenario"])
    samples = sample_signal(scenario.signal, scenario.scheme, 0.0,
                            scenario.duration_s)
    meta = {"scenario": scenario.name, "interpolation": cfg["interpolation"]["scheme"]}
    if meta["interpolation"] == "pchip":
        interp = interpolate_pchip(samples)
    else:
        meta["order"] = cfg["interpolation"]["order"]
        interp = interpolate_nonuniform(samples, meta["order"])
    sig = resample_uniform(interp, scenario.resample_hz,
                           samples.times[0], samples.times[-1])
    return scenario, samples, interp, sig, meta


def _write_tfr_products(outputs: _Outputs, stem: str, mag, axes, meta: dict, display=None):
    """TFR1, CSV and PGM products of the magnitude ``mag`` (an array or RowBlocks) on
    the (frequency, time) ``axes``; ``display`` is its ``display_rows`` if the caller has
    it.  The CSV's common value is 0.0, that of dropped, unreached and masked cells."""
    outputs.write(f"{stem}.tfr1", write_tfr_binary, mag, *axes)
    outputs.write(f"{stem}.csv", write_tfr_csv, mag, *axes, meta, 0.0)
    if outputs.wants("pgm"):
        outputs.write(f"{stem}.pgm", write_pgm,
                      display_rows(mag) if display is None else display, meta)


def _ridge_products(outputs: _Outputs, tfr, inf_curve, meta):
    """Ridge curves below and strictly above the INF overlay.

    A frame whose INF reaches the top bin has no bin above it; its
    above-INF ridge is written as NaN.
    """
    if not outputs.wants("csv"):
        return
    inf_vals = inf_curve(tfr.time_axis)
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
    """Products of the magnitude ``tfr`` masked above the INF, under
    ``{stem}_masked``, then ``mask_report.json`` with the above-INF ratio
    before and after.  The masked magnitude is made a block of rows at a
    time for each product: never in full."""
    masked = inf_masked_rows(tfr, inf_curve)
    _write_tfr_products(outputs, f"{stem}_masked", masked, (tfr.freq_axis, tfr.time_axis),
                        {**meta, "inf_mask": True})
    outputs.write("mask_report.json", write_json, {
        "above_inf_ratio_before": above_inf_energy_ratio(tfr, inf_curve),
        "above_inf_ratio_after": _masked_ratio(masked),
    })


def _masked_ratio(masked) -> float:
    """``above_inf_energy_ratio`` of a matrix (an array or RowBlocks)
    masked above the INF: those cells are 0.0, so the ratio is 0.0 when
    every cell is finite, else NaN, which is 0.0 times the largest cell."""
    return 0.0 * float(np.max([block.max() for _, block in row_blocks(masked)]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outputs: _Outputs):
    scenario, samples, interp, sig, meta = _scenario_pipeline(cfg)
    grid = np.linspace(0.0, scenario.duration_s, 801)
    outputs.write("samples.csv", write_curve_csv,
                  {"time_s": samples.times, "value": samples.values}, meta)
    outputs.write("truth_if.csv", write_curve_csv,
                  {"time_s": grid, "if_hz": scenario.signal.iff(grid)}, meta)
    outputs.write("truth_isr.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": scenario.scheme.psi_prime(grid)}, meta)
    outputs.write("interpolated.csv", write_uniform_csv, sig, meta)

    # debugging dump of the interpolant internals (long format: the knot
    # sequence, then the basis coefficients)
    parts = (interp.knots, interp.coefficients)
    outputs.write("interpolant.csv", write_curve_csv,
                  {"kind": np.repeat(["knot", "coefficient"], [len(part) for part in parts]),
                   "index": np.concatenate([np.arange(len(part)) for part in parts]),
                   "value": np.concatenate(parts)}, meta)


def cmd_tfr(cfg: dict, outputs: _Outputs):
    scenario, source = None, {}
    if cfg["input"]:
        if cfg["mitigation"]["inf_mask"]:
            raise ConfigError("mitigation.inf_mask needs a scenario: an input "
                              "signal has no INF to mask above")
        sig = read_uniform_csv(Path(cfg["input"]))
    else:
        scenario, _, _, sig, source = _scenario_pipeline(cfg)
    tfr, meta = _run_analysis(cfg, sig)
    meta.update(source)
    axes = tfr.freq_axis, tfr.time_axis
    disp = display_rows(tfr.matrix) if outputs.wants("csv", "pgm") else None
    _write_tfr_products(outputs, "tfr", tfr.matrix, axes, meta, disp)
    if outputs.wants("csv"):
        outputs.write("display.csv", write_tfr_csv, disp.rows, *axes,
                      {**meta, "quantile_q": fmt(disp.q)}, disp.floor)
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
    # sampling first: it refuses an undefined rate before the curves meet it
    report = verify_reflection_theorem(
        scenario.signal, scenario.scheme, order, max(abs(k_min), abs(k_max)),
        scenario.resample_hz, (0.0, scenario.duration_s),
    )
    grid = np.linspace(0.0, scenario.duration_s, 801)
    comps = predict_components(scenario.signal, scenario.scheme, order,
                               (k_min, k_max), grid)
    # the image series is always the order-n B-spline's, whatever the
    # interpolation.scheme
    meta = {"scenario": scenario.name, "interpolation": "bspline", "order": order,
            "k_min": k_min, "k_max": k_max}
    if outputs.wants("csv"):
        comps = sorted(comps, key=lambda c: c.k)
        outputs.write("components.csv", write_curve_csv, {
            "k": np.repeat([comp.k for comp in comps], grid.size),
            "time_s": np.tile(grid, len(comps)),
            "if_hz": np.concatenate([comp.if_curve(grid) for comp in comps]),
            "amplitude": np.concatenate([comp.amplitude for comp in comps]),
        }, meta)
    outputs.write("residual_report.json", write_json, {
        "residual": report.residual,
        "order": report.order,
        "k_max": report.k_max,
        "rate_hz": report.rate,
        "span_s": list(report.span),
        "trimmed_span_s": list(report.trimmed_span),
    })


def _refuse_non_rates(est: IsrEstimate, isr, times: np.ndarray) -> None:
    """Refuse an ISR estimate ``isr`` that is not a positive, finite rate at
    some of ``times``, as a data error naming the time where it is least (or
    NaN) and the shortest of the four R-R intervals around it, from which
    the cubic overshoots: one beat detected twice, say."""
    rates = isr(times)
    bad = np.flatnonzero(~((rates > 0.0) & (rates < np.inf)))
    if bad.size:
        worst = bad[np.argmin(rates[bad])]
        near = max(int(np.searchsorted(est.knot_times, times[worst])) - 2, 0)
        beat = near + int(np.argmax(est.knot_rates[near:near + 4]))
        raise ValueError(
            f"the ISR estimate is {rates[worst]:.4g} Hz at t = {times[worst]:.6g} s, not a "
            f"rate: R-R interval {1e3 / est.knot_rates[beat]:.4g} ms between beats "
            f"{beat + 1} and {beat + 2} (t = {est.knot_times[beat]:.6g} s)")


def cmd_physio(cfg: dict, outputs: _Outputs):
    phys = cfg["physio"]
    if cfg["input"]:
        path = Path(cfg["input"])
        try:
            rec = parse_rpeaks(path.read_bytes())
        except ValueError as exc:  # a decoding error included
            raise ValueError(f"{path}: {exc}") from None
    elif (synth := phys["synth"]) is not None:
        rec = synth_rpeaks(
            lambda t: np.full_like(t, synth["ihr_hz"]),
            lambda t: np.full_like(t, synth["resp_hz"]),
            synth["duration_s"], synth["modulation_depth"],
        )
    else:
        raise ConfigError("physio needs either input (R-peak CSV) or physio.synth")

    # everything that can refuse the run comes before the first file
    rate = phys["rate_hz"]
    est = estimate_isr(rec.times)
    grid = np.linspace(est.domain[0], est.domain[1], 801)
    ihr_sig = ihr_signal(rec, rate)
    if rec.amplitudes is not None:
        shaped = {"edr_scheme": phys["edr_scheme"]}  # only the EDR's artifacts
        target = edr_signal(rec, rate, phys["edr_scheme"])
        stem = "edr"
    else:
        shaped = {}
        target = UniformSignal(ihr_sig.values - np.mean(ihr_sig.values),
                               rate=ihr_sig.rate, t_start=ihr_sig.t_start)
        stem = "ihr_centered"
    def isr(t):  # the last frame may pass the domain's end by 1e-9 of a step
        return est.isr(np.minimum(t, est.domain[1]))

    # the estimate is used on the grid and at the frame times
    _refuse_non_rates(est, isr, np.concatenate(
        [grid, target.times[::_analysis_params(cfg, target.rate)[1]]]))
    tfr, meta = _run_analysis(cfg, target)
    meta.update(shaped)

    if not cfg["input"]:
        outputs.write("rpeaks.csv", write_curve_csv,
                      {"time_s": rec.times, "amplitude": rec.amplitudes}, {})
    outputs.write("isr_estimate.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": est.isr(grid)}, {})
    outputs.write("inf_estimate.csv", write_curve_csv,
                  {"time_s": grid, "inf_hz": est.inf(grid)}, {})
    outputs.write("ihr.csv", write_uniform_csv, ihr_sig, {})
    if stem == "edr":
        outputs.write("edr.csv", write_uniform_csv, target, shaped)
    _write_tfr_products(outputs, f"{stem}_tfr", tfr.matrix, (tfr.freq_axis, tfr.time_axis),
                        meta)
    if cfg["mitigation"]["inf_mask"]:
        _mask_products(outputs, f"{stem}_tfr", tfr, lambda t: isr(t) / 2.0, meta)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"simulate": cmd_simulate, "tfr": cmd_tfr, "predict": cmd_predict,
             "physio": cmd_physio}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nyqmirror", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (dotted path)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        outputs = _Outputs(cfg)
        _COMMANDS[args.command](cfg, outputs)
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
