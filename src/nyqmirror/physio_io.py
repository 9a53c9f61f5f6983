"""Heartbeat-train ingestion and the derived physiological signals: the
interpolated instantaneous heart rate (from R-R intervals) and the
ECG-derived respiration (from R-peak amplitudes), plus a synthetic R-peak
generator with known ground truth for closed-loop testing.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .sampling import SampleSet, SamplingScheme, sampling_times
from .spline_interp import (
    UniformSignal,
    interpolate_nonuniform,
    interpolate_pchip,
    resample_uniform,
)

__all__ = [
    "RPeakRecord",
    "edr_signal",
    "ihr_signal",
    "parse_rpeaks",
    "rri_series",
    "synth_rpeaks",
]


@dataclass(frozen=True, eq=False)
class RPeakRecord:
    """R-peak instants with optional per-peak amplitudes."""

    times: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).copy()
        if t.ndim != 1 or t.size < 2:
            raise ValueError("an R-peak record needs at least 2 peaks")
        if not np.all(np.isfinite(t)):
            raise ValueError("R-peak times must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("R-peak times must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        if self.amplitudes is not None:
            a = np.asarray(self.amplitudes, dtype=float).copy()
            if a.shape != t.shape:
                raise ValueError("amplitudes must match times in length")
            if not np.all(np.isfinite(a)):
                raise ValueError("R-peak amplitudes must be finite")
            a.setflags(write=False)
            object.__setattr__(self, "amplitudes", a)

    def __len__(self) -> int:
        return self.times.size


def parse_rpeaks(data: bytes | str) -> RPeakRecord:
    """Parse an R-peak CSV: header ``time_s`` or ``time_s,amplitude``.

    Raises ValueError naming the offending row for malformed, non-finite
    or non-monotone input; an empty file is an error.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError("empty R-peak file")
    header = [c.strip() for c in rows[0]]
    if header not in (["time_s"], ["time_s", "amplitude"]):
        raise ValueError(
            "header must be 'time_s' or 'time_s,amplitude', got "
            + ",".join(header)
        )
    peaks = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"row {lineno}: expected {len(header)} fields")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise ValueError(f"row {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"row {lineno}: non-finite value")
        if peaks and values[0] <= peaks[-1][0]:
            raise ValueError(f"row {lineno}: non-increasing time")
        peaks.append(values)
    if len(peaks) < 2:
        raise ValueError("an R-peak file needs at least 2 peaks")
    table = np.asarray(peaks)
    return RPeakRecord(times=table[:, 0],
                       amplitudes=table[:, 1] if len(header) == 2 else None)


def rri_series(rec: RPeakRecord) -> SampleSet:
    """Peak-to-peak interval series {(t_i, t_{i+1} - t_i)}, anchored at the
    left peak of each interval; values in seconds."""
    if len(rec) < 3:
        raise ValueError("interval series needs at least 3 peaks")
    return SampleSet(times=rec.times[:-1], values=np.diff(rec.times))


def ihr_signal(rec: RPeakRecord, rate: float = 8.0) -> UniformSignal:
    """Interpolated heart-rate surrogate: cubic spline through the R-R
    interval series, resampled uniformly over [t_1, t_{N-1}].

    Follows the convention of interpolating the interval values
    themselves (seconds), not their reciprocals.
    """
    if len(rec) < 6:
        raise ValueError("IHR needs at least 6 peaks")
    rri = rri_series(rec)
    interp = interpolate_nonuniform(rri, 3)
    return resample_uniform(interp, rate, rri.times[0], rri.times[-1])


def edr_signal(rec: RPeakRecord, rate: float = 8.0,
               scheme: str | int = "cubic") -> UniformSignal:
    """Respiration surrogate: interpolated R-peak amplitudes, resampled
    uniformly over [t_1, t_{N-1}] and mean-removed.

    ``scheme`` is ``'cubic'``, ``'pchip'``, or an integer spline order.
    """
    if rec.amplitudes is None:
        raise ValueError("EDR needs per-peak amplitudes")
    if scheme == "cubic":
        order = 3
    elif scheme == "pchip":
        order = None
    elif isinstance(scheme, int) and not isinstance(scheme, bool):
        order = scheme
    else:
        raise ValueError(f"unknown interpolation scheme {scheme!r}")

    need = 3 if order is None else order + 2
    if len(rec) < need:
        raise ValueError(f"EDR with scheme {scheme!r} needs >= {need} peaks")
    samples = SampleSet(times=rec.times, values=rec.amplitudes)
    interp = interpolate_pchip(samples) if order is None \
        else interpolate_nonuniform(samples, order)
    sig = resample_uniform(interp, rate, rec.times[0], rec.times[-2])
    centered = sig.values - np.mean(sig.values)
    return UniformSignal(values=centered, rate=sig.rate, t_start=sig.t_start)


def _antiderivative(curve: Callable[[np.ndarray], np.ndarray],
                    t_end: float, step: float = 1e-3):
    """Smooth antiderivative of a positive rate curve on [0, t_end]."""
    grid = np.linspace(0.0, t_end, max(int(np.ceil(t_end / step)), 8) + 1)
    vals = np.asarray(curve(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape)
    spline = CubicSpline(grid, vals)
    return spline.antiderivative(), spline


def synth_rpeaks(ihr_curve: Callable[[np.ndarray], np.ndarray],
                 resp_if: Callable[[np.ndarray], np.ndarray],
                 duration: float, modulation_depth: float = 0.1) -> RPeakRecord:
    """Synthetic R-peak train with known instantaneous rate and modulation.

    Peak instants are the integer crossings of the antiderivative of
    ``ihr_curve`` (the same root machinery as sample-time generation);
    amplitudes are 1 + depth * cos(2 pi * integral of resp_if).  Stands in
    for clinical recordings in closed-loop tests.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    probe = np.linspace(0.0, duration, 1025)
    rates = np.asarray(ihr_curve(probe), dtype=float)
    if np.any(rates <= 0.0):
        raise ValueError("ihr_curve must be strictly positive")

    warp, rate_spline = _antiderivative(ihr_curve, duration)
    scheme = SamplingScheme(psi=warp, psi_prime=rate_spline)
    peaks = sampling_times(scheme, 0.0, duration)

    resp_phase, _ = _antiderivative(resp_if, duration)
    amplitudes = 1.0 + modulation_depth * np.cos(2.0 * np.pi * resp_phase(peaks))
    return RPeakRecord(times=peaks, amplitudes=amplitudes)
