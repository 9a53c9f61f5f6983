"""Heartbeat-train ingestion and the derived physiological signals: the
interpolated instantaneous heart rate (from R-R intervals) and the
ECG-derived respiration (from R-peak amplitudes), plus a synthetic R-peak
generator with known ground truth for closed-loop testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .formats import read_csv_rows
from .sampling import SampleSet, SamplingScheme, sampling_times
from .spline_interp import (
    UniformSignal,
    check_memory,
    frozen,
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

# bytes per warp panel for the size check of synth_rpeaks: the quadrature
# nodes and curve values of every panel (64 B each), the prefix sums and
# the root scan peak at 200 to 250 B on a 1 h train; twice that leaves
# room for the temporaries of the caller's curves
_BYTES_PER_PANEL = 512


@dataclass(frozen=True, eq=False)
class RPeakRecord:
    """R-peak instants with optional per-peak amplitudes."""

    times: np.ndarray
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        t = frozen(self.times)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("an R-peak record needs at least 2 peaks")
        if not np.all(np.isfinite(t)):
            raise ValueError("R-peak times must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("R-peak times must be strictly increasing")
        if self.amplitudes is not None:
            a = frozen(self.amplitudes)
            object.__setattr__(self, "amplitudes", a)
            if a.shape != t.shape:
                raise ValueError("amplitudes must match times in length")
            if not np.all(np.isfinite(a)):
                raise ValueError("R-peak amplitudes must be finite")

    def __len__(self) -> int:
        return self.times.size


def parse_rpeaks(data: bytes | str) -> RPeakRecord:
    """Parse an R-peak CSV: ``formats.read_csv_rows`` with the header ``time_s``
    or ``time_s,amplitude``, then strictly increasing times."""
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    _, table, lines = read_csv_rows(text, ("time_s", "time_s,amplitude"))
    if (back := np.flatnonzero(np.diff(table[:, 0]) <= 0.0)).size:
        raise ValueError(f"row {lines[back[0] + 1]}: non-increasing time")
    return RPeakRecord(table[:, 0], table[:, 1] if table.shape[1] == 2 else None)


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

    # every step is homogeneous: from the amplitudes over 2^e (|a| <= 1) it is exact and finite
    e = np.frexp(np.max(np.abs(rec.amplitudes)))[1]
    samples = SampleSet(times=rec.times, values=np.ldexp(rec.amplitudes, -e))
    interp = interpolate_pchip(samples) if order is None \
        else interpolate_nonuniform(samples, order)
    sig = resample_uniform(interp, rate, rec.times[0], rec.times[-2])
    centered = sig.values - np.mean(sig.values)
    if np.frexp(np.max(np.abs(centered)))[1] + e > 1024:  # 2^e times it passes float64
        raise ValueError("the EDR of these R-peak amplitudes overflows float64")
    return UniformSignal(values=np.ldexp(centered, e), rate=sig.rate, t_start=sig.t_start)


def _curve_values(curve: Callable[[np.ndarray], np.ndarray], t, name: str):
    """``curve(t)`` as a float array of t's shape; a non-finite value is a
    ValueError naming ``name`` and the time."""
    t = np.asarray(t, dtype=float)
    vals = np.broadcast_to(np.asarray(curve(t), dtype=float), t.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise ValueError(f"{name} must be finite, got {vals[bad][0]}"
                         f" at t = {t[bad][0]} s")
    return vals


def _antiderivative(curve: Callable[[np.ndarray], np.ndarray], t_end: float,
                    n_panels: int, name: str) -> Callable[[np.ndarray], np.ndarray]:
    """psi(t) = integral of ``curve`` over [0, t] for t in [0, t_end]:
    prefix sums of the Gauss-Legendre integrals of ``n_panels`` equal
    panels, plus one rule from t's panel start to t.  The prefix sums run
    in extended precision: summed in float64, a constant 1.4 Hz over 3600 s
    ends 3.9e-10 short of 5040, beyond the 1e-10 root polish of
    ``sampling_times``."""
    # built here, not at import: its eigensolve costs every command 0.5 MB
    nodes, weights = np.polynomial.legendre.leggauss(8)  # exact to degree 15

    def gauss(lo, hi):
        """The rule for the integral of ``curve`` over each [lo, hi]."""
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * nodes
        return half * (_curve_values(curve, x, name) @ weights)

    edges = np.linspace(0.0, t_end, n_panels + 1)
    sums = np.cumsum(gauss(edges[:-1], edges[1:]), dtype=np.longdouble)
    prefix = np.concatenate(([0.0], sums.astype(float)))

    def psi(t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, n_panels - 1)
        return prefix[k] + gauss(edges[k], t)

    return psi


def synth_rpeaks(ihr_curve: Callable[[np.ndarray], np.ndarray],
                 resp_if: Callable[[np.ndarray], np.ndarray],
                 duration: float, modulation_depth: float = 0.1) -> RPeakRecord:
    """Synthetic R-peak train with known instantaneous rate and modulation.

    Peak instants are the integer crossings of psi, the antiderivative of
    ``ihr_curve`` (the same root machinery as sample-time generation);
    amplitudes are 1 + depth * cos(2 pi * integral of resp_if).  Both
    integrals are composite Gauss-Legendre on panels of the root scan's
    step, 0.5 / max rate, and psi' is ``ihr_curve`` itself.  Stands in for
    clinical recordings in closed-loop tests.

    Raises ValueError for a non-finite or non-positive ``duration`` or rate,
    a depth of 1e300 or more, a non-finite curve value or phase, and, before
    allocating, a train whose panels would not fit in memory.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration}")
    if not abs(modulation_depth) < 1e300:  # named here; edr_signal refuses what still overflows
        raise ValueError(f"|modulation_depth| must be below 1e300, got {modulation_depth}")
    probe = np.linspace(0.0, duration, 1025)
    rates = _curve_values(ihr_curve, probe, "ihr_curve")
    if np.any(rates <= 0.0):
        raise ValueError("ihr_curve must be strictly positive")
    _curve_values(resp_if, probe, "resp_if")

    panels = duration * 2.0 * float(np.max(rates))
    check_memory(_BYTES_PER_PANEL * panels, f"{panels:.3g} warp panels",
                 f"lower duration_s ({duration})")
    n_panels = max(1, math.ceil(panels))

    warp = _antiderivative(ihr_curve, duration, n_panels, "ihr_curve")
    scheme = SamplingScheme(
        psi=warp, psi_prime=lambda t: _curve_values(ihr_curve, t, "ihr_curve"))
    peaks = sampling_times(scheme, 0.0, duration)

    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        phase = 2.0 * np.pi * _antiderivative(resp_if, duration, n_panels, "resp_if")(peaks)
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"the phase of resp_if overflows float64 over {duration} s")
    return RPeakRecord(times=peaks, amplitudes=1.0 + modulation_depth * np.cos(phase))
