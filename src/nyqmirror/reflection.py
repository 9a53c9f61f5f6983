"""Reflection-artifact prediction: the image components created by spline
interpolation of non-uniformly sampled oscillations, their synthesis, and
the residual check against the actual interpolation pipeline.

A signal a(t) cos(2 pi phi(t)) sampled at instants psi(t_m) = m and
interpolated with an order-n spline behaves like

    a(t) * sum_k eta_hat_n(k - beta(t)) * cos(2 pi (k psi(t) - phi(t)))

with beta = phi' / psi' the locally normalized frequency and eta_hat_n the
fundamental cardinal spline spectrum.  The k = 0 term is the signal; k = 1
is the dominant artifact, whose frequency psi' - phi' mirrors the true
frequency about the instantaneous Nyquist frequency psi'/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mitigation import above_inf_rows
from .rowblocks import row_blocks
from .sampling import SamplingScheme, sample_signal
from .signal_model import IMTSignal, Scenario
from .spline_interp import (
    UniformSignal,
    frozen,
    image_kernel,
    interpolate_nonuniform,
    resample_uniform,
    uniform_grid,
)
from .tf_analysis import TFRepresentation, magnitude_rows

__all__ = [
    "PredictedComponent",
    "ReflectionResidualReport",
    "above_inf_energy_ratio",
    "predict_components",
    "residual_scaling_table",
    "synthesize_prediction",
    "verify_reflection_theorem",
]

@dataclass(frozen=True, eq=False)
class PredictedComponent:
    """One image component of the interpolated signal.

    ``if_curve`` maps time to |k psi'(t) - phi'(t)| in Hz.  ``amplitude``
    is the signed amplitude a(t) * eta_hat_n(k - beta(t)) on the prediction
    grid, and ``peak_amp`` its maximum magnitude, used for ranking.
    """

    k: int
    if_curve: Callable[[np.ndarray], np.ndarray]
    amplitude: np.ndarray
    peak_amp: float

    def __post_init__(self):
        object.__setattr__(self, "amplitude", frozen(self.amplitude))


def predict_components(signal: IMTSignal, scheme: SamplingScheme, n: int,
                       k_range: tuple[int, int], grid) -> list[PredictedComponent]:
    """Predicted components for every k in the inclusive ``k_range``.

    The list is sorted by peak amplitude magnitude (descending), with
    components whose frequency curves coincide on the grid deduplicated
    (the real-signal cosine makes such pairs redundant).  ``k_range`` must
    contain 0, whose component is the signal itself.
    """
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if not k_lo <= 0 <= k_hi:
        raise ValueError("k_range must contain 0")
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be a 1-d array with >= 2 points")

    def make_if(k):
        return lambda t: np.abs(k * scheme.psi_prime(t) - signal.iff(t))

    # a(t) eta_hat_n(k - beta(t)), beta = phi' / psi': one kernel for every k
    am, kernel = signal.am(g), image_kernel(n, signal.iff(g) / scheme.psi_prime(g))
    components = []
    for k in range(k_lo, k_hi + 1):
        amplitude = am * kernel(k)
        components.append(PredictedComponent(
            k=k,
            if_curve=make_if(k),
            amplitude=amplitude,
            peak_amp=float(np.max(np.abs(amplitude))),
        ))

    # drop k whose |IF| curve duplicates an earlier, stronger component
    components.sort(key=lambda c: (-c.peak_amp, abs(c.k), c.k))
    kept: list[PredictedComponent] = []
    curves = []
    for comp in components:
        curve = comp.if_curve(g)
        scale = max(float(np.max(np.abs(curve))), 1.0)
        if any(np.max(np.abs(curve - c)) <= 1e-9 * scale for c in curves):
            continue
        kept.append(comp)
        curves.append(curve)
    return kept


def synthesize_prediction(signal: IMTSignal, scheme: SamplingScheme, n: int,
                          k_max: int, rate: float,
                          span: tuple[float, float]) -> UniformSignal:
    """Evaluate the truncated image series on a uniform grid over ``span``.

    Uses the exact amplitude, phase and warp of the inputs; the series
    keeps every k with |k| <= k_max, whose kernels eta_hat_n(k - beta) come
    from one ``image_kernel`` of beta = phi' / psi'.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    t0, t1 = float(span[0]), float(span[1])
    # measured 105 bytes per point, whatever n and k_max; allow twice that
    t = uniform_grid(rate, t0, t1, 210.0, "series points")

    kernel = image_kernel(n, signal.iff(t) / scheme.psi_prime(t))
    am = signal.am(t)
    phi = signal.phase(t)
    psi = scheme.psi(t)
    total = np.zeros_like(t)
    for k in range(-k_max, k_max + 1):
        total += kernel(k) * np.cos(2.0 * np.pi * (k * psi - phi))
    return UniformSignal(values=am * total, rate=float(rate), t_start=t0)


@dataclass(frozen=True)
class ReflectionResidualReport:
    """Relative L2 distance between pipeline and prediction."""

    residual: float
    span: tuple[float, float]
    trimmed_span: tuple[float, float]
    order: int
    k_max: int
    rate: float


def verify_reflection_theorem(signal: IMTSignal, scheme: SamplingScheme,
                              n: int, k_max: int, rate: float,
                              span: tuple[float, float]) -> ReflectionResidualReport:
    """Compare sample -> interpolate -> resample against the image series.

    The relative L2 distance is taken over the interior of ``span``,
    trimming (n+1)/min(ISR) seconds per side to keep boundary-knot
    transients (which the asymptotic statement does not cover) out of the
    measurement.
    """
    t0, t1 = float(span[0]), float(span[1])
    samples = sample_signal(signal, scheme, t0, t1)
    interp = interpolate_nonuniform(samples, n)
    lo = max(t0, samples.times[0])
    hi = min(t1, samples.times[-1])
    actual = resample_uniform(interp, rate, lo, hi)
    predicted = synthesize_prediction(signal, scheme, n, k_max, rate, (lo, hi))

    probe = np.linspace(t0, t1, 2049)
    min_isr = float(np.min(scheme.psi_prime(probe)))
    trim = (n + 1) / min_isr
    times = actual.times
    keep = (times >= lo + trim) & (times <= hi - trim)
    if not np.any(keep):
        raise ValueError("span too short: interior trim removed every sample")

    diff = actual.values[keep] - predicted.values[keep]
    norm = float(np.linalg.norm(actual.values[keep]))
    residual = float(np.linalg.norm(diff)) / norm if norm > 0.0 else 0.0
    kept_t = times[keep]
    return ReflectionResidualReport(
        residual=residual,
        span=(t0, t1),
        trimmed_span=(float(kept_t[0]), float(kept_t[-1])),
        order=n,
        k_max=k_max,
        rate=float(rate),
    )


def residual_scaling_table(scenarios: Sequence[Scenario], n: int,
                           k_max: int) -> list[tuple[str, float]]:
    """Residuals for a family of scenarios, e.g. shrinking modulation depth.

    Returns (scenario name, residual) pairs in the given order; for a
    family ordered by decreasing deviation from harmonicity the residuals
    are expected to be non-increasing.
    """
    table = []
    for sc in scenarios:
        report = verify_reflection_theorem(
            sc.signal, sc.scheme, n, k_max, sc.resample_hz, (0.0, sc.duration_s)
        )
        table.append((sc.name, report.residual))
    return table


def above_inf_energy_ratio(tfr: TFRepresentation,
                           inf_curve: Callable[[np.ndarray], np.ndarray]) -> float:
    """Fraction of |matrix| mass strictly above the INF curve per frame.

    Returns 0 for an all-zero matrix.  Magnitudes whose sum overflows,
    though finite, give the same ratio over |matrix| / max |matrix|.  The
    magnitude and the above-INF mask are read once, a block of rows at a
    time.  Each C-ordered row is summed whole, over all its cells and over
    those above the INF, and then the row sums: no sum depends on the block
    size or the matrix's memory order.
    """
    above = above_inf_rows(tfr, inf_curve)
    mag = magnitude_rows(tfr.matrix)  # a magnitude matrix is used as it is

    def masses(scale=None) -> tuple[float, float]:
        """The sums over all cells and above the INF of |matrix| / scale."""
        sums = np.empty((2, len(mag)))
        with np.errstate(over="ignore"):  # rescaled below
            for start, block in row_blocks(mag):
                rows = np.ascontiguousarray(block if scale is None else block / scale)
                stop = start + len(rows)
                sums[0, start:stop] = rows.sum(axis=1)
                sums[1, start:stop] = np.where(above[start:stop], rows, 0.0).sum(axis=1)
            total, part = sums.sum(axis=1)
        return float(total), float(part)

    total, part = masses()
    if not np.isfinite(total):
        total, part = masses(np.max([m.max() for _, m in row_blocks(mag)]))
    if total == 0.0:
        return 0.0
    return part / total
