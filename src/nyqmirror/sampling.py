"""Non-uniform sampling schemes: sample-time generation from an evaluable
time-warp, signal sampling, ISR/INF estimation from observed times, the
identifiability deviation check, and the local-Nyquist margin check.

A scheme is the strictly increasing warp ``psi`` whose integer crossings
define the sample instants t_m (psi(t_m) = m); ``psi_prime`` is the
instantaneous sampling rate (ISR) and half of it the instantaneous Nyquist
frequency (INF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

import numpy as np

from .spline_interp import check_memory, curve, frozen, interpolate_nonuniform

if TYPE_CHECKING:  # pragma: no cover
    from .signal_model import IMTSignal

__all__ = [
    "IdentifiabilityReport",
    "InrReport",
    "IsrEstimate",
    "SampleSet",
    "SamplingScheme",
    "check_inr",
    "check_isr_identifiability",
    "cosine_warp",
    "estimate_isr",
    "quadratic_warp",
    "sample_signal",
    "sampling_times",
]

_ROOT_TOL = 1e-10
# bytes per cell of the root scan in sampling_times: measured up to 59 B
# (the grid, the warp on it and its temporaries, the roots' brackets)
_BYTES_PER_CELL = 128


@dataclass(frozen=True)
class SamplingScheme:
    """Evaluable sampling warp psi and its rate psi_prime, under the ``curve`` rule."""

    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "psi", curve(self.psi))
        object.__setattr__(self, "psi_prime", curve(self.psi_prime))

    def inf(self, t) -> np.ndarray | float:
        """Instantaneous Nyquist frequency psi'(t)/2."""
        return self.psi_prime(t) / 2.0


def quadratic_warp(base_hz: float, quad_denom: float, t_center: float) -> SamplingScheme:
    """The warp of ISR base_hz + (t - t_center)^2 / quad_denom, anchored at
    psi(0) = 0: psi(t) = base_hz t + ((t - t_center)^3 + t_center^3) / (3 quad_denom)."""
    return SamplingScheme(
        psi=lambda t: base_hz * t
        + ((t - t_center) ** 3 + t_center ** 3) / (3.0 * quad_denom),
        psi_prime=lambda t: base_hz + (t - t_center) ** 2 / quad_denom,
    )


def cosine_warp(base_hz: float, depth_hz: float, period_s: float) -> SamplingScheme:
    """The warp of ISR base_hz + depth_hz cos(2 pi t / period_s), anchored at
    psi(0) = 0: psi(t) = base_hz t + depth_hz period_s / (2 pi) sin(2 pi t / period_s).
    Uniform sampling at rate r is ``cosine_warp(r, 0, 1)``, to the last bit."""
    amp = depth_hz * period_s / (2.0 * np.pi)
    return SamplingScheme(
        psi=lambda t: base_hz * t + amp * np.sin(2.0 * np.pi * t / period_s),
        psi_prime=lambda t: base_hz + depth_hz * np.cos(2.0 * np.pi * t / period_s),
    )


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Strictly increasing (time, value) observation pairs."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, v = frozen(self.times), frozen(self.values)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size < 2:
            raise ValueError("a sample set needs at least 2 points")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("sample times and values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample times must be strictly increasing")

    def __len__(self) -> int:
        return self.times.size


def sampling_times(scheme: SamplingScheme, t_start: float, t_end: float) -> np.ndarray:
    """All sample instants t_m in [t_start, t_end] with psi(t_m) = m integer.

    Roots are bracketed by a monotone scan at step 0.5 / max(psi'), refined
    by bisection and polished with at most 3 Newton steps; every returned
    root satisfies |psi(t_m) - m| <= 1e-10.

    Raises
    ------
    ValueError
        If t_start >= t_end, psi' is NaN or non-positive at any probe
        point, or the scan grid would not fit in physical memory.
    """
    if not t_end > t_start:
        raise ValueError("t_start must be strictly less than t_end")
    probe = np.linspace(t_start, t_end, 257)
    # an infinite rate fails the memory check, a NaN one the check below
    with np.errstate(over="ignore", invalid="ignore"):
        rates = scheme.psi_prime(probe)
    if (undefined := np.isnan(rates)).any():
        raise ValueError(f"sampling rate psi'({float(probe[undefined.argmax()])}) is NaN "
                         f"on the span [{t_start}, {t_end}]")
    if np.any(rates <= 0.0):
        bad = float(probe[int(np.argmin(rates))])
        raise ValueError(f"sampling warp is non-monotone: psi'({bad}) <= 0")

    max_rate = float(np.max(rates))
    cells = (t_end - t_start) * 2.0 * max_rate  # at the step 0.5 / max_rate
    check_memory(_BYTES_PER_CELL * cells, f"{cells:.3g} scan cells",
                 f"shorten the span [{t_start}, {t_end}] or lower the rate")
    step = 0.5 / max_rate
    n_cells = max(2, int(np.ceil((t_end - t_start) / step)))
    grid = np.linspace(t_start, t_end, n_cells + 1)
    pg = scheme.psi(grid)
    if np.any(np.diff(pg) <= 0.0):
        raise ValueError("sampling warp is non-monotone on the scan grid")

    m_lo = int(np.ceil(pg[0] - 1e-9))
    m_hi = int(np.floor(pg[-1] + 1e-9))
    if m_hi < m_lo:
        return np.empty(0)
    targets = np.arange(m_lo, m_hi + 1, dtype=float)

    cells = np.clip(np.searchsorted(pg, targets, side="left") - 1, 0, n_cells - 1)
    lo = grid[cells].copy()
    hi = grid[cells + 1].copy()
    # bisect to 1e-8 bracket width
    n_bis = max(1, int(np.ceil(np.log2(max(step, 1e-8) / 1e-8))))
    for _ in range(n_bis):
        mid = 0.5 * (lo + hi)
        below = scheme.psi(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    roots = 0.5 * (lo + hi)
    for _ in range(3):
        resid = scheme.psi(roots) - targets
        roots = roots - resid / scheme.psi_prime(roots)
    roots = np.clip(roots, t_start, t_end)

    resid = np.abs(scheme.psi(roots) - targets)
    if np.any(resid > _ROOT_TOL):
        raise ValueError(
            f"root polish failed: |psi(t_m) - m| up to {float(np.max(resid)):.3e}"
        )
    return roots


def sample_signal(signal: "IMTSignal", scheme: SamplingScheme,
                  t_start: float, t_end: float) -> SampleSet:
    """Sample a signal at the scheme's instants over [t_start, t_end]."""
    times = sampling_times(scheme, t_start, t_end)
    if times.size < 2:
        raise ValueError("fewer than 2 sample instants in the requested span")
    # an overflowing phase gives inf or NaN values, which SampleSet refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = signal.evaluate(times)
    return SampleSet(times=times, values=values)


@dataclass(frozen=True, eq=False)
class IsrEstimate:
    """Not-a-knot cubic-spline ISR estimate from observed sample times.

    ``isr`` and ``inf`` are evaluable on ``domain`` only.
    """

    isr: Callable[[np.ndarray], np.ndarray]
    domain: tuple[float, float]
    knot_times: np.ndarray
    knot_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knot_times", frozen(self.knot_times))
        object.__setattr__(self, "knot_rates", frozen(self.knot_rates))

    def inf(self, t) -> np.ndarray | float:
        """Estimated instantaneous Nyquist frequency isr(t)/2."""
        return self.isr(t) / 2.0


def estimate_isr(times) -> IsrEstimate:
    """Estimate the ISR from sample times as the order-3
    ``interpolate_nonuniform`` spline (the not-a-knot cubic) through
    (t_i, 1/(t_{i+1} - t_i)), the rate anchored at the left endpoint.

    The estimate is restricted to [t_1, t_{N-1}] rather than extrapolated.
    Needs at least 5 strictly increasing times.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 5:
        raise ValueError(f"ISR estimation needs >= 5 times, got {t.size}")
    gaps = np.diff(t)
    if np.any(gaps <= 0.0):
        raise ValueError("times must be strictly increasing")
    with np.errstate(over="ignore"):  # refused below
        rates = 1.0 / gaps
    if np.isinf(rates).any():
        raise ValueError(f"the rate 1/gap overflows float64 at the smallest gap "
                         f"between times, {float(gaps.min())!r} s")
    rates = SampleSet(t[:-1], rates)
    isr = interpolate_nonuniform(rates, 3)
    return IsrEstimate(isr=isr, domain=isr.domain,
                       knot_times=rates.times, knot_rates=rates.values)


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Maximal deviations between two schemes generating identical samples."""

    max_isr_deviation: float
    max_psi_deviation: float


def check_isr_identifiability(psi_a: SamplingScheme, psi_b: SamplingScheme,
                              grid) -> IdentifiabilityReport:
    """Measure max |psi_a' - psi_b'| and max |psi_a - psi_b| over the grid.

    Both schemes must generate identical sample-time sets on the grid span
    (verified to 1e-8); the caller asserts the measured deviations against
    the 2*eps and 2*eps/c identifiability bounds.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid must be a 1-d array with >= 2 points")
    ta = sampling_times(psi_a, float(g[0]), float(g[-1]))
    tb = sampling_times(psi_b, float(g[0]), float(g[-1]))
    if ta.size != tb.size or (
        ta.size and float(np.max(np.abs(ta - tb))) > 1e-8
    ):
        raise ValueError("schemes do not generate the same sampling points")
    d_rate = float(np.max(np.abs(psi_a.psi_prime(g) - psi_b.psi_prime(g))))
    d_warp = float(np.max(np.abs(psi_a.psi(g) - psi_b.psi(g))))
    return IdentifiabilityReport(max_isr_deviation=d_rate, max_psi_deviation=d_warp)


@dataclass(frozen=True)
class InrReport:
    """Margin between the ISR and the signal's instantaneous Nyquist rate."""

    min_margin_hz: float
    time_at_min: float
    undersampled: bool


def check_inr(signal: "IMTSignal", scheme: SamplingScheme, grid) -> InrReport:
    """Minimum of psi'(t) - 2*phi'(t) over the grid.

    A negative margin flags local undersampling as a warning in the report;
    it is never an error (physiological trains may transiently undersample).
    """
    g = np.asarray(grid, dtype=float)
    margins = scheme.psi_prime(g) - 2.0 * signal.iff(g)
    i = int(np.argmin(margins))
    return InrReport(
        min_margin_hz=float(margins[i]),
        time_at_min=float(g[i]),
        undersampled=bool(margins[i] < 0.0),
    )
