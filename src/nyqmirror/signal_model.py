"""Adaptive harmonic signal model: evaluable amplitude/phase/frequency
descriptors, membership validation for the slowly-modulated class, and the
two built-in demonstration scenarios.

Signals are closed-form descriptors rather than sampled arrays so that
every downstream check has pointwise ground truth at arbitrary times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .sampling import SamplingScheme, cosine_warp, quadratic_warp
from .spline_interp import curve, frozen

__all__ = [
    "IMTSignal",
    "Scenario",
    "ValidationReport",
    "Violation",
    "builtin_scenario",
    "fig2_variant",
    "harmonic",
    "validate_imt",
]


@dataclass(frozen=True)
class IMTSignal:
    """One intrinsic-mode-type component a(t) * cos(2*pi*phase(t)).

    ``am`` maps time to amplitude, ``phase`` to cycles, and ``iff`` to the
    instantaneous frequency in Hz.  ``iff`` is stored explicitly (it is the
    phase derivative) to avoid numeric differentiation noise downstream.
    ``model_params = (c1, c2, eps)`` are the class constants: amplitude and
    frequency live in [c1, c2] and the modulation rates are bounded by
    eps times the instantaneous frequency.  Each curve follows the ``curve`` rule.
    """

    am: Callable[[np.ndarray], np.ndarray]
    phase: Callable[[np.ndarray], np.ndarray]
    iff: Callable[[np.ndarray], np.ndarray]
    model_params: tuple[float, float, float]

    def __post_init__(self):
        for name in ("am", "phase", "iff"):
            object.__setattr__(self, name, curve(getattr(self, name)))

    def evaluate(self, t) -> np.ndarray | float:
        """am(t) * cos(2*pi*phase(t)); total in t, no side effects."""
        out = self.am(t) * np.cos(2.0 * np.pi * self.phase(t))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Violation:
    """One grid point breaking one of the class inequalities."""

    index: int
    time: float
    constraint: str
    value: float
    bound: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    grid: np.ndarray
    violations: tuple[Violation, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", frozen(self.grid))

    @property
    def passed(self) -> bool:
        return not self.violations


def validate_imt(signal: IMTSignal, grid) -> ValidationReport:
    """Check the four class inequalities of the slow-modulation model on a grid.

    Checks, at every grid point:

    - c1 <= am(t) <= c2
    - c1 <= iff(t) <= c2
    - |d(am)/dt| <= eps * iff(t) + tol
    - |d(iff)/dt| <= eps * iff(t) + tol

    Derivatives use central differences on the grid; ``tol`` is ten times a
    truncation-error estimate h^2 |f'''| / 6 (third derivative itself
    estimated by differencing) plus a rounding floor.

    Raises
    ------
    ValueError
        Grid not strictly increasing or shorter than 3 points.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 3:
        raise ValueError("validation grid needs at least 3 increasing points")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("validation grid must be strictly increasing")

    c1, c2, eps = signal.model_params
    am = signal.am(g)
    iff = signal.iff(g)

    h = np.empty_like(g)
    h[1:-1] = 0.5 * (g[2:] - g[:-2])
    h[0], h[-1] = g[1] - g[0], g[-1] - g[-2]

    def slope_and_tol(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d1 = np.gradient(y, g, edge_order=2)
        d3 = np.gradient(np.gradient(d1, g, edge_order=2), g, edge_order=2)
        scale = float(np.max(np.abs(y))) or 1.0
        tol = 10.0 * (h ** 2 * np.abs(d3) / 6.0) + 64.0 * np.finfo(float).eps * scale / h
        return d1, tol

    am_rate, am_tol = slope_and_tol(am)
    iff_rate, iff_tol = slope_and_tol(iff)

    viols: list[Violation] = []

    def record(mask: np.ndarray, name: str, value: np.ndarray, bound: np.ndarray):
        for i in np.nonzero(mask)[0]:
            viols.append(Violation(int(i), float(g[i]), name,
                                   float(value[i]), float(bound[i])))

    ones = np.ones_like(g)
    record(am < c1, "am_below_c1", am, c1 * ones)
    record(am > c2, "am_above_c2", am, c2 * ones)
    record(iff < c1, "iff_below_c1", iff, c1 * ones)
    record(iff > c2, "iff_above_c2", iff, c2 * ones)
    record(np.abs(am_rate) > eps * iff + am_tol, "am_slope",
           np.abs(am_rate), eps * iff + am_tol)
    record(np.abs(iff_rate) > eps * iff + iff_tol, "iff_slope",
           np.abs(iff_rate), eps * iff + iff_tol)

    viols.sort(key=lambda v: (v.index, v.constraint))
    return ValidationReport(grid=g, violations=tuple(viols))


@dataclass(frozen=True)
class Scenario:
    """A signal, the scheme sampling it, and the replay parameters."""

    name: str
    signal: IMTSignal
    scheme: SamplingScheme
    duration_s: float
    resample_hz: float


def harmonic(freq_hz: float, amp: float) -> IMTSignal:
    """The pure tone amp * cos(2*pi*freq_hz*t), with class constants
    (min(amp, freq_hz), max(amp, freq_hz), 0.01)."""
    return IMTSignal(
        am=lambda t: np.full_like(t, amp),
        phase=lambda t: freq_hz * t,
        iff=lambda t: np.full_like(t, freq_hz),
        model_params=(min(amp, freq_hz), max(amp, freq_hz), 0.01),
    )


def builtin_scenario(name: str) -> Scenario:
    """Return one of the two built-in demonstration scenarios.

    ``fig1``: a 2.5 Hz harmonic sampled with the quadratic-in-time ISR
    6 + (t - 80/pi)^2 / 800.  ``fig2``: an amplitude- and frequency-
    modulated tone (0.7 + t^1.1) * cos(2*pi*(pi*t + 0.2*cos t)) sampled
    with the ISR 8 + 0.5*cos(pi*t/10).  Both run 80 s and replay at 64 Hz;
    the warp anchors are fixed at psi(0) = 0 for reproducibility.
    """
    if name == "fig1":
        return Scenario("fig1", harmonic(2.5, 1.0),
                        quadratic_warp(6.0, 800.0, 80.0 / np.pi), 80.0, 64.0)
    if name == "fig2":
        return replace(fig2_variant(1.0), name="fig2")
    raise ValueError(f"unknown scenario {name!r}; expected 'fig1' or 'fig2'")


def fig2_variant(if_mod_scale: float) -> Scenario:
    """The second scenario with its IF modulation depth scaled.

    Scaling the 0.2*cos(t) phase perturbation by ``if_mod_scale`` shrinks
    the signal's deviation from a pure harmonic, which is how the
    interpolation-residual scaling law is exercised.
    """
    if not 0.0 <= if_mod_scale <= 1.0:
        raise ValueError("if_mod_scale must lie in [0, 1]")
    s = float(if_mod_scale)
    # honest class constants for the sampled span [0, 80], measured on a
    # dense grid: max am = 0.7 + 80^1.1, max |am'| / iff ~ 0.52
    signal = IMTSignal(
        am=lambda t: 0.7 + t ** 1.1,
        phase=lambda t: np.pi * t + 0.2 * s * np.cos(t),
        iff=lambda t: np.pi - 0.2 * s * np.sin(t),
        model_params=(0.7, 125.0, 0.6),
    )
    return Scenario(f"fig2@{if_mod_scale:g}", signal, cosine_warp(8.0, 0.5, 20.0),
                    80.0, 64.0)
