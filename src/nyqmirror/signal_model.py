"""Adaptive harmonic signal model: evaluable amplitude/phase/frequency
descriptors and the two built-in demonstration scenarios.

Signals are closed-form descriptors rather than sampled arrays so that
every downstream check has pointwise ground truth at arbitrary times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .sampling import SamplingScheme, cosine_warp, quadratic_warp
from .spline_interp import curve

__all__ = [
    "IMTSignal",
    "Scenario",
    "builtin_scenario",
    "fig2_variant",
    "harmonic",
]


@dataclass(frozen=True)
class IMTSignal:
    """One intrinsic-mode-type component a(t) * cos(2*pi*phase(t)).

    ``am`` maps time to amplitude, ``phase`` to cycles, and ``iff`` to the
    instantaneous frequency in Hz.  ``iff`` is stored explicitly (it is the
    phase derivative) to avoid numeric differentiation noise downstream.
    Each curve follows the ``curve`` rule.
    """

    am: Callable[[np.ndarray], np.ndarray]
    phase: Callable[[np.ndarray], np.ndarray]
    iff: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        for name in ("am", "phase", "iff"):
            object.__setattr__(self, name, curve(getattr(self, name)))

    def evaluate(self, t) -> np.ndarray | float:
        """am(t) * cos(2*pi*phase(t)); total in t, no side effects."""
        out = self.am(t) * np.cos(2.0 * np.pi * self.phase(t))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Scenario:
    """A signal, the scheme sampling it, and the replay parameters."""

    name: str
    signal: IMTSignal
    scheme: SamplingScheme
    duration_s: float
    resample_hz: float


def harmonic(freq_hz: float, amp: float) -> IMTSignal:
    """The pure tone amp * cos(2*pi*freq_hz*t)."""
    return IMTSignal(
        am=lambda t: np.full_like(t, amp),
        phase=lambda t: freq_hz * t,
        iff=lambda t: np.full_like(t, freq_hz),
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
    signal = IMTSignal(
        am=lambda t: 0.7 + t ** 1.1,
        phase=lambda t: np.pi * t + 0.2 * s * np.cos(t),
        iff=lambda t: np.pi - 0.2 * s * np.sin(t),
    )
    return Scenario(f"fig2@{if_mod_scale:g}", signal, cosine_warp(8.0, 0.5, 20.0),
                    80.0, 64.0)
