"""Countermeasures against interpolation image artifacts: hard-threshold
masking above the instantaneous Nyquist frequency and zero-phase low-pass
prefiltering.  The third countermeasure, raising the spline order, is just
``interpolate_nonuniform`` with a high order (12 by default elsewhere).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .rowblocks import RowBlocks
from .spline_interp import UniformSignal
from .tf_analysis import TFRepresentation

__all__ = ["above_inf_rows", "inf_hard_threshold", "inf_masked_rows", "lowpass_prefilter"]


def above_inf_rows(tfr: TFRepresentation,
                   inf_curve: Callable[[np.ndarray], np.ndarray]) -> RowBlocks:
    """Boolean (bins x frames) mask of the cells strictly above the INF, a
    block of rows at a time.

    ``inf_curve`` is evaluated once, on the time axis; a scalar result
    applies to every frame.  A cell exactly at the INF is not above it.
    """
    inf_vals = np.broadcast_to(np.asarray(inf_curve(tfr.time_axis), dtype=float),
                               tfr.time_axis.shape)
    return RowBlocks(tfr.matrix.shape,
                     lambda a, b: tfr.freq_axis[a:b, None] > inf_vals)


def inf_masked_rows(tfr: TFRepresentation,
                    inf_curve: Callable[[np.ndarray], np.ndarray]) -> RowBlocks:
    """``tfr.matrix`` with every cell strictly above the INF zeroed, the
    rest verbatim, a block of rows at a time: a magnitude stays one."""
    above = above_inf_rows(tfr, inf_curve)
    return RowBlocks(tfr.matrix.shape,
                     lambda a, b: np.where(above[a:b], 0.0, tfr.matrix[a:b]))


def inf_hard_threshold(tfr: TFRepresentation,
                       inf_curve: Callable[[np.ndarray], np.ndarray]
                       ) -> TFRepresentation:
    """Zero every cell strictly above the INF curve; keep the rest verbatim.

    The boundary cell at the INF itself is kept (frequencies <= INF pass).
    Idempotent, bitwise: masking a masked representation changes nothing.
    The result keeps the method and window metadata of ``tfr``; it is
    filled from ``inf_masked_rows`` a block of rows at a time, so no
    full-size mask is made.
    """
    masked = inf_masked_rows(tfr, inf_curve).array()
    masked.setflags(write=False)
    return TFRepresentation(masked, tfr.freq_axis, tfr.time_axis, tfr.method,
                            tfr.window_meta)


def lowpass_prefilter(sig: UniformSignal, cutoff_hz: float,
                      transition_hz: float) -> UniformSignal:
    """Zero-phase FIR low-pass: windowed-sinc (Kaiser), forward-backward.

    The passband extends to ``cutoff_hz`` (ripple well under 0.01 dB after
    the two passes) and the stopband starts at ``cutoff_hz +
    transition_hz`` with at least 60 dB net attenuation.  Known caveat:
    for signals that are not band-limited this perturbs rather than
    removes interpolation images, so it is not part of default pipelines.
    """
    # imported here: scipy.signal would add ~1 s to every import
    from scipy.signal import filtfilt, firwin, kaiserord

    for name, value in (("cutoff_hz", cutoff_hz), ("transition_hz", transition_hz)):
        if not value > 0.0:  # NaN included
            raise ValueError(f"{name} must be positive, got {value}")
    if cutoff_hz + transition_hz >= sig.rate / 2.0:
        raise ValueError(
            f"cutoff + transition ({cutoff_hz + transition_hz} Hz) must stay "
            f"below Nyquist ({sig.rate / 2.0} Hz)"
        )
    # single-pass design for 66 dB / half the net ripple; filtfilt squares
    # the magnitude response
    try:
        numtaps, beta = kaiserord(66.0, transition_hz / (sig.rate / 2.0))
    except (ZeroDivisionError, OverflowError):  # the band width underflows
        raise ValueError(f"transition_hz ({transition_hz}) is too narrow for a "
                         f"filter at {sig.rate} Hz") from None
    numtaps |= 1
    if len(sig) <= 3 * numtaps:
        raise ValueError(f"signal too short for the filter at transition_hz="
                         f"{transition_hz}: needs > {3.0 * numtaps:.3g} samples, "
                         f"has {len(sig)}")
    taps = firwin(numtaps, cutoff_hz + transition_hz / 2.0,
                  window=("kaiser", beta), fs=sig.rate)
    filtered = filtfilt(taps, 1.0, sig.values)
    filtered.setflags(write=False)
    return UniformSignal(values=filtered, rate=sig.rate, t_start=sig.t_start)
