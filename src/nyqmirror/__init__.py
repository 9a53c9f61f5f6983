"""Simulation and analysis of interpolation artifacts in time-frequency
representations of non-uniformly sampled oscillatory signals."""

__version__ = "0.1.0"

from .sampling import (
    IdentifiabilityReport,
    InrReport,
    IsrEstimate,
    SampleSet,
    SamplingScheme,
    check_inr,
    check_isr_identifiability,
    cosine_warp,
    estimate_isr,
    quadratic_warp,
    sample_signal,
    sampling_times,
)
from .signal_model import (
    IMTSignal,
    Scenario,
    builtin_scenario,
    fig2_variant,
    harmonic,
)
from .spline_interp import (
    SplineInterpolant,
    UniformSignal,
    fundamental_spline_spectrum,
    interpolate_nonuniform,
    interpolate_pchip,
    nonuniform_bspline,
    nonuniform_bspline_truncated_power,
    resample_uniform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
