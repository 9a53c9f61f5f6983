"""The containers' one read-only-array rule, ``spline_interp.frozen``: every
array a container holds is read-only, a writable input is copied, and a
read-only input is shared.  And their one calling rule for curves,
``spline_interp.curve``: a curve takes and returns float arrays."""

import numpy as np
import pytest

from nyqmirror import (
    IMTSignal,
    IsrEstimate,
    SampleSet,
    SamplingScheme,
    SplineInterpolant,
    UniformSignal,
    check_inr,
    sample_signal,
)
from nyqmirror.physio_io import RPeakRecord
from nyqmirror.reflection import PredictedComponent, predict_components
from nyqmirror.spline_interp import frozen, interpolate_pchip
from nyqmirror.tf_analysis import DisplayMatrix, TFRepresentation, Window, WindowMeta

# each container's array fields, with valid values, and its other fields
ARRAYS = {
    SampleSet: {"times": [0.0, 1.0, 2.5], "values": [1.0, -1.0, 0.5]},
    RPeakRecord: {"times": [0.0, 0.8, 1.7], "amplitudes": [1.0, 1.1, 0.9]},
    UniformSignal: {"values": [0.0, 1.0, 0.5]},
    SplineInterpolant: {"knots": [0.0, 0.0, 1.0, 2.0, 2.0],
                        "coefficients": [1.0, 2.0, 3.0]},
    PredictedComponent: {"amplitude": [0.5, -1.0, 0.25]},
    IsrEstimate: {"knot_times": [0.0, 0.1, 0.25], "knot_rates": [10.0, 6.7, 8.0]},
    Window: {"samples": [0.5, 1.0, 0.5], "derivative": [1.0, 0.0, -1.0],
             "t_weighted": [-0.5, 0.0, 0.5]},
    TFRepresentation: {"matrix": [[1.0, 2.0], [3.0, 4.0]], "freq_axis": [0.0, 1.0],
                       "time_axis": [0.0, 0.5]},
    DisplayMatrix: {"matrix": [[0.01, 1.0], [0.5, 0.2]]},
}
OTHERS = {
    UniformSignal: {"rate": 4.0},
    SplineInterpolant: {"order": 1, "domain": (0.0, 2.0)},
    PredictedComponent: {"k": 1, "if_curve": abs, "peak_amp": 1.0},
    IsrEstimate: {"isr": abs, "domain": (0.0, 0.25)},
    Window: {"family": "gaussian", "duration_s": 1.0},
    TFRepresentation: {"method": "rm", "window_meta": WindowMeta("gaussian", 1.0, 1, 1)},
    DisplayMatrix: {"quantile_q": 1.0},
}


@pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda cls: cls.__name__)
def test_container_arrays_are_read_only(cls):
    inputs = {name: np.array(values) for name, values in ARRAYS[cls].items()}
    box = cls(**inputs, **OTHERS.get(cls, {}))
    assert not any(getattr(box, name).flags.writeable for name in inputs)
    hash(box)  # compared by identity (eq=False), so an array field cannot break hash()
    # the owner of a writable input writes into it after construction
    for a in inputs.values():
        a += 1.0
    for name, values in ARRAYS[cls].items():
        np.testing.assert_array_equal(getattr(box, name), values)
    # a read-only input is kept as it is, not copied
    for a in inputs.values():
        a.setflags(write=False)
    shared = cls(**inputs, **OTHERS.get(cls, {}))
    assert all(np.shares_memory(getattr(shared, name), a) for name, a in inputs.items())


def test_pchip_spline_arrays_are_read_only():
    # PCHIP builds its knots and coefficients from the samples, so the
    # spline it returns holds neither of the caller's arrays
    times, values = np.arange(4.0), np.array([0.0, 1.0, 0.0, 1.0])
    interp = interpolate_pchip(SampleSet(times=times, values=values))
    assert isinstance(interp, SplineInterpolant)
    assert not interp.knots.flags.writeable and not interp.coefficients.flags.writeable
    knots, coefficients = interp.knots.copy(), interp.coefficients.copy()
    times += 10.0
    values += 1.0
    np.testing.assert_array_equal(interp.knots, knots)
    np.testing.assert_array_equal(interp.coefficients, coefficients)
    assert interp.domain == (0.0, 3.0) and interp(1.5) == 0.5


def test_frozen_keeps_read_only_views():
    # a read-only view of a writable buffer is kept too (RM hands its output
    # over as one): the buffer's owner must not write into it afterwards
    buffer = np.arange(6.0)
    view = buffer[:-1].reshape(5, 1)
    view.setflags(write=False)
    assert frozen(view) is view
    assert frozen(view, dtype=None) is view
    copied = frozen(buffer)
    assert not copied.flags.writeable and not np.shares_memory(copied, buffer)


def test_container_curves_take_and_return_float_arrays():
    # SamplingScheme and IMTSignal hold their curves under spline_interp.curve,
    # so curves of plain arithmetic take a list of times, and the callers
    # that no longer convert the curves' values run on them
    scheme = SamplingScheme(psi=lambda t: 8.0 * t, psi_prime=lambda t: 8.0 + 0.0 * t)
    signal = IMTSignal(am=lambda t: 1.0 + 0.0 * t, phase=lambda t: 1.5 * t,
                       iff=lambda t: 1.5 + 0.0 * t)
    times = [0.0, 0.5, 1.0]
    for fn in (scheme.psi, scheme.psi_prime, scheme.inf,
               signal.am, signal.phase, signal.iff, signal.evaluate):
        values = fn(times)
        assert isinstance(values, np.ndarray) and values.dtype == float
        assert values.shape == (3,)
    np.testing.assert_array_equal(scheme.inf(times), [4.0, 4.0, 4.0])

    samples = sample_signal(signal, scheme, 0.0, 10.0)
    np.testing.assert_allclose(samples.times, np.arange(81) / 8.0, atol=1e-12)
    report = check_inr(signal, scheme, times)
    assert report.min_margin_hz == 5.0 and not report.undersampled
    comps = predict_components(signal, scheme, 3, (-1, 1), times)
    assert [comp.k for comp in comps] == [0, 1, -1]
    np.testing.assert_allclose(comps[1].if_curve(times), 6.5)
