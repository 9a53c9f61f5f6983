"""INF hard-threshold masking and low-pass prefiltering."""

import numpy as np
import pytest

from nyqmirror import UniformSignal
from nyqmirror.mitigation import above_inf_rows, inf_hard_threshold, lowpass_prefilter
from nyqmirror.reflection import above_inf_energy_ratio
from nyqmirror.tf_analysis import TFRepresentation, WindowMeta, make_windows, synchrosqueeze


def toy_tfr(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return TFRepresentation(
        matrix,
        np.arange(matrix.shape[0], dtype=float),
        np.arange(matrix.shape[1], dtype=float),
        "rm",
        WindowMeta("gaussian", 1.0, 1, 1),
    )


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_mask_noop_when_inf_above_band():
    rng = np.random.default_rng(0)
    tfr = toy_tfr(rng.uniform(0.0, 1.0, (6, 5)))
    masked = inf_hard_threshold(tfr, lambda t: np.full_like(t, 100.0))
    np.testing.assert_array_equal(masked.matrix, tfr.matrix)


def test_mask_all_when_inf_below_band():
    rng = np.random.default_rng(1)
    tfr = toy_tfr(rng.uniform(0.1, 1.0, (6, 5)))
    masked = inf_hard_threshold(tfr, lambda t: np.full_like(t, -1.0))
    assert np.all(masked.matrix == 0.0)


def test_mask_keeps_boundary_bin():
    mat = np.ones((6, 4))
    masked = inf_hard_threshold(toy_tfr(mat), lambda t: np.full_like(t, 3.0))
    np.testing.assert_array_equal(masked.matrix[3, :], 1.0)
    np.testing.assert_array_equal(masked.matrix[4, :], 0.0)


def test_mask_scalar_curve_broadcast_and_plain_result():
    tfr = toy_tfr(np.ones((6, 4)))
    np.testing.assert_array_equal(above_inf_rows(tfr, lambda t: 3.0)[:],
                                  np.arange(6)[:, None] > np.full((1, 4), 3.0))
    masked = inf_hard_threshold(tfr, lambda t: 3.0)
    assert type(masked) is TFRepresentation and masked.method == "rm"
    np.testing.assert_array_equal(masked.matrix[:4], 1.0)
    np.testing.assert_array_equal(masked.matrix[4:], 0.0)


def test_mask_idempotent_bitwise():
    rng = np.random.default_rng(2)
    tfr = toy_tfr(rng.uniform(0.0, 2.0, (12, 9)))
    curve = lambda t: 4.0 + 0.5 * np.sin(t)
    once = inf_hard_threshold(tfr, curve)
    twice = inf_hard_threshold(once, curve)
    np.testing.assert_array_equal(once.matrix, twice.matrix)


def test_mask_kept_entries_bitwise_identical():
    rng = np.random.default_rng(3)
    tfr = toy_tfr(rng.uniform(0.0, 2.0, (12, 9)))
    curve = lambda t: np.full_like(t, 6.0)
    masked = inf_hard_threshold(tfr, curve)
    below = tfr.freq_axis[:, None] <= 6.0 + 0.0 * tfr.time_axis[None, :]
    np.testing.assert_array_equal(masked.matrix[below], tfr.matrix[below])


def test_masked_pipeline_ratio_zero():
    rate = 32.0
    t = np.arange(int(30 * rate)) / rate
    sig = UniformSignal(np.cos(2.0 * np.pi * 3.0 * t)
                        + 0.2 * np.cos(2.0 * np.pi * 9.0 * t), rate=rate)
    win = make_windows("gaussian", 4.0, rate)[0]
    tfr = synchrosqueeze(sig, win, 4, 1024)
    inf_curve = lambda x: np.full_like(np.asarray(x, dtype=float), 6.0)
    assert above_inf_energy_ratio(tfr, inf_curve) > 0.0
    masked = inf_hard_threshold(tfr, inf_curve)
    assert above_inf_energy_ratio(masked, inf_curve) == 0.0


# ---------------------------------------------------------------------------
# low-pass prefilter
# ---------------------------------------------------------------------------

def test_lowpass_dc_preserved():
    sig = UniformSignal(np.full(4096, 2.5), rate=32.0)
    out = lowpass_prefilter(sig, 4.0, 1.0)
    inner = out.values[512:-512]
    assert np.max(np.abs(inner - 2.5)) <= 1e-6 * 2.5


def test_lowpass_stopband_tone_rejected():
    rate = 32.0
    t = np.arange(8192) / rate
    sig = UniformSignal(np.cos(2.0 * np.pi * 8.0 * t), rate=rate)
    out = lowpass_prefilter(sig, 4.0, 1.5)
    inner = out.values[1024:-1024]
    assert np.max(np.abs(inner)) <= 1e-3


def test_lowpass_passband_tone_preserved():
    rate = 32.0
    t = np.arange(8192) / rate
    sig = UniformSignal(np.cos(2.0 * np.pi * 3.0 * t), rate=rate)
    out = lowpass_prefilter(sig, 4.0, 1.5)
    inner = slice(1024, -1024)
    err = np.max(np.abs(out.values[inner] - sig.values[inner]))
    assert err <= 1e-3


def test_lowpass_zero_phase():
    # a symmetric pulse stays centered: pure magnitude filtering
    rate = 32.0
    values = np.zeros(4096)
    center = 2048
    values[center - 64:center + 65] = np.hanning(129)
    sig = UniformSignal(values, rate=rate)
    out = lowpass_prefilter(sig, 4.0, 1.0)
    assert abs(int(np.argmax(out.values)) - center) <= 1


def test_lowpass_invalid_band():
    sig = UniformSignal(np.zeros(4096), rate=32.0)
    with pytest.raises(ValueError):
        lowpass_prefilter(sig, 15.0, 2.0)
    with pytest.raises(ValueError):
        lowpass_prefilter(sig, -1.0, 2.0)


@pytest.mark.parametrize("cutoff_hz, transition_hz, name", [
    (np.nan, 2.0, "cutoff_hz"), (4.0, np.nan, "transition_hz"),
    (0.0, 2.0, "cutoff_hz"), (4.0, -np.inf, "transition_hz")])
def test_lowpass_refuses_a_band_edge_by_name(cutoff_hz, transition_hz, name):
    # NaN fails every comparison: it is refused as not positive, by name
    sig = UniformSignal(np.zeros(4096), rate=32.0)
    with pytest.raises(ValueError, match=f"^{name} must be positive, got"):
        lowpass_prefilter(sig, cutoff_hz, transition_hz)


@pytest.mark.parametrize("transition_hz", [5e-324, 1e-320])
def test_lowpass_underflowing_transition_is_value_error(transition_hz):
    # the band width underflows: kaiserord divided by zero or overflowed
    sig = UniformSignal(np.zeros(4096), rate=32.0)
    with pytest.raises(ValueError, match="transition_hz"):
        lowpass_prefilter(sig, 1.0, transition_hz)


def test_lowpass_too_long_filter_names_transition_and_tap_count():
    # the tap count used to be printed with all of its 136 digits
    sig = UniformSignal(np.zeros(4096), rate=32.0)
    with pytest.raises(ValueError, match=r"at transition_hz=1e-300: needs > "
                                         r"\d\.\d\de\+302 samples, has 4096$"):
        lowpass_prefilter(sig, 1.0, 1e-300)
