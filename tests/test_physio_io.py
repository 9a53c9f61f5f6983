"""R-peak parsing and the heart-rate / respiration pipelines."""

import warnings

import numpy as np
import pytest

from nyqmirror.physio_io import (
    RPeakRecord,
    edr_signal,
    ihr_signal,
    parse_rpeaks,
    rri_series,
    synth_rpeaks,
)
from nyqmirror.sampling import SampleSet, estimate_isr
from nyqmirror.spline_interp import interpolate_nonuniform, interpolate_pchip, resample_uniform
from nyqmirror.tf_analysis import make_windows, ridge_extract, synchrosqueeze


def const(v):
    return lambda t: np.full_like(np.asarray(t, dtype=float), float(v))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_times_only():
    rec = parse_rpeaks(b"time_s\n0.0\n0.8\n1.7\n")
    np.testing.assert_allclose(rec.times, [0.0, 0.8, 1.7])
    assert rec.amplitudes is None


def test_parse_with_amplitudes():
    rec = parse_rpeaks("time_s,amplitude\n0.0,1.0\n0.8,1.1\n1.7,0.9\n")
    np.testing.assert_allclose(rec.amplitudes, [1.0, 1.1, 0.9])


def test_parse_reports_bad_row():
    # rows are numbered as file lines, header included
    with pytest.raises(ValueError, match="row 4"):
        parse_rpeaks(b"time_s\n0.0\n0.8\nbogus\n")
    with pytest.raises(ValueError, match="row 4"):
        parse_rpeaks(b"time_s\n0.0\n0.8\n0.5\n")
    # a blank line still counts
    with pytest.raises(ValueError, match="row 5: non-numeric"):
        parse_rpeaks(b"time_s\n1.0\n\n2.0\nabc\n")
    with pytest.raises(ValueError, match="row 6: non-increasing"):
        parse_rpeaks(b"\n\ntime_s\n1.0\n2.0\n1.5\n")


def test_parse_rejects_non_finite_row():
    with pytest.raises(ValueError, match="row 3: non-finite"):
        parse_rpeaks(b"time_s\n0.0\nnan\n1.7\n")
    with pytest.raises(ValueError, match="row 4: non-finite"):
        parse_rpeaks(b"time_s,amplitude\n0.0,1.0\n0.8,1.1\n1.7,inf\n")


def test_record_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        RPeakRecord(times=np.array([0.0, np.nan, 1.7]))
    with pytest.raises(ValueError, match="finite"):
        RPeakRecord(times=np.array([0.0, 0.8, 1.7]),
                    amplitudes=np.array([1.0, np.nan, 1.0]))


@pytest.mark.parametrize("scheme", ["cubic", "pchip", 12])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_edr_keeps_the_bits_of_the_direct_computation(scheme, scale):
    # the EDR is made from the amplitudes over a power of two and scaled
    # back: the same bits as resampling the amplitudes themselves
    rng = np.random.default_rng(3)
    t = np.cumsum(rng.uniform(0.3, 1.5, 80))
    a = rng.normal(1.0, 0.1, t.size) * scale
    samples = SampleSet(times=t, values=a)
    interp = interpolate_pchip(samples) if scheme == "pchip" else \
        interpolate_nonuniform(samples, 3 if scheme == "cubic" else scheme)
    direct = resample_uniform(interp, 8.0, t[0], t[-2]).values
    got = edr_signal(RPeakRecord(t, a), 8.0, scheme).values
    assert got.tobytes() == (direct - np.mean(direct)).tobytes()


def test_edr_past_float64_is_refused_by_name():
    # alternating amplitudes of 1e308: the order-12 EDR passes the float64
    # range, the cubic one fits; an order-12 EDR of 1e301 on uneven gaps,
    # which a fixed amplitude bound once let overflow, fits too
    t = 0.7 * np.arange(60)
    rec = RPeakRecord(t, (-1.0) ** np.arange(60) * 1e308)
    rng = np.random.default_rng(1)
    gaps = [rng.choice([0.25, 2.0], 200) * rng.uniform(0.9, 1.1, 200) for _ in range(4)][-1]
    uneven = RPeakRecord(np.concatenate([[0.0], np.cumsum(gaps)]),
                         (-1.0) ** np.arange(201) * 1e301)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the EDR of these R-peak amplitudes overflows"):
            edr_signal(rec, 8.0, 12)
        assert np.all(np.isfinite(edr_signal(rec, 8.0, "cubic").values))
        assert np.all(np.isfinite(edr_signal(uneven, 8.0, 12).values))
        ihr_signal(rec)  # amplitudes play no part in the heart rate


def test_parse_reads_a_byte_order_mark():
    # Excel's "CSV UTF-8" export starts the file with a BOM, which made an
    # invisible first character of the header
    text = "time_s,amplitude\r\n0.0,1.0\r\n0.8,1.1\r\n1.7,0.9\r\n"
    plain, marked = parse_rpeaks(text.encode()), parse_rpeaks(b"\xef\xbb\xbf" + text.encode())
    np.testing.assert_array_equal(marked.times, plain.times)
    np.testing.assert_array_equal(marked.amplitudes, plain.amplitudes)


def test_parse_empty_and_bad_header():
    with pytest.raises(ValueError, match="empty"):
        parse_rpeaks(b"")
    with pytest.raises(ValueError, match="header"):
        parse_rpeaks(b"seconds\n1.0\n")


# ---------------------------------------------------------------------------
# interval series
# ---------------------------------------------------------------------------

def test_rri_values():
    rec = RPeakRecord(times=np.array([0.0, 0.8, 1.7]))
    rri = rri_series(rec)
    np.testing.assert_allclose(rri.times, [0.0, 0.8])
    np.testing.assert_allclose(rri.values, [0.8, 0.9])


def test_rri_uniform_train():
    rec = RPeakRecord(times=np.arange(12, dtype=float))
    rri = rri_series(rec)
    np.testing.assert_allclose(rri.values, 1.0)


def test_rri_needs_three_peaks():
    with pytest.raises(ValueError):
        rri_series(RPeakRecord(times=np.array([0.0, 1.0])))


# ---------------------------------------------------------------------------
# IHR
# ---------------------------------------------------------------------------

def test_ihr_uniform_train_constant():
    rec = RPeakRecord(times=np.arange(0.0, 20.0, 0.8))
    sig = ihr_signal(rec, rate=8.0)
    np.testing.assert_allclose(sig.values, 0.8, atol=1e-10)
    assert sig.rate == 8.0


def test_ihr_tracks_known_warp():
    # slow sinusoidal rate modulation around 1.25 Hz
    rate_curve = lambda t: 1.25 + 0.1 * np.sin(2.0 * np.pi * 0.05 * np.asarray(t))
    rec = synth_rpeaks(rate_curve, const(0.3), 120.0, 0.0)
    sig = ihr_signal(rec, rate=8.0)
    # ground truth for the interval anchored at the left peak
    truth = np.interp(sig.times, rec.times[:-1], np.diff(rec.times))
    keep = (sig.times > sig.times[0] + 2.0) & (sig.times < sig.times[-1] - 2.0)
    rms = np.sqrt(np.mean((sig.values[keep] - truth[keep]) ** 2))
    assert rms <= 0.02 * np.mean(truth)


def test_ihr_needs_five_peaks():
    with pytest.raises(ValueError):
        ihr_signal(RPeakRecord(times=np.arange(4, dtype=float)))


# ---------------------------------------------------------------------------
# EDR
# ---------------------------------------------------------------------------

def test_edr_constant_amplitudes_zero():
    rec = RPeakRecord(times=np.arange(0.0, 30.0, 0.7),
                      amplitudes=np.full(43, 5.0))
    sig = edr_signal(rec, rate=8.0)
    assert np.max(np.abs(sig.values)) <= 1e-10 * 5.0


def test_edr_mean_removed():
    rec = synth_rpeaks(const(1.4), const(0.5), 120.0, 0.2)
    for scheme in ("cubic", "pchip", 5):
        sig = edr_signal(rec, 8.0, scheme)
        assert abs(np.mean(sig.values)) <= 1e-10 * np.max(np.abs(sig.values))


def test_edr_requires_amplitudes():
    rec = RPeakRecord(times=np.arange(10, dtype=float))
    with pytest.raises(ValueError, match="amplitudes"):
        edr_signal(rec)


def test_edr_rejects_unknown_scheme():
    rec = synth_rpeaks(const(1.4), const(0.5), 20.0, 0.1)
    with pytest.raises(ValueError):
        edr_signal(rec, 8.0, "quintic")


def test_edr_recovers_respiratory_ridge():
    rec = synth_rpeaks(const(1.4), const(0.5), 120.0, 0.1)
    sig = edr_signal(rec, 8.0, "cubic")
    win = make_windows("gaussian", 10.0, 8.0)[0]
    tfr = synchrosqueeze(sig, win, 1, 2048, threshold=1e-8)
    keep = (tfr.time_axis > tfr.time_axis[0] + 8.0) \
        & (tfr.time_axis < tfr.time_axis[-1] - 8.0)
    ridge = ridge_extract(tfr, 0.25, 0.69)[keep]
    assert np.max(np.abs(ridge - 0.5)) <= 2.0 * 8.0 / 2048


# ---------------------------------------------------------------------------
# synthetic trains
# ---------------------------------------------------------------------------

def test_synth_constant_rate_count_and_spacing():
    rec = synth_rpeaks(const(1.2), const(0.3), 60.0, 0.1)
    assert abs(len(rec) - 73) <= 1
    np.testing.assert_allclose(np.diff(rec.times), 1.0 / 1.2, atol=1e-9)


def test_synth_zero_depth_unit_amplitudes():
    rec = synth_rpeaks(const(1.2), const(0.3), 30.0, 0.0)
    np.testing.assert_allclose(rec.amplitudes, 1.0, atol=1e-12)


def test_synth_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        synth_rpeaks(const(-1.0), const(0.3), 30.0, 0.1)
    with pytest.raises(ValueError):
        synth_rpeaks(const(1.0), const(0.3), -1.0, 0.1)


@pytest.mark.parametrize("ihr, duration", [(1.4, 3600.0), (1.25, 61.3)])
def test_synth_constant_rate_closed_form(ihr, duration):
    # psi(t) = ihr * t: the peaks are m / ihr for m = 0 .. duration * ihr,
    # the one at t = duration included when duration * ihr is an integer
    rec = synth_rpeaks(const(ihr), const(0.3), duration, 0.1)
    m = np.arange(int(np.floor(duration * ihr + 1e-9)) + 1)
    assert len(rec) == m.size
    np.testing.assert_allclose(rec.times, m / ihr, rtol=0.0, atol=1e-12)


def test_synth_sinusoidal_rate_closed_form():
    # rate a + b sin(2 pi f t): psi(t) = a t - b / (2 pi f) (cos 2 pi f t - 1);
    # respiration 0.3 + 0.05 cos(2 pi g t) has phase 0.3 t + 0.05 / (2 pi g) sin 2 pi g t
    a, b, f, g, depth, duration = 1.3, 0.15, 0.04, 0.01, 0.2, 3600.0
    w, v = 2.0 * np.pi * f, 2.0 * np.pi * g
    rec = synth_rpeaks(lambda t: a + b * np.sin(w * np.asarray(t)),
                       lambda t: 0.3 + 0.05 * np.cos(v * np.asarray(t)),
                       duration, depth)
    psi = a * rec.times - b / w * (np.cos(w * rec.times) - 1.0)
    assert len(rec) == int(a * duration - b / w * (np.cos(w * duration) - 1.0)) + 1
    np.testing.assert_allclose(psi, np.arange(len(rec)), rtol=0.0, atol=1e-9)
    phase = 0.3 * rec.times + 0.05 / v * np.sin(v * rec.times)
    np.testing.assert_allclose(rec.amplitudes, 1.0 + depth * np.cos(2.0 * np.pi * phase),
                               rtol=0.0, atol=1e-9)


def _nan_between_probes(value):
    # NaN on (100.2, 100.8) s only: the 1025 probes of a 1024 s train sit
    # on whole seconds, so only the quadrature nodes meet it
    def curve(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > 100.2) & (t < 100.8), np.nan, value)
    return curve


@pytest.mark.parametrize("ihr, resp, duration, name", [
    (const(1.4), const(0.3), np.nan, "duration"),
    (const(1.4), const(0.3), np.inf, "duration"),
    (const(1.4), const(0.3), 0.0, "duration"),
    (const(np.nan), const(0.3), 1024.0, "ihr_curve"),
    (_nan_between_probes(1.4), const(0.3), 1024.0, "ihr_curve"),
    (const(1.4), const(np.inf), 1024.0, "resp_if"),
    (const(1.4), _nan_between_probes(0.3), 1024.0, "resp_if"),
], ids=["nan-duration", "inf-duration", "zero-duration", "nan-ihr-at-probe",
        "nan-ihr-at-nodes", "inf-resp-at-probe", "nan-resp-at-nodes"])
def test_synth_rejects_non_finite_input(ihr, resp, duration, name):
    with pytest.raises(ValueError, match=name):
        synth_rpeaks(ihr, resp, duration, 0.1)


@pytest.mark.parametrize("duration", [1e9, 1e308])
def test_synth_too_long_for_memory_is_refused(duration):
    # refused from duration x max rate before the panels are allocated
    with pytest.raises(ValueError, match=r"bytes of memory: lower duration_s"):
        synth_rpeaks(const(1.4), const(0.3), duration, 0.1)


def test_synth_isr_matches_rate_curve():
    rate_curve = lambda t: 1.3 + 0.15 * np.sin(2.0 * np.pi * 0.04 * np.asarray(t))
    rec = synth_rpeaks(rate_curve, const(0.3), 150.0, 0.1)
    est = estimate_isr(rec.times)
    g = np.linspace(est.domain[0] + 2.0, est.domain[1] - 2.0, 500)
    assert np.max(np.abs(est.isr(g) - rate_curve(g))) <= 0.05
