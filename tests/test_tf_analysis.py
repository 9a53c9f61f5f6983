"""Windows, STFT, synchrosqueezing, reassignment, display, ridges."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nyqmirror import UniformSignal
from nyqmirror.tf_analysis import (
    TF_METHODS,
    TFRepresentation,
    display_rows,
    log_display,
    make_windows,
    multitaper,
    reassign,
    ridge_extract,
    stft,
    synchrosqueeze,
    tf_magnitude,
)

RATE = 64.0


def tone(freq, duration=20.0, rate=RATE, amp=1.0):
    t = np.arange(int(duration * rate)) / rate
    return UniformSignal(values=amp * np.cos(2.0 * np.pi * freq * t), rate=rate)


def interior(tfr, margin):
    return (tfr.time_axis >= tfr.time_axis[0] + margin) & (
        tfr.time_axis <= tfr.time_axis[-1] - margin
    )


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_gaussian_window_symmetric_and_normalized():
    win = make_windows("gaussian", 4.0, RATE)[0]
    np.testing.assert_array_equal(win.samples, win.samples[::-1])
    assert np.sum(win.samples**2) == pytest.approx(1.0, abs=1e-12)
    assert len(win) % 2 == 1


def test_hermite_tapers_orthonormal():
    wins = make_windows("hermite", 4.0, RATE, 3)
    gram = np.array([[np.dot(a.samples, b.samples) for b in wins] for a in wins])
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-6


def test_hermite_first_taper_is_gaussian():
    gauss = make_windows("gaussian", 4.0, RATE)[0]
    herm = make_windows("hermite", 4.0, RATE, 2)[0]
    cos_sim = np.dot(gauss.samples, herm.samples)
    assert cos_sim >= 0.999


def test_window_preconditions():
    with pytest.raises(ValueError):
        make_windows("gaussian", 0.1, RATE)  # under 16 samples
    with pytest.raises(ValueError):
        make_windows("hermite", 4.0, RATE, 11)
    with pytest.raises(ValueError):
        make_windows("gaussian", 4.0, RATE, 2)
    with pytest.raises(ValueError):
        make_windows("boxcar", 4.0, RATE)


def test_gaussian_derivative_consistent():
    win = make_windows("gaussian", 4.0, RATE)[0]
    u = (np.arange(len(win)) - (len(win) - 1) / 2.0) / RATE
    numeric = np.gradient(win.samples, u)
    assert np.max(np.abs(numeric - win.derivative)) < 1e-2 * np.max(
        np.abs(win.derivative)
    )


def test_hermite_derivatives_consistent():
    # the ladder-recurrence analytic derivative agrees with a numeric
    # gradient for every taper (limit here is the finite-difference error)
    for k, win in enumerate(make_windows("hermite", 4.0, RATE, 4)):
        u = (np.arange(len(win)) - (len(win) - 1) / 2.0) / RATE
        numeric = np.gradient(win.samples, u)
        scale = np.max(np.abs(win.derivative))
        assert np.max(np.abs(numeric - win.derivative)) < 1e-2 * scale


# ---------------------------------------------------------------------------
# stft
# ---------------------------------------------------------------------------

def test_stft_tone_localization():
    sig = tone(2.5, rate=64.0)
    win = make_windows("gaussian", 4.0, 64.0)[0]
    tfr = stft(sig, win, hop=8, nfft=2048)
    keep = interior(tfr, 2.5)
    peaks = tfr.freq_axis[np.argmax(np.abs(tfr.matrix[:, keep]), axis=0)]
    assert np.max(np.abs(peaks - 2.5)) <= 64.0 / 2048


def test_stft_zero_signal():
    sig = UniformSignal(values=np.zeros(1024), rate=RATE)
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr = stft(sig, win, hop=8, nfft=512)
    assert np.all(tfr.matrix == 0.0)


def test_stft_two_tones_resolved():
    t = np.arange(int(30 * RATE)) / RATE
    sig = UniformSignal(np.cos(2 * np.pi * 1.0 * t) + np.cos(2 * np.pi * 3.0 * t),
                        rate=RATE)
    win = make_windows("gaussian", 6.0, RATE)[0]
    tfr = stft(sig, win, hop=16, nfft=4096)
    keep = interior(tfr, 4.0)
    mag = np.abs(tfr.matrix[:, keep])
    for target in (1.0, 3.0):
        band = (tfr.freq_axis >= target - 1.0) & (tfr.freq_axis <= target + 1.0)
        peaks = tfr.freq_axis[band][np.argmax(mag[band], axis=0)]
        assert np.max(np.abs(peaks - target)) <= RATE / 4096


def test_stft_linearity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=512)
    y = rng.normal(size=512)
    win = make_windows("gaussian", 2.0, RATE)[0]
    fa = stft(UniformSignal(x, RATE), win, 4, 256).matrix
    fb = stft(UniformSignal(y, RATE), win, 4, 256).matrix
    fab = stft(UniformSignal(2.0 * x - 0.5 * y, RATE), win, 4, 256).matrix
    scale = np.max(np.abs(fab))
    assert np.max(np.abs(fab - (2.0 * fa - 0.5 * fb))) <= 1e-10 * scale


def test_stft_rejects_short_signal():
    sig = UniformSignal(values=np.ones(64), rate=RATE)
    win = make_windows("gaussian", 4.0, RATE)[0]
    with pytest.raises(ValueError, match="shorter than window"):
        stft(sig, win, 8, 512)


def test_stft_rejects_small_nfft():
    sig = tone(2.0)
    win = make_windows("gaussian", 4.0, RATE)[0]
    with pytest.raises(ValueError, match="nfft"):
        stft(sig, win, 8, 128)


# ---------------------------------------------------------------------------
# synchrosqueezing
# ---------------------------------------------------------------------------

def test_sst_column_sums_preserved():
    sig = tone(2.5)
    win = make_windows("gaussian", 4.0, RATE)[0]
    base = stft(sig, win, 8, 2048)
    squeezed = synchrosqueeze(sig, win, 8, 2048, threshold=0.0)
    ref = base.matrix.sum(axis=0)
    got = squeezed.matrix.sum(axis=0)
    assert np.max(np.abs(ref - got)) <= 1e-6 * np.max(np.abs(ref))


def test_sst_concentrates_tone():
    sig = tone(2.5)
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr = synchrosqueeze(sig, win, 8, 2048)
    keep = interior(tfr, 2.5)
    mag = np.abs(tfr.matrix[:, keep])
    band = np.abs(tfr.freq_axis - 2.5) <= 2.0 * RATE / 2048
    assert mag[band].sum() / mag.sum() >= 0.90


def test_sst_zero_signal():
    sig = UniformSignal(values=np.zeros(1024), rate=RATE)
    win = make_windows("gaussian", 4.0, RATE)[0]
    assert np.all(synchrosqueeze(sig, win, 8, 512).matrix == 0.0)


# ---------------------------------------------------------------------------
# reassignment
# ---------------------------------------------------------------------------

def test_rm_total_mass_preserved():
    rng = np.random.default_rng(9)
    sig = UniformSignal(rng.normal(size=1024), rate=RATE)
    win = make_windows("gaussian", 3.0, RATE)[0]
    base = stft(sig, win, 4, 1024)
    moved = reassign(sig, win, 4, 1024, threshold=0.0)
    ref = float(np.sum(np.abs(base.matrix) ** 2))
    assert abs(moved.matrix.sum() - ref) <= 1e-6 * ref
    assert np.all(moved.matrix >= 0.0)


def test_rm_concentrates_tone():
    sig = tone(2.5)
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr = reassign(sig, win, 8, 2048)
    keep = interior(tfr, 2.5)
    mass = tfr.matrix[:, keep]
    band = np.abs(tfr.freq_axis - 2.5) <= 2.0 * RATE / 2048
    assert mass[band].sum() / mass.sum() >= 0.95


def test_rm_impulse_concentrates_in_time():
    values = np.zeros(1024)
    values[512] = 1.0
    sig = UniformSignal(values=values, rate=RATE)
    win = make_windows("gaussian", 3.0, RATE)[0]
    hop = 4
    tfr = reassign(sig, win, hop, 1024)
    t0 = 512 / RATE
    near = np.abs(tfr.time_axis - t0) <= 2.0 * hop / RATE
    assert tfr.matrix[:, near].sum() / tfr.matrix.sum() >= 0.95


def test_rm_zero_signal():
    sig = UniformSignal(values=np.zeros(1024), rate=RATE)
    win = make_windows("gaussian", 4.0, RATE)[0]
    assert np.all(reassign(sig, win, 8, 512).matrix == 0.0)


# ---------------------------------------------------------------------------
# multitaper
# ---------------------------------------------------------------------------

def test_multitaper_needs_two_tapers():
    sig = tone(2.5)
    with pytest.raises(ValueError):
        multitaper(sig, 4.0, 1, 8, 2048)


_TRANSFORMS = {
    "stft": lambda sig, win: stft(sig, win, 8, 512),
    "sst": lambda sig, win: synchrosqueeze(sig, win, 8, 512, 1e-8),
    "rm": lambda sig, win: reassign(sig, win, 8, 512, 1e-8),
    "mt_sst": lambda sig, win: multitaper(sig, 4.0, 3, 8, 512, "sst", 1e-8),
    "mt_rm": lambda sig, win: multitaper(sig, 4.0, 3, 8, 512, "rm", 1e-8),
}


@pytest.mark.parametrize("amp, method", [
    (1e300, "rm"), (1e300, "mt_rm"),  # the mass |V_g|^2 overflows
    *[(1.7e308, method) for method in _TRANSFORMS],  # the FFT overflows
])
def test_overflowing_transform_is_refused(amp, method):
    # finite input whose arithmetic overflows float64 is a ValueError, not
    # inf cells or, through a floor of threshold * inf, an all-zero matrix;
    # any RuntimeWarning fails the test
    sig = tone(2.0, duration=30.0, rate=16.0, amp=amp)
    win = make_windows("gaussian", 4.0, 16.0)[0]
    with pytest.raises(ValueError, match="transform overflows float64"):
        _TRANSFORMS[method](sig, win)


def test_multitaper_ridge_matches_single_taper():
    sig = tone(2.5)
    win = make_windows("gaussian", 4.0, RATE)[0]
    single = synchrosqueeze(sig, win, 8, 2048)
    multi = multitaper(sig, 4.0, 3, 8, 2048, "sst")
    keep = interior(single, 2.5)
    a = single.freq_axis[np.argmax(np.abs(single.matrix[:, keep]), axis=0)]
    b = multi.freq_axis[np.argmax(multi.matrix[:, keep], axis=0)]
    assert np.max(np.abs(a - b)) <= RATE / 2048
    assert multi.method == "mt_sst"


def test_multitaper_reduces_noise_variance():
    # per-pixel variance across seeds drops when averaging 3 orthogonal
    # tapers of white noise
    win = make_windows("hermite", 2.0, 32.0, 1)[0]
    singles, multis = [], []
    for seed in range(50):
        x = np.random.default_rng(seed).normal(size=256)
        sig = UniformSignal(values=x, rate=32.0)
        singles.append(np.abs(synchrosqueeze(sig, win, 8, 128).matrix))
        multis.append(multitaper(sig, 2.0, 3, 8, 128, "sst").matrix)
    var_single = np.var(np.stack(singles), axis=0)
    var_multi = np.var(np.stack(multis), axis=0)
    assert np.mean(var_multi) < 0.6 * np.mean(var_single)
    frac_reduced = np.mean(var_multi < var_single)
    assert frac_reduced > 0.95


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["stft", "sst", "rm"])
def test_bit_identical_across_runs_and_chunks(method):
    rng = np.random.default_rng(21)
    sig = UniformSignal(rng.normal(size=700), rate=RATE)
    win = make_windows("gaussian", 2.0, RATE)[0]
    fns = {"stft": stft, "sst": synchrosqueeze, "rm": reassign}
    fn = fns[method]
    ref = fn(sig, win, 4, 256, chunk=128).matrix
    again = fn(sig, win, 4, 256, chunk=128).matrix
    np.testing.assert_array_equal(ref, again)
    for chunk in (1, 7, 64, 4096):
        np.testing.assert_array_equal(ref, fn(sig, win, 4, 256, chunk=chunk).matrix)


@pytest.mark.parametrize("method", ["sst", "rm"])
def test_multitaper_bit_identical_across_chunks(method):
    rng = np.random.default_rng(22)
    sig = UniformSignal(rng.normal(size=700), rate=RATE)
    ref = multitaper(sig, 2.0, 3, 4, 256, method, 1e-8, chunk=128).matrix
    for chunk in (1, 7, 64, 4096):
        got = multitaper(sig, 2.0, 3, 4, 256, method, 1e-8, chunk=chunk).matrix
        np.testing.assert_array_equal(ref.view(np.uint64), got.view(np.uint64))


@pytest.mark.parametrize("method", TF_METHODS)
def test_tf_magnitude_is_the_transforms_magnitude(method):
    # bit for bit |public transform|, as a read-only C-order real matrix;
    # mt_sst against the mean of the complex SSTs' magnitudes
    sig = UniformSignal(np.random.default_rng(23).normal(size=700), rate=RATE)
    win = make_windows("gaussian", 2.0, RATE)[0]
    if method == "mt_sst":
        layers = [np.abs(synchrosqueeze(sig, taper, 4, 256, 1e-8).matrix)
                  for taper in make_windows("hermite", 2.0, RATE, 3)]
        want = (0.0 + layers[0] + layers[1] + layers[2]) / 3
    else:
        ref = {"stft": lambda: stft(sig, win, 4, 256),
               "sst": lambda: synchrosqueeze(sig, win, 4, 256, 1e-8),
               "rm": lambda: reassign(sig, win, 4, 256, 1e-8),
               "mt_rm": lambda: multitaper(sig, 2.0, 3, 4, 256, "rm", 1e-8)}[method]()
        want = np.abs(ref.matrix)
    got = tf_magnitude(sig, method, 2.0, 4, 256, 3, 1e-8)
    assert got.method == method and got.matrix.dtype == np.float64
    assert got.matrix.flags.c_contiguous and not got.matrix.flags.writeable
    np.testing.assert_array_equal(got.matrix.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("method", TF_METHODS)
def test_magnitude_products_have_no_sign_bit(method):
    # the writers encode what they are given: tf_magnitude's container
    # accepts its matrix, and the masked and display products built from
    # it keep the rule, on an all-zero signal, a tone with nearly every cell
    # under the threshold and a subnormal tone
    from nyqmirror.mitigation import inf_masked_rows
    from nyqmirror.rowblocks import row_blocks

    for sig, threshold in ((tone(6.0, 4.0, amp=0.0), 1e-8),
                           (tone(6.0, 4.0), np.nextafter(1.0, 0.0)),
                           (tone(6.0, 4.0, amp=1e-310), 1e-8)):
        tfr = tf_magnitude(sig, method, 1.0, 4, 256, 3, threshold)
        assert isinstance(tfr, TFRepresentation)
        masked = inf_masked_rows(tfr, lambda t: np.full_like(t, 16.0))
        for product in (masked, display_rows(tfr.matrix)[0], display_rows(masked)[0]):
            assert not any(np.signbit(block).any() for _, block in row_blocks(product))


def test_tf_magnitude_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'cwt'"):
        tf_magnitude(tone(2.5), "cwt", 4.0, 8, 2048)


# ---------------------------------------------------------------------------
# log display
# ---------------------------------------------------------------------------

def zero_tfr(bins=16, frames=8):
    from nyqmirror.tf_analysis import WindowMeta

    return TFRepresentation(
        matrix=np.zeros((bins, frames)),
        freq_axis=np.arange(bins) * 1.0,
        time_axis=np.arange(frames) * 0.5,
        method="rm",
        window_meta=WindowMeta("gaussian", 1.0, 1, 1),
    )


def test_log_display_zero_matrix():
    disp = log_display(zero_tfr())
    np.testing.assert_array_equal(disp.matrix, np.full((16, 8), 1e-2))


def test_log_display_unit_entry():
    from nyqmirror.tf_analysis import WindowMeta

    # the top two of 100 entries are e - 1, so the 99.8% quantile (between
    # order statistics 98 and 99) is e - 1 itself and does not clip them
    mat = np.zeros((10, 10))
    mat[3, 4] = mat[7, 1] = np.e - 1.0
    tfr = TFRepresentation(mat, np.arange(10.0), np.arange(10.0), "rm",
                           WindowMeta("gaussian", 1.0, 1, 1))
    disp = log_display(tfr)
    assert disp.quantile_q == np.e - 1.0
    assert disp.matrix[3, 4] == pytest.approx(1.0, abs=1e-12)


def test_log_display_clips_outlier():
    from nyqmirror.tf_analysis import WindowMeta

    rng = np.random.default_rng(3)
    mat = rng.uniform(0.0, 1.0, (50, 40))
    mat[10, 10] = 1e9
    tfr = TFRepresentation(mat, np.arange(50.0), np.arange(40.0), "rm",
                           WindowMeta("gaussian", 1.0, 1, 1))
    disp = log_display(tfr)
    q = np.quantile(mat.ravel(), 0.998)
    assert disp.quantile_q == pytest.approx(q)
    assert disp.matrix[10, 10] == pytest.approx(np.log1p(q), abs=1e-12)
    assert np.min(disp.matrix) >= 1e-2
    assert np.max(disp.matrix) <= np.log1p(q) + 1e-12


# ---------------------------------------------------------------------------
# ridge extraction
# ---------------------------------------------------------------------------

def test_ridge_pure_tone_constant():
    sig = tone(2.5)
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr = synchrosqueeze(sig, win, 8, 2048)
    ridge = ridge_extract(tfr, 1.0, 4.0, jump_penalty=0.0)
    keep = interior(tfr, 2.5)
    assert np.max(np.abs(ridge[keep] - 2.5)) <= RATE / 2048


def test_ridge_zero_matrix_lowest_bin():
    tfr = zero_tfr()
    ridge = ridge_extract(tfr, 3.0, 10.0, jump_penalty=0.5)
    band_lo = tfr.freq_axis[(tfr.freq_axis >= 3.0)][0]
    np.testing.assert_array_equal(ridge, band_lo)


def test_ridge_tracks_linear_chirp():
    rate = 16.0
    duration = 60.0
    t = np.arange(int(duration * rate)) / rate
    f0, f1 = 1.0, 3.0
    phase = f0 * t + (f1 - f0) / (2.0 * duration) * t**2
    sig = UniformSignal(np.cos(2.0 * np.pi * phase), rate=rate)
    win = make_windows("gaussian", 4.0, rate)[0]
    nfft = 2048
    tfr = synchrosqueeze(sig, win, 4, nfft)
    ridge = ridge_extract(tfr, 0.5, 4.0, jump_penalty=0.0)
    truth = f0 + (f1 - f0) / duration * tfr.time_axis
    keep = interior(tfr, 3.0)
    assert np.max(np.abs(ridge[keep] - truth[keep])) <= 2.0 * rate / nfft


def test_ridge_keeps_small_differences_after_a_large_frame():
    # frames [1e17, 0, 0, 0], [1, 2, 3, 1], [0, 0, 0, 1]: at penalty 0 the
    # ridge is each frame's argmax, although 1e17 + 1, + 2 and + 3 round
    # to one float
    from nyqmirror.tf_analysis import WindowMeta

    mat = np.array([[1e17, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 3.0, 0.0],
                    [0.0, 1.0, 1.0]])
    tfr = TFRepresentation(mat, np.arange(4.0), np.arange(3.0), "rm",
                           WindowMeta("gaussian", 1.0, 1, 1))
    np.testing.assert_array_equal(ridge_extract(tfr, 0.0, 3.0, 0.0), [0.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_negative_or_nan_threshold_and_penalty_rejected(bad):
    sig = tone(2.5, duration=4.0)
    win = make_windows("gaussian", 1.0, RATE)[0]
    for transform in (synchrosqueeze, reassign):
        with pytest.raises(ValueError, match="threshold"):
            transform(sig, win, 8, 128, threshold=bad)
    with pytest.raises(ValueError, match="threshold"):
        multitaper(sig, 1.0, 2, 8, 128, "rm", threshold=bad)
    with pytest.raises(ValueError, match="jump_penalty"):
        ridge_extract(zero_tfr(), 3.0, 10.0, jump_penalty=bad)


def dp_ridge_rows(mag, penalty):
    """Row per column of the penalized DP path (the path ridge_extract takes
    for a penalty above 0), on a band-masked magnitude matrix."""
    from nyqmirror.tf_analysis import _max_plus_l1

    acc = np.empty_like(mag)
    acc[:, 0] = mag[:, 0]
    for t in range(1, mag.shape[1]):
        prev = acc[:, t - 1] - acc[:, t - 1].max()
        acc[:, t] = mag[:, t] + _max_plus_l1(prev, penalty)
    path = np.empty(mag.shape[1], dtype=np.intp)
    path[-1] = int(np.argmax(acc[:, -1]))
    offsets = np.arange(mag.shape[0])
    for t in range(mag.shape[1] - 2, -1, -1):
        path[t] = int(np.argmax(acc[:, t] - penalty * np.abs(offsets - path[t + 1])))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data(), bins=st.integers(1, 9), frames=st.integers(1, 8),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e300]))
def test_ridge_zero_penalty_matches_dp(data, bins, frames, scale):
    # small integer levels make ties common; 1e+-300 scales probe the
    # renormalised accumulator at both ends of the float range
    levels = data.draw(arrays(np.float64, (bins, frames),
                              elements=st.integers(0, 3).map(float)), label="levels")
    lo = data.draw(arrays(np.float64, frames, elements=st.integers(0, bins - 1)
                          .map(float)), label="lo")
    width = data.draw(arrays(np.float64, frames, elements=st.integers(0, bins)
                             .map(float)), label="width")
    from nyqmirror.tf_analysis import WindowMeta

    tfr = TFRepresentation(levels * scale, np.arange(float(bins)),
                           np.arange(float(frames)), "rm",
                           WindowMeta("gaussian", 1.0, 1, 1))
    got = ridge_extract(tfr, lo, lo + width, 0.0)
    inside = (tfr.freq_axis[:, None] >= lo) & (tfr.freq_axis[:, None] <= lo + width)
    used = np.nonzero(inside.any(axis=1))[0]
    rows = slice(used[0], used[-1] + 1)
    mag = np.where(inside, tfr.matrix, -np.inf)[rows]
    np.testing.assert_array_equal(got, tfr.freq_axis[rows][dp_ridge_rows(mag, 0.0)])


def test_ridge_rejects_nan_inside_the_band():
    from nyqmirror.tf_analysis import WindowMeta

    mat = np.zeros((6, 4))
    mat[5, 1] = np.nan  # outside the band [0, 3]: ignored
    meta = WindowMeta("gaussian", 1.0, 1, 1)
    tfr = TFRepresentation(mat, np.arange(6.0), np.arange(4.0), "sst", meta)
    np.testing.assert_array_equal(ridge_extract(tfr, 0.0, 3.0), [0.0] * 4)
    mat[2, 3] = np.nan
    tfr = TFRepresentation(mat, np.arange(6.0), np.arange(4.0), "sst", meta)
    for penalty in (0.0, 0.5):
        with pytest.raises(ValueError, match="frame 3: NaN"):
            ridge_extract(tfr, 0.0, 3.0, penalty)


def test_ridge_empty_band_rejected():
    with pytest.raises(ValueError):
        ridge_extract(zero_tfr(), 100.0, 200.0)
    lo = np.full(8, 2.0)
    lo[5] = 15.5  # above the last bin (15 Hz)
    with pytest.raises(ValueError, match="frame 5"):
        ridge_extract(zero_tfr(), lo, 20.0)


def test_ridge_per_frame_band():
    # the strongest cell of every frame lies below its band's lower edge;
    # the ridge must take the strongest cell inside the band instead
    from nyqmirror.tf_analysis import WindowMeta

    mat = np.zeros((16, 8))
    mat[2, :] = 10.0
    lows = 4.0 + np.arange(8)
    mat[(lows + 1).astype(int), np.arange(8)] = 1.0
    tfr = TFRepresentation(mat, np.arange(16.0), np.arange(8) * 0.5, "rm",
                           WindowMeta("gaussian", 1.0, 1, 1))
    for penalty in (0.0, 0.5):
        ridge = ridge_extract(tfr, lows, 15.0, jump_penalty=penalty)
        np.testing.assert_array_equal(ridge, lows + 1)
    # a zero band falls to each frame's lowest band bin
    np.testing.assert_array_equal(ridge_extract(zero_tfr(), lows, 15.0), lows)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bins=st.integers(1, 9), frames=st.integers(1, 8),
       penalty=st.sampled_from([0.0, 0.5]))
def test_ridge_band_edges_between_bins_match_full_mask(data, bins, frames, penalty):
    # edges fall between bins, beyond the axis or on NaN; the ridge must
    # pick the rows a full per-cell band mask picks, and refuse the same
    # frames
    edge = st.one_of(st.floats(-1.5, bins + 0.5), st.just(np.nan))
    lo = data.draw(arrays(np.float64, frames, elements=edge), label="lo")
    hi = data.draw(arrays(np.float64, frames, elements=edge), label="hi")
    levels = data.draw(arrays(np.float64, (bins, frames),
                              elements=st.integers(0, 3).map(float)), label="levels")
    from nyqmirror.tf_analysis import WindowMeta

    tfr = TFRepresentation(levels, np.arange(float(bins)), np.arange(float(frames)),
                           "rm", WindowMeta("gaussian", 1.0, 1, 1))
    inside = (tfr.freq_axis[:, None] >= lo) & (tfr.freq_axis[:, None] <= hi)
    if not inside.any(axis=0).all():
        with pytest.raises(ValueError, match="holds no bin"):
            ridge_extract(tfr, lo, hi, penalty)
        return
    used = np.nonzero(inside.any(axis=1))[0]
    rows = slice(used[0], used[-1] + 1)
    mag = np.where(inside, tfr.matrix, -np.inf)[rows]
    np.testing.assert_array_equal(ridge_extract(tfr, lo, hi, penalty),
                                  tfr.freq_axis[rows][dp_ridge_rows(mag, penalty)])


@pytest.mark.parametrize("seed", range(3))
def test_ridge_large_penalty_keeps_the_best_constant_row(seed):
    # once penalty * row offset dwarfs the magnitudes, an unclamped DP rounds
    # them away: a worse constant row, a jumping ridge, or inf * 0 = NaN.
    # Powers of two scale the matrix and the penalty without rounding, so
    # the ridge must not move with them; at 2^1018 twice the summed band
    # maxima times a row offset passes the float64 range.
    from nyqmirror.tf_analysis import WindowMeta

    mag = np.abs(np.random.default_rng(seed).standard_normal((8, 5)))
    best = 1.0 + np.argmax(mag[1:7].sum(axis=1))  # band rows 1 .. 6
    meta = WindowMeta("gaussian", 1.0, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ridges = {}
        for k in (-70, 0, 70, 1018):
            tfr = TFRepresentation(mag * 2.0 ** k, np.arange(8.0), np.arange(5.0),
                                   "sst", meta)
            for penalty in (0.3, 1.0, 1e16, 1e300, 1e308, np.inf):
                ridges[k, penalty] = ridge_extract(tfr, 1.0, 6.0, penalty * 2.0 ** k)
    for (k, penalty), ridge in ridges.items():
        np.testing.assert_array_equal(ridge, ridges[0, penalty])
        if penalty >= 1e16:
            np.testing.assert_array_equal(ridge, best)


# ---------------------------------------------------------------------------
# memory: traced heap peaks against the matrix they produce
# ---------------------------------------------------------------------------

def traced_peak(fn, *args):
    """(result, peak bytes of Python heap allocations while ``fn`` ran)."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# at hop 1: 2049 bins x 512 frames, about 1 M cells
MEMORY_SIG = tone(6.0, duration=8.0)
MEMORY_NFFT = 4096


def test_sst_peak_is_about_its_base_spectrum_and_output():
    # the complex output and the per-block buffers (about 3 MB, 0.07x at
    # these 4097 x 640 cells) are all: a full V_g would add 1x, a full
    # |V_g| matrix 0.5x.
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr, peak = traced_peak(synchrosqueeze, tone(6.0, duration=10.0), win, 1,
                            8192, 1e-8)
    assert tfr.matrix.size >= 2_500_000
    assert peak <= 2.1 * tfr.matrix.nbytes


def test_rm_peak_is_about_its_base_spectrum_and_output():
    # the output and the per-block buffers (about 0.2x at these 4097 x 640
    # cells) are all: a full V_g would add 2x, a full |V_g| or
    # target-index matrix 1x each.
    win = make_windows("gaussian", 4.0, RATE)[0]
    tfr, peak = traced_peak(reassign, tone(6.0, duration=10.0), win, 1, 8192, 1e-8)
    assert tfr.matrix.size >= 2_500_000
    assert peak <= 3.3 * tfr.matrix.nbytes


@pytest.mark.parametrize("method, ratio", [("sst", 3.3), ("mt_sst", 4.3)])
def test_tf_magnitude_peak_holds_no_complex_output(method, ratio):
    # the real output is 1x; a complex SST output would add 2x.  The
    # per-block buffers are about 0.15x at 4097 x 640 for sst and 0.5x for
    # mt_sst, whose blocks hold three tapers.
    tfr, peak = traced_peak(tf_magnitude, tone(6.0, duration=10.0), method, 4.0,
                            1, 8192, 3, 1e-8)
    assert tfr.matrix.size >= 2_500_000
    assert peak <= ratio * tfr.matrix.nbytes


@pytest.mark.parametrize("method, ratio", [("sst", 1.6), ("rm", 1.6),
                                           ("mt_sst", 2.3), ("mt_rm", 2.3)])
def test_tf_magnitude_peak_is_about_its_real_output(method, ratio):
    # no full V_g is kept: every method holds its one output and the
    # per-block buffers (about 0.2x at these 4097 x 640 cells, 0.5x for the
    # multitaper's three tapers a block)
    tfr, peak = traced_peak(tf_magnitude, tone(6.0, duration=10.0), method, 4.0,
                            1, 8192, 3, 1e-8)
    assert tfr.matrix.size >= 2_500_000
    assert peak <= ratio * tfr.matrix.nbytes


def test_sign_checks_make_no_full_size_temporary():
    # the container's sign-bit check is one reduction: no mask as large as
    # the matrix, for any method
    from nyqmirror.tf_analysis import WindowMeta

    mag = np.random.default_rng(2).random((4097, 640))
    mag.setflags(write=False)  # shared, not copied, by the container
    freqs, times = np.arange(4097.0), np.arange(640.0)
    meta = WindowMeta("gaussian", 1.0, 1, 1)
    for method in TF_METHODS:
        tfr, peak = traced_peak(TFRepresentation, mag, freqs, times, method, meta)
        assert tfr.matrix is mag and peak < 0.01 * mag.nbytes


@pytest.mark.parametrize("values, sign_bit, negative", [
    ([0.0, 1.0], False, False),
    ([np.nan, 2.0], False, False),         # NaN has no sign bit and is not < 0
    ([-0.0, 1.0], True, False),            # -0.0 has a sign bit and is not < 0
    ([-np.nan, 1.0], True, False),
    ([-1e-300, 1.0], True, True),
    ([-np.inf, np.nan], True, True),
    ([], False, False),
])
def test_sign_checks_keep_their_semantics(values, sign_bit, negative):
    # a real matrix of any method is a magnitude: the container refuses
    # every value with its sign bit set, -0.0 and -NaN too, though neither
    # is below zero
    from nyqmirror.tf_analysis import WindowMeta

    mat = np.array(values, dtype=float).reshape(-1, 1)
    assert bool((mat < 0.0).any()) == negative
    axes = np.arange(float(mat.shape[0])), np.arange(1.0)
    for method in TF_METHODS:
        make = lambda: TFRepresentation(mat, *axes, method, WindowMeta("gaussian", 1.0, 1, 1))  # noqa: E731
        if sign_bit:
            with pytest.raises(ValueError, match=f"real {method} matrix must be nonnegative"):
                make()
        else:
            make()


def test_complex_matrix_only_for_stft_and_sst():
    # the public stft and synchrosqueeze are complex; every other method's
    # matrix is real
    from nyqmirror.tf_analysis import WindowMeta

    mat = np.array([[1.0 - 2.0j, -0.0j], [np.nan, 3.0j]])
    axes = np.arange(2.0), np.arange(2.0)
    meta = WindowMeta("gaussian", 1.0, 1, 1)
    for method in ("stft", "sst"):
        assert TFRepresentation(mat, *axes, method, meta).matrix.dtype == complex
    for method in ("rm", "mt_rm", "mt_sst"):
        with pytest.raises(ValueError, match=f"{method} matrix must be real"):
            TFRepresentation(mat, *axes, method, meta)


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm", "stft",
                                    "mt_sst-10", "mt_rm-10", "mt_sst-2", "mt_rm-2",
                                    "sst-magnitude", "stft-complex"])
def test_transform_peak_within_memory_refusal_estimate(method):
    # the memory refusal multiplies the cell count by the method's own
    # _LIVE_BYTES_PER_CELL: no transform, and no magnitude the CLI asks for,
    # may need more; the complex synchrosqueeze and stft and the magnitudes
    # of tf_magnitude, the multitaper at 3 tapers and at the least and most
    from nyqmirror.tf_analysis import _LIVE_BYTES_PER_CELL

    method, _, variant = method.partition("-")
    tapers = int(variant) if variant.isdigit() else 3
    win = make_windows("gaussian", 4.0, RATE)[0]
    if method.startswith("mt_"):
        tfr, peak = traced_peak(multitaper, MEMORY_SIG, 4.0, tapers, 1, MEMORY_NFFT,
                                method[3:], 1e-8)
    elif method == "stft" and variant == "complex":
        tfr, peak = traced_peak(stft, MEMORY_SIG, win, 1, MEMORY_NFFT)
    elif method == "stft" or variant == "magnitude":
        tfr, peak = traced_peak(tf_magnitude, MEMORY_SIG, method, 4.0, 1, MEMORY_NFFT, 3, 1e-8)
    else:
        fn = synchrosqueeze if method == "sst" else reassign
        tfr, peak = traced_peak(fn, MEMORY_SIG, win, 1, MEMORY_NFFT, 1e-8)
    assert peak <= _LIVE_BYTES_PER_CELL[tfr.method, tfr.matrix.dtype == complex] * tfr.matrix.size


def test_memory_refusal_is_each_methods_own(monkeypatch):
    # with memory for 15 bytes a cell, a magnitude stft (11) runs and the
    # complex synchrosqueeze (24) is refused as before: one figure, the
    # complex SST's, used to refuse every method
    from nyqmirror import spline_interp

    win = make_windows("gaussian", 4.0, RATE)[0]
    cells = (MEMORY_NFFT // 2 + 1) * len(MEMORY_SIG)
    monkeypatch.setattr(spline_interp, "_physical_memory", lambda: 15.0 * cells)
    assert tf_magnitude(MEMORY_SIG, "stft", 4.0, 1, MEMORY_NFFT).matrix.size == cells
    refusal = (f"{MEMORY_NFFT // 2 + 1} x {len(MEMORY_SIG)} cells need ~{24.0 * cells:.3g} "
               f"bytes, over the {15.0 * cells} bytes of memory: raise hop (1) or lower "
               f"nfft ({MEMORY_NFFT})")
    with pytest.raises(ValueError, match=re.escape(refusal)):
        synchrosqueeze(MEMORY_SIG, win, 1, MEMORY_NFFT)


@pytest.mark.parametrize("family, tapers", [("gaussian", 1), ("hermite", 10)])
def test_window_peak_within_memory_refusal_estimate(family, tapers):
    # make_windows refuses 64 (taper_count + 2) bytes per sample: building
    # the windows may need no more
    wins, peak = traced_peak(make_windows, family, 2000.0, RATE, tapers)
    assert peak <= 64 * (tapers + 2) * len(wins[0])


@pytest.mark.parametrize("family, tapers", [("gaussian", 1), ("hermite", 3)])
def test_window_too_large_for_memory_is_refused(family, tapers):
    # refused before np.arange allocates the 1e12 s window's grid, which
    # used to end in numpy's _ArrayMemoryError
    refusal = rf"{tapers} x 6.4e\+13 window samples need ~.* bytes of memory"
    with pytest.raises(ValueError, match=refusal + ": shorten the window"):
        make_windows(family, 1e12, RATE, tapers)


# ---------------------------------------------------------------------------
# TFRepresentation validation
# ---------------------------------------------------------------------------

def test_tfr_validation():
    from nyqmirror.tf_analysis import WindowMeta

    meta = WindowMeta("gaussian", 1.0, 1, 1)
    with pytest.raises(ValueError, match="method"):
        TFRepresentation(np.zeros((2, 2)), np.arange(2.0), np.arange(2.0),
                         "bogus", meta)
    with pytest.raises(ValueError, match="axes"):
        TFRepresentation(np.zeros((2, 2)), np.array([1.0, 0.5]),
                         np.arange(2.0), "stft", meta)
    with pytest.raises(ValueError, match="nonnegative"):
        TFRepresentation(-np.ones((2, 2)), np.arange(2.0), np.arange(2.0),
                         "rm", meta)
    with pytest.raises(ValueError, match="dimensions"):
        TFRepresentation(np.zeros((3, 2)), np.arange(2.0), np.arange(2.0),
                         "stft", meta)
