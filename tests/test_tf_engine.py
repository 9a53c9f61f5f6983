"""The frames-major transform engine against the per-window transforms it
replaced, kept here as the bit-exact oracle, the multitaper against its
Hermite-ladder oracle and the per-taper transforms before it, blocks that
keep part of their bins or none, its FFT budget, its one overflow rule
(a result that is not finite is refused), exact amplitude scaling up to
that refusal, and its non-finite targets."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nyqmirror import UniformSignal, tf_analysis
from nyqmirror.tf_analysis import (
    MULTITAPER_TAPERS,
    Window,
    _hermite_ladder,
    _nearest,
    make_windows,
    multitaper,
    reassign,
    stft,
    synchrosqueeze,
    tf_magnitude,
)

RATE = 64.0


# ---------------------------------------------------------------------------
# oracle: one gather, one FFT and one bins-major matrix per window
# ---------------------------------------------------------------------------

def _oracle_plan(sig, window, hop, nfft):
    centers = np.arange(0, len(sig), hop)
    freqs = np.arange(nfft // 2 + 1) * (sig.rate / nfft)
    times = sig.t_start + centers / sig.rate
    return centers, freqs, times


def _stft_columns(values, taps, centers, nfft, chunk):
    w_len = taps.size
    half = (w_len - 1) // 2
    padded = np.zeros(values.size + 2 * half)
    padded[half:half + values.size] = values
    for start in range(0, centers.size, chunk):
        blk = centers[start:start + chunk]
        idx = blk[:, None] + np.arange(w_len)[None, :]
        frames = padded[idx] * taps[None, :]
        buf = np.zeros((blk.size, nfft))
        buf[:, :half + 1] = frames[:, half:]
        buf[:, nfft - half:] = frames[:, :half]
        yield start, np.fft.rfft(buf, axis=1).T


def oracle_spectrum(sig, taps, hop, nfft, chunk=128):
    centers, freqs, _ = _oracle_plan(sig, None, hop, nfft)
    out = np.empty((freqs.size, centers.size), dtype=complex)
    for start, block in _stft_columns(sig.values, taps, centers, nfft, chunk):
        out[:, start:start + block.shape[1]] = block
    return out


def oracle_stft(sig, window, hop, nfft, chunk=128):
    return oracle_spectrum(sig, window.samples, hop, nfft, chunk)


def _oracle_targets(v_blk, vd_blk, freqs, df, floor):
    mask = np.abs(v_blk) > floor
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = vd_blk / np.where(mask, v_blk, 1.0)
        omega = freqs[None, :] - np.imag(ratio) / (2.0 * np.pi)
    est = np.where(mask, omega, 0.0) / df
    own_bin = np.broadcast_to(np.arange(freqs.size), est.shape)
    tbin = np.where(np.isnan(est), own_bin,
                    np.clip(np.rint(est), 0, freqs.size - 1)).astype(np.intp)
    return tbin, mask


def oracle_synchrosqueeze(sig, window, hop, nfft, threshold=0.0, chunk=128):
    centers, freqs, _ = _oracle_plan(sig, window, hop, nfft)
    df = sig.rate / nfft
    n_bins = freqs.size
    base = oracle_stft(sig, window, hop, nfft, chunk)
    floor = threshold * float(np.max(np.abs(base))) if threshold > 0.0 else 0.0
    out = np.zeros((n_bins, centers.size), dtype=complex)
    for start, vd in _stft_columns(sig.values, window.derivative, centers,
                                   nfft, chunk):
        width = vd.shape[1]
        v_blk = base[:, start:start + width].T
        tbin, mask = _oracle_targets(v_blk, vd.T, freqs, df, floor)
        weights = np.where(mask, v_blk, 0.0)
        flat = (np.arange(width)[:, None] * n_bins + tbin).ravel()
        re = np.bincount(flat, weights.real.ravel(), minlength=width * n_bins)
        im = np.bincount(flat, weights.imag.ravel(), minlength=width * n_bins)
        out[:, start:start + width] = (re + 1j * im).reshape(width, n_bins).T
    return out


def oracle_reassign(sig, window, hop, nfft, threshold=0.0, chunk=128):
    centers, freqs, times = _oracle_plan(sig, window, hop, nfft)
    df = sig.rate / nfft
    n_bins, n_frames = freqs.size, centers.size
    base = oracle_stft(sig, window, hop, nfft, chunk)
    floor = threshold * float(np.max(np.abs(base))) if threshold > 0.0 else 0.0
    flat_all = np.empty(n_frames * n_bins, dtype=np.intp)
    mass_all = np.empty(n_frames * n_bins)
    gen_t = _stft_columns(sig.values, window.t_weighted, centers, nfft, chunk)
    for (start, vd), (_, vt) in zip(
            _stft_columns(sig.values, window.derivative, centers, nfft, chunk),
            gen_t):
        width = vd.shape[1]
        v_blk = base[:, start:start + width].T
        tbin, mask = _oracle_targets(v_blk, vd.T, freqs, df, floor)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = np.real(np.where(mask, vt.T, 0.0) / np.where(mask, v_blk, 1.0))
        that = times[start:start + width, None] + np.where(mask, shift, 0.0)
        tau = (that - sig.t_start) * sig.rate / hop
        own_frame = np.broadcast_to(np.arange(start, start + width)[:, None], tau.shape)
        tfrm = np.where(np.isnan(tau), own_frame,
                        np.clip(np.rint(tau), 0, n_frames - 1)).astype(np.intp)
        sl = slice(start * n_bins, (start + width) * n_bins)
        flat_all[sl] = (tbin * n_frames + tfrm).ravel()
        mass_all[sl] = np.where(mask, np.abs(v_blk) ** 2, 0.0).ravel()
    return np.bincount(flat_all, mass_all,
                       minlength=n_bins * n_frames).reshape(n_bins, n_frames)


def oracle_multitaper_per_taper(sig, duration_s, taper_count, hop, nfft,
                                method="sst", threshold=0.0, chunk=128):
    """One transform per taper from its own g' and t g, summed taper by
    taper: the multitaper before the Hermite ladder.  SST keeps its bits;
    RM sums the same masses in another order."""
    acc = None
    for win in make_windows("hermite", duration_s, sig.rate, taper_count):
        if method == "sst":
            layer = np.abs(oracle_synchrosqueeze(sig, win, hop, nfft,
                                                 threshold, chunk))
        else:
            layer = oracle_reassign(sig, win, hop, nfft, threshold, chunk)
        acc = layer if acc is None else acc + layer
    return acc / taper_count


def oracle_multitaper(sig, duration_s, taper_count, hop, nfft, method="sst",
                      threshold=0.0, chunk=128):
    """The ladder multitaper: F_0 .. F_K from one STFT per window, taper k's
    V_dg / V_g and V_tg / V_g the ladder combinations of F_{k+1} / F_k and
    F_{k-1} / F_k, and one bincount (SST: one per real and imaginary part)
    over every taper's targets in (frame, taper, bin) order; SST moduli
    summed taper by taper."""
    ladder = _hermite_ladder(duration_s, sig.rate, taper_count)
    centers, freqs, times = _oracle_plan(sig, None, hop, nfft)
    df = sig.rate / nfft
    n_bins, n_frames, count = freqs.size, centers.size, taper_count
    spectra = np.stack([oracle_spectrum(sig, row, hop, nfft, chunk)
                        for row in ladder.rows])  # (K + 1, bins, frames)
    peaks = np.abs(spectra[:count]).max(axis=(1, 2))
    target = np.empty((count, n_bins, n_frames), dtype=np.intp)
    weight = np.zeros((count, n_bins, n_frames), dtype=float if method == "rm" else complex)
    for k in range(count):
        v = spectra[k]
        floor = threshold * peaks[k] if threshold > 0.0 else 0.0
        mask = np.abs(v) > floor
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            hi = spectra[k + 1] / v
            shift = hi.imag * (-ladder.upper[k] / (2.0 * np.pi * ladder.scale))
            delay = hi.real * (ladder.upper[k] * ladder.scale)
            if k > 0:
                lo = spectra[k - 1] / v
                shift = shift + lo.imag * (ladder.lower[k] / (2.0 * np.pi * ladder.scale))
                delay = delay + lo.real * (ladder.lower[k] * ladder.scale)
            omega = (freqs[:, None] - shift) / df
            tau = ((times[None, :] + delay) - sig.t_start) * sig.rate / hop
        own_bin = np.broadcast_to(np.arange(n_bins)[:, None], omega.shape)
        own_frame = np.broadcast_to(np.arange(n_frames)[None, :], tau.shape)
        tbin = np.where(np.isnan(omega), own_bin,
                        np.clip(np.rint(omega), 0, n_bins - 1)).astype(np.intp)
        if method == "rm":
            tfrm = np.where(np.isnan(tau), own_frame,
                            np.clip(np.rint(tau), 0, n_frames - 1)).astype(np.intp)
            target[k] = tbin * n_frames + tfrm
            weight[k] = np.where(mask, np.abs(v) ** 2, 0.0)
        else:  # each coefficient stays in its frame and taper
            target[k] = (own_frame * count + k) * n_bins + tbin
            weight[k] = np.where(mask, v, 0.0)
    flat = target.transpose(2, 0, 1).ravel()  # (frame, taper, bin) order
    w = weight.transpose(2, 0, 1).ravel()
    if method == "rm":
        return np.bincount(flat, w, minlength=n_bins * n_frames).reshape(
            n_bins, n_frames) / taper_count
    size = n_frames * count * n_bins
    sums = (np.bincount(flat, w.real, minlength=size)
            + 1j * np.bincount(flat, w.imag, minlength=size)).reshape(n_frames, count, n_bins)
    acc = np.abs(sums[:, 0])
    for k in range(1, count):
        acc = acc + np.abs(sums[:, k])
    return (acc / taper_count).T


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# bit equality with the oracle
# ---------------------------------------------------------------------------

def chirp_noise(length, seed=3):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / RATE
    values = np.cos(2.0 * np.pi * (3.0 * t + 0.2 * t * t)) + 0.3 * rng.normal(size=length)
    return UniformSignal(values, rate=RATE, t_start=1.25)


WINDOWS = {
    "gaussian": make_windows("gaussian", 1.0, RATE)[0],
    "hermite2": make_windows("hermite", 1.0, RATE, 3)[2],
}

# (signal length, hop, nfft); hop 40 is longer than the 65-sample window
PLANS = [(701, 4, 256), (333, 40, 128), (517, 1, 1024)]


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("chunk", [1, 7, 32, 4096])
def test_stft_matches_oracle(window, plan, chunk):
    length, hop, nfft = plan
    sig, win = chirp_noise(length), WINDOWS[window]
    assert_same_bits(stft(sig, win, hop, nfft, chunk=chunk).matrix,
                     oracle_stft(sig, win, hop, nfft))


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("threshold", [0.0, 1e-8, 0.5])
@pytest.mark.parametrize("chunk", [1, 7, 32, 4096])
def test_sst_and_rm_match_oracle(window, plan, threshold, chunk):
    length, hop, nfft = plan
    sig, win = chirp_noise(length), WINDOWS[window]
    assert_same_bits(
        synchrosqueeze(sig, win, hop, nfft, threshold, chunk=chunk).matrix,
        oracle_synchrosqueeze(sig, win, hop, nfft, threshold))
    assert_same_bits(
        reassign(sig, win, hop, nfft, threshold, chunk=chunk).matrix,
        oracle_reassign(sig, win, hop, nfft, threshold))


@pytest.mark.parametrize("method", ["sst", "rm"])
@pytest.mark.parametrize("threshold", [0.0, 1e-8])
@pytest.mark.parametrize("chunk", [7, 4096])
def test_multitaper_matches_oracle(method, threshold, chunk):
    sig = chirp_noise(611)
    assert_same_bits(
        multitaper(sig, 1.0, 3, 4, 256, method, threshold, chunk=chunk).matrix,
        oracle_multitaper(sig, 1.0, 3, 4, 256, method, threshold))


def noise(seed, length=700):
    return UniformSignal(np.random.default_rng(seed).normal(size=length), rate=RATE)


@pytest.mark.parametrize("signal", ["chirp", "noise22", "noise23"])
@pytest.mark.parametrize("tapers", [2, 3, 10])
@pytest.mark.parametrize("threshold", [0.0, 1e-8])
def test_multitaper_stays_with_the_per_taper_oracle(signal, tapers, threshold):
    # the ladder moves no target and no mass on these inputs: SST keeps
    # every bit, and RM only adds the same masses in another order
    sig = {"chirp": chirp_noise(611), "noise22": noise(22), "noise23": noise(23)}[signal]
    args = (sig, 1.0, tapers, 4, 256)
    assert_same_bits(multitaper(*args, "sst", threshold).matrix,
                     oracle_multitaper_per_taper(*args, "sst", threshold))
    got = multitaper(*args, "rm", threshold).matrix
    want = oracle_multitaper_per_taper(*args, "rm", threshold)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)
    assert abs(got.sum() - want.sum()) <= 1e-13 * want.sum()


@pytest.mark.parametrize("tapers", [2, 3, MULTITAPER_TAPERS[1]])
def test_ladder_gives_each_tapers_derivative_and_time_weighting(tapers):
    # g'_k and t g_k of make_windows equal the ladder combinations of the
    # neighbouring unit-L2 windows within a few ulp of their maximum, and
    # the ladder's rows are make_windows' tapers, bit for bit
    ladder = _hermite_ladder(1.5, RATE, tapers)
    w = ladder.rows
    assert w.shape == (tapers + 1, len(make_windows("hermite", 1.5, RATE, 1)[0]))
    for k, win in enumerate(make_windows("hermite", 1.5, RATE, tapers)):
        assert_same_bits(w[k], win.samples)
        below = w[k - 1] if k > 0 else 0.0
        deriv = (ladder.lower[k] * below - ladder.upper[k] * w[k + 1]) / ladder.scale
        tw = ladder.scale * (ladder.lower[k] * below + ladder.upper[k] * w[k + 1])
        ulp = np.finfo(float).eps
        assert np.max(np.abs(deriv - win.derivative)) <= 8 * ulp * np.max(np.abs(win.derivative))
        assert np.max(np.abs(tw - win.t_weighted)) <= 8 * ulp * np.max(np.abs(win.t_weighted))
    assert ladder.lower[0] == 0.0


@pytest.mark.parametrize("method", ["sst", "rm"])
@pytest.mark.parametrize("tapers", [2, 3, MULTITAPER_TAPERS[1]])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_multitaper_is_chunk_invariant_at_any_taper_count(method, tapers, chunk):
    # every sum runs in (frame, taper, bin) order, whatever the block
    sig = chirp_noise(611)
    assert_same_bits(
        multitaper(sig, 1.0, tapers, 4, 256, method, 1e-8, chunk=chunk).matrix,
        oracle_multitaper(sig, 1.0, tapers, 4, 256, method, 1e-8))


def gap_tone(length=701):
    # a slow chirp, silent from 4 to 7.5 s: above a floor a block keeps a
    # span of low bins (or one past bin 0), and a silent block keeps none
    t = np.arange(length) / RATE
    values = np.cos(2.0 * np.pi * (1.0 * t + 0.3 * t * t))
    values[(t > 4.0) & (t < 7.5)] = 0.0
    return UniformSignal(values, rate=RATE, t_start=1.25)


def _oracle_case(method, sig, threshold, hop=65, nfft=65):
    """The oracle matrix of ``method`` on ``sig``, the spectra of its tapers
    (tapers, bins, frames) and the engine as a function of chunk."""
    if method.startswith("mt_"):
        rows = _hermite_ladder(1.0, RATE, 3).rows[:3]
        return (oracle_multitaper(sig, 1.0, 3, hop, nfft, method[3:], threshold),
                np.array([oracle_spectrum(sig, row, hop, nfft) for row in rows]),
                lambda chunk: multitaper(sig, 1.0, 3, hop, nfft, method[3:], threshold,
                                         chunk=chunk))
    win = WINDOWS["gaussian"]
    engine, oracle = {"sst": (synchrosqueeze, oracle_synchrosqueeze),
                      "rm": (reassign, oracle_reassign)}[method]
    return (oracle(sig, win, hop, nfft, threshold), oracle_stft(sig, win, hop, nfft)[None],
            lambda chunk: engine(sig, win, hop, nfft, threshold, chunk=chunk))


def _span_kinds(blocks, spectra, threshold):
    """The kinds of kept bin span of the blocks (start, frames): 'empty',
    'full', 'low' (from bin 0, short of the top) or 'inner' (past bin 0).
    A block keeps the bins where some frame and taper clears that taper's
    floor threshold * max|V_g|."""
    mags = np.abs(spectra)  # (tapers, bins, frames)
    keep = mags > threshold * mags.max(axis=(1, 2))[:, None, None]
    kinds = set()
    for start, frames in blocks:
        kept = np.flatnonzero(keep[:, :, start:start + frames].any(axis=(0, 2)))
        if not kept.size:
            kinds.add("empty")
        elif kept[0] > 0:
            kinds.add("inner")
        else:
            kinds.add("full" if kept[-1] == keep.shape[1] - 1 else "low")
    return kinds


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm"])
@pytest.mark.parametrize("threshold, partial", [(1e-8, "low"), (0.2, "inner")])
def test_partial_and_empty_bin_spans_match_oracle(monkeypatch, method, threshold, partial):
    # the second pass works on each block's kept bin span only: spans that
    # stop short of the top bin or start past bin 0, and empty ones, keep
    # every bit at every block size
    want, spectra, transform = _oracle_case(method, gap_tone(), threshold, 4, 256)
    blocks, spectra_of = set(), tf_analysis._spectra

    def recording(*args):
        for start, spec in spectra_of(*args):
            blocks.add((start, spec.shape[0]))
            yield start, spec

    monkeypatch.setattr(tf_analysis, "_spectra", recording)
    for chunk in (1, 7, 4096):
        assert_same_bits(transform(chunk).matrix, want)
    assert {partial, "empty"} <= _span_kinds(blocks, spectra, threshold)


@pytest.mark.parametrize("method, tapers, rows", [
    ("stft", 1, 1), ("sst", 1, 3), ("rm", 1, 4),
    *[(m, k, 2 * k + 1) for m in ("mt_sst", "mt_rm") for k in (2, 3, MULTITAPER_TAPERS[1])],
])
def test_fft_rows_per_frame(monkeypatch, method, tapers, rows):
    # above threshold 0 each frame pays its rows once at nfft 256 and its K
    # taper rows once on the coarse scan's grid (128, the least power of two
    # over the 65-sample window): sst and rm 1, the multitaper K.  The
    # frames of the blocks the scan picks pay the K taper rows once more at
    # 256, and no block runs again on chirp_noise (the stft has no floor)
    scan = 0 if method == "stft" else tapers
    full, coarse = _fft_rows_per_frame(monkeypatch, method, tapers, 0.5)
    assert np.all(coarse == scan) and np.all(full >= rows - scan)
    assert set(np.unique(full - (rows - scan))) == ({0, scan} if scan else {0})


@pytest.mark.parametrize("method, tapers, rows", [
    ("sst", 1, 2), ("rm", 1, 3),
    *[(m, k, k + 1) for m in ("mt_sst", "mt_rm") for k in (2, 3, MULTITAPER_TAPERS[1])],
])
def test_fft_rows_per_frame_at_threshold_0(monkeypatch, method, tapers, rows):
    # at threshold 0 the floor is 0: no scan, and no frame pays more than
    # one transform of its rows
    full, coarse = _fft_rows_per_frame(monkeypatch, method, tapers, 0.0)
    assert np.all(full == rows) and not coarse.any()


@pytest.mark.parametrize("method, tapers, rows", [
    ("sst", 1, 2), ("rm", 1, 3),
    *[(m, k, k + 1) for m in ("mt_sst", "mt_rm") for k in (2, 3, MULTITAPER_TAPERS[1])],
])
def test_fft_rows_per_frame_when_every_cell_clears_the_ceiling(monkeypatch, method, tapers,
                                                               rows):
    # at threshold 1e-8 every cell of chirp_noise lies above threshold times
    # its peak, so every cell is kept; the floor still costs only the coarse
    # scan (the K taper rows once at 128) and, in the blocks the scan picks,
    # the K taper rows once more at 256: no block runs again
    full, coarse = _fft_rows_per_frame(monkeypatch, method, tapers, 1e-8)
    assert np.all(coarse == tapers) and np.all(full >= rows)
    assert set(np.unique(full - rows)) == {0, tapers}


def _fft_rows_per_frame(monkeypatch, method, tapers, threshold):
    """The FFT rows that each frame of chirp_noise pays at the transform's
    nfft (256) and on the coarse scan's grid (128): the rows of every block
    of ``_spectra`` that reads it, which together are the rows that numpy's
    rfft transforms."""
    counted, blocks = [], []
    rfft, spectra_of = np.fft.rfft, tf_analysis._spectra

    def counting(a, *args, **kwargs):
        counted.append(int(np.prod(np.shape(a)[:-1])))
        return rfft(a, *args, **kwargs)

    def recording(values, taps, hop, nfft, *args):
        for start, spec in spectra_of(values, taps, hop, nfft, *args):
            blocks.append((start, spec.shape[0], taps.shape[0], nfft))
            yield start, spec

    monkeypatch.setattr(np.fft, "rfft", counting)
    monkeypatch.setattr(tf_analysis, "_spectra", recording)
    tfr = tf_magnitude(chirp_noise(611), method, 1.0, 4, 256, tapers, threshold)
    paid = {nfft: np.zeros(tfr.time_axis.size, dtype=int) for nfft in (256, 128)}
    for start, frames, rows, nfft in blocks:
        paid[nfft][start:start + frames] += rows
    assert sum(p.sum() for p in paid.values()) == sum(counted)
    return paid[256], paid[128]


def late_floor(threshold, width=65):
    """Twelve frames of ``width`` samples at hop ``width``, so that each
    frame sees one segment: silence; 1.5 * threshold, whose bin 0 lies
    just above the floor and whose other bins lie under it, some above
    threshold times their own frame's max; silence; three frames of 1.0,
    the peak; silence."""
    values = np.zeros(12 * width - width // 2)
    for frame, level in ((2, 1.5 * threshold), (8, 1.0), (9, 1.0), (10, 1.0)):
        values[frame * width - width // 2:(frame + 1) * width - width // 2] = level
    return UniformSignal(values, rate=RATE)


def _record_passes(monkeypatch):
    """Each ``_spectra`` call as it runs: its window count, nfft and the
    starts of the blocks it reads."""
    passes, spectra_of = [], tf_analysis._spectra

    def recording(values, taps, hop, nfft, step, starts=None):
        read = []
        passes.append((taps.shape[0], nfft, read))
        for start, spec in spectra_of(values, taps, hop, nfft, step, starts):
            read.append(start)
            yield start, spec

    monkeypatch.setattr(tf_analysis, "_spectra", recording)
    return passes


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm"])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_floor_found_after_its_peak_matches_oracle(monkeypatch, method, chunk):
    # the peak comes late, yet the scan picks its block and seeds the
    # floor with its exact max|V_g|: the pass reads every block once, in
    # order, and the blocks before the peak drop the cells that a floor of
    # the peak read so far would keep.  Every bit is the oracle's.
    threshold = 1e-5
    want, spectra, transform = _oracle_case(method, late_floor(threshold), threshold)
    passes = _record_passes(monkeypatch)
    assert_same_bits(transform(chunk).matrix, want)
    count = spectra.shape[0]
    (_, coarse, _), (windows, _, seeded), (rows, _, read) = passes  # scan, seed, pass
    step = min(chunk, 12)
    assert coarse == 65 and windows == count  # the coarse grid is nfft itself here
    assert rows == {"sst": 2, "rm": 3}.get(method, count + 1)
    assert seeded == [8 // step * step] and read == list(range(0, 12, step))
    mags = np.abs(spectra)
    floor = threshold * mags.max(axis=(1, 2))[:, None, None]
    early = mags[..., :seeded[0]]
    if chunk < 12:  # cells above threshold times the peak read so far, under the floor
        so_far = threshold * early.max(axis=(1, 2))[:, None, None]
        assert np.any((early > so_far) & (early <= floor))


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm"])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_a_missed_peak_runs_again_the_blocks_it_decided_wrongly(monkeypatch, method, chunk):
    # with the scan's pick forced to the first block, each block's floor is
    # threshold times the peak read so far: SST runs again exactly the
    # blocks that kept a cell at or below the exact floor, and RM, whose
    # masses cross blocks, runs a second whole pass.  Every bit is the
    # oracle's.
    threshold = 1e-5
    want, spectra, transform = _oracle_case(method, late_floor(threshold), threshold)
    monkeypatch.setattr(tf_analysis, "_peak_blocks", lambda *args: [0])
    passes = _record_passes(monkeypatch)
    assert_same_bits(transform(chunk).matrix, want)
    count, step = spectra.shape[0], min(chunk, 12)
    mags = np.abs(spectra)
    floor = threshold * mags.max(axis=(1, 2))
    wrong, peak = [], mags[..., :step].max(axis=(1, 2))  # the forced seed
    for start in range(0, 12, step):
        block = mags[..., start:start + step]
        peak = np.maximum(peak, block.max(axis=(1, 2)))
        kept = block > threshold * peak[:, None, None]
        if np.any(kept & (block <= floor[:, None, None])):
            wrong.append(start)
    assert bool(wrong) == (chunk < 12)
    (windows, _, seeded), *runs = passes  # the forced pick runs no scan
    assert windows == count and seeded == [0]
    blocks = list(range(0, 12, step))
    again = [wrong] if method.endswith("sst") else [blocks]
    assert [read for _, _, read in runs] == [blocks] + (again if wrong else [])


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm"])
def test_a_kept_cell_at_the_floor_itself_runs_again(monkeypatch, method):
    # a centred spike's |V_g| is w(0) times its height in every bin; at
    # threshold 0.5 a half-height spike before the full one has every cell
    # at the floor bit for bit (a power-of-two scale is exact).  With the
    # scan's pick forced to the first block, its own running floor keeps
    # them all, so its least kept |V_g| is the floor: it must run again
    values = np.zeros(6 * 65 - 32)
    values[65], values[4 * 65] = 0.5, 1.0
    want, spectra, transform = _oracle_case(method, UniformSignal(values, rate=RATE), 0.5)
    mags = np.abs(spectra)
    assert np.all(mags[..., 1] == 0.5 * mags.max(axis=(1, 2))[:, None])
    monkeypatch.setattr(tf_analysis, "_peak_blocks", lambda *args: [0])
    assert_same_bits(transform(1).matrix, want)


@pytest.mark.parametrize("method, refused", [
    ("sst", None), ("rm", "its masses |V_g|^2"), ("mt_sst", None),
    ("mt_rm", "its masses |V_g|^2"),
])
def test_floor_at_the_extremes_raises_no_warning(method, refused):
    """A threshold just under 1 on a signal just under ``_spectra``'s
    quarter-range refusal: the coarse scan, the running floors and the
    floor threshold * max|V_g| stay finite, and no product on the way to
    them warns (warnings are errors).  The transform is refused after its
    pass where ``refused`` overflows, and the oracle's matrix is not finite
    there; elsewhere it is the oracle's, bit for bit.  A NaN |V_g| would
    fail every comparison, kept by no floor and unseen by the check: the
    values are finite, and under that refusal every spectrum value is too."""
    threshold = np.nextafter(1.0, 0.0)
    win = make_windows("gaussian", 1.0, RATE)[0]
    taps = (_hermite_ladder(1.0, RATE, 3).rows if method.startswith("mt_")
            else np.stack([win.samples, win.derivative, win.t_weighted]))
    amp = np.finfo(float).max / 4 / np.abs(taps).sum(axis=1).max() * (1.0 - 2.0 ** -20)
    values = chirp_noise(611).values
    sig = UniformSignal(amp / np.max(np.abs(values)) * values, rate=RATE)
    with np.errstate(over="ignore", invalid="ignore"):
        if method.startswith("mt_"):
            want = oracle_multitaper(sig, 1.0, 3, 4, 256, method[3:], threshold)
        else:
            oracle = {"sst": oracle_synchrosqueeze, "rm": oracle_reassign}[method]
            want = np.abs(oracle(sig, win, 4, 256, threshold))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match="transform overflows float64"):
                tf_magnitude(sig, method, 1.0, 4, 256, 3, threshold)
            assert not np.isfinite(want).all()
        else:
            assert_same_bits(tf_magnitude(sig, method, 1.0, 4, 256, 3, threshold).matrix, want)


def test_complex_sst_is_refused_where_only_a_least_part_overflows():
    # a negative constant just under _spectra's refusal: each frame's
    # coefficients, with negative real parts, pile into the lowest bins,
    # whose sums reach -inf while the greatest part stays finite
    win = WINDOWS["gaussian"]
    taps = np.stack([win.samples, win.derivative])
    amp = np.finfo(float).max / 4 / np.abs(taps).sum(axis=1).max() * (1.0 - 2.0 ** -20)
    sig = UniformSignal(np.full(300, -amp), rate=RATE)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = oracle_synchrosqueeze(sig, win, 4, 1024).view(float)
    assert np.isfinite(parts.max()) and parts.min() == -np.inf
    with pytest.raises(ValueError, match="transform overflows float64"):
        synchrosqueeze(sig, win, 4, 1024)


def test_zero_signal_matches_oracle():
    # every coefficient is dropped at threshold 0: 0/0 targets stay unused
    sig = UniformSignal(np.zeros(300), rate=RATE)
    win = WINDOWS["gaussian"]
    assert_same_bits(synchrosqueeze(sig, win, 4, 128).matrix,
                     oracle_synchrosqueeze(sig, win, 4, 128))
    assert_same_bits(reassign(sig, win, 4, 128).matrix,
                     oracle_reassign(sig, win, 4, 128))


# ---------------------------------------------------------------------------
# drawn inputs
# ---------------------------------------------------------------------------

THRESHOLDS = [0.0, 1e-300, 1e-12, 1e-8, 1e-4, 0.1, 0.5, float(np.nextafter(1.0, 0.0))]
SEGMENTS = ["noise", "tone", "spike", "constant"]


@st.composite
def drawn_signal(draw, method, tapers):
    """70 to 400 samples: 1 to 4 segments of noise, a tone, a spike or a
    constant, each at 2^-40 to 2^40, or subnormal, with silence between;
    or the whole signal scaled to just under ``_spectra``'s quarter-range
    refusal for the method's taps."""
    values = []
    for kind, length, gap, level in draw(st.lists(st.tuples(
            st.sampled_from(SEGMENTS), st.integers(1, 150), st.integers(0, 100),
            st.one_of(st.integers(-40, 40).map(lambda e: 2.0 ** e), st.just(1e-310))),
            min_size=1, max_size=4)):
        values.append(np.zeros(gap))
        if kind == "noise":
            segment = np.random.default_rng(draw(st.integers(0, 99))).normal(size=length)
        elif kind == "tone":
            cycles = draw(st.floats(0.0, 0.5))
            segment = np.cos(2.0 * np.pi * cycles * np.arange(length))
        else:
            segment = np.ones(1 if kind == "spike" else length)
        values.append(level * segment)
    values = np.concatenate(values)[:400]
    values = np.concatenate([values, np.zeros(max(0, 70 - values.size))])
    if draw(st.booleans()):
        if method.startswith("mt_"):
            taps = _hermite_ladder(1.0, RATE, tapers).rows
        else:
            win = WINDOWS["gaussian"]
            taps = np.stack([win.samples, win.derivative, win.t_weighted])
        peak = np.finfo(float).max / 4 / np.abs(taps).sum(axis=1).max() * (1.0 - 2.0 ** -20)
        values = values / np.max(np.abs(values)) * peak
    return UniformSignal(values, rate=RATE)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), method=st.sampled_from(["sst", "rm", "mt_sst", "mt_rm"]),
       threshold=st.sampled_from(THRESHOLDS), chunk=st.sampled_from([1, 2, 3, 7, 4096]),
       hop=st.integers(1, 70), nfft=st.sampled_from([128, 256, 512]))
def test_engine_matches_oracle_on_drawn_inputs(data, method, threshold, chunk, hop, nfft):
    # the kept bin span, the floor's two bounds and NaN targets hold on
    # signals nobody wrote down: every bit is the oracle's.  A run refused
    # by name passes only where the oracle's matrix is not finite.  About
    # 2 s on a 2-vCPU VM.
    tapers = data.draw(st.integers(2, 4)) if method.startswith("mt_") else 1
    sig = data.draw(drawn_signal(method, tapers))
    if method.startswith("mt_"):
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle_multitaper(sig, 1.0, tapers, hop, nfft, method[3:], threshold)

        def transform():
            return multitaper(sig, 1.0, tapers, hop, nfft, method[3:], threshold, chunk=chunk)
    else:
        win = WINDOWS["gaussian"]
        engine, oracle = {"sst": (synchrosqueeze, oracle_synchrosqueeze),
                          "rm": (reassign, oracle_reassign)}[method]
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle(sig, win, hop, nfft, threshold)

        def transform():
            return engine(sig, win, hop, nfft, threshold, chunk=chunk)

    try:
        got = transform().matrix
    except ValueError as exc:
        assert "transform overflows float64" in str(exc)
        assert not np.isfinite(want).all()
        return
    assert np.isfinite(got).all()
    assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# exact amplitude scaling
# ---------------------------------------------------------------------------

SCALED_METHODS = ["synchrosqueeze", "sst", "rm", "mt_sst", "mt_rm"]


def _scaled_run(method, sig, threshold, oracle=False):
    """``method``'s matrix on ``sig`` (hop 4, nfft 512, a 1 s window, 2
    tapers), from the engine or from its oracle: 'synchrosqueeze' is the
    complex transform, the rest ``tf_magnitude``'s real one."""
    win = WINDOWS["gaussian"]
    if not oracle:
        if method == "synchrosqueeze":
            return synchrosqueeze(sig, win, 4, 512, threshold).matrix
        return tf_magnitude(sig, method, 1.0, 4, 512, 2, threshold).matrix
    with np.errstate(over="ignore", invalid="ignore"):
        if method.startswith("mt_"):
            return oracle_multitaper(sig, 1.0, 2, 4, 512, method[3:], threshold)
        if method == "rm":
            return oracle_reassign(sig, win, 4, 512, threshold)
        want = oracle_synchrosqueeze(sig, win, 4, 512, threshold)
        return want if method == "synchrosqueeze" else np.abs(want)


@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(SCALED_METHODS), threshold=st.sampled_from([0.0, 1e-8, 0.5]),
       seed=st.one_of(st.just(None), st.integers(0, 9)), below=st.integers(0, 60))
@example(method="mt_sst", threshold=0.0, seed=None, below=4)
@example(method="mt_sst", threshold=0.5, seed=3, below=6)
def test_amplitude_scaling_is_exact_up_to_the_refusal(method, threshold, seed, below):
    # a spike (no seed) or chirp_noise(300, seed) times 2^k, its peak 2^-below
    # of the float64 range's edge: the transform is 2^k times the unscaled
    # one (2^2k for the masses of rm and mt_rm), bit for bit, or refused
    # where _spectra's bound refuses the scaled signal or the oracle's
    # scaled matrix is not finite.  The examples are finite transforms that
    # a frame's sum |V_g| over its bins once refused.  About 1 s on a 2-vCPU VM.
    if seed is None:
        values = np.zeros(300)
        values[150] = 1.0
    else:
        values = chirp_noise(300, seed).values
    k = 1024 - np.frexp(np.max(np.abs(values)))[1] - below
    sig = UniformSignal(np.ldexp(values, k), rate=RATE)
    try:
        got = _scaled_run(method, sig, threshold)
    except ValueError as exc:
        assert "transform overflows float64" in str(exc)
        win, rows = WINDOWS["gaussian"], 3 if method == "rm" else 2
        taps = (_hermite_ladder(1.0, RATE, 2).rows if method.startswith("mt_")
                else np.stack([win.samples, win.derivative, win.t_weighted][:rows]))
        with np.errstate(over="ignore"):
            bound = np.max(np.abs(sig.values)) * np.abs(taps).sum(axis=1).max()
        assert not bound < np.finfo(float).max / 4 or not np.isfinite(
            _scaled_run(method, sig, threshold, oracle=True)).all()
        return
    assert np.isfinite(got).all()
    want = _scaled_run(method, UniformSignal(values, rate=RATE), threshold)
    factor = 2 * k if method.endswith("rm") else k
    assert_same_bits(got, np.ldexp(want.view(float), factor).view(want.dtype))


# ---------------------------------------------------------------------------
# non-finite reassignment targets
# ---------------------------------------------------------------------------

def test_nan_estimates_stay_in_their_own_cell():
    # (1+0j) / (5e-324+0j) has imaginary part 0 * inf = nan, and so has
    # the frequency estimate of that cell
    with np.errstate(all="ignore"):
        assert np.isnan((np.array([1.0 + 0j]) / np.array([5e-324 + 0j])).imag[0])
    est = np.array([[np.nan, 1.2, 7.0], [-3.0, np.nan, 0.4]])
    own = np.arange(3, dtype=float)
    np.testing.assert_array_equal(_nearest(est, own, 3), [[0, 1, 2], [0, 1, 0]])
    est = np.array([[np.nan, np.inf], [-np.inf, np.nan]])
    own = np.array([[4.0], [5.0]])  # frames 4 and 5 of 9
    np.testing.assert_array_equal(_nearest(est, own, 9), [[4, 8], [0, 5]])


def spike_and_subnormal():
    # frames that see only the subnormal sample have subnormal V_g, whose
    # ratios are nan at threshold 0; those cells keep their own cell
    values = np.zeros(400)
    values[100], values[300] = 1.0, 1e-310
    return UniformSignal(values, rate=RATE)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_subnormal_frames_match_oracle(chunk):
    sig, win = spike_and_subnormal(), WINDOWS["gaussian"]
    assert_same_bits(synchrosqueeze(sig, win, 4, 128, chunk=chunk).matrix,
                     oracle_synchrosqueeze(sig, win, 4, 128))
    assert_same_bits(reassign(sig, win, 4, 128, chunk=chunk).matrix,
                     oracle_reassign(sig, win, 4, 128))


def test_subnormal_coefficients_conserve_mass():
    sig, win = spike_and_subnormal(), WINDOWS["gaussian"]
    base = stft(sig, win, 4, 128).matrix
    deriv = Window(win.derivative, win.derivative, win.t_weighted, "gaussian",
                   win.duration_s)
    with np.errstate(all="ignore"):
        ratio = stft(sig, deriv, 4, 128).matrix / base
    assert np.isnan(ratio[base != 0]).any()

    sst = synchrosqueeze(sig, win, 4, 128, threshold=0.0).matrix
    ref = base.sum(axis=0)
    assert np.max(np.abs(sst.sum(axis=0) - ref)) <= 1e-12 * np.max(np.abs(ref))
    rm = reassign(sig, win, 4, 128, threshold=0.0).matrix
    mass = np.sum(np.abs(base) ** 2)
    assert np.all(np.isfinite(rm)) and rm.sum() == pytest.approx(mass, rel=1e-12)
