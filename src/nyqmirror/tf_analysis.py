"""Time-frequency analysis: STFT, synchrosqueezed STFT, reassigned
spectrogram, Hermite multitaper variants, the log-scale display transform,
and penalized ridge extraction.

All transforms share one frame convention: frame centers sit on the sample
grid every ``hop`` samples, the window is centered with odd length, and the
FFT phase is referenced to the frame center, so the frequency-derivative
estimate Im[V_dg / V_g] is direct.  Everything is deterministic: identical
inputs give bit-identical matrices regardless of the internal chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spline_interp import UniformSignal

__all__ = [
    "DisplayMatrix",
    "TFRepresentation",
    "Window",
    "WindowMeta",
    "log_display",
    "make_windows",
    "multitaper",
    "reassign",
    "ridge_extract",
    "stft",
    "synchrosqueeze",
]

_METHODS = ("stft", "sst", "rm", "mt_sst", "mt_rm")
_MAX_TAPERS = 10


def _freeze(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


class WindowMeta(NamedTuple):
    family: str
    duration_s: float
    hop: int
    taper_count: int


@dataclass(frozen=True, eq=False)
class Window:
    """Analysis window with its analytic derivative and time weighting.

    ``samples`` has unit discrete L2 norm and odd length; ``derivative``
    is d/du of the same continuous window (units 1/s) and ``t_weighted``
    is u * w(u) (units s), both sampled on the centered grid.
    """

    samples: np.ndarray
    derivative: np.ndarray
    t_weighted: np.ndarray
    family: str
    duration_s: float
    rate: float

    def __post_init__(self):
        for name in ("samples", "derivative", "t_weighted"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.samples.size % 2 != 1:
            raise ValueError("window length must be odd")

    def __len__(self) -> int:
        return self.samples.size


def _hermite_functions(x: np.ndarray, count: int) -> list[np.ndarray]:
    """First ``count`` Hermite functions by the stable three-term ladder."""
    h = [np.pi ** -0.25 * np.exp(-0.5 * x * x)]
    if count > 1:
        h.append(np.sqrt(2.0) * x * h[0])
    for k in range(1, count - 1):
        h.append(np.sqrt(2.0 / (k + 1)) * x * h[k]
                 - np.sqrt(k / (k + 1.0)) * h[k - 1])
    return h


def make_windows(family: str, duration_s: float, rate: float,
                 taper_count: int = 1) -> list[Window]:
    """Build analysis windows of one family.

    Parameters
    ----------
    family : {'gaussian', 'hermite'}
        ``gaussian`` is exp(-pi u^2 / sigma^2) with sigma = duration/6,
        truncated at the duration; ``hermite`` gives the first
        ``taper_count`` Hermite functions on the matching scale (taper 0
        is the same Gaussian shape), mutually orthogonal.
    duration_s : float
        Window support in seconds; duration * rate must be >= 16 samples.
    rate : float
        Sample rate in Hz.
    taper_count : int
        Number of tapers; must be 1 for ``gaussian``, and at most 10
        (higher Hermite tapers leak past the truncation).

    Returns
    -------
    list of Window
        ``taper_count`` windows, each with unit discrete L2 norm.
    """
    n_samp = int(round(duration_s * rate))
    if n_samp < 16:
        raise ValueError("window must span at least 16 samples")
    if taper_count < 1:
        raise ValueError("taper_count must be >= 1")
    if taper_count > _MAX_TAPERS:
        raise ValueError(f"taper_count must be <= {_MAX_TAPERS}: higher tapers leak")
    if family not in ("gaussian", "hermite"):
        raise ValueError(f"unknown window family {family!r}")
    if family == "gaussian" and taper_count != 1:
        raise ValueError("the gaussian family provides a single taper")

    length = n_samp + 1 if n_samp % 2 == 0 else n_samp
    u = (np.arange(length) - (length - 1) / 2.0) / rate
    sigma = duration_s / 6.0

    if family == "gaussian":
        raw = np.exp(-np.pi * u * u / sigma**2)
        norm = 1.0 / np.sqrt(np.sum(raw * raw))
        w = norm * raw
        dw = (-2.0 * np.pi * u / sigma**2) * w
        return [Window(w, dw, u * w, family, float(duration_s), float(rate))]

    scale = sigma / np.sqrt(2.0 * np.pi)  # Hermite-0 matches the Gaussian
    x = u / scale
    funcs = _hermite_functions(x, taper_count + 1)
    out = []
    for k in range(taper_count):
        norm = 1.0 / np.sqrt(np.sum(funcs[k] * funcs[k]))
        w = norm * funcs[k]
        lower = np.sqrt(k / 2.0) * funcs[k - 1] if k > 0 else 0.0
        upper = np.sqrt((k + 1) / 2.0) * funcs[k + 1]
        dw = norm * (lower - upper) / scale
        out.append(Window(w, dw, u * w, family, float(duration_s), float(rate)))
    return out


@dataclass(frozen=True, eq=False)
class TFRepresentation:
    """Matrix over (frequency bins x time frames) with axis metadata."""

    matrix: np.ndarray
    freq_axis: np.ndarray
    time_axis: np.ndarray
    method: str
    window_meta: WindowMeta

    def __post_init__(self):
        # arrays handed over already frozen (write=False) are adopted
        # without copying; writable inputs are copied defensively
        m = _freeze(np.asarray(self.matrix))
        f = _freeze(np.asarray(self.freq_axis, dtype=float))
        t = _freeze(np.asarray(self.time_axis, dtype=float))
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if m.shape != (f.size, t.size):
            raise ValueError("matrix dimensions inconsistent with axes")
        if np.any(np.diff(f) <= 0.0) or np.any(np.diff(t) <= 0.0):
            raise ValueError("axes must be strictly increasing")
        if self.method in ("rm", "mt_rm", "mt_sst"):
            if np.iscomplexobj(m) or np.any(m < 0.0):
                raise ValueError(f"{self.method} matrix must be real nonnegative")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "freq_axis", f)
        object.__setattr__(self, "time_axis", t)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _frame_plan(sig: UniformSignal, window: Window, hop: int, nfft: int):
    length = len(sig)
    w_len = len(window)
    if hop < 1:
        raise ValueError("hop must be >= 1 sample")
    if nfft < w_len:
        raise ValueError(f"nfft ({nfft}) must be >= window length ({w_len})")
    if length < w_len:
        raise ValueError(
            f"signal ({length} samples) shorter than window ({w_len})"
        )
    centers = np.arange(0, length, hop)
    freqs = np.arange(nfft // 2 + 1) * (sig.rate / nfft)
    times = sig.t_start + centers / sig.rate
    return centers, freqs, times


def _stft_columns(values: np.ndarray, taps: np.ndarray, centers: np.ndarray,
                  nfft: int, chunk: int):
    """Yield (start, V_block) with V_block of shape (bins, frames_in_block).

    The window is centered on each frame and the FFT buffer is rotated so
    phase is measured from the frame center.
    """
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


def stft(sig: UniformSignal, window: Window, hop: int, nfft: int,
         chunk: int = 128) -> TFRepresentation:
    """Sliding-window Fourier transform with center-referenced phase.

    Column tau holds sum_u sig(u) w(u - tau) exp(-2 pi i xi_k (u - tau)),
    on the one-sided frequency axis 0 .. rate/2; boundary frames see zeros
    outside the signal.  ``chunk`` only bounds working memory.
    """
    centers, freqs, times = _frame_plan(sig, window, hop, nfft)
    out = np.empty((freqs.size, centers.size), dtype=complex)
    for start, block in _stft_columns(sig.values, window.samples, centers,
                                      nfft, chunk):
        out[:, start:start + block.shape[1]] = block
    out.setflags(write=False)
    meta = WindowMeta(window.family, window.duration_s, hop, 1)
    return TFRepresentation(out, freqs, times, "stft", meta)


def _frequency_targets(v_blk: np.ndarray, vd_blk: np.ndarray,
                       freqs: np.ndarray, df: float, floor: float):
    """Target bins and kept weights for one (frames, bins) block.

    Dropped coefficients (|V| <= floor) keep weight zero; reassignment
    estimates beyond the grid clip to the edge bins, so relocation never
    loses mass.
    """
    mask = np.abs(v_blk) > floor
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = vd_blk / np.where(mask, v_blk, 1.0)
        omega = freqs[None, :] - np.imag(ratio) / (2.0 * np.pi)
    omega = np.where(mask, omega, 0.0)
    tbin = np.clip(np.rint(omega / df), 0, freqs.size - 1).astype(np.intp)
    return tbin, mask, ratio


def synchrosqueeze(sig: UniformSignal, window: Window, hop: int, nfft: int,
                   threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Frequency-reassigned (synchrosqueezed) STFT.

    Each coefficient moves within its own column to the bin nearest the
    phase-derived frequency estimate xi - Im[V_dg / V_g] / (2 pi);
    coefficients with |V| <= threshold * max|V| are dropped.  With a zero
    threshold the per-column sums equal the STFT column sums.  Columns are
    reassigned independently, so results are bit-identical for any chunk.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    centers, freqs, times = _frame_plan(sig, window, hop, nfft)
    df = sig.rate / nfft
    n_bins = freqs.size
    base = stft(sig, window, hop, nfft, chunk)
    floor = threshold * float(np.max(np.abs(base.matrix))) if threshold > 0.0 else 0.0

    out = np.zeros((n_bins, centers.size), dtype=complex)
    for start, vd in _stft_columns(sig.values, window.derivative, centers,
                                   nfft, chunk):
        width = vd.shape[1]
        v_blk = base.matrix[:, start:start + width].T
        tbin, mask, _ = _frequency_targets(v_blk, vd.T, freqs, df, floor)
        weights = np.where(mask, v_blk, 0.0)
        flat = (np.arange(width)[:, None] * n_bins + tbin).ravel()
        re = np.bincount(flat, weights.real.ravel(), minlength=width * n_bins)
        im = np.bincount(flat, weights.imag.ravel(), minlength=width * n_bins)
        out[:, start:start + width] = (re + 1j * im).reshape(width, n_bins).T
    out.setflags(write=False)
    meta = WindowMeta(window.family, window.duration_s, hop, 1)
    return TFRepresentation(out, freqs, times, "sst", meta)


def reassign(sig: UniformSignal, window: Window, hop: int, nfft: int,
             threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Reassigned spectrogram: squared magnitudes moved in both time and
    frequency to (tau + Re[V_tg / V_g], xi - Im[V_dg / V_g] / 2 pi).

    With a zero threshold the total mass equals the total STFT squared
    magnitude; out-of-grid estimates clip to the nearest edge cell.  Mass
    is accumulated in one fixed global (frame, bin) order, so results are
    bit-identical for any chunk size.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    centers, freqs, times = _frame_plan(sig, window, hop, nfft)
    df = sig.rate / nfft
    n_bins, n_frames = freqs.size, centers.size
    base = stft(sig, window, hop, nfft, chunk)
    floor = threshold * float(np.max(np.abs(base.matrix))) if threshold > 0.0 else 0.0

    flat_all = np.empty(n_frames * n_bins, dtype=np.intp)
    mass_all = np.empty(n_frames * n_bins)
    gen_t = _stft_columns(sig.values, window.t_weighted, centers, nfft, chunk)
    for (start, vd), (_, vt) in zip(
            _stft_columns(sig.values, window.derivative, centers, nfft, chunk),
            gen_t):
        width = vd.shape[1]
        v_blk = base.matrix[:, start:start + width].T
        tbin, mask, _ = _frequency_targets(v_blk, vd.T, freqs, df, floor)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = np.real(np.where(mask, vt.T, 0.0) / np.where(mask, v_blk, 1.0))
        that = times[start:start + width, None] + np.where(mask, shift, 0.0)
        tfrm = np.clip(np.rint((that - sig.t_start) * sig.rate / hop),
                       0, n_frames - 1).astype(np.intp)
        sl = slice(start * n_bins, (start + width) * n_bins)
        flat_all[sl] = (tbin * n_frames + tfrm).ravel()
        mass_all[sl] = np.where(mask, np.abs(v_blk) ** 2, 0.0).ravel()
    out = np.bincount(flat_all, mass_all,
                      minlength=n_bins * n_frames).reshape(n_bins, n_frames)
    out.setflags(write=False)
    meta = WindowMeta(window.family, window.duration_s, hop, 1)
    return TFRepresentation(out, freqs, times, "rm", meta)


def multitaper(sig: UniformSignal, duration_s: float, taper_count: int,
               hop: int, nfft: int, method: str = "sst",
               threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Hermite multitaper average of synchrosqueezed or reassigned STFTs.

    The output is the elementwise arithmetic mean over tapers of the
    magnitude (sst) or mass (rm) matrices; needs taper_count >= 2.
    """
    if taper_count < 2:
        raise ValueError("multitaper needs at least 2 tapers")
    if method not in ("sst", "rm"):
        raise ValueError(f"method must be 'sst' or 'rm', got {method!r}")
    windows = make_windows("hermite", duration_s, sig.rate, taper_count)
    acc = None
    axes = None
    for win in windows:
        if method == "sst":
            tfr = synchrosqueeze(sig, win, hop, nfft, threshold, chunk)
            layer = np.abs(tfr.matrix)
        else:
            tfr = reassign(sig, win, hop, nfft, threshold, chunk)
            layer = tfr.matrix
        acc = layer if acc is None else acc + layer
        axes = (tfr.freq_axis, tfr.time_axis)
    meta = WindowMeta("hermite", float(duration_s), hop, taper_count)
    avg = acc / taper_count
    avg.setflags(write=False)
    return TFRepresentation(avg, axes[0], axes[1], f"mt_{method}", meta)


@dataclass(frozen=True, eq=False)
class DisplayMatrix:
    """Log-scale display of a TF matrix, clipped at a high quantile."""

    matrix: np.ndarray
    quantile_q: float

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _freeze(np.asarray(self.matrix, dtype=float)))


def log_display(tfr: TFRepresentation, quantile: float = 0.998) -> DisplayMatrix:
    """max(1e-2, log(1 + min(|R|, q))) with q the 99.8% quantile of |R|.

    The quantile runs over all entries of |R| (zeros included) with linear
    interpolation between order statistics.
    """
    mag = np.abs(tfr.matrix)
    if mag.size == 0:
        raise ValueError("empty TF matrix")
    q = float(np.quantile(mag.ravel(), quantile))
    out = np.maximum(1e-2, np.log1p(np.minimum(mag, q)))
    return DisplayMatrix(matrix=out, quantile_q=q)


def _max_plus_l1(prev: np.ndarray, penalty: float) -> np.ndarray:
    """max_g(prev[g] - penalty * |f - g|) for all f, via two cummax passes."""
    idx = np.arange(prev.size)
    left = np.maximum.accumulate(prev + penalty * idx) - penalty * idx
    right = (np.maximum.accumulate((prev - penalty * idx)[::-1])[::-1]
             + penalty * idx)
    return np.maximum(left, right)


def ridge_extract(tfr: TFRepresentation, freq_min, freq_max,
                  jump_penalty: float = 0.0) -> np.ndarray:
    """Maximum-magnitude frequency ridge within a band, smoothed by dynamic
    programming with an L1 jump cost per frame.

    ``freq_min`` and ``freq_max`` are scalars or one value per frame; the
    ridge only visits cells inside each frame's band, which must hold a bin.
    Returns the ridge frequency in Hz per frame.  Ties break toward the
    lower frequency, so a zero matrix yields the lowest band bin.
    """
    if not jump_penalty >= 0.0:
        raise ValueError(f"jump_penalty must be >= 0, got {jump_penalty}")
    frames = tfr.time_axis.shape
    lo = np.broadcast_to(np.asarray(freq_min, dtype=float), frames)
    hi = np.broadcast_to(np.asarray(freq_max, dtype=float), frames)
    inside = (tfr.freq_axis[:, None] >= lo) & (tfr.freq_axis[:, None] <= hi)
    has_bin = inside.any(axis=0)
    if not has_bin.all():
        t = int(np.argmin(has_bin))
        raise ValueError(f"frame {t}: band [{lo[t]}, {hi[t]}] Hz holds no bin")
    # the run of rows any band reaches: row offsets stay bin distances
    used = np.nonzero(inside.any(axis=1))[0]
    rows = slice(used[0], used[-1] + 1)
    mag = np.abs(tfr.matrix[rows])
    mag[~inside[rows]] = -np.inf
    n_frames = mag.shape[1]

    acc = np.empty_like(mag)
    acc[:, 0] = mag[:, 0]
    for t in range(1, n_frames):
        prev = acc[:, t - 1] - acc[:, t - 1].max()  # bounded: no late-frame rounding
        acc[:, t] = mag[:, t] + _max_plus_l1(prev, jump_penalty)

    path = np.empty(n_frames, dtype=np.intp)
    path[-1] = int(np.argmax(acc[:, -1]))
    offsets = np.arange(mag.shape[0])
    for t in range(n_frames - 2, -1, -1):
        path[t] = int(np.argmax(
            acc[:, t] - jump_penalty * np.abs(offsets - path[t + 1])
        ))
    return tfr.freq_axis[rows][path]
