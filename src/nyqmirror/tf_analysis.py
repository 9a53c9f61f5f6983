"""Time-frequency analysis: STFT, synchrosqueezed STFT, reassigned
spectrogram, Hermite multitaper variants, log display and ridge extraction.

One framing generator serves every transform: frame centers sit on the
sample grid every ``hop`` samples, each odd-length window is centered, FFT
phase is referenced to the frame center (so Im[V_dg / V_g] is direct), and
one gather and one batched FFT per block of frames give all windows' spectra
frames-major.  A block holds about ``_BLOCK_CELLS`` cells a window whatever
the bin count (fewer frames for many tapers), so the reductions' temporaries
stay in cache.  A sharpened transform checks its floor after one pass and
runs again only the blocks it decided wrongly.  Identical inputs give
bit-identical matrices for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rowblocks import RowBlocks, exact_quantile
from .spline_interp import UniformSignal, check_memory, frozen

__all__ = [
    "Display", "DisplayMatrix", "MULTITAPER_TAPERS", "TF_METHODS", "TFRepresentation",
    "Window", "WindowMeta", "display_rows", "log_display", "magnitude_rows",
    "make_windows", "multitaper", "reassign", "ridge_extract", "stft", "synchrosqueeze",
    "tf_magnitude",
]

# the transforms a TFRepresentation may name (the CLI's analysis.method too)
TF_METHODS = ("stft", "sst", "rm", "mt_sst", "mt_rm")
# multitaper's least and most tapers: an average needs two, and Hermite
# tapers past the tenth leak past the truncation (make_windows' bound too)
MULTITAPER_TAPERS = (2, 10)
# spectrum cells per block of frames and taper: keeps a block's temporaries
# in cache; past _BLOCK_TAPERS tapers a block has fewer frames
_BLOCK_CELLS = 1 << 15
_BLOCK_TAPERS = 3
# the display clips |R| at this quantile and is never below its floor
_DISPLAY_QUANTILE, _DISPLAY_FLOOR = 0.998, 1e-2
# bytes per cell live at once in each transform, by method and whether its
# output is complex: at least 1.17x those traced at 2049 x 512 cells, the
# stft 17.1 (complex) and 9.2 (real), the SST 19.9 and 11.9, the RM 12.2, and
# the multitaper 18.5 (sst) and 16.5 (rm) at 3 tapers, 15.4 and 14.1 at 2 and
# 16.6 and 14.8 at 10.  Past the output's 8 or 16 the rest is per-block
# buffers, which do not grow with the matrix.
_LIVE_BYTES_PER_CELL = {("stft", True): 20, ("stft", False): 11, ("sst", True): 24,
                        ("sst", False): 15, ("rm", False): 16, ("mt_sst", False): 24,
                        ("mt_rm", False): 23}


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

    def __post_init__(self):
        for name in ("samples", "derivative", "t_weighted"):
            object.__setattr__(self, name, frozen(getattr(self, name)))
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


def _window_grid(family: str, duration_s: float, rate: float,
                 taper_count: int) -> np.ndarray:
    """The centered sample times (s) of a ``make_windows`` window, after its
    checks and memory refusal."""
    if taper_count < 1:
        raise ValueError("taper_count must be >= 1")
    if taper_count > MULTITAPER_TAPERS[1]:
        raise ValueError(f"taper_count must be <= {MULTITAPER_TAPERS[1]}: "
                         f"higher tapers leak")
    if family not in ("gaussian", "hermite"):
        raise ValueError(f"unknown window family {family!r}")
    if family == "gaussian" and taper_count != 1:
        raise ValueError("the gaussian family provides a single taper")
    samples = duration_s * rate
    # measured 64 bytes per sample for the gaussian and 32 (taper_count + 2)
    # for the Hermite family; allow at least twice that
    check_memory(64.0 * (taper_count + 2) * samples,
                 f"{taper_count} x {samples:.3g} window samples",
                 f"shorten the window ({duration_s} s)")
    n_samp = int(round(samples))
    if n_samp < 16:
        raise ValueError("window must span at least 16 samples")
    length = n_samp + 1 if n_samp % 2 == 0 else n_samp
    return (np.arange(length) - (length - 1) / 2.0) / rate


def _hermite_basis(u: np.ndarray, duration_s: float, count: int):
    """The Hermite scale, h_0 .. h_{count-1} on the times ``u`` and the
    norms n_j that make each n_j h_j unit-L2."""
    scale = duration_s / 6.0 / np.sqrt(2.0 * np.pi)  # Hermite-0 matches the Gaussian
    funcs = _hermite_functions(u / scale, count)
    return scale, funcs, [1.0 / np.sqrt(np.sum(h * h)) for h in funcs]


def make_windows(family: str, duration_s: float, rate: float,
                 taper_count: int = 1) -> list[Window]:
    """Build ``taper_count`` analysis windows of one family, each with unit
    discrete L2 norm, spanning ``duration_s`` seconds (at least 16 samples
    at ``rate`` Hz).

    ``gaussian`` is exp(-pi u^2 / sigma^2) with sigma = duration/6,
    truncated at the duration, and has a single taper.  ``hermite`` gives
    the first ``taper_count`` Hermite functions on the matching scale
    (taper 0 is the same Gaussian shape), mutually orthogonal; at most 10,
    because higher Hermite tapers leak past the truncation.  Windows too
    large for physical memory are refused before they are allocated.
    """
    u = _window_grid(family, duration_s, rate, taper_count)
    if family == "gaussian":
        sigma = duration_s / 6.0
        raw = np.exp(-np.pi * u * u / sigma**2)
        norm = 1.0 / np.sqrt(np.sum(raw * raw))
        w = norm * raw
        dw = (-2.0 * np.pi * u / sigma**2) * w
        return [Window(w, dw, u * w, family, float(duration_s))]

    scale, funcs, norms = _hermite_basis(u, duration_s, taper_count + 1)
    out = []
    for k in range(taper_count):
        w = norms[k] * funcs[k]
        lower = np.sqrt(k / 2.0) * funcs[k - 1] if k > 0 else 0.0
        upper = np.sqrt((k + 1) / 2.0) * funcs[k + 1]
        dw = norms[k] * (lower - upper) / scale
        out.append(Window(w, dw, u * w, family, float(duration_s)))
    return out


class _Ladder(NamedTuple):
    """``lower.size`` Hermite tapers as ``_sharpened`` takes them: ``rows``
    holds the unit-L2 windows w_0 .. w_K, w_K a helper and never a taper,
    and each taper's derivative and time weighting are fixed combinations
    of its neighbours (the Hermite ladder; Xiao & Flandrin, IEEE TSP 2007),
    g'_k = (lower[k] w_{k-1} - upper[k] w_{k+1}) / scale and
    t g_k = scale (lower[k] w_{k-1} + upper[k] w_{k+1})."""

    rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scale: float
    duration_s: float


def _hermite_ladder(duration_s: float, rate: float, taper_count: int) -> _Ladder:
    """The ladder of ``make_windows``' Hermite tapers, with its refusals:
    lower[k] = sqrt(k/2) n_k / n_{k-1} (0 for k = 0) and
    upper[k] = sqrt((k+1)/2) n_k / n_{k+1}, n_j the norm of w_j = n_j h_j."""
    u = _window_grid("hermite", duration_s, rate, taper_count)
    scale, funcs, norms = _hermite_basis(u, duration_s, taper_count + 1)
    k = np.arange(taper_count)
    n = np.array(norms)
    lower = np.sqrt(k / 2.0) * n[k] / n[np.maximum(k - 1, 0)]
    upper = np.sqrt((k + 1) / 2.0) * n[k] / n[k + 1]
    rows = np.stack([norm * h for norm, h in zip(norms, funcs)])
    return _Ladder(rows, lower, upper, scale, float(duration_s))


@dataclass(frozen=True, eq=False)
class TFRepresentation:
    """Matrix over (frequency bins x time frames) with axis metadata.  A
    real matrix, of any method, is a magnitude: no value has its sign bit
    set.  Only 'stft' and 'sst' may be complex."""

    matrix: np.ndarray
    freq_axis: np.ndarray
    time_axis: np.ndarray
    method: str
    window_meta: WindowMeta

    def __post_init__(self):
        m, f, t = (frozen(self.matrix, dtype=None), frozen(self.freq_axis),
                   frozen(self.time_axis))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "freq_axis", f)
        object.__setattr__(self, "time_axis", t)
        if self.method not in TF_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if m.shape != (f.size, t.size):
            raise ValueError("matrix dimensions inconsistent with axes")
        if np.any(np.diff(f) <= 0.0) or np.any(np.diff(t) <= 0.0):
            raise ValueError("axes must be strictly increasing")
        if np.iscomplexobj(m) and self.method not in ("stft", "sst"):
            raise ValueError(f"{self.method} matrix must be real nonnegative")
        if np.isrealobj(m) and _sign_bit_set(m):  # a real matrix is a magnitude
            raise ValueError(f"a real {self.method} matrix must be nonnegative, "
                             f"with no sign bit set")


def _sign_bit_set(matrix: np.ndarray) -> bool:
    """Whether a real ``matrix`` holds a value with its sign bit set (a
    negative number, -0.0 or a negative NaN); a float's bits read as a
    signed integer are negative exactly then, so one reduction decides
    without a full-size temporary."""
    if matrix.dtype.kind == "f" and matrix.dtype.itemsize in (2, 4, 8):
        return bool(matrix.size) and matrix.view(f"i{matrix.dtype.itemsize}").min() < 0
    return bool(np.signbit(matrix).any())


def _frame_plan(sig: UniformSignal, w_len: int, hop: int, nfft: int,
                chunk: int, live: tuple, tapers: int = 1):
    """Axes and frames per block (about ``_BLOCK_CELLS`` cells a taper, and
    fewer frames past ``_BLOCK_TAPERS`` tapers; at most ``chunk``); refuses,
    before allocating, a transform over physical memory at the
    ``_LIVE_BYTES_PER_CELL`` of ``live``, its (method, complex output)."""
    length = len(sig)
    if hop < 1:
        raise ValueError("hop must be >= 1 sample")
    if nfft < w_len:
        raise ValueError(f"nfft ({nfft}) must be >= window length ({w_len})")
    if length < w_len:
        raise ValueError(f"signal ({length} samples) shorter than window ({w_len})")
    n_bins, n_frames = nfft // 2 + 1, -(-length // hop)
    check_memory(_LIVE_BYTES_PER_CELL[live] * n_bins * n_frames, f"{n_bins} x {n_frames} cells",
                 f"raise hop ({hop}) or lower nfft ({nfft})")
    freqs = np.arange(n_bins) * (sig.rate / nfft)
    times = sig.t_start + np.arange(0, length, hop) / sig.rate
    frames = _BLOCK_CELLS * min(tapers, _BLOCK_TAPERS) // (tapers * n_bins)
    return freqs, times, max(1, min(chunk, frames))


def _overflow(values: np.ndarray) -> ValueError:
    """The refusal of a transform that would overflow float64 on ``values``."""
    return ValueError(f"the transform overflows float64 on a signal peaking at "
                      f"{np.max(np.abs(values)):.3g}; scale the signal down")


def _spectra(values: np.ndarray, taps: np.ndarray, hop: int, nfft: int, step: int,
             starts=None):
    """Yield (start, spec) per block of ``step`` frames, every block or those
    from the frames ``starts``: ``spec[:, k]`` is the (frames, bins) STFT
    block of window ``taps[k]``, in a buffer the next block reuses.  One
    gather of frames and one batched FFT serve all windows; the FFT buffer
    is rotated so that phase is measured from the frame center.  Spectrum
    values, their moduli and the FFT's partial sums stay within 2
    max|values| sum|tap|: refused if that reaches half the float64 range."""
    bound = float(np.max(np.abs(values))) * float(np.abs(taps).sum(axis=1).max())
    if not bound < np.finfo(float).max / 4:
        raise _overflow(values)
    count, w_len = taps.shape
    half = (w_len - 1) // 2
    padded = np.zeros(values.size + 2 * half)
    padded[half:half + values.size] = values
    frames = np.lib.stride_tricks.sliding_window_view(padded, w_len)[::hop]
    buf = np.zeros((step, count, nfft))
    spec = np.empty((step, count, nfft // 2 + 1), dtype=complex)
    for start in range(0, frames.shape[0], step) if starts is None else starts:
        blk = frames[start:start + step, None]
        n = blk.shape[0]
        np.multiply(blk[..., half:], taps[:, half:], out=buf[:n, :, :half + 1])
        np.multiply(blk[..., :half], taps[:, :half], out=buf[:n, :, nfft - half:])
        yield start, np.fft.rfft(buf[:n], axis=-1, out=spec[:n])


def _peak_blocks(values: np.ndarray, taps: np.ndarray, hop: int, nfft: int,
                 step: int) -> list:
    """The first frames, sorted and distinct, of the blocks of ``step`` frames
    holding each window's largest |V| on a coarse grid: the least power of
    two >= the window length (at most ``nfft``), in blocks of equal size."""
    coarse = min(nfft, 1 << (taps.shape[1] - 1).bit_length())
    top = np.concatenate([np.abs(spec).max(axis=2) for _, spec  # (frames, windows)
                          in _spectra(values, taps, hop, coarse, step * (nfft // coarse))])
    return sorted(set((top.argmax(axis=0) // step * step).tolist()))


def _stft(sig: UniformSignal, window: Window, hop: int, nfft: int, chunk: int,
          magnitude: bool) -> TFRepresentation:
    """``stft``, or with ``magnitude`` its real modulus filled a block at a time."""
    freqs, times, step = _frame_plan(sig, len(window), hop, nfft, chunk,
                                     ("stft", not magnitude))
    out = np.empty((freqs.size, times.size), dtype=float if magnitude else complex)
    for start, spec in _spectra(sig.values, window.samples[None], hop, nfft, step):
        dest = out[:, start:start + spec.shape[0]]
        if magnitude:
            np.abs(spec[:, 0].T, out=dest)
        else:
            dest[...] = spec[:, 0].T
    out.setflags(write=False)
    meta = WindowMeta(window.family, window.duration_s, hop, 1)
    return TFRepresentation(out, freqs, times, "stft", meta)


def stft(sig: UniformSignal, window: Window, hop: int, nfft: int,
         chunk: int = 128) -> TFRepresentation:
    """Sliding-window Fourier transform with center-referenced phase.

    Column tau holds sum_u sig(u) w(u - tau) exp(-2 pi i xi_k (u - tau)),
    on the one-sided frequency axis 0 .. rate/2; boundary frames see zeros
    outside the signal.  ``chunk`` only bounds working memory.
    """
    return _stft(sig, window, hop, nfft, chunk, magnitude=False)


def _nearest(est: np.ndarray, own, count: int) -> np.ndarray:
    """Round grid-unit target estimates in place to indices 0 .. count - 1:
    beyond the grid they clip to its edge, and a NaN one (a ratio over a
    subnormal V_g) stays at ``own``, its own cell, so no mass is lost."""
    np.rint(est, out=est)
    np.clip(est, 0, count - 1, out=est)
    np.copyto(est, own, where=np.isnan(est))
    return est


def _sharpened(sig: UniformSignal, window: Window | _Ladder, hop: int, nfft: int,
               threshold: float, chunk: int, method: str,
               magnitude: bool = False) -> TFRepresentation:
    """Synchrosqueezed ('sst') or reassigned ('rm') transform of one window,
    or the mean over the K tapers of a ``_Ladder`` (SST then always real).
    One pass makes V_g in one batched FFT per block with what the ratios
    need: a window's own g' (and t g), whose spectra over V_g give V_dg / V_g
    (and V_tg / V_g), or the ladder's w_0 .. w_K, whose F_{k-1} / F_k and
    F_{k+1} / F_k give taper k's.  Taper k keeps the cells above its floor
    threshold * max|V_g| (0 at threshold 0).  Above 0, the exact max|V_g| of
    the blocks where a coarse scan (``_peak_blocks``) finds each taper's
    largest |V| seeds a running peak; each block, read in order, keeps the
    cells above threshold times that peak (its own max included) and notes
    its least kept |V_g|.  The pass reads each frame's taper rows once, so
    its peak gives the exact floor, and a block whose least kept |V_g| is at
    or below it runs again under it: for SST that block alone, for RM, whose
    masses cross blocks, the whole pass from zero.  The seed's rows are the
    pass's, bit for bit (rfft transforms each row alone), so no running
    floor is above the floor, and the scan only decides the speed.  Each
    block works only on its kept bin span, from the first to the last bin
    where some frame and taper is kept (none: the block's sums stay 0; an
    order-12 R-peak mt_sst keeps 31 to 42 % of its cells, in 34 to 47 % of
    its bins).  One np.add.at per block, over a flat index in (frame, taper,
    bin) order (ufunc.at's fast path), sums each kept coefficient (for rm its
    mass |V_g|^2) into its target cell; a dropped one in the span goes to a
    trash slot past the cells.  RM sums into the whole flat bins-major
    output.  SST coefficients stay in their frame and taper, so SST sums
    into a block-local buffer, a slice per taper, and hands the block's sums
    (with ``magnitude``, their moduli added taper by taper: a real output)
    to its frames of the output.  Every sum has one order for any ``chunk``,
    and no full V_g, |V_g| or index is kept.  A result with a value that is
    not finite is refused, for every method, by one max over the output (and
    one min for a complex one's parts), which needs no full-size temporary."""
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    sst = method == "sst"
    if isinstance(window, Window):
        ladder, count = None, 1
        taps = np.stack([window.samples, window.derivative, window.t_weighted][:2 if sst else 3])
        meta = WindowMeta(window.family, window.duration_s, hop, 1)
    else:
        ladder, taps, count = window, window.rows, window.lower.size
        meta = WindowMeta("hermite", window.duration_s, hop, count)
    name = method if ladder is None else f"mt_{method}"
    freqs, times, step = _frame_plan(sig, taps.shape[1], hop, nfft, chunk,
                                     (name, sst and not magnitude), count)
    n_bins, n_frames = freqs.size, times.size
    seed = np.zeros(count)  # the exact max|V_g| of the blocks the coarse scan picks
    if threshold > 0.0:
        picked = _peak_blocks(sig.values, taps[:count], hop, nfft, step)
        seed = np.max([np.abs(spec).max(axis=(0, 2)) for _, spec
                       in _spectra(sig.values, taps[:count], hop, nfft, step, picked)], axis=0)
    mag = np.empty((step, count, n_bins))
    top, floor = np.zeros(count), None if threshold > 0.0 else np.zeros((count, 1))
    low = np.full((-(-n_frames // step), count), np.inf)  # least kept |V_g| per block

    size = step * count * n_bins  # flat buffers: a block's span is a leading view
    est = np.empty((1 if sst else 2, size))  # bin (and frame) targets
    cells = np.empty(size, dtype=np.intp)
    grid = np.arange(max(n_bins, n_frames), dtype=float)  # own bin or frame index
    if sst:  # block-local sums: target (bin * count + taper) * width + frame - start
        width = min(step, n_frames)
        stride, own = count * width, (np.arange(count) * width + grid[:width, None])[:, :, None]
        out = np.empty((n_bins, n_frames), dtype=float if magnitude else complex)
        acc = np.zeros(n_bins * stride + 1, dtype=complex)
        modulus = np.empty((n_bins, width))  # of one taper's sums
    else:  # the flat output: target bin * n_frames + frame
        stride, acc = n_frames, np.zeros(n_bins * n_frames + 1)
    if ladder is not None:  # the ratios, and the ladder's factors per Hz and per s
        ratio = np.empty(size, dtype=complex)
        freq_lo, freq_hi = (np.divide(c, 2.0 * np.pi * ladder.scale)[:, None]
                            for c in (ladder.lower[1:], -ladder.upper))
        time_lo, time_hi = (np.multiply(c, ladder.scale)[:, None]
                            for c in (ladder.lower[1:], ladder.upper))

    def blocks():  # the pass, then each block that kept a cell the exact floor drops
        nonlocal floor
        yield from _spectra(sig.values, taps, hop, nfft, step)
        if floor is None:  # exact: the pass read each frame's taper rows once
            floor = threshold * top[:, None]
            missed = np.flatnonzero((low <= floor.T).any(axis=1))
            if missed.size:  # RM masses cross blocks: all run again, from zero
                acc.fill(0.0)
                yield from _spectra(sig.values, taps, hop, nfft, step,
                                    missed * step if sst else None)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start, spec in blocks():
            n = spec.shape[0]
            frames = slice(start, start + n)
            m = np.abs(spec[:, :count], out=mag[:n])
            if floor is None:  # the running peak's floor, checked after the pass
                top = np.maximum(top, m.max(axis=(0, 2)))
            keep = m > (threshold * np.maximum(seed, top)[:, None] if floor is None else floor)
            kept = np.flatnonzero(keep.any(axis=(0, 1)))
            if kept.size:  # the ratios, targets and sums over the kept bin span only
                lo, hi = kept[0], kept[-1] + 1
                spec, keep, m = spec[..., lo:hi], keep[..., lo:hi], m[..., lo:hi]
                shape = (n, count, hi - lo)
                v, fbin = spec[:, :count], est[0, :m.size].reshape(shape)
                if floor is None:  # m / keep: a kept |V_g|, else inf (NaN at 0)
                    low[start // step] = np.fmin.reduce(np.divide(m, keep, out=fbin), (0, 2))
                if not sst:
                    col = est[1, :m.size].reshape(shape)
                if ladder is None:  # each ratio overwrites its spectrum
                    r = np.divide(spec[:, 1:2], v, out=spec[:, 1:2])
                    np.divide(r.imag, 2.0 * np.pi, out=fbin)
                    if not sst:
                        np.add(times[frames, None, None],
                               np.divide(spec[:, 2:], v, out=spec[:, 2:]).real, out=col)
                else:  # F_{k+1} / F_k, then F_{k-1} / F_k for k >= 1
                    r = np.divide(spec[:, 1:], v, out=ratio[:m.size].reshape(shape))
                    np.multiply(r.imag, freq_hi, out=fbin)
                    if not sst:
                        np.multiply(r.real, time_hi, out=col)
                    r = np.divide(spec[:, :count - 1], v[:, 1:], out=r[:, 1:])
                    fbin[:, 1:] += np.multiply(r.imag, freq_lo, out=r.imag)
                    if not sst:
                        col[:, 1:] += np.multiply(r.real, time_lo, out=r.real)
                        np.add(times[frames, None, None], col, out=col)
                np.subtract(freqs[lo:hi], fbin, out=fbin)
                _nearest(np.divide(fbin, sig.rate / nfft, out=fbin), grid[lo:hi], n_bins)
                if sst:  # each coefficient stays in its own frame and taper
                    col = own[:n]
                else:
                    np.multiply(np.subtract(col, sig.t_start, out=col), sig.rate, out=col)
                    _nearest(np.divide(col, hop, out=col), grid[frames, None, None], n_frames)
                np.add(np.multiply(fbin, stride, out=fbin), col, out=fbin)
                np.copyto(fbin, acc.size - 1, where=~keep)
                np.copyto(cells[:m.size], fbin.ravel(), casting="unsafe")
                np.add.at(acc, cells[:m.size], (v if sst else np.square(m, out=m)).ravel())
            if sst:
                sums = acc[:-1].reshape(n_bins, count, width)[:, :, :n]
                if not magnitude:
                    out[:, frames] = sums[:, 0]
                else:  # ((|S_0| + |S_1|) + ...) / K, the mean's order
                    np.abs(sums[:, 0], out=out[:, frames])
                    for k in range(1, count):
                        np.add(out[:, frames], np.abs(sums[:, k], out=modulus[:, :n]),
                               out=out[:, frames])
                acc.fill(0.0)
    if not sst:
        out = acc[:-1].reshape(n_bins, n_frames)
    if count > 1:  # the mean over tapers
        np.divide(out, count, out=out)
    parts = out.view(float)  # a magnitude or mass is >= 0, and max propagates NaN
    if not np.isfinite(parts.max()) or (out.dtype == complex and not np.isfinite(parts.min())):
        raise _overflow(sig.values)
    out.setflags(write=False)
    return TFRepresentation(out, freqs, times, name, meta)


def synchrosqueeze(sig: UniformSignal, window: Window, hop: int, nfft: int,
                   threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Frequency-reassigned (synchrosqueezed) STFT: each coefficient moves
    within its own column to the bin nearest the phase-derived frequency
    estimate xi - Im[V_dg / V_g] / (2 pi); coefficients with |V| <=
    threshold * max|V| are dropped.  With a zero threshold the per-column
    sums equal the STFT column sums.  Columns are reassigned independently,
    so results are bit-identical for any chunk.  A sum with a real or
    imaginary part past float64 is refused, a ValueError naming the peak."""
    return _sharpened(sig, window, hop, nfft, threshold, chunk, "sst")


def reassign(sig: UniformSignal, window: Window, hop: int, nfft: int,
             threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Reassigned spectrogram: squared magnitudes moved in both time and
    frequency to (tau + Re[V_tg / V_g], xi - Im[V_dg / V_g] / 2 pi).

    With a zero threshold the total mass equals the total STFT squared
    magnitude; out-of-grid estimates clip to the nearest edge cell.  Mass
    is accumulated in one fixed global (frame, bin) order, so results are
    bit-identical for any chunk size.
    """
    return _sharpened(sig, window, hop, nfft, threshold, chunk, "rm")


def multitaper(sig: UniformSignal, duration_s: float, taper_count: int,
               hop: int, nfft: int, method: str = "sst",
               threshold: float = 0.0, chunk: int = 128) -> TFRepresentation:
    """Hermite multitaper average of synchrosqueezed or reassigned STFTs:
    the elementwise arithmetic mean over tapers of the magnitude (sst) or
    mass (rm) matrices; needs taper_count >= 2.  All tapers run in one pass
    over the frames, each taper's g' and t g taken from the Hermite ladder
    of its neighbours (``_Ladder``): K + 1 FFT rows per frame, and above
    threshold 0 the floor's K more on a coarse grid and on at most K blocks
    (``_sharpened``); the one output matrix plus per-block buffers are live.
    A mean with a cell past float64 is refused, a ValueError naming the
    peak; one that float64 holds is returned, whatever a frame's sum |V_g|."""
    if taper_count < MULTITAPER_TAPERS[0]:
        raise ValueError(f"multitaper needs at least {MULTITAPER_TAPERS[0]} tapers")
    if method not in ("sst", "rm"):
        raise ValueError(f"method must be 'sst' or 'rm', got {method!r}")
    ladder = _hermite_ladder(duration_s, sig.rate, taper_count)
    return _sharpened(sig, ladder, hop, nfft, threshold, chunk, method, magnitude=True)


def tf_magnitude(sig: UniformSignal, method: str, window_s: float, hop: int,
                 nfft: int, tapers: int = 3, threshold: float = 0.0) -> TFRepresentation:
    """The real, nonnegative |matrix| of one of ``TF_METHODS`` on a
    ``window_s`` window: gaussian for 'stft', 'sst' and 'rm', ``tapers``
    Hermite tapers for the multitaper methods ('stft' has no threshold).
    The same values as the magnitude of the public transform; STFT and SST
    build the real matrix block by block and never a complex one."""
    if method in ("mt_sst", "mt_rm"):
        return multitaper(sig, window_s, tapers, hop, nfft, method[3:], threshold)
    if method not in TF_METHODS:
        raise ValueError(f"unknown method {method!r}")
    window = make_windows("gaussian", window_s, sig.rate)[0]
    if method == "stft":
        return _stft(sig, window, hop, nfft, 128, magnitude=True)
    if method == "rm":
        return reassign(sig, window, hop, nfft, threshold)
    return _sharpened(sig, window, hop, nfft, threshold, 128, method, magnitude=True)


def magnitude_rows(matrix: np.ndarray):
    """|matrix| of a TFRepresentation's matrix: a real one, a magnitude,
    as it is; a complex one by ``np.abs`` a block of rows at a time."""
    if np.isrealobj(matrix):
        return matrix
    return RowBlocks(matrix.shape, lambda a, b: np.abs(matrix[a:b]))


Display = NamedTuple("Display", [("rows", RowBlocks), ("q", float), ("floor", float),
                                 ("top", float)])


def display_rows(mag) -> Display:
    """The log display of the magnitude ``mag`` (an array or RowBlocks), its
    rows made a block at a time: max(1e-2, log(1 + min(|R|, q))) with q the
    99.8% quantile of |R| (zeros included) as ``np.quantile``, found in one
    read of |R|.  Its top, the display of q, is its maximum (NaN if q is)."""
    q = exact_quantile(mag, _DISPLAY_QUANTILE)

    def make(a: int, b: int) -> np.ndarray:
        out = np.minimum(mag[a:b], q)
        np.log1p(out, out=out)
        return np.maximum(_DISPLAY_FLOOR, out, out=out)

    return Display(RowBlocks(mag.shape, make), q, _DISPLAY_FLOOR,
                   np.maximum(_DISPLAY_FLOOR, np.log1p(q)))


@dataclass(frozen=True, eq=False)
class DisplayMatrix:
    """Log-scale display of a TF matrix, clipped at a high quantile."""

    matrix: np.ndarray
    quantile_q: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen(self.matrix))


def log_display(tfr: TFRepresentation) -> DisplayMatrix:
    """The whole ``display_rows`` display of |R| and its clip q, filled a
    block of rows at a time with no full-size |R|.  An empty matrix has no
    quantile: a ValueError."""
    rows, q, *_ = display_rows(magnitude_rows(tfr.matrix))
    out = rows.array()
    out.setflags(write=False)
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
    ridge only visits cells inside each frame's band, which must hold a bin
    and no NaN magnitude.  Returns the ridge frequency in Hz per frame.
    Ties break toward the lower frequency, so a zero matrix yields the
    lowest band bin.  A zero penalty makes the ridge each frame's band
    maximum, found directly; any penalty past which no jump can pay,
    ``inf`` included, gives the ridge with the fewest jumps.
    """
    if not jump_penalty >= 0.0:
        raise ValueError(f"jump_penalty must be >= 0, got {jump_penalty}")
    frames = tfr.time_axis.shape
    lo = np.broadcast_to(np.asarray(freq_min, dtype=float), frames)
    hi = np.broadcast_to(np.asarray(freq_max, dtype=float), frames)
    # each frame's band is the rows first .. end - 1; a NaN edge holds no bin
    first = np.searchsorted(tfr.freq_axis, lo, "left")
    end = np.searchsorted(tfr.freq_axis, hi, "right")
    has_bin = (first < end) & (lo <= hi)
    if not has_bin.all():
        t = int(np.argmin(has_bin))
        raise ValueError(f"frame {t}: band [{lo[t]}, {hi[t]}] Hz holds no bin")
    # the run of rows any band reaches: row offsets stay bin distances
    rows = slice(int(first.min()), int(end.max()))
    n_frames = frames[0]

    def band(r0: int, r1: int) -> np.ndarray:
        """|matrix| rows r0 .. r1 - 1, at -inf outside each frame's band;
        only the rows where the frames' bands differ need that mask."""
        mag = np.abs(tfr.matrix[r0:r1])
        for a, b in ((r0, min(r1, int(first.max()))), (max(r0, int(end.min())), r1)):
            if a < b:
                r = np.arange(a, b)[:, None]
                mag[a - r0:b - r0][(r < first) | (r >= end)] = -np.inf
        return mag

    # each frame's band maximum, a block of rows at a time so that the
    # temporaries stay in cache; a tie keeps the first row
    peak, hit = np.full(n_frames, -np.inf), np.zeros(n_frames, dtype=np.intp)
    nan = np.zeros(n_frames, dtype=bool)
    for r0 in range(rows.start, rows.stop, 256):
        mag = band(r0, min(r0 + 256, rows.stop))
        top = mag.max(axis=0)
        nan |= np.isnan(top)
        new = top > peak
        hit[new] = r0 + np.argmax(mag[:, new] == top[new], axis=0)
        peak[new] = top[new]
    if nan.any():
        raise ValueError(f"frame {int(np.argmax(nan))}: NaN magnitude inside the band")
    if jump_penalty == 0.0:
        return tfr.freq_axis[hit]

    # no jump pays past twice the summed band maxima (1 for a zero band), so a
    # larger penalty, inf included, is clamped there; band and penalty are
    # divided by a power of two (exact, short of subnormals) that keeps 8 *
    # frames * rows * the largest cell, and so every sum of the DP, finite
    mag = band(rows.start, rows.stop)
    scale = 2.0 ** min(0, 1023 - int(np.frexp(peak.max())[1])
                       - (8 * n_frames * mag.shape[0]).bit_length())
    mag *= scale
    penalty = min(jump_penalty * scale, 2.0 * float((peak * scale).sum()) or 1.0)
    acc = np.empty_like(mag)
    acc[:, 0] = mag[:, 0]
    for t in range(1, n_frames):
        prev = acc[:, t - 1] - acc[:, t - 1].max()  # bounded: no late-frame rounding
        acc[:, t] = mag[:, t] + _max_plus_l1(prev, penalty)

    path = np.empty(n_frames, dtype=np.intp)
    path[-1] = int(np.argmax(acc[:, -1]))
    offsets = np.arange(mag.shape[0])
    for t in range(n_frames - 2, -1, -1):
        path[t] = int(np.argmax(acc[:, t] - penalty * np.abs(offsets - path[t + 1])))
    return tfr.freq_axis[rows][path]
