"""Matrices read and made a block of rows at a time.

A product of a time-frequency magnitude (the magnitude masked above the
INF, or its log display) is a ``RowBlocks``: each block of rows is made
when it is read, so no full-size product is built.  ``row_blocks`` reads
an array or a RowBlocks by blocks of about ``_BLOCK_CELLS`` cells;
``exact_quantile`` and ``streamed_sum`` give numpy's quantile and sum of
values read that way, bit for bit, in a block's memory.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RowBlocks", "exact_quantile", "row_blocks", "streamed_sum"]

# matrix cells per block of rows: keeps a block's temporaries in cache
_BLOCK_CELLS = 1 << 15


class RowBlocks:
    """A (bins x frames) matrix made on demand a block of rows at a time,
    so that a product of a magnitude (masked above the INF, or its
    display) is never built in full: ``blocks[a:b]`` is rows a .. b - 1,
    from ``make(a, b)``, for reading only.  Its ``shape``, ``len`` and
    slicing by rows are the matrix's, so ``row_blocks`` and the file
    writers read it as they read an array."""

    def __init__(self, shape: tuple[int, int], make):
        self.shape, self._make = tuple(shape), make

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return self._make(start, max(start, stop))

    def array(self) -> np.ndarray:
        """The whole matrix, filled a block of rows at a time."""
        out = np.empty(self.shape, dtype=self[0:0].dtype)
        for start, block in row_blocks(self):
            out[start:start + len(block)] = block
        return out


def row_blocks(matrix):
    """Yield (start, rows start .. start + k - 1) of ``matrix``, an array
    or RowBlocks, over blocks of about ``_BLOCK_CELLS`` cells."""
    rows, cols = matrix.shape
    step = max(1, _BLOCK_CELLS // max(cols, 1))
    for start in range(0, rows, step):
        yield start, matrix[start:start + step]


def streamed_sum(chunks, count: int):
    """``np.sum`` of the concatenation of ``chunks``, 1-d float arrays of
    ``count`` values in all, bit for bit, holding about a block of values
    at a time.  numpy sums n values as a pairwise tree: halves of n // 2
    rounded down to a multiple of 8 values, down to leaves of at most 128
    values summed in one loop.  So every subtree of at most
    ``_BLOCK_CELLS`` (>= 128) values is one np.sum of its values."""
    chunks, rest = iter(chunks), np.empty(0)

    def take(n: int) -> np.ndarray:
        nonlocal rest
        parts, have = [rest], rest.size
        while have < n:
            parts.append(next(chunks))
            have += parts[-1].size
        values = np.concatenate(parts)
        rest = values[n:]
        return values[:n]

    return _pairwise_sum(count, take)


def _pairwise_sum(n: int, take):
    """np.sum's pairwise tree over the next ``n`` values from ``take``.  A
    module function, not a closure calling itself: such a closure is a
    reference cycle, and would keep ``take``, its chunks and the matrix they
    are read from alive until the cyclic GC runs."""
    if n <= _BLOCK_CELLS:
        return np.sum(take(n))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, take) + _pairwise_sum(n - half, take)


def _bit_blocks(mag):
    """The float64 bit patterns of each block of ``mag``, flat."""
    for _, block in row_blocks(mag):
        yield np.ascontiguousarray(block, dtype=float).view(np.uint64).ravel()


def exact_quantile(mag, q: float) -> float:
    """``np.quantile(mag, q)`` (linear, as float64) of the magnitudes
    ``mag``, an array or RowBlocks with no sign bit set, read a block at a
    time: memory for a block, never for the matrix.

    Such floats order as their uint64 bit patterns, NaN after inf as in
    np.partition.  A pass counts the patterns by their top 16 bits; while
    the bucket holding the lower order statistic holds more than a block's
    cells, the next pass counts that bucket's patterns by their next 16
    bits.  A last pass collects the bucket (and the least pattern above it
    when the upper statistic lies there) for np.partition.  The two order
    statistics then meet as in numpy's ``_lerp``, its form for t >= 0.5
    included; any NaN makes the quantile NaN."""
    n = mag.shape[0] * mag.shape[1]
    if n == 0:
        raise ValueError("empty TF matrix")
    # numpy's linear method: the index (n - 1) q between two order
    # statistics, both the last one at or past it (then t = index + 1)
    virtual = (n - 1) * q
    prev = math.floor(virtual) if virtual < n - 1 else -1
    low, high = (prev, prev + 1) if prev >= 0 else (n - 1, n - 1)
    t = virtual - prev

    # the bucket lo .. lo + 2**shift - 1 holds rank ``low``; ``below`` patterns precede it
    lo, shift, below, nan = 0, 64, 0, False
    while True:
        shift -= 16
        counts = np.zeros(1 << 16, dtype=np.int64)
        for bits in _bit_blocks(mag):
            if shift == 48:
                nan |= bool(bits.size) and bits.max() > _INF_BITS
            else:
                bits = bits[(bits >= lo) & (bits < lo + (1 << shift + 16))]
            digit = bits - np.uint64(lo)
            np.right_shift(digit, shift, out=digit)
            counts += np.bincount(digit.view(np.int64), minlength=1 << 16)
        if nan:
            return math.nan
        bucket = int(np.searchsorted(np.cumsum(counts), low - below, side="right"))
        below += int(counts[:bucket].sum())
        lo += bucket << shift
        if counts[bucket] <= _BLOCK_CELLS or shift == 0:
            break
    size, end = int(counts[bucket]), lo + (1 << shift)
    collect, beyond = size <= _BLOCK_CELLS, high - below >= size
    found, after = [], _NO_BITS
    if collect or beyond:
        for bits in _bit_blocks(mag):
            if collect:
                found.append(bits[(bits >= lo) & (bits < end)])
            if beyond:  # the least pattern past the bucket
                after = min(after, int(np.where(bits >= end, bits, _NO_BITS).min()))
    if collect:
        found = np.concatenate(found)
        ranks = sorted({low - below, min(high - below, size - 1)})
        found.partition(ranks)
        lo_bits, hi_bits = int(found[low - below]), int(found[ranks[-1]])
    else:  # at the last digit a bucket is one pattern
        lo_bits = hi_bits = lo
    if beyond:
        hi_bits = after
    a, b = np.array([lo_bits, hi_bits], dtype=np.uint64).view(float)
    with np.errstate(invalid="ignore"):  # inf - inf, as in np.quantile
        diff = b - a
        return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


_INF_BITS = int(np.array(np.inf).view(np.uint64))
_NO_BITS = (1 << 64) - 1  # above every pattern of a nonnegative float
