"""Matrices read and made a block of rows at a time.

A product of a time-frequency magnitude (the magnitude masked above the
INF, or its log display) is a ``RowBlocks``: each block of rows is made
when it is read, so no full-size product is built.  ``row_blocks`` reads
an array or a RowBlocks by blocks of about ``_BLOCK_CELLS`` cells;
``exact_quantile`` gives numpy's quantile of values read that way, bit for
bit, without holding the matrix.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RowBlocks", "exact_quantile", "row_blocks"]

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


def exact_quantile(mag, q: float) -> float:
    """``np.quantile(mag, q)`` (linear, as float64) of the values ``mag``,
    an array or RowBlocks, from one read by blocks, holding a block and the
    n - low largest values, about (1 - q) n: 0.2% of the cells at q = 0.998.

    low is the rank of the lower order statistic.  Once n - low values are
    kept, a block's values at or below the least kept one cannot change
    them and are dropped; np.partition cuts the rest and the kept ones back
    to n - low.  NaN sorts last there, so it is never dropped, and a kept
    NaN makes the quantile NaN.  The two least kept values meet as in
    numpy's ``_lerp``, its form for t >= 0.5 included.  Of tied 0.0 and
    -0.0 either may be picked, as partition does not order them; a real
    ``TFRepresentation`` matrix, a magnitude, holds no -0.0."""
    n = mag.shape[0] * mag.shape[1]
    if n == 0:
        raise ValueError("empty TF matrix")
    # numpy's linear method: the index (n - 1) q between two order
    # statistics, both the last one at or past it (then t = index + 1)
    virtual = (n - 1) * q
    prev = math.floor(virtual) if virtual < n - 1 else -1
    low, high = (prev, prev + 1) if prev >= 0 else (n - 1, n - 1)
    t = virtual - prev

    keep, top = n - low, np.empty(0)
    for _, block in row_blocks(mag):
        values = block.ravel()
        if top.size == keep:
            values = values[~(values <= top[0])]  # not values > top[0]: NaN stays
        top = np.concatenate((top, values))
        if top.size >= keep:  # the least kept value goes first
            top = np.partition(top, top.size - keep)[top.size - keep:]
    if np.isnan(top).any():
        return math.nan
    top.partition(high - low)
    a, b = top[0], top[high - low]
    with np.errstate(invalid="ignore"):  # inf - inf, as in np.quantile
        diff = b - a
        return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
