"""Row blocks: numpy's quantile, bit for bit, in a block's memory."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nyqmirror import rowblocks
from nyqmirror.rowblocks import RowBlocks, exact_quantile, row_blocks

_TOP = 0x7FFFFFFFFFFFFFFF  # the largest nonnegative pattern, a NaN
# 0, the least subnormal, the largest subnormal, the least normal, 1, the
# largest finite, inf and a quiet NaN
_SPECIAL = [0, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x3FF0000000000000,
            0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF8000000000000]


@st.composite
def magnitudes(draw):
    """A nonnegative float64 matrix from bit patterns: raw ones (NaNs,
    above inf, included), ones near a drawn pattern (many in one bucket at
    the first digits), the special values, and repeats of a few (ties)."""
    base = draw(st.integers(0, _TOP))
    pattern = st.one_of(st.integers(0, _TOP),
                        st.integers(0, 1 << 20).map(lambda d: min(base + d, _TOP)),
                        st.sampled_from(_SPECIAL))
    bits = draw(st.lists(pattern, min_size=1, max_size=60))
    if draw(st.booleans()):
        bits = bits[:draw(st.integers(1, 3))] * draw(st.integers(1, 40))
    cols = draw(st.sampled_from([c for c in range(1, 7) if len(bits) % c == 0]))
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)


def _same(got: float, want: float) -> bool:
    return math.isnan(got) and math.isnan(want) or \
        np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@settings(max_examples=400, deadline=None)
@given(mag=magnitudes(), cells=st.sampled_from([1, 4, 16, 1 << 15]))
@example(mag=np.zeros((1, 1)), cells=1)                       # one cell
@example(mag=np.full((7, 1), np.inf), cells=1)                # inf - inf in the lerp
@example(mag=np.full((300, 2), 5e-324), cells=4)              # all equal, subnormal
@example(mag=np.r_[np.zeros(998), 1.0, 2.0].reshape(50, 20), cells=16)
def test_exact_quantile_is_numpy_quantile(mag, cells):
    # small blocks take every path: a kept set filled over several blocks,
    # blocks dropped whole by the least kept value, and ties across blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowblocks, "_BLOCK_CELLS", cells)
        got = exact_quantile(mag, 0.998)
        lazy = exact_quantile(RowBlocks(mag.shape, lambda a, b: mag[a:b].copy()), 0.998)
    with np.errstate(invalid="ignore"):  # inf - inf
        want = float(np.quantile(mag.ravel(), 0.998))
    assert _same(got, want) and _same(lazy, want), (got, lazy, want)


def test_exact_quantile_reads_each_block_once():
    mat = np.random.default_rng(26).lognormal(0.0, 2.0, (40, 7))
    made = []
    lazy = RowBlocks(mat.shape, lambda a, b: made.append(a) or mat[a:b])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowblocks, "_BLOCK_CELLS", 21)
        got = exact_quantile(lazy, 0.998)
    assert _same(got, float(np.quantile(mat, 0.998)))
    assert made == list(range(0, 40, 3))


def test_row_blocks_cover_the_matrix_once():
    mat = np.arange(70.0).reshape(14, 5)
    made = []
    lazy = RowBlocks(mat.shape, lambda a, b: made.append((a, b)) or mat[a:b] * 2.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rowblocks, "_BLOCK_CELLS", 12)
        starts = [start for start, _ in row_blocks(lazy)]
        whole = lazy.array()
    assert starts == [0, 2, 4, 6, 8, 10, 12]
    np.testing.assert_array_equal(whole, mat * 2.0)
    assert len(lazy) == 14 and lazy[12:99].shape == (2, 5) and lazy[5:3].shape == (0, 5)
    assert made[-2:] == [(12, 14), (5, 5)]
