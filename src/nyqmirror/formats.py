"""The artifact encoders and readers.  Each writer encodes one artifact's
bytes into a binary stream ``fh`` that its caller opened; the readers read
back what the writers wrote.

Output formats: CSV (metadata lines starting with ``#``, ``# key=value``,
then an RFC 4180 body: numbers printed as ``%.17g``, rows ending in
CRLF), TFR1 binary (magic ``TFR1``, little-endian uint64 dims
``freq_bins, frames``, float64 frequency axis, float64 time axis, then
row-major float64 magnitudes; the reader checks the file length against
the dims), and 8-bit binary PGM (P5) images of the log-scale display
matrix (the display's floor maps to 0, its top to 255, linear in between;
row 0 is the highest frequency).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .rowblocks import row_blocks
from .spline_interp import UniformSignal

__all__ = ["fmt", "read_tfr_binary", "read_uniform_csv", "write_curve_csv",
           "write_json", "write_pgm", "write_tfr_binary", "write_tfr_csv",
           "write_uniform_csv"]


def write_json(fh, obj: dict):
    """A JSON report: keys sorted, two-space indent, one final newline."""
    fh.write(json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def fmt(x: float) -> str:
    """``x`` as every artifact prints a float: ``format(x, ".17g")``."""
    return format(float(x), ".17g")


def _meta_lines(meta: dict) -> str:
    lines = [f"# artifact=nyqmirror {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    return "\n".join(lines) + "\n"


# _write_csv: about _CSV_BLOCK_OWN cells not low per block, at most
# _CSV_BLOCK_CELLS cells, and the |x| range of its own digits (where x *
# 10**(16 - e), e the exponent, and the Dekker halves stay normal)
_CSV_BLOCK_OWN = 1 << 13
_CSV_BLOCK_CELLS = 1 << 15
_CSV_FAST = (1e-280, 1e280)
_POW10_E = 282


@functools.cache
def _csv_pow10() -> np.ndarray:
    """Columns e + _POW10_E: the Dekker halves of hi, the double nearest
    10**(16 - e), and its rest to 3 ulp (0 where 10**(16 - e) is a double)."""
    hi, lo, n = [], [], 10 ** (16 + _POW10_E)
    while n:  # 10**k for k = 16 + _POW10_E .. 0
        hi.append(float(n))  # correctly rounded
        lo.append(float(n - int(hi[-1])))
        n //= 10
    n = 1
    for _ in range(_POW10_E - 16):  # 10**-k for k = 1 .. _POW10_E - 16
        n *= 10
        hi.append(1 / n)  # correctly rounded
        m, d = hi[-1].as_integer_ratio()
        lo.append(float(d - m * n) / n / d)
    hi, lo = np.array(hi), np.array(lo)
    high = hi * 134217729.0  # 2**27 + 1
    high -= high - hi
    return np.stack([high, hi - high, lo])


@functools.cache
def _csv_layouts():
    """A cell's text is its 36-byte slot under a mask.  The slot holds the
    prefix (lead, sign, "0." and zeros) ending at byte 10, d0 at 10, "." at
    11, d1 to d16 at 12 to 27, "e+" or "e-" at 28 and the exponent's 4 digits
    at 32 to 35.  Returns 0000 to 9999 as ASCII in a uint32; each exponent's
    class (index e + 300): e + 4 in %g's fixed range -4 <= e <= 16, then
    e+ddd, e+dd, e-dd, e-ddd; slot columns 0 to 2 per prefix (lead * 2 +
    negative) * 25 + class, and 7 and 8 per e + 300; per layout prefix * 17
    + digits - 1 the text's byte mask, its length, and whether d1..d_e move
    one byte left onto the "." (fixed notation, 1 <= e, digits after it)."""
    ascii4, digit = np.empty((10, 10, 10, 10, 4), np.uint8), np.arange(48, 58, dtype=np.uint8)
    for j in range(4):  # thousands first
        ascii4[..., j] = digit.reshape(10, *[1] * (3 - j))
    ascii4 = ascii4.view(np.uint32).ravel()
    e = np.arange(-300, 301)
    kind = np.where((e >= -4) & (e <= 16), e + 4, 21 + (e <= 99) + (e <= 0) + (e <= -100))
    tail = np.zeros((601, 8), np.uint8)
    tail[:, 0], tail[:, 1] = 101, np.where(e < 0, 45, 43)  # "e-", "e+"
    tail = tail.view(np.uint32)
    tail[:, 1] = ascii4.take(abs(e))
    # the prefix, r bytes before d0: "0." and its zeros (z bytes), the sign,
    # then the lead ("," or CRLF)
    k, c, b = np.ogrid[:4, :25, :12]  # lead * 2 + negative, class, byte
    r, z = 9 - b, np.where(c < 4, 5 - c, 0)
    s = z + k % 2
    prefix = np.select([b == 11, r < 0, r < z, r < s, r == s, r == s + 1],
                       [46, 0, np.where(r == z - 2, 46, 48), 45, np.where(k < 2, 44, 10),
                        np.where(k < 2, 0, 13)]).astype(np.uint8)
    c, n, b = np.ogrid[:25, 1:18, :36]  # class, digits, byte
    w = np.where(c < 4, n, np.where(c <= 20, c - 3, 1))  # the digits before the "."
    mask = (b >= 10 - np.count_nonzero(prefix[..., :10], axis=2)[..., None, None]) \
        & (b <= 10 + np.maximum(n, w)) & ((b != 11) | (n > w)) \
        | (c > 20) & ((b == 28) | (b == 29) | (b >= 33 + ((c == 22) | (c == 23))))
    mask = mask.reshape(-1, 36)
    shift = np.broadcast_to((c >= 5) & (c <= 20) & (n > w), (4, 25, 17, 1))
    return (ascii4, kind, prefix.view(np.uint32).reshape(-1, 3).T.copy(), tail.T.copy(),
            mask, np.count_nonzero(mask, axis=1), shift.ravel())


def _scaled_pow10(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) as p = fl(a * hi) plus the rest q, which is exact
    (Dekker's product) where 10**(16 - e) is a double."""
    high, low, lo = _csv_pow10().take(e + _POW10_E, axis=1)
    p = a * (high + low)
    a_high = a * 134217729.0
    a_high -= a_high - a
    a_low = a - a_high
    return p, ((a_high * high - p) + a_high * low + a_low * high
               + a_low * low + a * lo)


def _csv_numbers(x: np.ndarray, lead: np.ndarray):
    """``format(v, ".17g")`` of each float in ``x`` after "\r\n" where
    ``lead``, else ",": 36-byte slots, each slot's text mask and length."""
    ascii4, kind, prefix, tail, text_mask, length, shift = _csv_layouts()
    a = np.abs(x)
    fast = (a >= _CSV_FAST[0]) & (a <= _CSV_FAST[1])
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # off by at most one
    p, q = _scaled_pow10(a, e)
    step = ((p > 1e17) | (p == 1e17) & (q >= 0)).view(np.int8) \
        - ((p < 1e16) | (p == 1e16) & (q < 0)).view(np.int8)
    if (fix := step.nonzero()[0]).size:
        e[fix] += step[fix]
        p[fix], q[fix] = _scaled_pow10(a[fix], e[fix])
    del a, step
    # p is an even integer from 2**53 on, so rint's half-even rounds p + q.
    # Where 10**(16 - e) = hi + lo + d is no double (|d| <= 3 * 2**-106 hi),
    # p + q < 2**57 errs by at most 5 * 2**-49 (a lo and q, both < 32, round
    # by 2**-49 at most): a q within 2**-46 of a half takes ``format``.
    rounded = np.rint(q)
    fast &= (e >= -6) & (e <= 16) | (abs(q - rounded) < 0.5 - 2.0 ** -46)
    digits = p.astype(np.int64)
    digits += rounded.astype(np.int64)
    del p, q, rounded
    top = digits == 10 ** 17  # rounded up to the next power of ten
    e += top
    digits[top] = 10 ** 16
    del top
    key = (lead * 2 + (x < 0)) * 25 + kind.take(e + 300)  # its prefix's row
    slots = np.empty((x.size, 9), np.uint32)
    for j in range(3):
        slots[:, j] = prefix[j].take(key)
    slots[:, 7], slots[:, 8] = tail.take(e + 300, axis=1)
    for j in range(6, 2, -1):  # d1..d16, the last four first
        rest = digits // 10**4  # by a scalar: faster than np.divmod
        digits -= rest * 10**4
        slots[:, j] = ascii4.take(digits)
        digits = rest
    rows = slots.view(np.uint8)
    rows[:, 10] = digits + 48  # d0
    del digits, rest
    zeros = (rows[:, 27:10:-1] != 48).argmax(axis=1)  # trailing, of 17 digits
    layout = key * 17 + 16 - zeros
    del key, zeros
    if (mid := shift.take(layout).nonzero()[0]).size:  # d1..d_e onto the "."
        row, point = rows[mid, 11:28], e[mid]
        row[:, :16] = np.where(np.arange(16) < point[:, None], row[:, 1:], row[:, :16])
        row[np.arange(mid.size), point] = 46
        rows[mid, 11:28] = row
    cells = rows, text_mask.take(layout, 0), length.take(layout)
    if (slow := (~fast).nonzero()[0]).size:  # 0, NaN, inf, extremes, ties
        cells = _put_text(cells, slow, [("\r\n" if first else ",") + fmt(v)
                                        for v, first in zip(x[slow], lead[slow])])
    return cells


def _put_text(cells, where: np.ndarray, texts: list[str]):
    """``cells`` (as from _csv_numbers) with ``texts`` left-aligned in slots
    ``where``."""
    text = np.array([t.encode("utf-8") for t in texts])
    rows, mask, length = cells
    if text.itemsize > rows.shape[1]:
        pad = ((0, 0), (0, text.itemsize - rows.shape[1]))
        rows, mask = np.pad(rows, pad), np.pad(mask, pad)
    rows[where, :text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)
    length[where] = [len(t) for t in text]
    mask[where] = np.arange(rows.shape[1]) < length[where, None]
    return rows, mask, length


def _write_csv(fh, meta: dict, header: str, first: np.ndarray,
               body: np.ndarray, low: float = math.nan):
    """Every CSV: the metadata lines, the ``header`` row, then one row per
    entry of the column ``first`` (numbers or text) followed by that row of
    the float matrix ``body``, every number as ``format(x, ".17g")``.  A
    ``body`` cell with the float64 bits of ``low`` (sharpened and masked
    matrices are mostly zeros, display matrices mostly their floor; equal
    bits format alike, so 0.0 and -0.0 stay apart) is one constant text,
    and in a block whose rows are all low past their first cell each row is
    its first cell's text and one constant row; _csv_numbers writes the
    others, CRLF as each row's prefix."""
    rows, cols = body.shape
    text_first = first.dtype.kind == "U"
    low_text, low_bits = ("," + fmt(low)).encode(), np.float64(low).view(np.int64)
    low_row = low_text * cols
    fill = np.empty(0, np.uint8)  # low texts, as many as a block has needed
    fh.write((_meta_lines(meta) + header).encode("utf-8"))
    start, step = 0, max(1, _CSV_BLOCK_OWN // (cols + 1))
    while start < rows:
        block = body[start:start + step]
        head = first[start:start + len(block)]
        bits = np.asarray(block, float).view(np.int64)
        own = np.concatenate([np.ones((len(block), 1), bool), bits != low_bits], 1).ravel()
        where = own.nonzero()[0]  # the cells not low
        if where.size == len(block):  # only the first cells
            fh.write(b"".join(("\r\n" + (v if text_first else fmt(v))).encode() + low_row
                              for v in head))
        else:
            lead = np.zeros(where.size, bool)  # a row's first cell
            lead[where.searchsorted(np.arange(0, own.size, cols + 1))] = True
            slots, mask, size = _csv_numbers(np.column_stack(
                [np.ones(len(block)) if text_first else head, block]).ravel()[where], lead)
            if text_first:
                slots, mask, size = _put_text((slots, mask, size), lead.nonzero()[0],
                                              ["\r\n" + t for t in head])
            text = slots[mask]
            del slots, mask  # before the merge's byte arrays
            if where.size < own.size:  # merge with the low text
                sizes = np.full(own.size, len(low_text))
                sizes[where] = size
                mine = np.repeat(own, sizes)
                text, own_text = np.empty(mine.size, dtype=np.uint8), text
                text[mine] = own_text
                del sizes, own_text
                count = own.size - where.size
                if fill.size < count * len(low_text):
                    fill = np.frombuffer(low_text * count, np.uint8)
                text[np.logical_not(mine, out=mine)] = fill[:count * len(low_text)]
                del mine
            fh.write(text)
            del text, size  # before the next block's
        start, step = start + len(block), max(1, min(  # at this block's share of own
            _CSV_BLOCK_CELLS, _CSV_BLOCK_OWN * own.size // where.size) // (cols + 1))
    fh.write(b"\r\n")


def write_curve_csv(fh, columns: dict[str, np.ndarray], meta: dict):
    """Equal-length columns, in order; only the first may hold text."""
    names = list(columns)
    body = np.column_stack([np.asarray(columns[n], dtype=float) for n in names[1:]])
    _write_csv(fh, meta, ",".join(names), np.asarray(columns[names[0]]), body)


def read_uniform_csv(path: Path) -> UniformSignal:
    """Read back a uniform-signal CSV produced by this tool."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    meta = {}
    values = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            if "=" in line:
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            continue
        if not line or line.startswith("time_s"):
            continue
        value = line.split(",")[-1]
        try:
            values.append(float(value))
        except ValueError:
            raise ValueError(f"{path}, line {number}: value {value!r} is not a "
                             f"number") from None
    if "rate_hz" not in meta:
        raise ValueError(f"{path} lacks the rate_hz metadata of a uniform signal")
    header = {}
    for key in ("rate_hz", "t_start_s"):
        try:
            header[key] = float(meta.get(key, 0.0))
        except ValueError:
            raise ValueError(f"{path}: {key}={meta[key]} is not a number") from None
    try:
        return UniformSignal(np.asarray(values), header["rate_hz"], header["t_start_s"])
    except ValueError as exc:
        # name the header lines whose values the signal refused
        bad = [f"{k}={meta[k]}" for k, v in header.items() if not math.isfinite(v)]
        raise ValueError(": ".join([str(path), *bad, str(exc)])) from None


def write_uniform_csv(fh, sig: UniformSignal, meta: dict):
    write_curve_csv(fh, {"time_s": sig.times, "value": sig.values},
                    {**meta, "rate_hz": fmt(sig.rate), "t_start_s": fmt(sig.t_start)})


def write_tfr_binary(fh, matrix, freq_axis, time_axis):
    fh.write(b"TFR1" + np.asarray(matrix.shape, dtype="<u8").tobytes())
    fh.write(freq_axis.astype("<f8").tobytes())
    fh.write(time_axis.astype("<f8").tobytes())
    for _, block in row_blocks(matrix):  # no full-size copy
        fh.write(block.astype("<f8", copy=False))


def read_tfr_binary(path: Path):
    raw = path.read_bytes()
    if len(raw) < 20 or raw[:4] != b"TFR1":
        raise ValueError(f"{path} is not a TFR1 file")
    bins, frames = (int(n) for n in np.frombuffer(raw, dtype="<u8", count=2,
                                                   offset=4))
    want = 20 + 8 * (bins + frames + bins * frames)
    if len(raw) != want:
        raise ValueError(f"{path}: a {bins} x {frames} TFR1 file has {want} "
                         f"bytes, this one has {len(raw)}")
    off = 4 + 16
    freq = np.frombuffer(raw, dtype="<f8", count=bins, offset=off)
    off += bins * 8
    times = np.frombuffer(raw, dtype="<f8", count=frames, offset=off)
    off += frames * 8
    mat = np.frombuffer(raw, dtype="<f8", offset=off).reshape(bins, frames)
    return mat, freq, times


def write_tfr_csv(fh, matrix, freq_axis, time_axis, meta: dict, low: float = math.nan):
    """The CSV of the magnitude ``matrix``; its cells with the bits of ``low``, the
    product's common value, take one constant text: no ``low`` changes a byte."""
    _write_csv(fh, meta, "freq_hz," + ",".join(fmt(t) for t in time_axis),
               freq_axis, matrix, low)


def write_pgm(fh, display, meta: dict) -> None:
    """The 8-bit PGM of a ``tf_analysis.display_rows`` display: its floor
    maps to 0 and its top to 255, linear in between."""
    matrix, floor, span = display.rows, display.floor, display.top - display.floor
    pixels = np.zeros(matrix.shape, dtype=np.uint8)
    flipped = pixels[::-1]  # highest frequency on top
    if not span <= 0.0:
        # rint((matrix - floor) / span * 255) in place, a block of rows at a
        # time: no full-size float temporary
        for start, block in row_blocks(matrix):
            scaled = np.subtract(block, floor)
            np.divide(scaled, span, out=scaled)
            np.multiply(scaled, 255.0, out=scaled)
            flipped[start:start + len(block)] = np.rint(scaled, out=scaled)
    brief = " ".join(f"{k}={meta[k]}" for k in ("method", "window_s", "hop"))
    fh.write(f"P5\n# artifact=nyqmirror {__version__} {brief}\n"
             f"{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii"))
    fh.write(pixels)
