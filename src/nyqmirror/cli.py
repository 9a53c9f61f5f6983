"""Command-line surface: ``nyqmirror simulate|tfr|predict|physio``.

Runs are driven by a JSON config, overridden by ``--set key=value``
assignments and ``--out``.  Every key has a default, a type and, where
it applies, choices and bounds (see the README); a value outside them is
a config error that names the key.  Every command writes only the files
whose format is in ``output.formats``, plus its JSON reports, and prints
their paths in write order.  Output files are written atomically, embed
a metadata header naming what ran (each pipeline stage returns its own)
and are bit-reproducible (no wall clock, no RNG).
Every product of a TF matrix is a magnitude: the analysis stage gets the
real magnitude from ``tf_analysis.tf_magnitude`` (the library transforms
stay complex; the SST never builds its complex matrix here), and the run
keeps that one real matrix: its masked and display products are made from
it a block of rows at a time, never in full.

Exit codes: 0 success, 1 usage/config error, 2 data error.

Output formats: CSV (metadata lines starting with ``#``, ``# key=value``,
then an RFC 4180 body: numbers printed as ``%.17g``, rows ending in
CRLF), TFR1 binary (magic ``TFR1``, little-endian uint64 dims
``freq_bins, frames``, float64 frequency axis, float64 time axis, then
row-major float64 magnitudes; the reader checks the file length against
the dims), and 8-bit binary PGM (P5) images of the log-scale display
matrix (1e-2 maps to 0, the display maximum to 255, linear in between;
row 0 is the highest frequency).  Every artifact gets mode
``0666 & ~umask``, as a plain ``open`` would give it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .mitigation import above_inf_rows, inf_masked_rows, lowpass_prefilter
from .physio_io import edr_signal, ihr_signal, parse_rpeaks, synth_rpeaks
from .reflection import (
    above_inf_energy_ratio,
    predict_components,
    verify_reflection_theorem,
)
from .rowblocks import row_blocks
from .sampling import cosine_warp, estimate_isr, quadratic_warp, sample_signal
from .signal_model import Scenario, builtin_scenario, harmonic
from .spline_interp import (
    UniformSignal,
    interpolate_nonuniform,
    interpolate_pchip,
    resample_uniform,
)
from .tf_analysis import (
    MULTITAPER_TAPERS,
    TF_METHODS,
    TFRepresentation,
    display_rows,
    ridge_extract,
    tf_magnitude,
)

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "main",
    "scenario_from_config",
]


class ConfigError(Exception):
    """Unusable configuration or command line (exit code 1)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_MISSING = object()  # the value of an object key left out, if it has no default
# bounds on work: spline collocation fails its 1e12 condition check near
# order 40 on fig2, and predict costs about 10 ms per reflection order k
_MAX_ORDER = 31
_MAX_K = 64


class _Leaf(NamedTuple):
    """One config value: its default, its ``kind`` (a tuple of types; by
    default the type of the default), the ``choices`` of a string or of
    each list item, the inclusive bounds ``lo``/``hi`` of a number
    (``positive``: above 0), and the keys of an object, as ``fields`` or
    as ``variants`` picked by its ``kind`` key.  It may be null only if
    its default is.  ``_typed`` checks a value against it."""

    default: object
    kind: tuple = ()
    choices: tuple = ()
    lo: float = -math.inf
    hi: float = math.inf
    positive: bool = False
    fields: dict | None = None
    variants: dict | None = None


_POSITIVE = _Leaf(_MISSING, (float,), positive=True)
_SCENARIO_FIELDS = {
    "signal": _Leaf(_MISSING, (dict,), variants={"harmonic": {
        "freq_hz": _Leaf(1.0, positive=True), "amp": _Leaf(1.0, positive=True),
    }}),
    "scheme": _Leaf(_MISSING, (dict,), variants={
        "uniform": {"rate_hz": _Leaf(8.0, positive=True)},
        "cosine": {"base_hz": _Leaf(8.0), "depth_hz": _Leaf(0.5),
                   "period_s": _Leaf(20.0, positive=True)},
        "quadratic": {"base_hz": _Leaf(6.0, positive=True),
                      "quad_denom": _Leaf(800.0, positive=True),
                      "t_center": _Leaf(0.0)},
    }),
    "duration_s": _POSITIVE,
    "resample_hz": _POSITIVE,
}

# Every config key, "section.key" or a top-level key; unknown keys are rejected.
_LEAVES = {
    "scenario": _Leaf("fig1", (str, dict), ("fig1", "fig2"),
                      fields=_SCENARIO_FIELDS),
    "input": _Leaf(None, (str,)),
    "interpolation.scheme": _Leaf("bspline", choices=("bspline", "pchip")),
    "interpolation.order": _Leaf(3, lo=1, hi=_MAX_ORDER),
    "analysis.method": _Leaf("sst", choices=TF_METHODS),
    "analysis.window_s": _Leaf(10.0, positive=True),
    "analysis.hop": _Leaf(None, (int,), lo=1, hi=sys.maxsize),   # None: 8 frames/s
    "analysis.nfft": _Leaf(None, (int,), lo=1, hi=sys.maxsize),  # None: >= 16x window
    "analysis.tapers": _Leaf(3, lo=MULTITAPER_TAPERS[0], hi=MULTITAPER_TAPERS[1]),
    # at 1 the floor is max|V_g| and the transform is all zeros
    "analysis.threshold": _Leaf(1e-8, lo=0.0, hi=math.nextafter(1.0, 0.0)),
    "mitigation.inf_mask": _Leaf(False),
    "mitigation.lowpass": _Leaf(None, (dict,), fields={"cutoff_hz": _POSITIVE,
                                                    "transition_hz": _POSITIVE}),
    "physio.rate_hz": _Leaf(8.0, positive=True),
    "physio.edr_scheme": _Leaf("cubic", (str, int), ("cubic", "pchip"), lo=1,
                               hi=_MAX_ORDER),
    "physio.synth": _Leaf(None, (dict,), fields={
        "ihr_hz": _Leaf(1.4, positive=True), "resp_hz": _Leaf(0.5),
        "duration_s": _Leaf(240.0, positive=True), "modulation_depth": _Leaf(0.1),
    }),
    "predict.k_min": _Leaf(-1, lo=-_MAX_K, hi=0),
    "predict.k_max": _Leaf(3, lo=0, hi=_MAX_K),
    "output.directory": _Leaf("out"),
    "output.formats": _Leaf(["csv", "tfr1", "pgm"], choices=("csv", "tfr1", "pgm")),
}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "an object"}


def _nest(flat: dict) -> dict:
    """``{"section.key": value}`` as ``{"section": {"key": value}}``."""
    nested = {}
    for where, value in flat.items():
        section, _, key = where.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[key] = value
    return nested


DEFAULT_CONFIG = _nest({where: leaf.default for where, leaf in _LEAVES.items()})


def _typed(value, leaf: _Leaf, where: str):
    """``value`` as the type ``leaf`` allows (an integral number as an int,
    an int as a float, an object with its defaults filled in) and within
    its choices and bounds; anything else is a ConfigError naming ``where``."""
    kinds = leaf.kind or (type(leaf.default),)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and float in kinds and abs(value) <= sys.float_info.max:
        value = float(value)
    elif number and int in kinds and (isinstance(value, int) or value.is_integer()):
        value = int(value)
    elif isinstance(value, list) and list in kinds:
        item = _Leaf(_MISSING, (str,), leaf.choices)
        return [_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    elif isinstance(value, dict) and dict in kinds:
        return _typed_object(value, leaf, where)
    elif number or not (value is None and leaf.default is None or type(value) in kinds):
        names = [_KIND_NAMES[k] for k in kinds] + ["null"] * (leaf.default is None)
        got = "nothing" if value is _MISSING else json.dumps(value)
        raise ConfigError(f"{where} must be {' or '.join(names)}, got {got}")
    if isinstance(value, str) and leaf.choices and value not in leaf.choices:
        raise ConfigError(f"{where} must be one of {', '.join(leaf.choices)}, "
                          f"got {json.dumps(value)}")
    if number and (not leaf.lo <= value <= leaf.hi or leaf.positive and value <= 0):
        bounds = "> 0" if leaf.positive else f"in [{leaf.lo}, {leaf.hi}]"
        raise ConfigError(f"{where} must be {bounds}, got {value}")
    return value


def _typed_object(obj: dict, leaf: _Leaf, where: str) -> dict:
    fields = leaf.fields
    if leaf.variants:
        kind = _Leaf(_MISSING, (str,), tuple(leaf.variants))
        picked = _typed(obj.get("kind", _MISSING), kind, f"{where}.kind")
        fields = {"kind": kind, **leaf.variants[picked]}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key: {where}.{unknown[0]}")
    return {key: _typed(obj.get(key, field.default), field, f"{where}.{key}")
            for key, field in fields.items()}


def _assign(flat: dict, where: str, value):
    """Set the leaf ``where`` of the flat config ``flat``, or each key of
    the section ``where`` ("" for the root), as a config file sets it."""
    if where in flat:
        flat[where] = value
    elif where and not isinstance(DEFAULT_CONFIG.get(where), dict):
        raise ConfigError(f"unknown config key: {where}")
    elif not isinstance(value, dict):
        raise ConfigError(f"config section {where or '<root>'} must be an object")
    else:
        for key, item in value.items():
            name = f"{where}.{key}" if where else key
            if "." in key:  # dotted names are for --set only
                raise ConfigError(f"unknown config key: {name}")
            _assign(flat, name, item)


def load_config(path: str | None, overrides: list[str]) -> dict:
    """Defaults, overlaid with a JSON file and then key=value assignments;
    each leaf of the result is then checked once against its ``_LEAVES`` row."""
    flat = {where: leaf.default for where, leaf in _LEAVES.items()}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        _assign(flat, "", user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _assign(flat, dotted, value)  # like a config file: a section stays an object
    return _nest({where: _typed(flat[where], leaf, where)
                  for where, leaf in _LEAVES.items()})


def scenario_from_config(obj) -> Scenario:
    """Scenario from its config form, a builtin name or a parametric
    object, after checking it against the ``scenario`` row of ``_LEAVES``;
    the keys of a scheme object are its warp constructor's parameters."""
    obj = _typed(obj, _LEAVES["scenario"], "scenario")
    if isinstance(obj, str):
        return builtin_scenario(obj)
    kind, scheme = obj["scheme"]["kind"], dict(obj["scheme"])
    del scheme["kind"]
    if kind == "quadratic":
        warp = quadratic_warp(**scheme)
    elif kind == "uniform":
        warp = cosine_warp(scheme["rate_hz"], 0.0, 1.0)
    elif scheme["base_hz"] <= abs(scheme["depth_hz"]):
        raise ConfigError("scenario.scheme needs base_hz > |depth_hz|")
    else:
        warp = cosine_warp(**scheme)
    signal = harmonic(obj["signal"]["freq_hz"], obj["signal"]["amp"])
    return Scenario("custom", signal, warp, obj["duration_s"], obj["resample_hz"])


# ---------------------------------------------------------------------------
# output files: ``_Outputs.write`` opens and commits each one; the writers
# below only encode an artifact's bytes into the binary stream ``fh``
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _atomic_write(path: Path):
    """Yield a binary temp file beside ``path``; on success give it mode
    ``0666 & ~umask`` and rename it over ``path``, on failure remove it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp created it 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(fh, obj: dict):
    fh.write(json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def _fmt(x: float) -> str:
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
        cells = _put_text(cells, slow, [("\r\n" if first else ",") + _fmt(v)
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
    low_text, low_bits = ("," + _fmt(low)).encode(), np.float64(low).view(np.int64)
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
            fh.write(b"".join(("\r\n" + (v if text_first else _fmt(v))).encode() + low_row
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
        text = path.read_text(encoding="utf-8")
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
                    {**meta, "rate_hz": _fmt(sig.rate), "t_start_s": _fmt(sig.t_start)})


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


def _least(mag) -> float:
    """The least value of the magnitude ``mag`` (an array or RowBlocks),
    NaN cells skipped (NaN if all are)."""
    lows = [np.fmin.reduce(block, axis=None) for _, block in row_blocks(mag) if block.size]
    return np.fmin.reduce(lows) if lows else np.nan


def write_tfr_csv(fh, matrix, freq_axis, time_axis, meta: dict, low: float | None = None):
    """The CSV of the magnitude ``matrix``; ``low`` is its least value (NaN
    cells skipped) if the caller knows it, else it takes a pass of its own."""
    if low is None:
        low = _least(matrix)
    _write_csv(fh, meta, "freq_hz," + ",".join(_fmt(t) for t in time_axis),
               freq_axis, matrix, low)


def write_pgm(fh, display, meta: dict) -> None:
    """The 8-bit PGM of ``display_rows``' pair (rows, clip q).  Its span is
    the display's maximum less 1e-2: some cell has min(|R|, q) = q, as q is
    at most the upper order statistic, and the display is monotone, so the
    maximum is max(1e-2, log1p(q)), NaN when q is."""
    matrix, q = display
    span = np.maximum(1e-2, np.log1p(q)) - 1e-2
    pixels = np.zeros(matrix.shape, dtype=np.uint8)
    flipped = pixels[::-1]  # highest frequency on top
    if not span <= 0.0:
        # rint((matrix - 1e-2) / span * 255) in place, a block of rows at a
        # time: no full-size float temporary
        for start, block in row_blocks(matrix):
            scaled = np.subtract(block, 1e-2)
            np.divide(scaled, span, out=scaled)
            np.multiply(scaled, 255.0, out=scaled)
            flipped[start:start + len(block)] = np.rint(scaled, out=scaled)
    brief = " ".join(f"{k}={meta[k]}" for k in ("method", "window_s", "hop"))
    fh.write(f"P5\n# artifact=nyqmirror {__version__} {brief}\n"
             f"{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii"))
    fh.write(pixels)


class _Outputs:
    """The run's output sink: the directory, the requested
    ``output.formats`` and the paths written so far, in write order.
    ``write`` owns every artifact file; it writes one only if its suffix is
    a requested format, and JSON reports are always written."""

    def __init__(self, cfg: dict):
        self.directory = Path(cfg["output"]["directory"])
        self.formats = {*cfg["output"]["formats"], "json"}
        self.written: list[Path] = []

    def wants(self, *formats: str) -> bool:
        """Whether any of ``formats`` is requested: for skipping the work
        behind files that would not be written."""
        return not self.formats.isdisjoint(formats)

    def write(self, name: str, encode, *args):
        """If ``name``'s suffix is a requested format, ``encode(fh, *args)`` writes
        ``directory / name`` atomically; its path is recorded once committed."""
        path = self.directory / name
        if self.wants(path.suffix[1:]):
            with _atomic_write(path) as fh:
                encode(fh, *args)
            self.written += [path]


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _analysis_params(cfg, rate):
    ana = cfg["analysis"]
    # capped at sys.maxsize (the product may be inf); make_windows refuses it
    w_len = int(round(min(ana["window_s"] * rate, sys.maxsize))) | 1
    hop = ana["hop"] or max(1, int(round(rate / 8.0)))
    nfft = ana["nfft"] or 1 << int(np.ceil(np.log2(16.0 * w_len)))
    if nfft < w_len:
        raise ConfigError(f"analysis.nfft must be >= the window length "
                          f"({w_len} samples), got {nfft}")
    return ana["window_s"], hop, nfft


def _run_analysis(cfg, sig: UniformSignal) -> tuple[TFRepresentation, dict]:
    """The analysing commands' one TF stage: ``mitigation.lowpass``, the
    configured method and its magnitude, with the metadata of what ran."""
    ana, lowpass = cfg["analysis"], cfg["mitigation"]["lowpass"]
    if lowpass is not None:
        sig = lowpass_prefilter(sig, lowpass["cutoff_hz"], lowpass["transition_hz"])
    window_s, hop, nfft = _analysis_params(cfg, sig.rate)
    tfr = tf_magnitude(sig, ana["method"], window_s, hop, nfft, ana["tapers"],
                       ana["threshold"])
    ran = tfr.window_meta
    meta = {"method": tfr.method, "window": ran.family,
            "window_s": _fmt(ran.duration_s), "hop": ran.hop,
            "tapers": ran.taper_count, "nfft_bins": tfr.freq_axis.size,
            "lowpass": lowpass is not None}
    if tfr.method != "stft":  # the only method without a threshold
        meta["threshold"] = _fmt(ana["threshold"])
    return tfr, meta


def _scenario_pipeline(cfg):
    """The configured scenario, its samples, the interpolant, the resampled
    signal and the metadata naming the scenario and the interpolant (its
    order only for a B-spline)."""
    scenario = scenario_from_config(cfg["scenario"])
    samples = sample_signal(scenario.signal, scenario.scheme, 0.0,
                            scenario.duration_s)
    meta = {"scenario": scenario.name, "interpolation": cfg["interpolation"]["scheme"]}
    if meta["interpolation"] == "pchip":
        interp = interpolate_pchip(samples)
    else:
        meta["order"] = cfg["interpolation"]["order"]
        interp = interpolate_nonuniform(samples, meta["order"])
    sig = resample_uniform(interp, scenario.resample_hz,
                           samples.times[0], samples.times[-1])
    return scenario, samples, interp, sig, meta


def _write_tfr_products(outputs: _Outputs, stem: str, mag, axes, meta: dict,
                        display=None, low=None):
    """TFR1, CSV and PGM products of the magnitude ``mag``, an array or
    RowBlocks, on the (frequency, time) ``axes``; ``display`` is its
    ``display_rows`` and ``low`` its least value, when the caller already
    knows them."""
    outputs.write(f"{stem}.tfr1", write_tfr_binary, mag, *axes)
    outputs.write(f"{stem}.csv", write_tfr_csv, mag, *axes, meta, low)
    if outputs.wants("pgm"):
        outputs.write(f"{stem}.pgm", write_pgm,
                      display_rows(mag) if display is None else display, meta)


def _ridge_products(outputs: _Outputs, tfr, inf_curve, meta):
    """Ridge curves below and strictly above the INF overlay.

    A frame whose INF reaches the top bin has no bin above it; its
    above-INF ridge is written as NaN.
    """
    if not outputs.wants("csv"):
        return
    inf_vals = inf_curve(tfr.time_axis)
    df = tfr.freq_axis[1] - tfr.freq_axis[0]
    top = float(tfr.freq_axis[-1])
    ridge_lo = ridge_extract(tfr, df, max(float(inf_vals.min()), 2 * df), 0.0)
    # each frame's band starts strictly above its INF; a frame whose INF
    # reaches the top bin (resampled at or below the ISR) keeps that bin
    # for the ridge search and is then written as NaN
    ridge_hi = ridge_extract(tfr, np.minimum(np.nextafter(inf_vals, np.inf), top),
                             top, 0.0)
    ridge_hi = np.where(inf_vals >= top, np.nan, ridge_hi)
    for name, ridge in (("ridge_below_inf.csv", ridge_lo),
                        ("ridge_above_inf.csv", ridge_hi)):
        outputs.write(name, write_curve_csv,
                      {"time_s": tfr.time_axis, "freq_hz": ridge}, meta)


def _mask_products(outputs: _Outputs, stem: str, tfr, inf_curve, meta: dict):
    """Products of the magnitude ``tfr`` masked above the INF, under
    ``{stem}_masked``, then ``mask_report.json`` with the above-INF ratio
    before and after.  The masked magnitude is made a block of rows at a
    time for each product: never in full."""
    masked = inf_masked_rows(tfr, inf_curve)
    # a masked cell is 0.0, the least a magnitude can be; the top bin is
    # masked in some frame if any bin is
    low = 0.0 if above_inf_rows(tfr, inf_curve)[-1:].any() else None
    _write_tfr_products(outputs, f"{stem}_masked", masked, (tfr.freq_axis, tfr.time_axis),
                        {**meta, "inf_mask": True}, low=low)
    outputs.write("mask_report.json", _write_json, {
        "above_inf_ratio_before": above_inf_energy_ratio(tfr, inf_curve),
        "above_inf_ratio_after": _masked_ratio(masked),
    })


def _masked_ratio(masked) -> float:
    """``above_inf_energy_ratio`` of a matrix (an array or RowBlocks)
    masked above the INF: those cells are 0.0, so the ratio is 0.0 when
    every cell is finite, else NaN, which is 0.0 times the largest cell."""
    return 0.0 * float(np.max([block.max() for _, block in row_blocks(masked)]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: dict, outputs: _Outputs):
    scenario, samples, interp, sig, meta = _scenario_pipeline(cfg)
    grid = np.linspace(0.0, scenario.duration_s, 801)
    outputs.write("samples.csv", write_curve_csv,
                  {"time_s": samples.times, "value": samples.values}, meta)
    outputs.write("truth_if.csv", write_curve_csv,
                  {"time_s": grid, "if_hz": scenario.signal.iff(grid)}, meta)
    outputs.write("truth_isr.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": scenario.scheme.psi_prime(grid)}, meta)
    outputs.write("interpolated.csv", write_uniform_csv, sig, meta)

    # debugging dump of the interpolant internals (long format: the knot
    # sequence and, for B-splines, the basis coefficients)
    parts = [np.asarray(interp.knots, dtype=float)]
    if (coeffs := getattr(interp, "coefficients", None)) is not None:
        parts.append(np.asarray(coeffs, dtype=float))
    outputs.write("interpolant.csv", write_curve_csv,
                  {"kind": np.repeat(["knot", "coefficient"][:len(parts)],
                                     [len(part) for part in parts]),
                   "index": np.concatenate([np.arange(len(part)) for part in parts]),
                   "value": np.concatenate(parts)}, meta)


def cmd_tfr(cfg: dict, outputs: _Outputs):
    scenario, source = None, {}
    if cfg["input"]:
        if cfg["mitigation"]["inf_mask"]:
            raise ConfigError("mitigation.inf_mask needs a scenario: an input "
                              "signal has no INF to mask above")
        sig = read_uniform_csv(Path(cfg["input"]))
    else:
        scenario, _, _, sig, source = _scenario_pipeline(cfg)
    tfr, meta = _run_analysis(cfg, sig)
    meta.update(source)
    axes = tfr.freq_axis, tfr.time_axis
    disp = display_rows(tfr.matrix) if outputs.wants("csv", "pgm") else None
    low = _least(tfr.matrix) if outputs.wants("csv") else None
    _write_tfr_products(outputs, "tfr", tfr.matrix, axes, meta, disp, low)
    if outputs.wants("csv"):
        # the display is monotone in |R|: its least value is the display of
        # |R|'s, made by display_rows' ufuncs on a one-cell array
        shown = np.maximum(1e-2, np.log1p(np.minimum([low], disp[1])))[0]
        outputs.write("display.csv", write_tfr_csv, disp[0], *axes,
                      {**meta, "quantile_q": _fmt(disp[1])}, shown)
    if scenario is not None:
        inf_curve = scenario.scheme.inf
        outputs.write("inf.csv", write_curve_csv,
                      {"time_s": tfr.time_axis, "inf_hz": inf_curve(tfr.time_axis)},
                      meta)
        _ridge_products(outputs, tfr, inf_curve, meta)
        if cfg["mitigation"]["inf_mask"]:
            _mask_products(outputs, "tfr", tfr, inf_curve, meta)


def cmd_predict(cfg: dict, outputs: _Outputs):
    scenario = scenario_from_config(cfg["scenario"])
    order = cfg["interpolation"]["order"]
    k_min, k_max = cfg["predict"]["k_min"], cfg["predict"]["k_max"]
    # sampling first: it refuses an undefined rate before the curves meet it
    report = verify_reflection_theorem(
        scenario.signal, scenario.scheme, order, max(abs(k_min), abs(k_max)),
        scenario.resample_hz, (0.0, scenario.duration_s),
    )
    grid = np.linspace(0.0, scenario.duration_s, 801)
    comps = predict_components(scenario.signal, scenario.scheme, order,
                               (k_min, k_max), grid)
    # the image series is always the order-n B-spline's, whatever the
    # interpolation.scheme
    meta = {"scenario": scenario.name, "interpolation": "bspline", "order": order,
            "k_min": k_min, "k_max": k_max}
    if outputs.wants("csv"):
        comps = sorted(comps, key=lambda c: c.k)
        outputs.write("components.csv", write_curve_csv, {
            "k": np.repeat([comp.k for comp in comps], grid.size),
            "time_s": np.tile(grid, len(comps)),
            "if_hz": np.concatenate([comp.if_curve(grid) for comp in comps]),
            "amplitude": np.concatenate([comp.amp_curve(grid) for comp in comps]),
        }, meta)
    outputs.write("residual_report.json", _write_json, {
        "residual": report.residual,
        "order": report.order,
        "k_max": report.k_max,
        "rate_hz": report.rate,
        "span_s": list(report.span),
        "trimmed_span_s": list(report.trimmed_span),
    })


def cmd_physio(cfg: dict, outputs: _Outputs):
    phys = cfg["physio"]
    if cfg["input"]:
        path = Path(cfg["input"])
        try:
            rec = parse_rpeaks(path.read_bytes())
        except ValueError as exc:  # a decoding error included
            raise ValueError(f"{path}: {exc}") from None
    elif (synth := phys["synth"]) is not None:
        rec = synth_rpeaks(
            lambda t: np.full_like(t, synth["ihr_hz"]),
            lambda t: np.full_like(t, synth["resp_hz"]),
            synth["duration_s"], synth["modulation_depth"],
        )
    else:
        raise ConfigError("physio needs either input (R-peak CSV) or physio.synth")

    # everything that can refuse the run comes before the first file
    rate = phys["rate_hz"]
    est = estimate_isr(rec.times)
    grid = np.linspace(est.domain[0], est.domain[1], 801)
    ihr_sig = ihr_signal(rec, rate)
    if rec.amplitudes is not None:
        shaped = {"edr_scheme": phys["edr_scheme"]}  # only the EDR's artifacts
        target = edr_signal(rec, rate, phys["edr_scheme"])
        stem = "edr"
    else:
        shaped = {}
        target = UniformSignal(ihr_sig.values - np.mean(ihr_sig.values),
                               rate=ihr_sig.rate, t_start=ihr_sig.t_start)
        stem = "ihr_centered"
    tfr, meta = _run_analysis(cfg, target)
    meta.update(shaped)

    if not cfg["input"]:
        outputs.write("rpeaks.csv", write_curve_csv,
                      {"time_s": rec.times, "amplitude": rec.amplitudes}, {})
    outputs.write("isr_estimate.csv", write_curve_csv,
                  {"time_s": grid, "isr_hz": est.isr(grid)}, {})
    outputs.write("inf_estimate.csv", write_curve_csv,
                  {"time_s": grid, "inf_hz": est.inf(grid)}, {})
    outputs.write("ihr.csv", write_uniform_csv, ihr_sig, {})
    if stem == "edr":
        outputs.write("edr.csv", write_uniform_csv, target, shaped)
    _write_tfr_products(outputs, f"{stem}_tfr", tfr.matrix, (tfr.freq_axis, tfr.time_axis),
                        meta)
    if cfg["mitigation"]["inf_mask"]:
        _mask_products(outputs, f"{stem}_tfr", tfr, est.inf, meta)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nyqmirror", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("simulate", cmd_simulate), ("tfr", cmd_tfr),
                     ("predict", cmd_predict), ("physio", cmd_physio)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path)")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config, args.set)
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        outputs = _Outputs(cfg)
        args.fn(cfg, outputs)
    except ConfigError as exc:
        print(f"nyqmirror: config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"nyqmirror: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nyqmirror: i/o error: {exc}", file=sys.stderr)
        return 2
    for path in outputs.written:
        print(path)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
