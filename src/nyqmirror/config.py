"""The run configuration: ``_LEAVES``, the one table of every config key
with its default, type, choices and bounds; ``load_config``, which overlays
a JSON file and ``--set key=value`` assignments on the defaults and checks
each leaf once against its row; and the scenario a config names.  A value
outside its row is a ``ConfigError`` that names the key."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from .sampling import cosine_warp, quadratic_warp
from .signal_model import Scenario, builtin_scenario, harmonic
from .tf_analysis import MULTITAPER_TAPERS, TF_METHODS

__all__ = ["ConfigError", "DEFAULT_CONFIG", "load_config", "scenario_from_config"]


class ConfigError(Exception):
    """Unusable configuration or command line (exit code 1)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_MISSING = object()  # the value of an object key left out, if it has no default
# bounds on work: spline collocation fails its 1e12 condition check near
# order 40 on fig2, and predict costs about 1.2 ms per reflection order k
_MAX_ORDER = 31
_MAX_K = 64
_SHOWN = 80  # characters of a refused value that its message echoes


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


def _shown(value) -> str:
    """A refused ``value`` as its message shows it: its JSON, or past
    ``_SHOWN`` characters their start and the whole length."""
    try:
        text = "nothing" if value is _MISSING else json.dumps(value)
    except RecursionError:  # nested just short of what json.loads refuses
        return "a value that nests too deeply"
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text):,} characters)"


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
        raise ConfigError(f"{where} must be {' or '.join(names)}, got {_shown(value)}")
    if isinstance(value, str) and leaf.choices and value not in leaf.choices:
        raise ConfigError(f"{where} must be one of {', '.join(leaf.choices)}, "
                          f"got {_shown(value)}")
    if number and (not leaf.lo <= value <= leaf.hi or leaf.positive and value <= 0):
        bounds = "> 0" if leaf.positive else f"in [{leaf.lo}, {leaf.hi}]"
        raise ConfigError(f"{where} must be {bounds}, got {_shown(value)}")
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
            user = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an int past 4,300 digits
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError(f"config {path} nests too deeply") from None
        _assign(flat, "", user)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an int past 4,300 digits: a string
            value = raw
        except RecursionError:
            raise ConfigError(f"--set {dotted}: value nests too deeply") from None
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
