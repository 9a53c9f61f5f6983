"""CLI commands: file products, determinism, exit codes, formats."""

import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nyqmirror import UniformSignal, __version__, cli
from nyqmirror.cli import (
    _CSV_BLOCK_ROWS,
    _atomic_write,
    DEFAULT_CONFIG,
    load_config,
    main,
    read_tfr_binary,
    read_uniform_csv,
    scenario_from_config,
    write_tfr_binary,
    write_tfr_csv,
    write_uniform_csv,
    ConfigError,
)
from nyqmirror.tf_analysis import TFRepresentation, WindowMeta

SMALL_SCENARIO = {
    "signal": {"kind": "harmonic", "freq_hz": 1.2, "amp": 1.0},
    "scheme": {"kind": "uniform", "rate_hz": 5.0},
    "duration_s": 12.0,
    "resample_hz": 16.0,
}


@pytest.fixture()
def small_config(tmp_path):
    cfg = {
        "scenario": SMALL_SCENARIO,
        "analysis": {"window_s": 3.0},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_defaults_complete():
    cfg = load_config(None, [])
    assert cfg == DEFAULT_CONFIG


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"analysis": {"windows_s": 4.0}}))
    with pytest.raises(ConfigError, match="windows_s"):
        load_config(str(path), [])


def test_set_overrides_and_validates():
    cfg = load_config(None, ["analysis.method=rm", "interpolation.order=12"])
    assert cfg["analysis"]["method"] == "rm"
    assert cfg["interpolation"]["order"] == 12
    edges = load_config(None, ["interpolation.order=31", "physio.edr_scheme=31",
                               "predict.k_min=-64", "predict.k_max=64"])
    assert (edges["interpolation"]["order"], edges["physio"]["edr_scheme"],
            edges["predict"]["k_min"], edges["predict"]["k_max"]) == (31, 31, -64, 64)
    with pytest.raises(ConfigError):
        load_config(None, ["analysis.bogus=1"])
    with pytest.raises(ConfigError):
        load_config(None, ["no-equals-sign"])


@pytest.mark.parametrize("assignment", [
    "interpolation=3", "output=1", "analysis=null", "output.formats=5",
    'output.formats="csv"', 'output.formats=["csv", "svg"]',
])
def test_malformed_set_is_config_error(tmp_path, capsys, assignment):
    rc = main(["simulate", "--set", assignment, "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_set_section_object_merges_like_config_file():
    cfg = load_config(None, ['interpolation={"order": 5}'])
    assert cfg["interpolation"] == {"scheme": "bspline", "order": 5}


def test_seed_key_removed(tmp_path, capsys):
    rc = main(["simulate", "--set", "seed=0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "unknown config key: seed" in capsys.readouterr().err


def test_scenario_roundtrip_through_config():
    sc1 = scenario_from_config(SMALL_SCENARIO)
    sc2 = scenario_from_config(json.loads(json.dumps(SMALL_SCENARIO)))
    grid = np.linspace(0.0, 12.0, 101)
    np.testing.assert_array_equal(sc1.signal.evaluate(grid), sc2.signal.evaluate(grid))
    np.testing.assert_array_equal(sc1.scheme.psi(grid), sc2.scheme.psi(grid))
    assert (sc1.duration_s, sc1.resample_hz) == (sc2.duration_s, sc2.resample_hz)


def test_builtin_scenarios_by_name():
    assert scenario_from_config("fig1").name == "fig1"
    with pytest.raises(ConfigError):
        scenario_from_config("fig9")


def _scenario_with(**parts):
    return "scenario=" + json.dumps({**SMALL_SCENARIO, **parts})


def test_cli_import_leaves_scipy_signal_and_interpolate_unloaded():
    # both load on first use only (the low-pass filter, PCHIP), so no
    # default command pays for their import
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, nyqmirror.cli; print(sorted(m for m in sys.modules"
            " if m in ('scipy.signal', 'scipy.interpolate')))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("depth", [8.0, -9.5])
def test_cosine_scheme_needs_base_above_depth(tmp_path, capsys, depth):
    scheme = {"kind": "cosine", "base_hz": 8.0, "depth_hz": depth}
    out = tmp_path / "x"
    rc = main(["simulate", "--out", str(out), "--set", _scenario_with(scheme=scheme)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "scenario.scheme" in err
    assert not out.exists()


_SYNTH = 'physio.synth={"duration_s": 60}'


@pytest.mark.parametrize("command, assignment, key", [
    ("predict", "predict.k_max=[1]", "predict.k_max"),
    ("predict", "predict.k_max=2.7", "predict.k_max"),
    ("predict", "predict.k_min=5", "predict.k_min"),
    ("predict", "predict.k_max=300", "predict.k_max"),
    ("predict", "predict.k_min=-300", "predict.k_min"),
    ("simulate", "interpolation.order=1000", "interpolation.order"),
    ("physio", "physio.edr_scheme=1000", "physio.edr_scheme"),
    ("tfr", "analysis.tapers=2.5", "analysis.tapers"),
    ("simulate", "interpolation.order=true", "interpolation.order"),
    ("tfr", "analysis.threshold=nan", "analysis.threshold"),
    ("tfr", "analysis.window_s=ten", "analysis.window_s"),
    ("tfr", "analysis.hop=0", "analysis.hop"),
    ("tfr", "analysis.nfft=32", "analysis.nfft"),  # below the 49-sample window
    ("tfr", _scenario_with(scheme={"kind": "uniform", "rate": 4}),
     "scenario.scheme.rate"),
    ("tfr", _scenario_with(signal={"kind": "harmonic", "ampp": 2.0}),
     "scenario.signal.ampp"),
    ("tfr", _scenario_with(scheme="x"), "scenario.scheme"),
    ("tfr", "mitigation.lowpass=x", "mitigation.lowpass"),
    ("physio", "physio.synth=x", "physio.synth"),
    ("physio", "physio.rate_hz=nan", "physio.rate_hz"),
    ("physio", "physio.edr_scheme=cubicc", "physio.edr_scheme"),
    ("physio", 'physio.edr_scheme="12"', "physio.edr_scheme"),
])
def test_bad_leaf_is_config_error(tmp_path, capsys, small_config, command,
                                  assignment, key):
    out = tmp_path / "x"
    rc = main([command, "--config", str(small_config), "--set", _SYNTH,
               "--set", assignment, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and key in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_keys_are_not_dotted(tmp_path):
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps({"analysis.window_s": 4.0}))
    with pytest.raises(ConfigError, match="unknown config key: analysis.window_s"):
        load_config(str(path), [])


def test_free_sections_fill_defaults_and_need_required_keys():
    cfg = load_config(None, ['physio.synth={"ihr_hz": 2}'])
    assert cfg["physio"]["synth"] == {"ihr_hz": 2.0, "resp_hz": 0.5,
                                      "duration_s": 240.0,
                                      "modulation_depth": 0.1}
    sc = scenario_from_config({**SMALL_SCENARIO, "scheme": {"kind": "cosine"}})
    assert sc.scheme.psi_prime(5.0) == pytest.approx(8.0 + 0.5 * math.cos(math.pi / 2))
    with pytest.raises(ConfigError, match="mitigation.lowpass.transition_hz"):
        load_config(None, ['mitigation.lowpass={"cutoff_hz": 1}'])
    with pytest.raises(ConfigError, match="scenario.resample_hz"):
        scenario_from_config({k: v for k, v in SMALL_SCENARIO.items()
                              if k != "resample_hz"})
    with pytest.raises(ConfigError, match="scenario.scheme.kind"):
        scenario_from_config({**SMALL_SCENARIO, "scheme": {"rate_hz": 4.0}})


def test_readme_config_defaults_match():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config defaults", 1)[1].split("```json", 1)[1]
    assert json.loads(block.split("```", 1)[0]) == DEFAULT_CONFIG


def _table_words(fields) -> set:
    """Every key, variant name and choice the leaf table mentions."""
    words = set()
    for key, leaf in fields.items():
        words |= {key.rpartition(".")[2], *map(str, leaf.choices)}
        words |= _table_words(leaf.fields or {})
        for kind, variant in (leaf.variants or {}).items():
            words |= {"kind", kind} | _table_words(variant)
    return words


_WORDS = sorted(_table_words(cli._LEAVES) | {"bogus"})
_SET_KEYS = sorted(set(cli._LEAVES) | set(DEFAULT_CONFIG)
                   | {"seed", "analysis.bogus", "mitigation.lowpass.cutoff_hz"})


def _good(leaf):
    """Values that ``leaf`` allows, numbers within 40 of zero."""
    kinds = leaf.kind or (type(leaf.default),)
    options = [] if leaf.default is cli._MISSING else [st.just(leaf.default)]
    if str in kinds:
        options.append(st.sampled_from(leaf.choices) if leaf.choices else st.text())
    if list in kinds:
        options.append(st.lists(st.sampled_from(leaf.choices), max_size=3))
    if int in kinds:
        options.append(st.integers(max(-40, leaf.lo), min(40, leaf.hi)))
    if float in kinds:
        options.append(st.floats(0.0 if leaf.positive else max(-40.0, leaf.lo),
                                 min(40.0, leaf.hi), exclude_min=leaf.positive))
    if bool in kinds:
        options.append(st.booleans())
    for kind, fields in ([(None, leaf.fields)] if leaf.fields else []) \
            + list((leaf.variants or {}).items()):
        options.append(_object(fields, _good, kind))
    return st.one_of(options)


def _object(fields, values, kind=None, bogus=st.nothing()):
    """Objects with ``fields``' required keys and some of the others."""
    required = {key: values(field) for key, field in fields.items()
                if field.default is cli._MISSING}
    optional = {key: values(field) for key, field in fields.items()
                if key not in required}
    if kind is not None:
        required["kind"] = st.just(kind)
    return st.fixed_dictionaries(required, optional={**optional, "bogus": bogus})


def _values(leaf, numbers):
    """JSON values for ``leaf`` (None: a key outside the table): allowed
    ones, any JSON, and objects with a bad key or a bad value."""
    words = st.sampled_from(_WORDS)
    scalars = st.none() | st.booleans() | numbers | words
    options = [numbers, scalars,
               st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(words, inner, max_size=4),
                            max_leaves=8)]
    if leaf is None:
        return st.one_of(options)
    for kind, fields in ([(None, leaf.fields)] if leaf.fields else []) \
            + list((leaf.variants or {}).items()):
        options.append(_object(fields, lambda field: _values(field, numbers),
                               kind, bogus=scalars))
    return _good(leaf) | st.one_of(options)


def _values_for(key, numbers):
    if key in DEFAULT_CONFIG and isinstance(DEFAULT_CONFIG[key], dict):
        fields = {where.partition(".")[2]: leaf for where, leaf in cli._LEAVES.items()
                  if where.startswith(key + ".")}
        return _object(fields, lambda leaf: _values(leaf, numbers))
    return _values(cli._LEAVES.get(key), numbers)


_SMALL = (st.integers(-3, 40) | st.floats(-3.0, 40.0)
          | st.sampled_from([math.nan, math.inf]))
_ANY_SIZE = _SMALL | st.sampled_from([2.5, -math.inf, 1e300, 10**30, -10**30])


def _satisfies(value, leaf) -> bool:
    """Whether ``value`` is what ``leaf`` allows, read off the table row."""
    if value is None:
        return leaf.default is None
    if type(value) not in (leaf.kind or (type(leaf.default),)):
        return False
    if isinstance(value, str):
        return not leaf.choices or value in leaf.choices
    if isinstance(value, list):
        return all(isinstance(v, str) and v in leaf.choices for v in value)
    if isinstance(value, dict):
        fields = leaf.fields or {"kind": None,
                                 **leaf.variants.get(value.get("kind"), {})}
        return set(value) == set(fields) and all(
            _satisfies(value[key], field) for key, field in fields.items()
            if field is not None)
    if isinstance(value, bool):
        return True
    return (math.isfinite(value) and leaf.lo <= value <= leaf.hi
            and (value > 0 or not leaf.positive))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), key=st.sampled_from(_SET_KEYS))
def test_loaded_config_satisfies_the_table(data, key):
    value = data.draw(_values_for(key, _ANY_SIZE), label="value")
    try:
        cfg = load_config(None, [f"{key}={json.dumps(value)}"])
    except ConfigError:
        return
    for where, leaf in cli._LEAVES.items():
        section, _, name = where.rpartition(".")
        assert _satisfies((cfg[section] if section else cfg)[name], leaf), where


@settings(max_examples=60, deadline=None)
@given(data=st.data(), key=st.sampled_from([k for k in _SET_KEYS if k != "scenario"]))
def test_main_turns_any_assignment_into_an_exit_code(tmp_path_factory, data, key):
    # small inputs and numbers, so that an accepted assignment runs quickly
    value = data.draw(_values_for(key, _SMALL), label="value")
    command = {"physio": "physio", "predict": "predict"}.get(key.split(".")[0], "tfr")
    rc = main([command, "--set", f"scenario={json.dumps(SMALL_SCENARIO)}",
               "--set", 'physio.synth={"duration_s": 30}',
               "--set", "analysis.window_s=3", "--set", "output.formats=[]",
               "--set", f"{key}={json.dumps(value)}",
               "--out", str(tmp_path_factory.mktemp("run"))])
    assert rc in (0, 1, 2)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_five_files_deterministically(tmp_path, small_config):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(small_config)]) == 0
    first = read_all(out)
    assert sorted(first) == [
        "interpolant.csv", "interpolated.csv", "samples.csv",
        "truth_if.csv", "truth_isr.csv",
    ]
    assert main(["simulate", "--config", str(small_config)]) == 0
    second = read_all(out)
    assert first == second  # byte-identical across runs


def test_simulate_solves_the_spline_once(tmp_path, small_config, monkeypatch):
    calls = []
    solve = cli.interpolate_nonuniform

    def counting(samples, n):
        calls.append(n)
        return solve(samples, n)

    monkeypatch.setattr(cli, "interpolate_nonuniform", counting)
    assert main(["simulate", "--config", str(small_config)]) == 0
    assert calls == [3]


def test_simulate_records_order_in_metadata(tmp_path, small_config):
    out = tmp_path / "o12"
    rc = main(["simulate", "--config", str(small_config), "--out", str(out),
               "--set", "interpolation.order=12"])
    assert rc == 0
    for name in ("interpolated.csv", "interpolant.csv"):
        assert "# order=12" in (out / name).read_text()


def test_simulate_unknown_scenario_exit_1(tmp_path):
    rc = main(["simulate", "--set", "scenario=fig9", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_simulate_interpolated_roundtrip(tmp_path, small_config):
    out = tmp_path / "out"
    main(["simulate", "--config", str(small_config)])
    sig = read_uniform_csv(out / "interpolated.csv")
    assert sig.rate == 16.0
    # uniform 5 Hz sampling of a 1.2 Hz tone: interior matches the tone
    inner = (sig.times > 2.0) & (sig.times < 10.0)
    truth = np.cos(2.0 * np.pi * 1.2 * sig.times[inner])
    assert np.max(np.abs(sig.values[inner] - truth)) < 0.05


# every product of each command at the default formats, in write order
_PRODUCTS = {
    "simulate": (["simulate"], [
        "samples.csv", "truth_if.csv", "truth_isr.csv", "interpolated.csv",
        "interpolant.csv"]),
    "tfr": (["tfr", "--set", "mitigation.inf_mask=true"], [
        "tfr.tfr1", "tfr.csv", "tfr.pgm", "display.csv", "inf.csv",
        "ridge_below_inf.csv", "ridge_above_inf.csv", "tfr_masked.tfr1",
        "tfr_masked.csv", "tfr_masked.pgm", "mask_report.json"]),
    "predict": (["predict", "--set", "predict.k_max=1"], [
        "components.csv", "residual_report.json"]),
    "physio": (["physio", "--set", 'physio.synth={"duration_s": 60}',
                "--set", "analysis.window_s=8", "--set", "mitigation.inf_mask=true"], [
        "rpeaks.csv", "isr_estimate.csv", "inf_estimate.csv", "ihr.csv", "edr.csv",
        "edr_tfr.tfr1", "edr_tfr.csv", "edr_tfr.pgm", "edr_tfr_masked.tfr1",
        "edr_tfr_masked.csv", "edr_tfr_masked.pgm", "mask_report.json"]),
}


@pytest.mark.parametrize("formats", [None, [], ["csv"], ["tfr1"], ["pgm"]],
                         ids=["default", "none", "csv", "tfr1", "pgm"])
@pytest.mark.parametrize("command", sorted(_PRODUCTS))
def test_outputs_follow_formats(tmp_path, capsys, monkeypatch, small_config,
                                command, formats):
    # every command honours output.formats (simulate used to write its CSVs
    # whatever was asked), JSON reports are always written, and the printed
    # list is the files opened for writing, in write order
    opened = []
    atomic_write = cli._atomic_write

    def recording(path):
        opened.append(str(path))
        return atomic_write(path)

    monkeypatch.setattr(cli, "_atomic_write", recording)
    argv, products = _PRODUCTS[command]
    out = tmp_path / "run"
    argv = [*argv, "--config", str(small_config), "--out", str(out)]
    if formats is not None:
        argv += ["--set", f"output.formats={json.dumps(formats)}"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == opened
    assert sorted(printed) == sorted(str(p) for p in out.glob("*"))
    allowed = {"json", *(DEFAULT_CONFIG["output"]["formats"] if formats is None
                         else formats)}
    names = [Path(p).name for p in printed]
    assert {name.rsplit(".", 1)[1] for name in names} <= allowed
    assert names == [name for name in products if name.rsplit(".", 1)[1] in allowed]


# ---------------------------------------------------------------------------
# tfr
# ---------------------------------------------------------------------------

def test_tfr_products_and_mask_report(tmp_path, small_config):
    out = tmp_path / "tfr"
    rc = main(["tfr", "--config", str(small_config), "--out", str(out),
               "--set", "mitigation.inf_mask=true"])
    assert rc == 0
    names = set(p.name for p in out.iterdir())
    assert {"tfr.tfr1", "tfr.csv", "tfr.pgm", "display.csv", "inf.csv",
            "ridge_below_inf.csv", "ridge_above_inf.csv", "tfr_masked.tfr1",
            "mask_report.json"} <= names
    report = json.loads((out / "mask_report.json").read_text())
    assert report["above_inf_ratio_after"] == 0.0

    mat, freq, times = read_tfr_binary(out / "tfr.tfr1")
    assert mat.shape == (freq.size, times.size)
    assert np.all(np.diff(freq) > 0.0) and np.all(np.diff(times) > 0.0)
    # base ridge of the 1.2 Hz tone visible below INF (2.5 Hz)
    band = (freq >= 0.5) & (freq <= 2.0)
    mid = mat[:, mat.shape[1] // 2]
    assert freq[band][np.argmax(mid[band])] == pytest.approx(1.2, abs=0.1)
    # emitted ridge curves: base near 1.2 Hz, mirror image near 5 - 1.2
    for name, target in (("ridge_below_inf.csv", 1.2),
                         ("ridge_above_inf.csv", 3.8)):
        rows = [ln.split(",") for ln in (out / name).read_text().splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("time_s")]
        curve = np.asarray(rows, dtype=float)
        inner = (curve[:, 0] > 3.0) & (curve[:, 0] < 9.0)
        assert np.median(curve[inner, 1]) == pytest.approx(target, abs=0.15)


def test_tfr_inf_at_grid_nyquist_writes_every_product(tmp_path):
    # resampled at the sampling rate: the INF is the top bin in every
    # frame, so no bin lies strictly above it
    scenario = {**SMALL_SCENARIO, "resample_hz": 5.0}
    out = tmp_path / "edge"
    rc = main(["tfr", "--set", f"scenario={json.dumps(scenario)}",
               "--set", "analysis.window_s=4.0", "--set", "mitigation.inf_mask=true",
               "--out", str(out)])
    assert rc == 0
    assert {"ridge_above_inf.csv", "mask_report.json"} <= {p.name for p in out.iterdir()}
    # no frame has a bin above its INF, so no frame has a ridge there
    lines = (out / "ridge_above_inf.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    assert rows[0] == ["time_s", "freq_hz"] and len(rows) > 1
    assert {freq for _, freq in rows[1:]} == {"nan"}


def test_tfr_zero_signal_all_zero_pgm(tmp_path):
    src = tmp_path / "zero.csv"
    lines = ["# rate_hz=16", "# t_start_s=0", "time_s,value"]
    lines += [f"{k/16.0},0.0" for k in range(160)]
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ztfr"
    rc = main(["tfr", "--set", f"input={src}", "--out", str(out),
               "--set", "analysis.window_s=3.0"])
    assert rc == 0
    raw = (out / "tfr.pgm").read_bytes()
    header_end = raw.index(b"255\n") + 4
    assert raw[:2] == b"P5"
    assert set(raw[header_end:]) == {0}


def test_tfr_method_tags_in_metadata(tmp_path, small_config):
    for method in ("sst", "rm"):
        out = tmp_path / method
        rc = main(["tfr", "--config", str(small_config), "--out", str(out),
                   "--set", f"analysis.method={method}"])
        assert rc == 0
        assert f"# method={method}" in (out / "tfr.csv").read_text()[:600]


def test_tfr_missing_input_is_data_error(tmp_path):
    rc = main(["tfr", "--set", "input=/nonexistent/sig.csv",
               "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("header, message", [
    (["# rate_hz=inf", "# t_start_s=0"], "rate must be positive and finite, got inf"),
    (["# rate_hz=16", "# t_start_s=nan"], "t_start must be finite, got nan"),
], ids=["rate_inf", "t_start_nan"])
def test_tfr_non_finite_input_metadata_is_data_error(tmp_path, capsys, header,
                                                     message):
    # a rate of inf used to end in an OverflowError traceback, and a
    # t_start of nan in a NaN time axis in every artifact
    src = tmp_path / "sig.csv"
    src.write_text("\n".join([*header, "time_s,value",
                              *(f"{k / 16.0},{math.cos(k / 3.0)!r}" for k in range(160))]))
    out = tmp_path / "x"
    rc = main(["tfr", "--set", f"input={src}", "--set", "analysis.window_s=3.0",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and message in err and "Traceback" not in err
    assert not out.exists()


def test_tfr_inf_mask_needs_a_scenario(tmp_path, capsys):
    # an input signal has no INF: the mask and its report used to be
    # skipped without a word; the input is not even read
    out = tmp_path / "x"
    rc = main(["tfr", "--set", f"input={tmp_path / 'missing.csv'}",
               "--set", "mitigation.inf_mask=true", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "mitigation.inf_mask" in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["stft", "sst", "mt_rm"])
def test_tfr_too_large_for_memory_is_data_error(tmp_path, capsys, small_config,
                                                 method):
    # the size check runs before the first nfft-sized allocation, so this
    # allocates nothing: it used to end in numpy's "Unable to allocate 3.47 EiB"
    out = tmp_path / "x"
    rc = main(["tfr", "--config", str(small_config), "--out", str(out),
               "--set", f"analysis.method={method}",
               "--set", "analysis.nfft=1000000000000000000"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "bytes of memory" in err
    assert "hop (" in err and "nfft (1000000000000000000)" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key, what", [("duration_s", "scan cells"),
                                       ("resample_hz", "resampled points")])
def test_scenario_too_large_for_memory_is_data_error(tmp_path, capsys, key, what):
    # refused before the scan or resampling grid is allocated: each used
    # to end in numpy's _ArrayMemoryError traceback
    out = tmp_path / "x"
    rc = main(["simulate", "--out", str(out), "--set", _scenario_with(**{key: 1e15})])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and f"{what} need ~" in err and "bytes of memory" in err
    assert "Traceback" not in err and not out.exists()


def test_overflowing_scenario_rate_is_data_error_without_warning(tmp_path, capsys):
    # psi' of the quadratic warp overflows at the probe points: the memory
    # check refuses the infinite rate, and numpy's overflow warning used to
    # be printed first
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--out", str(out), "--set",
                   _scenario_with(scheme={"kind": "quadratic"}, duration_s=1e300)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "inf scan cells" in err and not out.exists()


def test_predict_components_and_residual(tmp_path, small_config):
    out = tmp_path / "pred"
    rc = main(["predict", "--config", str(small_config), "--out", str(out),
               "--set", "predict.k_min=0", "--set", "predict.k_max=1"])
    assert rc == 0
    text = (out / "components.csv").read_text()
    body = [ln for ln in text.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("k,")]
    ks = sorted(set(int(float(ln.split(",")[0])) for ln in body))
    assert ks == [0, 1]
    report = json.loads((out / "residual_report.json").read_text())
    assert report["residual"] <= 0.05


def test_predict_fig1_curve_structure(tmp_path):
    # the built-in first scenario: the k=0 curve is the 2.5 Hz signal and
    # the k=1 curve is the mirror image psi' - 2.5
    out = tmp_path / "fig1pred"
    rc = main(["predict", "--out", str(out),
               "--set", "predict.k_min=0", "--set", "predict.k_max=1"])
    assert rc == 0
    from nyqmirror import builtin_scenario

    sc = builtin_scenario("fig1")
    rows = [ln.split(",") for ln in (out / "components.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("k,")]
    data = np.asarray(rows, dtype=float)
    k0 = data[data[:, 0] == 0]
    k1 = data[data[:, 0] == 1]
    assert k0.size and k1.size
    np.testing.assert_allclose(k0[:, 2], 2.5, atol=1e-9)
    np.testing.assert_allclose(
        k1[:, 2], sc.scheme.psi_prime(k1[:, 1]) - 2.5, atol=1e-9
    )


def test_predict_k_max_zero_single_curve(tmp_path, small_config):
    out = tmp_path / "pred0"
    rc = main(["predict", "--config", str(small_config), "--out", str(out),
               "--set", "predict.k_min=0", "--set", "predict.k_max=0"])
    assert rc == 0
    body = [ln for ln in (out / "components.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("k,")]
    ks = set(int(float(ln.split(",")[0])) for ln in body)
    assert ks == {0}


# ---------------------------------------------------------------------------
# physio
# ---------------------------------------------------------------------------

def test_physio_synth_products(tmp_path):
    out = tmp_path / "phys"
    rc = main([
        "physio", "--out", str(out),
        "--set", 'physio.synth={"ihr_hz":1.4,"resp_hz":0.5,'
                 '"duration_s":60,"modulation_depth":0.1}',
        "--set", "analysis.window_s=8.0",
        "--set", "mitigation.inf_mask=true",
    ])
    assert rc == 0
    names = set(p.name for p in out.iterdir())
    assert {"rpeaks.csv", "ihr.csv", "edr.csv", "isr_estimate.csv",
            "inf_estimate.csv", "edr_tfr.tfr1", "edr_tfr.pgm",
            "edr_tfr_masked.tfr1", "mask_report.json"} <= names
    report = json.loads((out / "mask_report.json").read_text())
    assert report["above_inf_ratio_after"] == 0.0
    assert report["above_inf_ratio_before"] > 0.0
    edr = read_uniform_csv(out / "edr.csv")
    assert abs(float(np.mean(edr.values))) < 1e-9


def test_physio_two_peak_csv_is_data_error(tmp_path):
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n0.0,1.0\n0.8,1.1\n")
    rc = main(["physio", "--set", f"input={src}", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_physio_non_finite_row_is_data_error(tmp_path, capsys):
    # 60 beats, one at time nan: the parser names its row instead of
    # letting the NaN reach the interval spline
    rows = [f"{0.8 * k!r},1.0" for k in range(60)]
    rows[30] = "nan,1.0"
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n" + "\n".join(rows) + "\n")
    rc = main(["physio", "--set", f"input={src}", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "row 32: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["1e9", "1e308"])
def test_physio_synth_too_long_for_memory_is_data_error(tmp_path, capsys, duration):
    # refused before the warp panels are allocated: 1e9 s used to end in
    # numpy's "Unable to allocate 7.28 TiB", 1e308 s in an OverflowError
    out = tmp_path / "x"
    rc = main(["physio", "--out", str(out),
               "--set", f'physio.synth={{"duration_s": {duration}}}'])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "bytes of memory" in err
    assert "duration_s (" in err and "Traceback" not in err
    assert not out.exists()


def test_physio_without_input_or_synth_is_config_error(tmp_path):
    rc = main(["physio", "--out", str(tmp_path / "x")])
    assert rc == 1


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def reference_tfr_csv(tfr, meta) -> bytes:
    """The dense TFR CSV as the per-cell writer produced it: one
    ``format(x, ".17g")`` call per cell, whole file built in memory."""
    def fmt(x):
        return format(float(x), ".17g")

    lines = [f"# artifact=nyqmirror {__version__}"]
    lines += [f"# {key}={meta[key]}" for key in sorted(meta)]
    text = "\n".join(lines) + "\n"
    text += "freq_hz," + ",".join(fmt(t) for t in tfr.time_axis) + "\r\n"
    mag = np.abs(tfr.matrix)
    for i, freq in enumerate(tfr.freq_axis):
        text += fmt(freq) + "," + ",".join(fmt(v) for v in mag[i]) + "\r\n"
    return text.encode("utf-8")


def _tfr_of(matrix):
    matrix = np.asarray(matrix)
    rows, frames = matrix.shape
    return TFRepresentation(matrix, np.linspace(0.0, 4.0, rows),
                            np.arange(frames) / 8.0 + 0.125, "stft",
                            WindowMeta("gaussian", 3.0, 2, 1))


def _special_values():
    rng = np.random.default_rng(3)
    mat = rng.lognormal(-3.0, 4.0, (9, 11)) * rng.choice([-1.0, 1.0], (9, 11))
    mat[rng.random((9, 11)) < 0.4] = 0.0
    mat[1, :4] = [-0.0, 5e-324, 2.2250738585072014e-309, 1e300]
    mat[2, :5] = [np.inf, -np.inf, np.nan, 0.1, 0.1]
    mat[3, :] = 0.1
    return mat


def _block_crossing():
    rng = np.random.default_rng(4)
    mat = rng.random((_CSV_BLOCK_ROWS + 5, 6))
    mat[mat < 0.5] = 1e-2
    return mat


@pytest.mark.parametrize("matrix", [
    _special_values(),
    np.full((5, 4), 0.3),                                        # all minimum
    np.random.default_rng(5).random((1, 13)),                    # one row
    _block_crossing(),                                           # > 1 block
    np.random.default_rng(6).random((7, 8)),                     # dense
    np.random.default_rng(7).random((4, 6)) * np.exp(1j * 0.7),  # complex
], ids=["specials", "all_equal", "one_row", "block_crossing", "dense",
        "complex"])
def test_tfr_csv_matches_per_cell_reference(tmp_path, matrix):
    tfr = _tfr_of(matrix)
    meta = {"method": "stft", "hop": 2, "quantile_q": "0.5"}
    write_tfr_csv(tmp_path / "m.csv", tfr, meta)
    assert (tmp_path / "m.csv").read_bytes() == reference_tfr_csv(tfr, meta)


def test_artifacts_get_mode_from_umask(tmp_path, small_config):
    out = tmp_path / "modes"
    old = os.umask(0o027)
    try:
        for command in ("simulate", "tfr", "predict"):
            rc = main([command, "--config", str(small_config), "--out", str(out),
                       "--set", "mitigation.inf_mask=true",
                       "--set", "predict.k_max=1"])
            assert rc == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert {name.rsplit(".", 1)[1] for name in modes} == {"csv", "tfr1", "pgm",
                                                          "json"}
    assert set(modes.values()) == {0o640}


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with _atomic_write(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("writer failed")
    assert [p.name for p in tmp_path.iterdir()] == ["kept.bin"]
    assert path.read_bytes() == b"old"


def _bits(values):
    return np.asarray(values, dtype="<f8").view("<u8")


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=40),
       rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       t_start=st.floats(allow_nan=False, allow_infinity=False))
@example(values=[-0.0, 5e-324, -2.2250738585072014e-309, 1e308],
         rate=2.5e-310, t_start=-0.0)
def test_uniform_csv_roundtrip(tmp_path_factory, values, rate, t_start):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        write_uniform_csv(path, UniformSignal(values, rate, t_start),
                          {"method": "x"})
    back = read_uniform_csv(path)
    np.testing.assert_array_equal(_bits(back.values), _bits(values))
    assert _bits([back.rate, back.t_start]).tolist() \
        == _bits([rate, t_start]).tolist()


def _increasing(size):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=size, max_size=size, unique=True).map(sorted) \
        .filter(lambda v: np.all(np.diff(v) > 0.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bins=st.integers(1, 6), frames=st.integers(1, 6))
def test_tfr1_roundtrip(tmp_path_factory, data, bins, frames):
    matrix = data.draw(arrays("<f8", (bins, frames)))
    freq, times = data.draw(_increasing(bins)), data.draw(_increasing(frames))
    path = tmp_path_factory.getbasetemp() / "roundtrip.tfr1"
    write_tfr_binary(path, TFRepresentation(matrix, freq, times, "stft",
                                            WindowMeta("gaussian", 3.0, 2, 1)))
    mat, f, t = read_tfr_binary(path)
    np.testing.assert_array_equal(_bits(mat), _bits(np.abs(matrix)))
    np.testing.assert_array_equal(_bits(f), _bits(freq))
    np.testing.assert_array_equal(_bits(t), _bits(times))


@pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "padded"])
def test_tfr1_reader_checks_length(tmp_path, change):
    path = tmp_path / "m.tfr1"
    write_tfr_binary(path, _tfr_of(np.random.default_rng(8).random((3, 5))))
    raw = path.read_bytes()
    assert len(raw) == 20 + 8 * (3 + 5 + 15)
    mat, _, _ = read_tfr_binary(path)
    assert mat.shape == (3, 5)
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    with pytest.raises(ValueError, match=f"{len(raw)}.*{len(raw) + change}"):
        read_tfr_binary(path)
