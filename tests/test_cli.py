"""CLI commands: file products, determinism, exit codes, formats."""

import io
import itertools
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nyqmirror import UniformSignal, __version__, cli, config, formats, spline_interp
from nyqmirror.cli import main
from nyqmirror.config import DEFAULT_CONFIG, ConfigError, load_config, scenario_from_config
from nyqmirror.formats import (
    _CSV_BLOCK_CELLS,
    fmt,
    read_tfr_binary,
    read_uniform_csv,
    write_curve_csv,
    write_pgm,
    write_tfr_binary,
    write_tfr_csv,
    write_uniform_csv,
)
from nyqmirror import rowblocks
from nyqmirror.mitigation import inf_hard_threshold, inf_masked_rows
from nyqmirror.reflection import above_inf_energy_ratio
from nyqmirror.rowblocks import _BLOCK_CELLS, RowBlocks
from nyqmirror.tf_analysis import TFRepresentation, WindowMeta, display_rows, log_display

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


def write_file(path, encode, *args):
    """The file ``encode(fh, *args)`` writes, as a plain ``open`` gives it."""
    with path.open("wb") as fh:
        encode(fh, *args)


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


def test_unknown_method_lists_every_transform(tmp_path, capsys):
    # analysis.method's choices are tf_analysis.TF_METHODS
    rc = main(["tfr", "--set", "analysis.method=wavelet", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert ('config error: analysis.method must be one of stft, sst, rm, mt_sst, '
            'mt_rm, got "wavelet"') in capsys.readouterr().err


def test_set_section_object_merges_like_config_file():
    cfg = load_config(None, ['interpolation={"order": 5}'])
    assert cfg["interpolation"] == {"scheme": "bspline", "order": 5}


def test_seed_key_removed(tmp_path, capsys):
    rc = main(["simulate", "--set", "seed=0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "unknown config key: seed" in capsys.readouterr().err


def test_options_may_come_before_the_command(tmp_path, capsys, small_config):
    # one parser: --config, --out and --set are read on either side of the
    # command, with the same files and the same stdout list
    out = tmp_path / "p"
    options = ["--config", str(small_config), "--out", str(out), "--set", "predict.k_max=1"]
    runs = []
    for argv in (["predict", *options], [*options, "predict"]):
        assert main(argv) == 0
        runs.append((capsys.readouterr().out, read_all(out)))
        shutil.rmtree(out)
    assert runs[0] == runs[1]


def test_unknown_command_is_config_error_naming_the_choices(tmp_path, capsys):
    assert main(["bogus", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nyqmirror: config error: ")
    assert "'bogus'" in err[0]
    assert all(name in err[0] for name in ("simulate", "tfr", "predict", "physio"))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [[], ["--set", "predict.k_max=1"]])
def test_missing_command_is_config_error(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nyqmirror: config error: ") and "command" in err
    assert not (tmp_path / "x").exists()


def test_help_exits_0_with_the_usage_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: nyqmirror ") and "{simulate,tfr,predict,physio}" in out


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


_SYNTH = 'physio.synth={"duration_s": 60}'
_HEAVY_SCIPY = ("scipy.linalg", "scipy.signal", "scipy.interpolate")


def _loaded_heavy_scipy(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter, which
    ends by printing which of ``_HEAVY_SCIPY`` it has imported."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += f"\nimport sys; print(sorted(m for m in sys.modules if m in {_HEAVY_SCIPY}))"
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_signal_and_interpolate_unloaded():
    # scipy.signal loads on first use only (the low-pass filter), PCHIP
    # needs no scipy.interpolate, and the banded LU comes from scipy's LAPACK
    # extension without the scipy.linalg package, so no default command
    # pays for their import
    assert _loaded_heavy_scipy("import nyqmirror.cli") == "[]"


def test_commands_leave_heavy_scipy_unloaded(tmp_path):
    # nor does running the commands move those imports into the run
    jobs = [
        ["predict", "--set", "interpolation.order=3"],
        ["simulate", "--set", _scenario_with(), "--set", "interpolation.scheme=pchip"],
        ["tfr", "--set", _scenario_with(), "--set", "analysis.window_s=3",
         "--set", "analysis.method=sst", "--set", "mitigation.inf_mask=true"],
        ["physio", "--set", _SYNTH, "--set", "analysis.window_s=8",
         "--set", "analysis.method=mt_rm", "--set", "mitigation.inf_mask=true"],
    ]
    jobs = [[*job, "--out", str(tmp_path / job[0])] for job in jobs]
    code = f"from nyqmirror.cli import main\nassert [main(j) for j in {jobs!r}] == [0] * 4"
    assert _loaded_heavy_scipy(code) == "[]"


@pytest.mark.parametrize("depth", [8.0, -9.5])
def test_cosine_scheme_needs_base_above_depth(tmp_path, capsys, depth):
    scheme = {"kind": "cosine", "base_hz": 8.0, "depth_hz": depth}
    out = tmp_path / "x"
    rc = main(["simulate", "--out", str(out), "--set", _scenario_with(scheme=scheme)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "config error" in err and "scenario.scheme" in err
    assert not out.exists()


@pytest.mark.parametrize("command, assignment, key", [
    ("predict", "predict.k_max=[1]", "predict.k_max"),
    ("predict", "predict.k_max=2.7", "predict.k_max"),
    ("predict", "predict.k_min=5", "predict.k_min"),
    ("predict", "predict.k_max=300", "predict.k_max"),
    ("predict", "predict.k_min=-300", "predict.k_min"),
    ("simulate", "interpolation.order=1000", "interpolation.order"),
    ("physio", "physio.edr_scheme=1000", "physio.edr_scheme"),
    ("tfr", "analysis.tapers=2.5", "analysis.tapers"),
    ("tfr", "analysis.tapers=1", "analysis.tapers"),
    ("tfr", "analysis.tapers=11", "analysis.tapers"),
    ("simulate", "interpolation.order=true", "interpolation.order"),
    ("tfr", "analysis.threshold=nan", "analysis.threshold"),
    ("tfr", "analysis.threshold=1", "analysis.threshold"),
    ("tfr", "analysis.window_s=ten", "analysis.window_s"),
    ("tfr", "analysis.hop=0", "analysis.hop"),
    ("tfr", "analysis.nfft=32", "analysis.nfft"),  # below the 49-sample window
    ("tfr", "analysis.window=gaussian", "analysis.window"),  # removed key
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


def test_config_with_a_byte_order_mark_is_read(tmp_path, small_config):
    # a config saved as "UTF-8 with BOM" used to be refused: "is not valid
    # JSON: Unexpected UTF-8 BOM"
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + small_config.read_bytes())
    assert load_config(str(marked), []) == load_config(str(small_config), [])


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys, small_config):
    # it used to be a data error (exit 2) that named no file
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + small_config.read_bytes())
    out = tmp_path / "x"
    rc = main(["simulate", "--config", str(bad), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config error: cannot read config {bad}" in err and "0xff" in err
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


def test_readme_tour_rows_stay_short():
    # each library-tour row names a module's entry points; mechanism lives
    # in the docstrings.  The cap is the longest row, so no row can grow.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    assert len(rows) >= 11
    for row in rows:
        assert len(row.split()) <= 275, row.split("|")[1]


def _table_words(fields) -> set:
    """Every key, variant name and choice the leaf table mentions."""
    words = set()
    for key, leaf in fields.items():
        words |= {key.rpartition(".")[2], *map(str, leaf.choices)}
        words |= _table_words(leaf.fields or {})
        for kind, variant in (leaf.variants or {}).items():
            words |= {"kind", kind} | _table_words(variant)
    return words


_WORDS = sorted(_table_words(config._LEAVES) | {"bogus"})
_SET_KEYS = sorted(set(config._LEAVES) | set(DEFAULT_CONFIG)
                   | {"seed", "analysis.bogus", "mitigation.lowpass.cutoff_hz"})


def _good(leaf):
    """Values that ``leaf`` allows, numbers within 40 of zero."""
    kinds = leaf.kind or (type(leaf.default),)
    options = [] if leaf.default is config._MISSING else [st.just(leaf.default)]
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
                if field.default is config._MISSING}
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
        fields = {where.partition(".")[2]: leaf for where, leaf in config._LEAVES.items()
                  if where.startswith(key + ".")}
        return _object(fields, lambda leaf: _values(leaf, numbers))
    return _values(config._LEAVES.get(key), numbers)


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
    for where, leaf in config._LEAVES.items():
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


def test_uniform_csv_with_a_byte_order_mark_is_read(tmp_path, capsys, small_config):
    # a uniform CSV saved as "UTF-8 with BOM" used to be refused: tfr exited
    # 2 with "line 1: value '\ufeff# artifact=nyqmirror ...' is not a number"
    main(["simulate", "--config", str(small_config)])
    plain, marked = tmp_path / "out" / "interpolated.csv", tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = read_uniform_csv(plain), read_uniform_csv(marked)
    assert (a.rate, a.t_start) == (b.rate, b.t_start)
    np.testing.assert_array_equal(a.values, b.values)
    rc = main(["tfr", "--set", f"input={marked}", "--set", "analysis.window_s=3.0",
               "--out", str(tmp_path / "x")])
    assert rc == 0, capsys.readouterr().err


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


def test_mask_report_ratio_of_huge_magnitudes(tmp_path):
    # from amp about 1e304 the plain sum of |matrix| overflows: the ratio
    # used to read 0.0 (NaN at 1e305) after numpy's overflow warning
    def ratio(amp):
        scenario = {"signal": {"kind": "harmonic", "freq_hz": 1.2, "amp": amp},
                    "scheme": {"kind": "cosine", "base_hz": 5.0, "depth_hz": 0.5,
                               "period_s": 20.0},
                    "duration_s": 40.0, "resample_hz": 16.0}
        out = tmp_path / f"amp{amp:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["tfr", "--set", f"scenario={json.dumps(scenario)}",
                       "--set", "analysis.window_s=4",
                       "--set", "mitigation.inf_mask=true", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "mask_report.json").read_text())
        return report["above_inf_ratio_before"]

    unit = ratio(1.0)
    assert unit == pytest.approx(0.0182202, rel=1e-5)
    for amp in (1e304, 1e305):
        assert ratio(amp) == pytest.approx(unit, rel=1e-12)


@pytest.mark.parametrize("case", ["plain", "all_zero", "overflow", "nan", "inf"])
def test_masked_ratio_is_above_inf_energy_ratio_of_the_masked_matrix(case):
    # mask_report.json's after-ratio comes from one sum over the masked
    # matrix; it must equal the ratio function's value in every case
    rng = np.random.default_rng(16)
    tfr = _tfr_of(rng.lognormal(0.0, 2.0, (33, 20)))
    inf = lambda t: 1.0 + 0.1 * t  # noqa: E731
    matrix = {"plain": tfr.matrix, "all_zero": 0.0 * tfr.matrix,
              "overflow": np.full((33, 20), 1e307)}.get(case, tfr.matrix.copy())
    if case in ("nan", "inf"):
        matrix[3, 4] = math.nan if case == "nan" else math.inf
    masked = inf_hard_threshold(_tfr_of(matrix), inf)
    with np.errstate(over="ignore"):
        assert np.isinf(masked.matrix.sum()) == (case in ("overflow", "inf"))
    with np.errstate(invalid="ignore"):  # inf / inf in the ratio's rescale
        want = above_inf_energy_ratio(masked, inf)
    got = cli._masked_ratio(masked.matrix)
    assert json.dumps(got) == json.dumps(want)
    assert math.isnan(got) == (case in ("nan", "inf"))


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


@pytest.mark.parametrize("case", ["mask_none", "mask_some"])
def test_tfr_csv_lows_equal_the_least_value_of_each_body(tmp_path, monkeypatch, case):
    # a tfr run names each matrix CSV's common value: 0.0 for the magnitude
    # and its masked twin, the floor for the display; on these engine-made
    # matrices each is what a pass over the body finds, masked cells or none
    scenario = {**SMALL_SCENARIO, "resample_hz": 5.0 if case == "mask_none" else 16.0}
    bodies, write = [], formats._write_csv

    def recording(fh, meta, header, first, body, low=math.nan):
        if header.startswith("freq_hz,"):
            bodies.append((body, low))
        write(fh, meta, header, first, body, low)

    monkeypatch.setattr(formats, "_write_csv", recording)
    argv = ["tfr", "--out", str(tmp_path / "out")]
    for assignment in [f"scenario={json.dumps(scenario)}", "mitigation.inf_mask=true",
                       "analysis.window_s=4", 'output.formats=["csv"]']:
        argv += ["--set", assignment]
    assert main(argv) == 0
    assert [float(low) for _, low in bodies] == [0.0, 1e-2, 0.0]
    for body, low in bodies:
        least = np.fmin.reduce(np.abs(body.array() if isinstance(body, RowBlocks) else body),
                               axis=None)
        assert repr(float(low)) == repr(float(least))


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


@pytest.mark.parametrize("header, body, message", [
    (["# rate_hz=inf", "# t_start_s=0"], None,
     "rate_hz=inf: rate must be positive and finite, got inf"),
    (["# rate_hz=16", "# t_start_s=nan"], None, "t_start_s=nan: t_start must be finite, got nan"),
    (["# rate_hz=fast", "# t_start_s=0"], None, "rate_hz=fast is not a number"),
    (["# rate_hz=16", "# t_start_s=soon"], None, "t_start_s=soon is not a number"),
    (["# rate_hz=16", "# t_start_s=0"], "0.0625,x", "line 5: value 'x' is not a number"),
], ids=["rate_inf", "t_start_nan", "rate_text", "t_start_text", "body_text"])
def test_tfr_non_finite_input_metadata_is_data_error(tmp_path, capsys, header, body,
                                                     message):
    # a rate of inf used to end in an OverflowError traceback, and a
    # t_start of nan in a NaN time axis in every artifact; the message
    # names the file and the header key, or the line of a body value
    src = tmp_path / "sig.csv"
    rows = [f"{k / 16.0},{math.cos(k / 3.0)!r}" for k in range(160)]
    if body is not None:
        rows[1] = body  # line 5: after two headers, the column names and row 0
    src.write_text("\n".join([*header, "time_s,value", *rows]))
    out = tmp_path / "x"
    rc = main(["tfr", "--set", f"input={src}", "--set", "analysis.window_s=3.0",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"data error: {src}" in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, content, message", [
    ("tfr", b"# rate_hz=16\n# note=caf\xe9\ntime_s,value\n0,1\n", "can't decode byte 0xe9"),
    ("physio", b"time_s,amplitude\n0.0,1.0\n0.8,caf\xe9\n", "can't decode byte 0xe9"),
    ("physio", b"time_s,amplitude\n0.0,1.0\n0.8,1.1\n0.8,1.2\n1.6,1.0\n",
     "row 4: non-increasing time"),
], ids=["tfr-not-utf8", "physio-not-utf8", "physio-repeated-time"])
def test_input_file_errors_name_the_file(tmp_path, capsys, command, content, message):
    src = tmp_path / "input.csv"
    src.write_bytes(content)
    out = tmp_path / "x"
    rc = main([command, "--set", f"input={src}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(src) in err and message in err and "Traceback" not in err
    assert not out.exists()


def test_oversized_rpeak_field_is_data_error(tmp_path, capsys):
    # a field past the csv module's 131,072-character limit used to end in
    # a _csv.Error traceback
    src = tmp_path / "peaks.csv"
    src.write_text("time_s\n" + "1" * 200_000 + "\n")
    out = tmp_path / "x"
    rc = main(["physio", "--set", f"input={src}", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"nyqmirror: data error: {src}: row 2: field larger than")
    assert not out.exists()


def test_deeply_nested_config_file_is_config_error(tmp_path, capsys):
    # json.loads' RecursionError used to escape as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "x"
    rc = main(["simulate", "--config", str(deep), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"nyqmirror: config error: config {deep} nests too deeply"]
    assert not out.exists()


def test_deeply_nested_set_value_is_config_error(tmp_path, capsys):
    # 5,000 brackets are past what json.loads decodes; the depths just short
    # of the recursion limit decode, and used to fail when the refusal
    # encoded the value back into its message
    out = tmp_path / "x"
    limit = sys.getrecursionlimit()
    for depth in [5_000, *range(limit - 100, limit + 1)]:
        rc = main(["simulate", "--set", "scenario=" + "[" * depth + "]" * depth,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("nyqmirror: config error: ") and "scenario" in line
    assert line == "nyqmirror: config error: --set scenario: value nests too deeply"
    assert not out.exists()


@pytest.mark.parametrize("assignment, key", [
    ("analysis.window_s=" + json.dumps(list(range(3000))), "analysis.window_s"),
    ("scenario=" + "[" * 900 + "]" * 900, "scenario"),
    ("analysis.method=" + "x" * 5000, "analysis.method"),
    ("predict.k_max=" + "9" * 1000, "predict.k_max"),
    ("predict.k_max=" + "9" * 5000, "predict.k_max"),  # past int's 4,300-digit parse
])
def test_long_refused_value_is_echoed_short(tmp_path, capsys, assignment, key):
    # the refusal used to echo the whole value: 16,962 characters for the
    # list, 1,869 for the brackets; a 5,000-digit number was a data error
    out = tmp_path / "x"
    rc = main(["simulate", "--set", assignment, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"nyqmirror: config error: {key} must be ")
    assert line.endswith(" characters)") and len(line) <= 200
    assert not out.exists()


@pytest.mark.parametrize("command", ["tfr", "physio"])
def test_frame_times_that_do_not_increase_are_refused_by_name(tmp_path, capsys, command):
    # 0.1 s steps at 1e15 s and 0.125 s steps at 1e16 s are below the float
    # spacing there (0.125 s and 2 s): the time axis used to be refused
    # without its cause
    src = tmp_path / "input.csv"
    if command == "tfr":
        src.write_text("\n".join(["# rate_hz=10", "# t_start_s=1e15", "time_s,value",
                                  *(f"{k / 10},{math.cos(k / 3)!r}" for k in range(400))]))
    else:
        src.write_text("time_s,amplitude\n" + "".join(
            f"{1e16 + 2.0 * k!r},{1.0 + 0.1 * math.cos(0.6 * k)!r}\n" for k in range(400)))
    out = tmp_path / "x"
    rc = main([command, "--set", f"input={src}", "--set", "analysis.window_s=3.0",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "do not strictly increase" in err and "t_start=" in err and "rate=" in err
    assert not out.exists()


@pytest.mark.parametrize("amp, method", [
    # the RM mass |V_g|^2 overflows: rm used to write 56,843 inf cells
    (1e300, "rm"), (1e300, "mt_rm"),
    # the FFT overflows: sst and rm used to write all zeros (every
    # coefficient fell below a floor of 1e-8 * inf), stft inf cells
    *[(1.7e308, method) for method in ("stft", "sst", "rm", "mt_sst", "mt_rm")],
    # parts that fit, with a modulus that does not: the CLI's magnitude
    # used to hold inf
    (1.2e308, "stft"),
])
def test_tfr_overflowing_input_is_data_error(tmp_path, capsys, amp, method):
    src = tmp_path / "sig.csv"
    rows = [f"{k / 16.0!r},{amp * math.cos(math.pi * k / 4 + math.pi / 4)!r}"
            for k in range(2000)]
    src.write_text("\n".join(["# rate_hz=16", "# t_start_s=0", "time_s,value", *rows]))
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["tfr", "--set", f"input={src}", "--set", "analysis.window_s=4",
                   "--set", f"analysis.method={method}", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "data error: the transform overflows float64" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_tfr_products_need_no_more_memory_than_the_transform(tmp_path):
    # the run keeps one real magnitude of the SST and frees every
    # full-size temporary once used: masking, display and writing all fit
    # in what its own transform, the real SST magnitude, needed (8193 bins
    # x 96 frames here)
    import tracemalloc

    from nyqmirror.tf_analysis import tf_magnitude

    sets = ["scenario=" + json.dumps({**SMALL_SCENARIO, "scheme": {
                "kind": "cosine", "base_hz": 5.0, "depth_hz": 0.5, "period_s": 6.0}}),
            "analysis.window_s=3.0", "analysis.nfft=16384",
            "mitigation.inf_mask=true", 'output.formats=["tfr1","pgm"]']
    cfg = load_config(None, sets)
    _, _, _, sig, _ = cli._scenario_pipeline(cfg)
    window_s, hop, nfft = cli._analysis_params(cfg, sig.rate)
    argv = ["tfr", "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    peaks = []
    for run in (lambda: tf_magnitude(sig, "sst", window_s, hop, nfft, threshold=1e-8),
                lambda: main(argv)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    transform, whole_run = peaks
    assert whole_run <= 1.05 * transform


def test_physio_products_need_no_more_memory_than_the_transform(tmp_path):
    # physio_long's synthetic job, shorter: the EDR under mt_rm, TFR1 only,
    # masked above the INF.  The masked products and both ratios read the
    # one magnitude a block of rows at a time, so the whole run fits in
    # what its own transform needed
    import tracemalloc

    from nyqmirror.physio_io import edr_signal, synth_rpeaks
    from nyqmirror.tf_analysis import tf_magnitude

    synth = {"ihr_hz": 1.4, "resp_hz": 0.5, "duration_s": 120.0, "modulation_depth": 0.1}
    sets = ["physio.synth=" + json.dumps(synth), "analysis.method=mt_rm",
            "analysis.window_s=15", "mitigation.inf_mask=true", 'output.formats=["tfr1"]']
    cfg = load_config(None, sets)
    rec = synth_rpeaks(lambda t: np.full_like(t, 1.4), lambda t: np.full_like(t, 0.5),
                       synth["duration_s"], synth["modulation_depth"])
    sig = edr_signal(rec, cfg["physio"]["rate_hz"], cfg["physio"]["edr_scheme"])
    window_s, hop, nfft = cli._analysis_params(cfg, sig.rate)
    argv = ["physio", "--out", str(tmp_path / "out")]
    for item in sets:
        argv += ["--set", item]
    peaks = []
    for run in (lambda: tf_magnitude(sig, "mt_rm", window_s, hop, nfft, 3, 1e-8),
                lambda: main(argv)):
        tracemalloc.start()
        try:
            assert run() is not None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    transform, whole_run = peaks
    assert transform > 10_000_000  # 1025 bins x 960 frames: the output and three tapers' blocks
    assert whole_run <= 1.05 * transform


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


# the size check runs before the first nfft-sized allocation: this used to
# end in numpy's "Unable to allocate 3.47 EiB"
_HUGE_NFFT = ("analysis.nfft=1000000000000000000",
              ["hop (", "nfft (1000000000000000000)"])
# the window is refused before np.arange builds its grid (466 TiB): this used
# to end in numpy's _ArrayMemoryError traceback
_HUGE_WINDOW = ("analysis.window_s=1e12", ["x 1.6e+13 window samples",
                                           "shorten the window (1000000000000.0 s)"])


@pytest.mark.parametrize("method, setting, fragments", [
    *[pytest.param(method, *_HUGE_NFFT, id=method)
      for method in ("stft", "sst", "mt_rm")],
    *[pytest.param(method, *_HUGE_WINDOW, id=f"{method}-window")
      for method in ("stft", "sst", "rm", "mt_sst", "mt_rm")],
    # its sample count overflows to inf: this used to end in an OverflowError
    pytest.param("mt_sst", "analysis.window_s=1e308",
                 ["3 x inf window samples", "shorten the window (1e+308 s)"],
                 id="mt_sst-overflowing-window"),
])
def test_tfr_too_large_for_memory_is_data_error(tmp_path, capsys, small_config,
                                                 method, setting, fragments):
    # nothing here allocates the refused size
    out = tmp_path / "x"
    rc = main(["tfr", "--config", str(small_config), "--out", str(out),
               "--set", f"analysis.method={method}", "--set", setting])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "bytes of memory" in err
    assert all(fragment in err for fragment in fragments), err
    assert "Traceback" not in err and not out.exists()


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


@pytest.mark.parametrize("command", ["simulate", "tfr", "predict"])
@pytest.mark.parametrize("parts, message", [
    # cos(2 pi t) is NaN once 2 pi t overflows, and so is psi' = 5 + 0 cos:
    # this passed the psi' <= 0 check and ended in "nan scan cells"
    ({"duration_s": 1e308},
     "sampling rate psi'(2.890625e+307) is NaN on the span [0.0, 1e+308]"),
    # the resampled point count overflows to inf
    ({"resample_hz": 1e308}, "inf resampled points need ~inf bytes"),
    # the phase freq_hz * t overflows, and cos of it is NaN
    ({"signal": {"kind": "harmonic", "freq_hz": 1e308, "amp": 1.0}},
     "sample times and values must be finite"),
], ids=["nan_rate", "huge_resample_rate", "huge_frequency"])
def test_scenario_refusal_comes_without_warning(tmp_path, capsys, command, parts,
                                                message):
    # each printed numpy's RuntimeWarning before its refusal
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--out", str(out), "--set", _scenario_with(**parts)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and [str(w.message) for w in caught] == []
    assert len(err) == 1 and err[0].startswith("nyqmirror: data error: ")
    assert message in err[0] and not out.exists()


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


def test_predict_sends_no_zero_through_format(tmp_path, monkeypatch):
    # components.csv's k = 0 and t = 0 cells take the vectorised path: no
    # number the CSV encoder hands to ``fmt`` is +-0.0
    calls = []

    def spy(x):
        calls.append(float(x))
        return fmt(x)

    monkeypatch.setattr(formats, "fmt", spy)
    out = tmp_path / "p"
    assert main(["predict", "--out", str(out), "--set", 'output.formats=["csv"]']) == 0
    text = (out / "components.csv").read_bytes()
    assert b"\r\n0,0," in text  # k = 0 at t = 0
    assert [x for x in calls if x == 0.0] == []


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


def csv_meta(path) -> dict:
    """The ``# key=value`` lines of a CSV this tool wrote, as a dict."""
    head = path.read_text().split("\r\n", 1)[0].splitlines()
    return dict(line[2:].split("=", 1) for line in head if line.startswith("# "))


# metadata names what ran: the scenario and interpolant only on artifacts
# made from a scenario, the order only for a B-spline, the EDR scheme only
# on the EDR's artifacts and the threshold only where a threshold applies
_FROM_SCENARIO = {"scenario": "custom", "interpolation": "bspline", "order": "3"}
_NO_SCENARIO = ("scenario", "interpolation", "order")
_TF = {"method": "sst", "threshold": "1e-08", "lowpass": "False"}
_TF_CSVS = ("tfr.csv", "display.csv", "inf.csv", "ridge_below_inf.csv",
            "ridge_above_inf.csv")
_SIM_CSVS = ("samples.csv", "truth_if.csv", "truth_isr.csv", "interpolated.csv",
             "interpolant.csv")
_PHYSIO_CURVES = ("isr_estimate.csv", "inf_estimate.csv", "ihr.csv")
_PHYSIO_ARGV = ["--set", "analysis.window_s=8", "--set", "analysis.hop=8",
                "--set", "mitigation.inf_mask=true"]
_PCHIP = ["--set", "interpolation.scheme=pchip"]


def _meta_rule(names, must: dict, must_not=()) -> dict:
    """``{csv: (the keys it must carry with their values, the keys it must
    not carry)}`` for each of ``names``."""
    return {name: (must, must_not) for name in names}


_METADATA_RUNS = {
    "simulate": (["simulate"], _meta_rule(_SIM_CSVS, _FROM_SCENARIO)),
    "simulate_pchip": (["simulate", *_PCHIP], _meta_rule(
        _SIM_CSVS, {"scenario": "custom", "interpolation": "pchip"}, ["order"])),
    "tfr": (["tfr", "--set", "mitigation.inf_mask=true"], {
        **_meta_rule(_TF_CSVS, {**_FROM_SCENARIO, **_TF}),
        **_meta_rule(["tfr_masked.csv"],
                     {**_FROM_SCENARIO, **_TF, "inf_mask": "True"})}),
    "tfr_pchip_stft": (["tfr", *_PCHIP, "--set", "analysis.method=stft"], _meta_rule(
        _TF_CSVS, {"interpolation": "pchip", "method": "stft", "lowpass": "False"},
        ["order", "threshold"])),
    "tfr_input": (["tfr", "--set", "input={signal}"], _meta_rule(
        ["tfr.csv", "display.csv"], _TF, _NO_SCENARIO)),
    # predict evaluates the order-n B-spline model, whatever the scheme
    "predict_pchip": (["predict", *_PCHIP, "--set", "interpolation.order=5",
                       "--set", "predict.k_max=1"], _meta_rule(
        ["components.csv"], {**_FROM_SCENARIO, "interpolation": "bspline",
                             "order": "5", "k_min": "-1", "k_max": "1"})),
    "physio": (["physio", "--set", _SYNTH, *_PHYSIO_ARGV], {
        **_meta_rule(["rpeaks.csv", *_PHYSIO_CURVES], {},
                     ["edr_scheme", "lowpass", *_NO_SCENARIO]),
        **_meta_rule(["edr.csv"], {"edr_scheme": "cubic"}, _NO_SCENARIO),
        **_meta_rule(["edr_tfr.csv", "edr_tfr_masked.csv"],
                     {"edr_scheme": "cubic", **_TF}, _NO_SCENARIO)}),
    # beats without amplitudes: the centred IHR is analysed, not an EDR
    "physio_ihr": (["physio", "--set", "input={beats}", *_PHYSIO_ARGV], {
        **_meta_rule(_PHYSIO_CURVES, {}, ["edr_scheme", "lowpass", *_NO_SCENARIO]),
        **_meta_rule(["ihr_centered_tfr.csv", "ihr_centered_tfr_masked.csv"], _TF,
                     ["edr_scheme", *_NO_SCENARIO])}),
}


def test_csv_metadata_names_what_ran(tmp_path, small_config):
    signal, beats = tmp_path / "signal.csv", tmp_path / "beats.csv"
    write_file(signal, write_uniform_csv,
               UniformSignal(np.cos(np.arange(160) / 3.0), 16.0, 0.0), {})
    beats.write_text("time_s\n" + "".join(
        f"{0.7 * k + 0.004 * (k * 7919 % 13)!r}\n" for k in range(160)))
    for run, (argv, rules) in _METADATA_RUNS.items():
        argv = [arg.replace("{signal}", str(signal)).replace("{beats}", str(beats))
                for arg in argv]
        out = tmp_path / run
        assert main([*argv, "--config", str(small_config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(rules), run
        for name, (must, must_not) in rules.items():
            meta = csv_meta(out / name)
            assert {key: meta.get(key) for key in must} == must, (run, name)
            assert [key for key in must_not if key in meta] == [], (run, name)


_LOWPASS = 'mitigation.lowpass={"cutoff_hz": 0.6, "transition_hz": 0.2}'


@pytest.mark.parametrize("argv, stem", [
    # 80 s at 16 Hz: the filter needs more than 972 samples
    (["tfr", "--set", _scenario_with(duration_s=80.0), "--set", "analysis.window_s=3"],
     "tfr"),
    # physio used to accept the setting and ignore it, byte for byte
    (["physio", "--set", "physio.synth={}", "--set", "analysis.hop=8"], "edr_tfr"),
], ids=["tfr", "physio"])
def test_lowpass_reaches_the_transform(tmp_path, argv, stem):
    written = {}
    for lowpass in (False, True):
        out = tmp_path / str(lowpass)
        extra = ["--set", _LOWPASS] if lowpass else []
        assert main([*argv, *extra, "--out", str(out),
                     "--set", 'output.formats=["csv","tfr1"]']) == 0
        assert csv_meta(out / f"{stem}.csv")["lowpass"] == str(lowpass)
        written[lowpass] = (out / f"{stem}.tfr1").read_bytes()
    assert written[True] != written[False]


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


def test_physio_overflowing_input_is_data_error(tmp_path, capsys):
    # EDR amplitudes about 1e300: the RM masses of mt_rm overflow, which
    # used to write 1.6 million inf cells without a word
    times = [0.7 * k + 0.004 * (k * 7919 % 13) for k in range(400)]
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n" + "".join(
        f"{t!r},{1e300 * (1.0 + 0.1 * math.cos(0.6 * math.pi * t))!r}\n" for t in times))
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["physio", "--set", f"input={src}", "--set", "analysis.method=mt_rm",
                   "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "data error: the transform overflows float64" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not list(out.glob("edr_tfr*"))


@pytest.mark.parametrize("settings, message", [
    (['physio.synth={"duration_s": 30, "modulation_depth": 1e308}'],
     "|modulation_depth| must be below 1e300, got 1e+308"),
    (['physio.synth={"duration_s": 30, "resp_hz": 1e308}'],
     "the phase of resp_if overflows float64 over 30.0 s"),
    (["input={peaks}", "physio.edr_scheme=12"],
     "the EDR of these R-peak amplitudes overflows float64"),
    (["input={peaks}"],  # the cubic EDR fits: the transform is refused
     "the transform overflows float64 on a signal peaking at 1.43e+308; scale the signal down"),
], ids=["modulation_depth", "resp_if", "edr_amplitudes", "edr_fits_transform_overflows"])
def test_physio_extreme_input_is_refused_by_name(tmp_path, capsys, settings, message):
    # each used to print numpy's RuntimeWarning, then a refusal that named
    # neither the setting nor the amplitudes
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("time_s,amplitude\n" + "".join(
        f"{0.7 * k!r},{(-1) ** k * 1e308!r}\n" for k in range(60)))
    out = tmp_path / "x"
    argv = ["physio", "--out", str(out)]
    for assignment in settings:
        argv += ["--set", assignment.replace("{peaks}", str(peaks))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == [f"nyqmirror: data error: {message}"]
    assert not out.exists()


def beat_train(extra_s=None, missed=False):
    """400 R-peaks at about 1.4 Hz, with breathing in their amplitudes; beat
    201 (from 1) missed, or followed by an extra beat ``extra_s`` later."""
    times = [k / 1.4 + 0.03 * math.sin(2 * math.pi * 0.1 * k / 1.4) for k in range(400)]
    if missed:
        del times[200]
    if extra_s is not None:
        times.insert(201, times[200] + extra_s)
    return "time_s,amplitude\n" + "".join(
        f"{t!r},{1.0 + 0.1 * math.cos(math.pi * t)!r}\n" for t in times)


@pytest.mark.parametrize("extra_s, missed, message", [
    (0.005, False, "the ISR estimate is -4670 Hz at t = 143.125 s, not a rate: "
                   "R-R interval 5 ms between beats 201 and 202 (t = 142.886 s)"),
    (0.05, False, "the ISR estimate is -38.01 Hz at t = 143.215 s, not a rate: "
                  "R-R interval 50 ms between beats 201 and 202 (t = 142.886 s)"),
    (0.3, False, None),  # a T wave taken for a beat
    (None, True, None),
], ids=["extra-5ms", "extra-50ms", "extra-300ms", "missed"])
def test_physio_refuses_an_isr_estimate_that_is_not_a_rate(tmp_path, capsys, extra_s, missed,
                                                           message):
    # a beat detected twice makes the not-a-knot cubic through 1/R-R
    # overshoot below 0 Hz: refused by name before any file, where it used
    # to write negative rates and mask whole frames without a word.  A
    # T-wave beat or a missed beat only bends the estimate.
    src = tmp_path / "peaks.csv"
    src.write_text(beat_train(extra_s, missed))
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["physio", "--set", f"input={src}", "--set", "mitigation.inf_mask=true",
                   "--set", "analysis.window_s=15", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if message is None:
        assert rc == 0 and err == []
        isr = np.loadtxt(out / "isr_estimate.csv", delimiter=",", comments="#", skiprows=2)
        assert np.all(isr[:, 1] > 0.5)
    else:
        assert rc == 2 and err == [f"nyqmirror: data error: {message}"]
        assert not out.exists()


@pytest.mark.parametrize("inf_mask", ["false", "true"])
def test_physio_frame_past_the_estimate_domain_runs(tmp_path, inf_mask):
    # the ISR estimate ends at the second-to-last beat, 30 - 5e-11 s; the
    # 8 Hz grid from 0 may pass it by 1e-9 of a step and ends at 30.0, a
    # frame time beyond the evaluation slack: the masked run exited 2 with
    # "spline evaluation outside domain"
    times = [*np.linspace(0.0, 30.0, 43)[:-2].tolist(), 30.0 - 5e-11, 30.7]
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n" + "".join(
        f"{t!r},{1.0 + 0.1 * math.cos(math.pi * t)!r}\n" for t in times))
    assert main(["physio", "--set", f"input={src}", "--set", f"mitigation.inf_mask={inf_mask}",
                 "--set", "analysis.window_s=5", "--out", str(tmp_path / "x")]) == 0


@pytest.mark.parametrize("command", [["simulate"], ["tfr", "--set", "analysis.window_s=4"]])
def test_resampling_grid_past_the_last_sample_runs(tmp_path, command):
    # the last sample lies 3.05e-11 s before 20 s and the 16 Hz grid, which
    # may pass t_end by 1e-9 of a step, ends at 20.0: its evaluation was
    # refused as outside the interpolant's domain
    scenario = {"signal": {"kind": "harmonic"}, "duration_s": 20, "resample_hz": 16,
                "scheme": {"kind": "cosine", "base_hz": 8, "depth_hz": -7.9999}}
    assert main([*command, "--set", f"scenario={json.dumps(scenario)}",
                 "--out", str(tmp_path / "x")]) == 0


def test_physio_overflowing_beat_rate_is_data_error(tmp_path, capsys):
    # beats 1e-320 s apart: 1/gap overflows, which used to print numpy's
    # overflow warning and then a message naming neither gap nor rate
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n" + "".join(f"{k * 1e-320!r},1.0\n"
                                                  for k in range(39)))
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["physio", "--set", f"input={src}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.splitlines() == ["nyqmirror: data error: the rate 1/gap overflows "
                                "float64 at the smallest gap between times, 1e-320 s"]
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # the transform overflows after the ISR, IHR and EDR curves are ready
    (["physio", "--set", "input={peaks}", "--set", "analysis.method=rm"],
     "the transform overflows float64"),
    # the ISR estimate refuses a 2 s synthetic train
    (["physio", "--set", 'physio.synth={"duration_s": 2}'],
     "ISR estimation needs >= 5 times"),
    # the residual check refuses what the components do not
    (["predict", "--set", "interpolation.order=12", "--set", "scenario=" + json.dumps(
        {**SMALL_SCENARIO, "scheme": {"kind": "uniform", "rate_hz": 8.0},
         "duration_s": 2.0})],
     "span too short"),
], ids=["physio-overflow", "physio-short-synth", "predict-short-span"])
def test_refused_run_writes_no_file(tmp_path, capsys, args, message):
    # each of these used to leave the files it had written before the refusal
    times = [0.7 * k + 0.004 * (k * 7919 % 13) for k in range(400)]
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("time_s,amplitude\n" + "".join(
        f"{t!r},{1e300 * (1.0 + 0.1 * math.cos(0.6 * math.pi * t))!r}\n" for t in times))
    out = tmp_path / "x"
    rc = main([arg.replace("{peaks}", str(peaks)) for arg in args] + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"data error: {message}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


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


def test_physio_collocation_too_large_for_memory_is_data_error(tmp_path, capsys,
                                                                 monkeypatch):
    # the interval spline of an R-peak CSV is refused before its banded
    # matrix is allocated; nothing else in this run checks its size first
    monkeypatch.setattr(spline_interp, "_physical_memory", lambda: 1e5)
    src = tmp_path / "peaks.csv"
    src.write_text("time_s,amplitude\n" + "".join(
        f"{0.8 * k + 0.01 * (k % 3)!r},1.0\n" for k in range(400)))
    out = tmp_path / "x"
    rc = main(["physio", "--set", f"input={src}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err and "samples at order 3 need ~" in err
    assert "bytes of memory" in err and "Traceback" not in err
    assert not out.exists()


def test_physio_without_input_or_synth_is_config_error(tmp_path):
    rc = main(["physio", "--out", str(tmp_path / "x")])
    assert rc == 1


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def reference_csv(meta, header, rows) -> bytes:
    """A CSV as the per-cell writers produced it: one ``format(x, ".17g")``
    call per number, text cells as they are, one joined row at a time."""
    def cell(x):
        return x if isinstance(x, str) else format(float(x), ".17g")

    lines = [f"# artifact=nyqmirror {__version__}"]
    lines += [f"# {key}={meta[key]}" for key in sorted(meta)]
    text = "\n".join(lines) + "\n" + header + "\r\n"
    for row in rows:
        text += ",".join(cell(v) for v in row) + "\r\n"
    return text.encode("utf-8")


def _axes(matrix):
    """A frequency and a time axis that fit ``matrix``."""
    rows, frames = np.shape(matrix)
    return np.linspace(0.0, 4.0, rows), np.arange(frames) / 8.0 + 0.125


def _tfr_of(matrix):
    return TFRepresentation(matrix, *_axes(matrix), "stft", WindowMeta("gaussian", 3.0, 2, 1))


def _special_values():
    rng = np.random.default_rng(3)
    mat = rng.lognormal(-3.0, 4.0, (9, 11)) * rng.choice([-1.0, 1.0], (9, 11))
    mat[rng.random((9, 11)) < 0.4] = 0.0
    mat[1, :4] = [-0.0, 5e-324, 2.2250738585072014e-309, 1e300]
    mat[2, :5] = [np.inf, -np.inf, np.nan, 0.1, 0.1]
    mat[3, :] = 0.1
    return mat


def _block_crossing():
    # past one block of rows (write_tfr_csv reads its magnitude by blocks)
    rng = np.random.default_rng(4)
    mat = rng.random((_BLOCK_CELLS // 6 + 5, 6))
    mat[mat < 0.5] = 1e-2
    return mat


def _curve_specials():
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e300, 0.1])
    return {"time_s": np.arange(8) / 3.0, "value": values, "other": values[::-1]}


_LONG = 2 * 256 + 3
_BLOCK_PLUS = _CSV_BLOCK_CELLS // 3 + 7  # rows of three cells: past one block


def _long_floor():
    # a display-like body: most cells at a floor whose text is long
    rng = np.random.default_rng(11)
    mat = rng.lognormal(-2.0, 1.0, (_BLOCK_PLUS, 2))
    mat[rng.random(mat.shape) < 0.7] = 0.012345678901234567
    return np.maximum(mat, 0.012345678901234567)


def _low_rows_between():
    # rows all low past the first column before, between and after mixed
    # rows (as in a masked body), then a tail long enough to fill blocks
    mat = np.full((300 + 2 * _CSV_BLOCK_CELLS // 4, 3), 0.012345678901234567)
    for rows in (slice(40, 90), slice(150, 151), slice(200, 260)):
        mixed = np.random.default_rng(rows.start).lognormal(-2.0, 1.0, mat[rows].shape)
        mat[rows] = np.where(mixed < 0.1, mat[rows], mixed)
    return mat


@pytest.mark.parametrize("data", [
    _special_values(),
    np.full((5, 4), 0.3),                                        # all minimum
    np.random.default_rng(5).random((1, 13)),                    # one row
    _block_crossing(),                                           # > 1 block
    np.random.default_rng(6).random((7, 8)),                     # dense
    # curves: the first column is a dict's first key
    {"kind": np.repeat(["knot", "coefficient"], [4, 3]), "index": np.r_[0:4, 0:3],
     "value": np.random.default_rng(9).normal(size=7)},
    {"k": np.repeat([-2, 0, 3], 3), "time_s": np.tile([0.0, 0.5, 2 / 3], 3),
     "count": np.array([1, 2, -3, 2**53 + 1, 2**60, 0, 7, 8, 9])},
    _curve_specials(),
    {"time_s": np.array([0.25]), "if_hz": np.array([np.pi])},
    {"time_s": np.arange(_LONG) / 7.0,
     "value": np.random.default_rng(10).lognormal(0.0, 5.0, _LONG)},
    {"kind": np.repeat(["knot", "a_much_longer_coefficient_label"], _BLOCK_PLUS // 2),
     "index": np.arange(_BLOCK_PLUS // 2 * 2),
     "value": np.random.default_rng(12).normal(size=_BLOCK_PLUS // 2 * 2)},
    _long_floor(),
    _low_rows_between(),
    {"time_s": np.arange(_BLOCK_PLUS) / 7.0,
     "value": np.random.default_rng(13).lognormal(0.0, 9.0, _BLOCK_PLUS),
     "other": np.random.default_rng(14).normal(size=_BLOCK_PLUS)},
], ids=["specials", "all_equal", "one_row", "block_crossing", "dense",
        "curve_text_first", "curve_integers", "curve_specials",
        "curve_one_row", "curve_block_crossing", "curve_text_first_blocks",
        "long_low_text_blocks", "low_rows_between", "no_low_cell_blocks"])
def test_tfr_csv_matches_per_cell_reference(data):
    meta = {"method": "stft", "hop": 2, "quantile_q": "0.5"}
    fh = io.BytesIO()
    if isinstance(data, dict):
        write_curve_csv(fh, data, meta)
        want = reference_csv(meta, ",".join(data), zip(*data.values()))
    else:
        # the writer encodes the values it is given, signed ones included;
        # the least value as low puts its low-text path to work
        freq, times = _axes(data)
        write_tfr_csv(fh, data, freq, times, meta, np.fmin.reduce(data, axis=None))
        want = reference_csv(meta, "freq_hz," + ",".join(format(t, ".17g") for t in times),
                             ([f, *row] for f, row in zip(freq, data)))
    assert fh.getvalue() == want


def _curve_bytes(values):
    """The CSV of ``values`` as the first column and as the body, by the
    writer and by the per-cell reference."""
    columns = {"x": values, "y": values[::-1]}
    fh = io.BytesIO()
    write_curve_csv(fh, columns, {})
    return fh.getvalue(), reference_csv({}, "x,y", zip(*columns.values()))


@settings(max_examples=200, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
@example(bits=[0, 2**63, 1, 2**52 - 1, 2**52, 0x7FF0000000000000,
               0xFFF0000000000000, 0x7FF8000000000000, 0x7FEFFFFFFFFFFFFF,
               0xC00921FB54442D18])
def test_csv_numbers_match_format_on_raw_bit_patterns(bits):
    # any float64, subnormals, -0.0, NaN and infinities included, gives
    # format(x, ".17g") alone in its row and inside a block
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    for value in values[:3]:
        got, want = _curve_bytes(np.array([value]))
        assert got == want, value
    got, want = _curve_bytes(values)
    assert got == want
    # and as a matrix with low cells around it: -inf, passed as the low
    # value, so that only a cell with its bits takes the low text
    matrix = np.full((values.size, 3), -np.inf)
    matrix[:, 1] = values
    freq, times = _axes(matrix)
    fh = io.BytesIO()
    write_tfr_csv(fh, matrix, freq, times, {}, -np.inf)
    assert fh.getvalue() == reference_csv({}, "freq_hz," + ",".join(
        format(t, ".17g") for t in times), ([f, *row] for f, row in zip(freq, matrix)))


def _powers_of_ten():
    exact = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([exact, np.nextafter(exact, 0.0),
                           np.nextafter(exact, np.inf), -exact])


def _digits(x: float) -> str:
    """The 17 significant digits of ``format(x, ".17g")``, d0 to d16."""
    return format(x, ".16e")[:18].replace(".", "").lstrip("-")


def _group_edges():
    # 0000 and 9999 as each of the four 4-digit groups d1..d4 to d13..d16,
    # in fixed and exponent notation: the doubles next to a 17-digit text
    # with that group, the first whose own digits keep it
    rng = np.random.default_rng(17)
    values = []
    # (no exponent from 10 to 17: there a double has few bits after the
    # point, so its exact decimal is short and fixes the last digits)
    for place, group, exponent in itertools.product(range(4), ("0000", "9999"),
                                                    (-7, -3, 0, 6, 9, 21, 150)):
        where = slice(1 + 4 * place, 5 + 4 * place)
        for _ in range(100):
            digits = [str(d) for d in rng.integers(0, 10, 17)]
            digits[0] = str(rng.integers(1, 10))
            digits[where] = group
            near = float(f"{digits[0]}.{''.join(digits[1:])}e{exponent}")
            hits = [x for x in [near, *np.nextafter(near, [-np.inf, np.inf]).tolist()]
                    if _digits(x)[where] == group]
            if hits:
                values += [hits[0], -hits[0]]
                break
        else:
            raise AssertionError(f"no double with {group} at d{where.start}, e={exponent}")
    return np.array(values)


def _trailing_zeros():
    # exactly 0 to 16 trailing zeros of the 17 digits: 2**j has the digits
    # of 2**j (fixed notation), 2**j * 10**m (m <= 22, an exact product) the
    # same digits in exponent notation
    values = np.array([2.0**j * 10.0**m for j in range(57) for m in (0, 19)])
    found = {(17 - len(_digits(x).rstrip("0")), "e" in format(x, ".17g")) for x in values}
    assert found == set(itertools.product(range(17), (False, True)))
    return values


@pytest.mark.parametrize("values", [
    _powers_of_ten(),
    _group_edges(),
    _trailing_zeros(),
    # k/8 next to 1e14: x * 10**2 is exact and its last digit often a tie
    (np.arange(8 * 10**14 - 3000, 8 * 10**14 + 3000) / 8.0),
    # integers from 2**53 on, and above 1e17 where 10**(16 - e) is no double
    np.arange(2.0**53 - 500, 2.0**53 + 1500),
    np.round(10.0 ** np.random.default_rng(15).uniform(17.0, 22.0, 2000)),
    # k/2**j over many octaves: few significant bits, many trailing zeros
    np.concatenate([np.arange(1, 200) / 2.0**j for j in range(-40, 60)]),
    # +-0.0 at row leads, beside the least subnormal and the fast range's edge
    np.array([0.0, -0.0, 5e-324, 0.0, -1e-280, -0.0, 1e-280, -5e-324, -0.0, 0.0, 1.0]),
], ids=["powers_of_ten", "group_edges", "trailing_zeros", "ties_near_1e14",
        "integers_past_2_53",
        "integers_past_1e17", "dyadic", "signed_zeros"])
def test_csv_numbers_match_format_on_hard_cases(values):
    for value in values[:2]:  # alone in its CSV
        got, want = _curve_bytes(np.array([value]))
        assert got == want, value
    got, want = _curve_bytes(values)
    assert got == want
    # after a first column of text
    names = np.array([f"r{i}" for i in range(values.size)])
    fh = io.BytesIO()
    write_curve_csv(fh, {"name": names, "x": values, "y": values[::-1]}, {})
    assert fh.getvalue() == reference_csv({}, "name,x,y", zip(names, values, values[::-1]))


def _oracle_pow10():
    """_csv_pow10 built from scratch for each exponent: 10**|k| and the
    correctly rounded parse of "1e{k}"."""
    parts = []
    for k in range(16 + formats._POW10_E, 15 - formats._POW10_E, -1):
        n = 10 ** abs(k)
        hi = float(f"1e{k}")
        m, d = hi.as_integer_ratio()
        parts.append((hi, float(n - m) if k >= 0 else float(d - m * n) / n / d))
    hi, lo = np.array(parts).T
    high = hi * 134217729.0
    high -= high - hi
    return np.stack([high, hi - high, lo])


def _first_match(slot: str, text: str):
    """The mask that picks ``text`` out of ``slot``, each character at its
    first match from the left; None if ``text`` is no subsequence."""
    mask, at = [], 0
    for ch in slot:
        mask.append(at < len(text) and ch == text[at])
        at += mask[-1]
    return mask if at == len(text) else None


def _oracle_layouts():
    """_csv_layouts built from each layout's text, with the digits d0..d16
    as A..Q and the exponent's last three digits as xyz.  The slot holds the
    prefix (the text before A) ending at byte 10, A and "." at 10 and 11,
    B..Q at 12 to 27, "e" and the sign at 28 and 29 and 0xyz at 32 to 35.
    Where the text is no subsequence of the slot, d1..d_e move onto the "."
    and a "." follows them; the mask picks the text from the slot."""
    group, ascii4 = np.arange(10000), np.empty((10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        ascii4[:, j] = 48 + group // place % 10
    kind = np.array([e + 4 if -4 <= e <= 16 else 21 if e > 99 else 22 if e > 0
                     else 23 if e > -100 else 24 for e in range(-300, 301)])
    tail = "".join("e" + "+-"[e < 0] + "\0\0" + f"{abs(e):04d}" for e in range(-300, 301))
    digit, tails = "ABCDEFGHIJKLMNOPQ", ("", "e+xyz", "e+yz", "e-yz", "e-xyz")
    prefixes, masks, shifts, lengths = [], [], [], []
    for pre, c in itertools.product((",", ",-", "\r\n", "\r\n-"), range(25)):
        pre += "0." + "0" * (3 - c) if c < 4 else ""
        prefixes.append(pre.rjust(10, "\0") + "\0.")
        slot = pre.rjust(10, "\0") + "A." + digit[1:] + "e" + "+-"[c > 22] + "\0\0" + "0xyz"
        w = c - 3 if 4 <= c <= 20 else 1
        for n in range(1, 18):
            text = pre + (digit[:n] if c < 4 else digit[:w] + ("." + digit[w:n]) * (n > w)) \
                + tails[max(c - 20, 0)]
            mask = _first_match(slot, text)
            shifts.append(mask is None)
            if mask is None:
                mask = _first_match(slot[:11] + digit[1:w] + "." + slot[11 + w:], text)
            masks.append(mask)
            lengths.append(len(text))

    def uint32(text, columns):
        return np.frombuffer(text.encode(), np.uint32).reshape(-1, columns).T

    return (ascii4.view(np.uint32).ravel(), kind, uint32("".join(prefixes), 3),
            uint32(tail, 2), np.array(masks), np.array(lengths), np.array(shifts))


def test_csv_tables_equal_their_text_built_oracles():
    tables = [formats._csv_pow10.__wrapped__(), *formats._csv_layouts.__wrapped__()]
    oracles = [_oracle_pow10(), *_oracle_layouts()]
    for got, want in zip(tables, oracles, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
    # an encoder that fails midway, through the sink that owns every file:
    # an old target keeps its bytes, a new one is not created, no temp
    # file is left and neither path is listed as written
    outputs = cli._Outputs({"output": {"directory": str(tmp_path),
                                       "formats": ["csv"]}})
    path = tmp_path / "kept.csv"
    path.write_bytes(b"old")

    def failing(fh, text):
        fh.write(text)
        raise RuntimeError("encoder failed")

    for name in ("kept.csv", "new.csv"):
        with pytest.raises(RuntimeError, match="encoder failed"):
            outputs.write(name, failing, b"partial")
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
    assert path.read_bytes() == b"old"
    assert outputs.written == []


def _bits(values):
    return np.asarray(values, dtype="<f8").view("<u8")


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=40),
       rate=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       t_start=st.floats(allow_nan=False, allow_infinity=False))
@example(values=[-0.0, 5e-324, -2.2250738585072014e-309, 1e308],
         rate=2.5e-310, t_start=-0.0)
@example(values=[1.0, 2.0, 3.0, 4.0], rate=10.0, t_start=1e15)  # 1e15 + 0.25 twice
def test_uniform_csv_roundtrip(tmp_path_factory, values, rate, t_start):
    # a grid whose times do not strictly increase (a subnormal rate gives
    # 0, inf, inf, ...) or that ends at inf is refused; any other
    # round-trips bit for bit
    with np.errstate(over="ignore"):
        times = t_start + np.arange(len(values)) / rate
    if not np.all(times[1:] > times[:-1]):
        with pytest.raises(ValueError, match="do not strictly increase"):
            UniformSignal(values, rate, t_start)
        return
    if not np.isfinite(times[-1]):
        with pytest.raises(ValueError, match="grid's end"):
            UniformSignal(values, rate, t_start)
        return
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        write_file(path, write_uniform_csv, UniformSignal(values, rate, t_start),
                   {"method": "x"})
    back = read_uniform_csv(path)
    np.testing.assert_array_equal(_bits(back.values), _bits(values))
    assert _bits([back.rate, back.t_start]).tolist() \
        == _bits([rate, t_start]).tolist()


def test_grid_whose_end_overflows_is_refused_by_name(tmp_path, capsys):
    # t_start + 1/rate overflows: the grid [1.79e308, inf] strictly increases,
    # and was accepted, with an overflow warning when its times were read
    src = tmp_path / "input.csv"
    src.write_text("# rate_hz=1e-306\n# t_start_s=1.79e308\ntime_s,value\n0,1.0\n0,2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"grid's end t_start \+ 1/rate overflows"):
            UniformSignal([1.0, 2.0], 1e-306, 1.79e308)
        with pytest.raises(ValueError, match="input.csv: the grid's end"):
            read_uniform_csv(src)
        out = tmp_path / "x"
        assert main(["tfr", "--set", f"input={src}", "--out", str(out)]) == 2
    assert "the grid's end" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("low", [None, 0.0, -0.0])
@pytest.mark.parametrize("matrix", [[[0.0, -0.0, 1.0]], [[-0.0, 0.0, 1.0]],
                                    [[0.0, 0.0], [-0.0, -0.0]], [[-0.0, -0.0], [0.0, 0.0]]])
def test_tfr_csv_keeps_signed_zeros_apart(matrix, low):
    # 0.0 and -0.0 compare equal but format apart: only a cell with the
    # bits of the low value takes its text, in mixed rows and in rows
    # that are all low; None gives the writer's default low, NaN
    matrix = np.array(matrix)
    freq, times = _axes(matrix)
    fh = io.BytesIO()
    write_tfr_csv(fh, matrix, freq, times, {}, *([] if low is None else [low]))
    assert fh.getvalue() == reference_csv({}, "freq_hz," + ",".join(
        format(t, ".17g") for t in times), ([f, *row] for f, row in zip(freq, matrix)))


# float64 bit patterns: +-0.0, NaNs with either sign and payload, +-inf,
# subnormals of either sign, and any other
_CELL_BITS = st.one_of(
    st.sampled_from([0, 2**63, 0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000]),
    st.integers(1, 2**52 - 1), st.integers(2**63 + 1, 2**63 + 2**52 - 1),
    st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), bins=st.integers(1, 12), frames=st.integers(1, 5),
       own=st.integers(1, 8), cells=st.integers(1, 16))
def test_tfr_csv_bytes_do_not_depend_on_low(data, bins, frames, own, cells):
    # the low value only chooses which cells share one constant text: for a
    # low drawn from the matrix's own cells, +-0.0 or NaN, the bytes are the
    # per-cell format(x, ".17g") of every cell, at blocks of a few cells too
    bits = data.draw(st.lists(_CELL_BITS, min_size=bins * frames, max_size=bins * frames))
    matrix = np.array(bits, dtype=np.uint64).view(np.float64).reshape(bins, frames)
    low = data.draw(st.sampled_from([*matrix.ravel(), 0.0, -0.0, math.nan]))
    freq, times = _axes(matrix)
    fh = io.BytesIO()
    with mock.patch.object(formats, "_CSV_BLOCK_OWN", own), \
            mock.patch.object(formats, "_CSV_BLOCK_CELLS", cells):
        write_tfr_csv(fh, matrix, freq, times, {}, low)
    assert fh.getvalue() == reference_csv({}, "freq_hz," + ",".join(
        format(t, ".17g") for t in times), ([f, *row] for f, row in zip(freq, matrix)))


def _increasing(size):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=size, max_size=size, unique=True).map(sorted) \
        .filter(lambda v: all(a < b for a, b in zip(v, v[1:])))  # np.diff overflows


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bins=st.integers(1, 6), frames=st.integers(1, 6))
def test_tfr1_roundtrip(tmp_path_factory, data, bins, frames):
    matrix = data.draw(arrays("<f8", (bins, frames)))
    freq, times = data.draw(_increasing(bins)), data.draw(_increasing(frames))
    path = tmp_path_factory.getbasetemp() / "roundtrip.tfr1"
    write_file(path, write_tfr_binary, matrix, np.asarray(freq), np.asarray(times))
    mat, f, t = read_tfr_binary(path)
    np.testing.assert_array_equal(_bits(mat), _bits(matrix))
    np.testing.assert_array_equal(_bits(f), _bits(freq))
    np.testing.assert_array_equal(_bits(t), _bits(times))


class _NullSink:
    """A binary stream that drops what is written."""

    def write(self, data):
        pass


def test_writers_encode_a_magnitude_without_a_full_copy():
    # no writer holds a full-size copy of a real magnitude (mostly zero
    # cells, as in a sharpened matrix)
    import tracemalloc

    rng = np.random.default_rng(24)
    shape = (16385, 64)
    mag = np.where(rng.random(shape) < 0.9, 0.0, rng.lognormal(0.0, 3.0, shape))
    tfr = _tfr_of(mag)
    display = display_rows(tfr.matrix)._replace(rows=log_display(tfr).matrix)
    meta = {"method": "stft", "window_s": "3", "hop": 2}
    for name, encode, args in (
            ("tfr1", write_tfr_binary, (tfr.matrix, tfr.freq_axis, tfr.time_axis)),
            ("csv", write_tfr_csv, (tfr.matrix, tfr.freq_axis, tfr.time_axis, meta, 0.0)),
            ("pgm", write_pgm, (display, meta))):
        tracemalloc.start()
        try:
            encode(_NullSink(), *args)
            assert tracemalloc.get_traced_memory()[1] < 0.25 * mag.nbytes, name
        finally:
            tracemalloc.stop()


def _pgm_by_max_pass(display, meta):
    """write_pgm's bytes with the span read off the whole display."""
    span = float(display.max() - 1e-2)
    pixels = np.zeros(display.shape, dtype=np.uint8)
    if not span <= 0.0:
        pixels[::-1] = np.rint((display - 1e-2) / span * 255.0)
    return (f"P5\n# artifact=nyqmirror {__version__} method={meta['method']} "
            f"window_s={meta['window_s']} hop={meta['hop']}\n"
            f"{display.shape[1]} {display.shape[0]}\n255\n").encode("ascii") + pixels.tobytes()


@pytest.mark.parametrize("case", ["zeros", "all_equal", "sparse_lognormal", "masked"])
def test_pgm_span_is_the_display_maximum(case):
    # the span is max(1e-2, log1p(q)) - 1e-2 from the clip q, with no pass
    # over the display: the same bytes as the display's maximum gives
    rng = np.random.default_rng(26)
    shape = (300, 40)
    lognormal = np.where(rng.random(shape) < 0.9, 0.0, rng.lognormal(0.0, 3.0, shape))
    tfr = _tfr_of({"zeros": np.zeros(shape), "all_equal": np.full(shape, 3.5)}
                  .get(case, lognormal))
    matrix = tfr.matrix
    if case == "masked":
        curve = lambda t: 1.0 + 2.0 * t
        tfr, matrix = inf_hard_threshold(tfr, curve), inf_masked_rows(tfr, curve)
    meta = {"method": "stft", "window_s": "3", "hop": 2}
    fh = io.BytesIO()
    write_pgm(fh, display_rows(matrix), meta)
    assert fh.getvalue() == _pgm_by_max_pass(log_display(tfr).matrix, meta)


def test_pgm_reads_each_display_block_once(monkeypatch):
    mag = np.random.default_rng(27).lognormal(0.0, 2.0, (50, 7))
    display = display_rows(mag)
    made = []
    counted = RowBlocks(mag.shape, lambda a, b: made.append(a) or display.rows[a:b])
    monkeypatch.setattr(rowblocks, "_BLOCK_CELLS", 21)
    write_pgm(io.BytesIO(), display._replace(rows=counted),
              {"method": "stft", "window_s": "3", "hop": 2})
    assert made == list(range(0, 50, 3))


def test_csv_writer_peak_is_set_by_the_block():
    # dense random matrices, every cell its own text: twice the rows must
    # not raise the CSV writer's traced peak, as a per-matrix buffer would
    import tracemalloc

    peaks = []
    for bins in (8193, 16385):
        tfr = _tfr_of(np.random.default_rng(bins).random((bins, 96)))
        tracemalloc.start()
        try:
            formats._write_csv(_NullSink(), {}, "freq_hz", tfr.freq_axis, tfr.matrix,
                               tfr.matrix.min())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]
    assert peaks[1] < 0.1 * tfr.matrix.nbytes


_REFERENCE_INPUTS = next(mark.args[1] for mark in
                         test_tfr_csv_matches_per_cell_reference.pytestmark
                         if mark.name == "parametrize")


@pytest.mark.parametrize("cells", [1, 7, 64])
@pytest.mark.parametrize("own", [1, 3, 64])
def test_csv_bytes_do_not_depend_on_block_size(monkeypatch, own, cells):
    # the per-cell reference's inputs, cut to their first 300 rows: at
    # blocks of a few cells these cross hundreds of block boundaries.  One
    # more has a text first column wider than a cell's 36-byte slot
    monkeypatch.setattr(formats, "_CSV_BLOCK_OWN", own)
    monkeypatch.setattr(formats, "_CSV_BLOCK_CELLS", cells)
    wide = {"kind": np.array(["a_label_longer_than_a_thirty_six_byte_slot", "k"] * 20),
            "value": np.random.default_rng(16).lognormal(0.0, 9.0, 40)}
    for data in [*_REFERENCE_INPUTS, wide]:
        test_tfr_csv_matches_per_cell_reference(
            {name: column[:300] for name, column in data.items()}
            if isinstance(data, dict) else data[:300])


def test_csv_writer_memory_per_cell(monkeypatch):
    # a dense body, every cell its own text: the writer's traced peak per
    # cell of a block is its 36-byte slots and masks and a few 8-byte
    # arrays (about 600 B with a per-byte gather index)
    import tracemalloc

    monkeypatch.setattr(formats, "_CSV_BLOCK_OWN", 2048)
    formats._csv_layouts(), formats._csv_pow10()  # tables, not per cell
    tfr = _tfr_of(np.random.default_rng(16385).random((16385, 96)))
    tracemalloc.start()
    try:
        formats._write_csv(_NullSink(), {}, "freq_hz", tfr.freq_axis, tfr.matrix,
                           tfr.matrix.min())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * (2048 // 97 * 97), peak


@pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "padded"])
def test_tfr1_reader_checks_length(tmp_path, change):
    path = tmp_path / "m.tfr1"
    tfr = _tfr_of(np.random.default_rng(8).random((3, 5)))
    write_file(path, write_tfr_binary, tfr.matrix, tfr.freq_axis, tfr.time_axis)
    raw = path.read_bytes()
    assert len(raw) == 20 + 8 * (3 + 5 + 15)
    mat, _, _ = read_tfr_binary(path)
    assert mat.shape == (3, 5)
    path.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    with pytest.raises(ValueError, match=f"{len(raw)}.*{len(raw) + change}"):
        read_tfr_binary(path)
