"""The pair-record writer (``tools/bench_pairs.py``), driven with two stub
checkouts whose ``bench/run.py`` prints a made-up result line."""

import importlib.util
import json
from pathlib import Path

import pytest

# a stub bench/run.py: logs its checkout and seed, then prints a result
# whose wall_s is the seed plus its checkout's offset (the change is 0.5 s
# faster except at seed 3); MODE "fail" exits 1, "silent" prints no result
_STUB = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, side = int(args["--seed"]), Path.cwd().name
with open(Path.cwd().parent / "log.txt", "a") as log:
    log.write(f"{side} {args['--workload']} {seed} {args['--seconds']}\\n")
if MODE == "fail":
    sys.exit(1)
print("workload", args["--workload"])
if MODE != "silent":
    wall = seed + (0.0 if side == "parent" or seed == 3 else -0.5)
    print(json.dumps({"correct": True, "attempted": 3, "failed": int(side == "change"),
                      "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                  "peak_rss_mb": {"value": 50.0 + seed, "unit": "MB"}}}))
'''
_BENCHMARK = {"workloads": [{"name": "alpha"}],
              "end_to_end": [{"name": "wall_s", "better": "lower"},
                             {"name": "peak_rss_mb", "better": "lower"}]}


def _tool():
    path = Path(__file__).parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path, change_mode="ok"):
    for side, mode in (("parent", "ok"), ("change", change_mode)):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(f"MODE = {mode!r}\n" + _STUB)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(_BENCHMARK))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_pair_record_alternates_and_summarises(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [*_checkouts(tmp_path), "--label", "stub", "--pairs", "4", "--first-seed", "1",
            "--seconds", "2"]
    assert _tool().main(argv) == 0
    log = (tmp_path / "log.txt").read_text().splitlines()
    assert log == ["parent alpha 1 2", "change alpha 1 2", "change alpha 2 2", "parent alpha 2 2",
                   "parent alpha 3 2", "change alpha 3 2", "change alpha 4 2", "parent alpha 4 2"]
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert record["label"] == "stub" and record["claim"] == "none"
    assert set(record["commits"]) == {"parent", "change"}
    assert record["command"] == "python3 bench/run.py --workload W --seed S --seconds 2 --trace 0"
    assert list(record["workloads"]) == ["alpha"]
    alpha = record["workloads"]["alpha"]
    assert (alpha["pairs"], alpha["seeds"]) == (4, [1, 2, 3, 4])
    assert alpha["exit_codes"] == {"parent": [0] * 4, "change": [0] * 4}
    assert alpha["failed"] == {"parent": 0, "change": 4}
    assert alpha["attempted"] == {"parent": 12, "change": 12}
    assert alpha["wall_s"] == {
        "unit": "s", "change_better_pairs": 3,
        "parent": {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0]},
        "change": {"median": 2.25, "q1": 1.25, "q3": 3.125, "runs": [0.5, 1.5, 3.0, 3.5]}}
    assert alpha["peak_rss_mb"]["change_better_pairs"] == 0


@pytest.mark.parametrize("mode, why", [("fail", "exit code 1"), ("silent", "no result line")])
def test_a_run_without_a_result_stops_with_exit_2(tmp_path, monkeypatch, capsys, mode, why):
    monkeypatch.chdir(tmp_path)
    argv = [*_checkouts(tmp_path, mode), "--label", "stub", "--pairs", "2"]
    assert _tool().main(argv) == 2
    # the parent's run of pair 1 came first, the change's stopped the tool
    assert (tmp_path / "log.txt").read_text().splitlines() == ["parent alpha 1 20",
                                                               "change alpha 1 20"]
    err = capsys.readouterr().err
    assert f"change ({tmp_path / 'change'}) alpha seed 1: {why}" in err
    assert not (tmp_path / "BENCH_stub.json").exists()
