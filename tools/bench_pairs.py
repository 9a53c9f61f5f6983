"""Pair records: run the benchmark (``bench/run.py``) on a parent and a
change checkout in alternating pairs and write ``BENCH_<label>.json``.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent ../parent --change . --label floor_scan \\
        --first-seed 301 --pairs 10 --seconds 20

Each workload runs its pairs one after another, the workloads in the order
of the change's ``BENCHMARK.json``.  Pair k (from 1) runs seed
``first_seed + k - 1`` on both checkouts, the parent first when k is odd
and the change first when k is even; each run is ``python3 bench/run.py
--workload W --seed S --seconds N --trace 0`` with the checkout as its
working directory, and its last output line is the result.  A run that
exits non-zero or prints no result line stops the tool with exit code 2,
naming the run, and no record is written; else the record is written to
``BENCH_<label>.json`` in the working directory.

The record gives the commits, the command, the host, the order and the
claim, and per workload the pairs, the seeds, the exit codes, the failed
and attempted job counts, and per end-to-end metric each side's runs,
median and quartiles (inclusive method) and ``change_better_pairs``: the
pairs in which the change is better, by the metric's direction in the
change's ``BENCHMARK.json``.  Values are rounded to 6 decimals.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


class PairError(Exception):
    """A run cannot be recorded (exit code 2)."""


def _commit(checkout: Path) -> str:
    if not (checkout / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _host() -> str:
    versions = []
    for name in ("numpy", "scipy"):
        try:
            versions.append(f"{name} {metadata.version(name)}")
        except metadata.PackageNotFoundError:
            pass
    return ", ".join([f"{os.cpu_count()}-vCPU {platform.machine()}",
                      f"Python {platform.python_version()}", *versions])


def run_once(side: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its parsed result line."""
    name = f"{side} ({checkout}) {workload} seed {seed}"
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise PairError(f"{name}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not (isinstance(result, dict) and {"metrics", "failed", "attempted"} <= result.keys()):
        raise PairError(f"{name}: no result line")
    return {**result, "exit": proc.returncode}


def _summary(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(x, 6) for x in runs]}


def workload_record(results: dict[str, list[dict]], seeds: list[int],
                    better: dict[str, str]) -> dict:
    """The record of one workload from each side's results, pair by pair."""
    record = {"pairs": len(seeds), "seeds": seeds,
              "exit_codes": {side: [r["exit"] for r in results[side]] for side in SIDES},
              "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
              "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES}}
    for metric in results["parent"][0]["metrics"]:
        runs = {side: [r["metrics"][metric]["value"] for r in results[side]] for side in SIDES}
        sign = -1.0 if better.get(metric, "lower") == "lower" else 1.0
        record[metric] = {
            "unit": results["parent"][0]["metrics"][metric]["unit"],
            **{side: _summary(runs[side]) for side in SIDES},
            "change_better_pairs": sum(sign * (c - p) > 0.0
                                       for p, c in zip(runs["parent"], runs["change"])),
        }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", default="none", help="the metric a gain is claimed on")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench_pairs: cannot read the change's BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    better = {m["name"]: m["better"] for m in bench.get("end_to_end", [])}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + k for k in range(args.pairs)]
    record = {"label": args.label,
              "commits": {side: _commit(checkouts[side]) for side in SIDES},
              "command": f"python3 bench/run.py --workload W --seed S --seconds "
                         f"{args.seconds:g} --trace 0",
              "host": _host(),
              "order": "alternating pairs: parent first in odd pairs, change first in even "
                       f"pairs; workloads run one after another ({', '.join(workloads)})",
              "claim": args.claim, "workloads": {}}
    try:
        for workload in workloads:
            results = {side: [] for side in SIDES}
            for k, seed in enumerate(seeds):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    print(f"bench_pairs: {workload} pair {k + 1} {side} seed {seed}",
                          file=sys.stderr)
                    results[side].append(run_once(side, checkouts[side], workload, seed,
                                                  args.seconds))
            record["workloads"][workload] = workload_record(results, seeds, better)
    except PairError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench_pairs: written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
