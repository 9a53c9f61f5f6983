"""Benchmark runner for the ``nyqmirror`` CLI.

Usage, from the root of a checkout::

    python3 bench/run.py --workload figures_csv --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's CLI jobs in order, each job
waiting for the previous one, through ``nyqmirror.cli.main`` inside a fresh
worker process per pass (``bench/worker.py``).  Workers run one at a time,
with BLAS/OpenMP pinned to one thread and a fixed hash seed.  Passes repeat
while the next one fits in ``--seconds``; there is always at least one.
Every pass writes into ``.bench_tmp/<workload>/pass/``, which is checked
and then deleted.

``--trace 0`` reports the end-to-end metrics (medians over the run's
workers): ``wall_s`` of one pass, ``peak_rss_mb`` of a pass worker, and
``setup_s`` from worker spawn until ``nyqmirror`` is imported, sampled by
two set-up-only workers plus every pass worker.  Both times are rescaled
to a reference host speed with the speed sampler's measurements
(``speed.py``); the raw wall-clock times are printed and saved beside
them.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``bench/tracer.py``; ``trace.overhead_s`` is the traced minus the
untraced ``wall_s``.

Every job's artifacts are checked (``bench/workloads.py``); a job with a
non-zero exit code or a failed check counts as failed, so the failure
fraction is ``failed / attempted`` of the last output line, a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed, the
raw samples and, when traced, the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
SAMPLER = Path(__file__).resolve().parent / "speed.py"
SETUP_ONLY_WORKERS = 2
DEADLINE_S = 170.0  # every worker is killed by then, inside the 180 s limit
# BLAS/OpenMP on one thread; a fixed hash seed because string hashing
# changes the allocation order, and with it the peak RSS (167 or 182 MB on
# predict_orders, depending on the seed)
WORKER_ENV = {"PYTHONHASHSEED": "0", **{name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}}
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark itself cannot run (exit code 2, no result line)."""


def spawn(spec: dict, scratch: Path, started: float) -> dict:
    """Run one worker to completion; return its result, with ``spawned``
    on the runner's monotonic clock."""
    spec_path = scratch / "spec.json"
    result_path = scratch / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"out of time after {DEADLINE_S:.0f} s")
    env = {**os.environ, **WORKER_ENV}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path), str(result_path)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=env,
            timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker killed at the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["spawned"] = spawned
    return result


def run_pass(job_list, traced: bool, run_dir: Path, run_id: str,
             started: float) -> dict:
    """One worker over every job; check the artifacts, then delete them."""
    pass_dir = run_dir / "pass"
    pass_dir.mkdir()
    try:
        spec = {"src": str(SRC), "trace": traced, "run_id": run_id,
                "jobs": [{"argv": job["argv"], "out": str(pass_dir / f"job{i}")}
                         for i, job in enumerate(job_list)]}
        result = spawn(spec, run_dir, started)
        failed = 0
        written = []
        for i, (job, done) in enumerate(zip(job_list, result["jobs"])):
            written += done["written"]
            why = None
            if done["exit"] != 0:
                why = f"exit code {done['exit']}"
            else:
                try:
                    workloads.check_job(job["check"], pass_dir / f"job{i}")
                except (workloads.CheckFailed, OSError, ValueError,
                        KeyError, IndexError) as exc:
                    why = f"check failed: {exc}"
            if why is not None:
                failed += 1
                print(f"bench: {run_id} job {i} ({job['argv'][0]}) {why}",
                      file=sys.stderr)
        out = {"worker": result, "cpu_s": result["cpu_s"],
               "peak_rss_mb": result["peak_rss_mb"],
               "failed": failed, "attempted": len(job_list)}
        if traced:
            out["spans"] = result.pop("spans")
            out["layers"] = tracer.layer_metrics(out["spans"])
            out["layers"]["cli.files_written"] = len(written)
            out["layers"]["cli.bytes_written"] = sum(
                os.path.getsize(p) for p in written)
        return out
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path, started: float) -> dict:
    inputs = run_dir / "inputs"
    inputs.mkdir()
    job_list = workloads.jobs(workload, seed, inputs)
    setup_workers = [] if trace else [
        spawn({"src": str(SRC), "jobs": [], "trace": False, "run_id": ""},
              run_dir, started)
        for _ in range(SETUP_ONLY_WORKERS)]
    # alternate untraced and traced passes when tracing
    kinds = [False, True] if trace else [False]
    passes = []
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            run_id = f"{workload}/seed{seed}/pass{len(passes)}"
            passes.append(run_pass(job_list, traced, run_dir, run_id, started))
            passes[-1]["traced"] = traced
        now = time.monotonic()
        if now - loop_start + (now - round_start) > seconds:
            break
    return setup_workers, passes


def rescale_times(setup_workers, passes, speed_samples) -> dict:
    """Every worker's set-up and pass time, raw and rescaled (speed.py)."""
    setups = [{"raw_s": w["ready"] - w["spawned"], "setup_s": speed.rescale(
        speed_samples, w["spawned"], w["ready"])}
        for w in setup_workers + [p["worker"] for p in passes]]
    for p in passes:
        w = p.pop("worker")
        p["raw_wall_s"] = w["end"] - w["start"]
        p["wall_s"] = speed.rescale(speed_samples, w["start"], w["end"])
    return {"setups": setups, "passes": passes,
            "speed_samples": len(speed_samples)}


@contextlib.contextmanager
def speed_sampler(path: Path):
    """Run the speed sampler for the duration of the block; the yielded
    list holds its samples once the block has ended."""
    proc = subprocess.Popen([sys.executable, str(SAMPLER), str(path)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True)
    samples = []
    try:
        if proc.stdout.readline().strip() != "ready":
            raise BenchError("the speed sampler did not start")
        yield samples
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"the speed sampler exited with code {proc.returncode}")
    samples.extend(json.loads(path.read_text(encoding="utf-8")))


def summarize(samples: dict, trace: bool) -> dict:
    plain = [p for p in samples["passes"] if not p["traced"]]
    if not trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(s["setup_s"] for s in samples["setups"]),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}
    traced = [p for p in samples["passes"] if p["traced"]]
    metrics = {}
    for name, unit in tracer.metric_names():
        if name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] for p in traced)
                     - statistics.median(p["wall_s"] for p in plain))
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "nyqmirror" / "cli.py").is_file():
        print(f"bench: no nyqmirror sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("bench: compiling the sources failed", file=sys.stderr)
        return 2

    # fixed paths: every pass hands the CLI the same argv, so that with the
    # hash seed fixed the program hashes and allocates the same strings
    run_dir = ROOT / ".bench_tmp" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # the runner, its workers and the speed sampler share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        with speed_sampler(run_dir / "speed.json") as speed_samples:
            workers = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), run_dir, started)
        samples = rescale_times(*workers, speed_samples)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = summarize(samples, bool(args.trace))
    failed = sum(p["failed"] for p in samples["passes"])
    attempted = sum(p["attempted"] for p in samples["passes"])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "failed": failed, "attempted": attempted, "metrics": metrics,
              "speed_samples": samples["speed_samples"],
              "setup_samples": samples["setups"],
              "passes": [{k: v for k, v in p.items() if k != "spans"}
                         for p in samples["passes"]]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    if args.trace:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for p in samples["passes"]:
                for span in p.get("spans", ()):
                    fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload} seed {args.seed} "
          f"passes {len(samples['passes'])}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    plain = [p for p in samples["passes"] if not p["traced"]]
    print(f"raw wall_s {statistics.median(p['raw_wall_s'] for p in plain):.6g} s")
    print("raw setup_s "
          f"{statistics.median(s['raw_s'] for s in samples['setups']):.6g} s")
    print(f"failed_frac {failed / attempted:.6g} 1")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
