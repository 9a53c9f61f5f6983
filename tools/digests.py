"""Golden digests: the sha256 of every artifact and of the stdout of a
fixed list of ``nyqmirror`` CLI jobs, so that one command checks that a
change keeps the program's bytes.

Usage (from the root of a checkout)::

    python3 tools/digests.py --write DIGESTS.json
    python3 tools/digests.py --check DIGESTS.json

``--write`` runs the jobs through ``nyqmirror.cli.main`` in-process and
records, per job, its argv, its exit code, the sha256 of each artifact
and of its stdout, with the working directory masked as ``<dir>``, and the
parsed content of each ``.json`` report, plus the Python, numpy and scipy
versions.  ``--check`` runs them again and exits 0 when every digest
matches, 1 when any differs, and 2, without running, when the versions
differ from the file's: pocketfft and libm bits are only promised on one
platform.  A differing report is named with each key that changed, as
``job/file: key old -> new``; any other differing file (``<stdout>`` for
the printed paths), or a report whose values were not recorded, as
``job/file: differs``.

The job list is the benchmark's 7 jobs at seed 1, ``tfr`` fig2 under every
method with ``inf_mask`` (and ``sst`` again at ``interpolation.order=12``),
``predict`` fig1 and fig2 at orders 3 and 12 with and without
``predict.k_min=-3`` (two of them benchmark jobs), ``simulate`` fig2 with
the B-spline and with PCHIP, and a 240 s ``physio`` synth under ``mt_sst``
with and without ``inf_mask`` and with ``physio.edr_scheme=12`` and
``pchip``.  The order-12 transforms keep part of their bins in most blocks.
``nyqmirror`` is imported from ``PYTHONPATH`` when it is found there, else
from this checkout's ``src``, so the same jobs can be run on another commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH's entries

import numpy as np  # noqa: E402

_METHODS = ("stft", "sst", "rm", "mt_sst", "mt_rm")
_MASKED = ["--set", "mitigation.inf_mask=true"]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_list(inputs: Path) -> dict[str, list[str]]:
    """The fixed jobs by name, each an argv without ``--out``; the
    benchmark's R-peak record (seed 1) is generated into ``inputs``."""
    workloads = _bench_workloads()
    jobs = {f"{name}.{i}": job["argv"]
            for name in workloads.WORKLOADS
            for i, job in enumerate(workloads.jobs(name, 1, inputs))}
    for method in _METHODS:
        jobs[f"tfr-fig2-{method}"] = ["tfr", "--set", "scenario=fig2",
                                      "--set", f"analysis.method={method}", *_MASKED]
    jobs["tfr-fig2-sst-order12"] = [*jobs["tfr-fig2-sst"], "--set", "interpolation.order=12"]
    for scenario in ("fig1", "fig2"):
        for order in (3, 12):
            argv = ["predict", "--set", f"scenario={scenario}",
                    "--set", f"interpolation.order={order}"]
            if argv not in jobs.values():  # not a benchmark job already
                jobs[f"predict-{scenario}-{order}"] = argv
            jobs[f"predict-{scenario}-{order}-kmin3"] = [*argv, "--set", "predict.k_min=-3"]
    jobs["simulate-fig2"] = ["simulate", "--set", "scenario=fig2"]
    jobs["simulate-fig2-pchip"] = [*jobs["simulate-fig2"], "--set", "interpolation.scheme=pchip"]
    physio = ["physio", "--set", "physio.synth={}", "--set", "analysis.method=mt_sst"]
    jobs["physio-synth-mt_sst"] = physio
    jobs["physio-synth-mt_sst-masked"] = [*physio, *_MASKED]
    jobs["physio-synth-mt_sst-edr12"] = [*physio, "--set", "physio.edr_scheme=12"]
    jobs["physio-synth-mt_sst-edrpchip"] = [*physio, "--set", "physio.edr_scheme=pchip"]
    return jobs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_jobs(jobs: dict[str, list[str]], workdir: Path) -> dict[str, dict]:
    """Run each job into ``workdir / "out" / name`` and return, by name,
    its argv and stdout with ``workdir`` masked as ``<dir>``, its exit code,
    the sha256 of each file it wrote (by path under its directory) and of
    its stdout, and the parsed content of each ``.json`` file."""
    from nyqmirror.cli import main

    def masked(text: str) -> str:
        return text.replace(str(workdir), "<dir>")

    record = {}
    for name, argv in jobs.items():
        out = workdir / "out" / name
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main([*argv, "--out", str(out)])
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
        record[name] = {
            "argv": [masked(arg) for arg in argv],
            "exit": code,
            "stdout": _sha256(masked(printed.getvalue()).encode("utf-8")),
            "files": {p.relative_to(out).as_posix(): _sha256(p.read_bytes()) for p in files},
            "values": {p.relative_to(out).as_posix(): json.loads(p.read_bytes())
                       for p in files if p.suffix == ".json"},
        }
    return record


def versions() -> dict[str, str]:
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def differences(want: dict[str, dict], got: dict[str, dict]) -> list[str]:
    """Each job or file whose record differs, as ``job/file`` with why."""
    found = []
    for name in sorted(set(want) | set(got)):
        if name not in got or name not in want:
            found.append(f"{name}: {'missing' if name not in got else 'new'} job")
            continue
        a, b = want[name], got[name]
        for key in ("argv", "exit"):
            if a[key] != b[key]:
                found.append(f"{name}: {key} {a[key]} -> {b[key]}")
        if a["stdout"] != b["stdout"]:
            found.append(f"{name}/<stdout>: differs")
        for path in sorted(set(a["files"]) | set(b["files"])):
            if path not in b["files"]:
                found.append(f"{name}/{path}: missing")
            elif path not in a["files"]:
                found.append(f"{name}/{path}: new")
            elif a["files"][path] != b["files"][path]:
                found += _changed_keys(f"{name}/{path}", a.get("values", {}).get(path),
                                       b.get("values", {}).get(path)) \
                    or [f"{name}/{path}: differs"]
    return found


def _changed_keys(where: str, old, new) -> list[str]:
    """``where: key old -> new`` for each key whose value differs between
    two parsed JSON reports, compared as JSON text (NaN equals NaN); none
    when either was not recorded."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return []

    def text(report: dict, key: str) -> str:
        return json.dumps(report[key]) if key in report else "<none>"

    return [f"{where}: {key} {text(old, key)} -> {text(new, key)}"
            for key in sorted(set(old) | set(new)) if text(old, key) != text(new, key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=Path, metavar="FILE",
                      help="run the jobs and write their digests to FILE")
    mode.add_argument("--check", type=Path, metavar="FILE",
                      help="run the jobs and compare their digests with FILE's")
    args = parser.parse_args(argv)
    want = json.loads(args.check.read_text(encoding="utf-8")) if args.check else None
    if want is not None and want["versions"] != versions():
        print(f"versions differ: {want['versions']} recorded, {versions()} here",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nyqmirror-digests-") as tmp:
        workdir = Path(tmp)
        inputs = workdir / "inputs"
        inputs.mkdir()
        got = run_jobs(job_list(inputs), workdir)
    files = sum(len(job["files"]) for job in got.values())
    summary = f"{len(got)} jobs, {files} files in {time.perf_counter() - start:.1f} s"
    if want is None:
        args.write.write_text(json.dumps({"versions": versions(), "jobs": got},
                                         indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{summary}: written to {args.write}")
        return 0
    found = differences(want["jobs"], got)
    for line in found:
        print(line)
    print(f"{summary}: {len(found)} differences" if found else f"{summary}: all match")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
