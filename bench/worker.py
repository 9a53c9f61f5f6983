"""One benchmark worker process: import ``nyqmirror`` from the checkout's
``src``, then optionally run one pass over a workload's jobs.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``, where SPEC holds
``{"src": dir, "jobs": [{"argv": [...], "out": dir}], "trace": bool,
"run_id": str}``; ``"jobs": []`` makes a set-up-only worker.  RESULT gets
the monotonic times at which the imports finished and at which the pass
started and ended, the peak RSS, each job's exit code and written paths
and, when traced, the spans.  The runner starts one worker at a time and
compares ``ready`` with its own monotonic clock at spawn to get the
set-up time.
"""

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    cli = importlib.import_module("nyqmirror.cli")  # numpy and scipy with it
    ready = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"nyqmirror imported from {cli.__file__}, not {src}")

    result = {"ready": ready, "start": None, "end": None, "jobs": []}
    tracer = None
    if spec["jobs"] and spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start, cpu_start = time.monotonic(), time.process_time()
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.run_id = f"{spec['run_id']}/job{i}"
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(job["argv"] + ["--out", job["out"]])
        except Exception as exc:  # a crash fails this job, not the pass
            traceback.print_exc()
            code = f"uncaught {type(exc).__name__}"
        result["jobs"].append({"exit": code,
                               "written": printed.getvalue().splitlines()})
    if spec["jobs"]:
        result["start"], result["end"] = start, time.monotonic()
        result["cpu_s"] = time.process_time() - cpu_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
