"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed switches
between levels up to about 1.5x apart every few seconds as other tenants'
load comes and goes, so a raw wall time measures the neighbours as much
as the program.  The runner therefore pins itself, its workers and
one sampler process to a single CPU.  The sampler (this file, run as a
script) wakes every ``INTERVAL_S``, runs a short pure-Python calibration
loop once to warm the caches, times a second run in its own CPU time, and
sleeps again.  It shares nothing with the worker but the CPU and its
caches, so the program's allocations are not disturbed, and it takes
under 1 % of the CPU.

``rescale`` scales each stretch of a worker's time between two samples
by ``REF_S / c``, where ``c`` is the calibration time of the sample that
ends the stretch, and leaves out the time the sampler itself ran.  The
result is the time the interval would have taken had the calibration
loop taken ``REF_S`` throughout.  Over ten runs per workload on the
2-vCPU host the benchmark was set up on, this cut the spread (quartile
distance over median) of a pass's time from 0.14 to 0.33 (raw) to 0.04
to 0.09 (rescaled); the raw times stay in the saved record.

Usage: ``python3 bench/speed.py SAMPLES.json``; prints ``ready`` once it
samples, and on SIGTERM writes ``[[start, seconds run, calibration
seconds], ...]`` (monotonic clock) to SAMPLES.json and exits.
"""

from __future__ import annotations

import bisect
import json
import signal
import sys
import time
from array import array

INTERVAL_S = 0.02
LOOPS = 600
# the warm calibration's CPU time at the host's fast level: 32 to 36 us
# on the 2-vCPU Xeon VM the benchmark was set up on (5th percentile)
REF_S = 35e-6


def _calibrate() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i
    return total


def sample(out_path: str):
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    starts, runs, cals = array("d"), array("d"), array("d")
    print("ready", flush=True)
    while not stop:
        time.sleep(INTERVAL_S)
        start = time.monotonic()
        _calibrate()  # after the worker ran, warm the caches first
        cpu = time.thread_time()
        _calibrate()
        cals.append(time.thread_time() - cpu)
        starts.append(start)
        runs.append(time.monotonic() - start)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump([list(row) for row in zip(starts, runs, cals)], fh)


def rescale(samples, start: float, end: float) -> float:
    """Worker time in ``[start, end]`` at the speed where calibration takes
    ``REF_S``; ``samples`` are the sampler's, in time order."""
    if not samples:
        raise ValueError("no speed samples")
    starts = [s[0] for s in samples]
    i = bisect.bisect_right(starts, start)
    prev = start
    if i > 0:  # a sample that was still running at ``start``
        prev = max(prev, min(starts[i - 1] + samples[i - 1][1], end))
    total = 0.0
    while i < len(samples) and starts[i] < end:
        t, ran, cal = samples[i]
        total += max(t - prev, 0.0) * REF_S / cal
        prev = min(t + ran, end)
        i += 1
    if end > prev:  # the tail: the next sample, or the last one
        total += (end - prev) * REF_S / samples[min(i, len(samples) - 1)][2]
    return total


if __name__ == "__main__":
    sample(sys.argv[1])
