"""The benchmark's workloads: fixed lists of ``nyqmirror`` CLI jobs, the
seeded input generator, and the output checks that feed the failure count.

Each job is an argv list for ``nyqmirror.cli.main`` without ``--out``; the
runner gives every job its own output directory.  The checks read only the
written artifacts and use plain numpy with closed forms of the built-in
scenarios, never the library's own ridge extraction, so a library defect
cannot certify itself.  Tolerances are the acceptance suite's
(``tests/test_acceptance.py``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

PHYSIO_DURATION_S = 3600.0
PHYSIO_SYNTH_RESP_HZ = 0.5
PHYSIO_HR_HZ = 1.4          # mean heart rate of both physio records

_TFR_MASKED = ["--set", "mitigation.inf_mask=true"]
# the acceptance suite's closed-loop physio analysis uses a 15 s window: a
# 10 s window cannot keep the EDR base (0.5 Hz) apart from its mirror image
# (0.9 Hz), and the base ridge then wanders by up to 9 bins
_PHYSIO_COMMON = ["--set", "analysis.window_s=15", "--set", "analysis.hop=8",
                  *_TFR_MASKED,
                  "--set", 'output.formats=["tfr1"]']


def _fig1_isr(t):
    return 6.0 + (t - 80.0 / np.pi) ** 2 / 800.0


def _fig2_isr(t):
    return 8.0 + 0.5 * np.cos(np.pi * t / 10.0)


# name -> (ISR psi'(t), signal IF phi'(t)) of the built-in scenarios
SCENARIOS = {
    "fig1": (_fig1_isr, lambda t: np.full_like(t, 2.5)),
    "fig2": (_fig2_isr, lambda t: np.pi - 0.2 * np.sin(t)),
}


def rpeak_csv(seed: int, path: Path) -> float:
    """Write a 1 h R-peak CSV generated from ``seed``; return its
    respiration rate in Hz.

    R-R intervals are 1/1.4 s plus AR(1) jitter (coefficient 0.9, innovation
    sd 20 ms, about 46 ms stationary sd), the heart-rate variability of a
    resting adult; amplitudes are 1 + 0.1 cos(2 pi f_r t + phase) with f_r
    drawn from a resting breathing range well below the 0.7 Hz INF.
    """
    rng = np.random.default_rng(seed)
    resp_hz = float(rng.uniform(0.2, 0.45))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    count = int(PHYSIO_DURATION_S * PHYSIO_HR_HZ * 1.25)
    innovations = rng.normal(0.0, 0.02, count)
    jitter = np.empty(count)
    jitter[0] = innovations[0]
    for i in range(1, count):
        jitter[i] = 0.9 * jitter[i - 1] + innovations[i]
    rr = np.clip(1.0 / PHYSIO_HR_HZ + jitter, 0.3, 2.0)
    times = np.cumsum(rr)
    times = times[times <= PHYSIO_DURATION_S]
    amps = 1.0 + 0.1 * np.cos(2.0 * np.pi * resp_hz * times + phase)
    rows = "".join(f"{t:.17g},{a:.17g}\n" for t, a in zip(times, amps))
    path.write_text("time_s,amplitude\n" + rows, encoding="utf-8")
    return resp_hz


def jobs(workload: str, seed: int, inputs: Path) -> list[dict]:
    """The workload's jobs in order, each ``{"argv": [...], "check": {...}}``.

    Inputs the program reads (physio_long's R-peak CSV) are generated into
    ``inputs`` from ``seed``; the figure and predict jobs take no input.
    """
    if workload == "figures_csv":
        return [
            {"argv": ["simulate", "--set", "scenario=fig1"],
             "check": {"kind": "exit"}},
            {"argv": ["tfr", "--set", "scenario=fig1",
                      "--set", "analysis.method=sst", *_TFR_MASKED],
             "check": {"kind": "figure", "scenario": "fig1",
                       "band": [3.2, 6.5]}},
            {"argv": ["tfr", "--set", "scenario=fig2",
                      "--set", "analysis.method=mt_rm",
                      "--set", "analysis.window_s=5", *_TFR_MASKED],
             "check": {"kind": "figure", "scenario": "fig2",
                       "band": [3.9, 6.0]}},
        ]
    if workload == "predict_orders":
        return [
            {"argv": ["predict", "--set", "scenario=fig1"],
             "check": {"kind": "predict", "scenario": "fig1"}},
            {"argv": ["predict", "--set", "scenario=fig2",
                      "--set", "interpolation.order=12"],
             "check": {"kind": "predict", "scenario": "fig2"}},
        ]
    if workload == "physio_long":
        synth = {"ihr_hz": PHYSIO_HR_HZ, "resp_hz": PHYSIO_SYNTH_RESP_HZ,
                 "duration_s": PHYSIO_DURATION_S, "modulation_depth": 0.1}
        record = inputs / "rpeaks.csv"
        resp_hz = rpeak_csv(seed, record)
        return [
            {"argv": ["physio", "--set", "physio.synth=" + json.dumps(synth),
                      "--set", "analysis.method=mt_rm", *_PHYSIO_COMMON],
             "check": {"kind": "physio", "resp_hz": PHYSIO_SYNTH_RESP_HZ}},
            {"argv": ["physio", "--set", f"input={record}",
                      "--set", "analysis.method=mt_sst",
                      "--set", "physio.edr_scheme=12", *_PHYSIO_COMMON],
             "check": {"kind": "physio", "resp_hz": resp_hz}},
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("figures_csv", "predict_orders", "physio_long")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An artifact is missing, malformed, or outside its tolerance."""


def read_tfr1(path: Path):
    """Magnitudes (bins x frames), frequency axis and time axis of a TFR1
    file, after checking that its header matches its length."""
    raw = path.read_bytes()
    if raw[:4] != b"TFR1" or len(raw) < 20:
        raise CheckFailed(f"{path.name}: not a TFR1 file")
    bins, frames = (int(x) for x in np.frombuffer(raw, "<u8", 2, 4))
    want = 20 + 8 * (bins + frames + bins * frames)
    if len(raw) != want:
        raise CheckFailed(f"{path.name}: header {bins}x{frames} needs {want} "
                          f"bytes, file has {len(raw)}")
    freq = np.frombuffer(raw, "<f8", bins, 20)
    times = np.frombuffer(raw, "<f8", frames, 20 + 8 * bins)
    mag = np.frombuffer(raw, "<f8", bins * frames, 20 + 8 * (bins + frames))
    return mag.reshape(bins, frames), freq, times


def _band_ridge(mag, freq, lo, hi):
    """Per-frame maximum within [lo, hi] Hz, ties to the lower bin."""
    band = np.nonzero((freq >= lo) & (freq <= hi))[0]
    if band.size == 0:
        raise CheckFailed(f"band [{lo}, {hi}] Hz holds no bins")
    return freq[band[np.argmax(mag[band], axis=0)]]


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _check_mask_report(out: Path):
    after = _read_json(out / "mask_report.json").get("above_inf_ratio_after")
    if after != 0:
        raise CheckFailed(f"mask_report.json: above_inf_ratio_after={after}")


def _read_tfr1_files(out: Path) -> dict:
    """Every TFR1 artifact in ``out`` by file name, headers checked."""
    found = {path.name: read_tfr1(path) for path in sorted(out.glob("*.tfr1"))}
    if not found:
        raise CheckFailed("no TFR1 artifact written")
    return found


def _check_figure(out: Path, scenario: str, band):
    # the above-INF ridge of the unmasked TFR follows psi' - phi' within
    # 2 bins on the interior frames [6, 74] s
    mag, freq, times = _read_tfr1_files(out)["tfr.tfr1"]
    _check_mask_report(out)
    isr, iff = SCENARIOS[scenario]
    keep = (times >= 6.0) & (times <= 74.0)
    mag, times = mag[:, keep], times[keep]
    above = np.where(freq[:, None] > isr(times)[None, :] / 2.0, mag, 0.0)
    ridge = _band_ridge(above, freq, *band)
    mad = float(np.mean(np.abs(ridge - (isr(times) - iff(times))))) \
        / (freq[1] - freq[0])
    if not mad <= 2.0:
        raise CheckFailed(f"{scenario} above-INF ridge MAD {mad:.2f} bins > 2")


def _check_predict(out: Path, scenario: str):
    residual = _read_json(out / "residual_report.json").get("residual")
    if not (isinstance(residual, float) and residual <= 0.05):
        raise CheckFailed(f"residual {residual} > 0.05")
    with open(out / "components.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], np.asarray(rows[1:], dtype=float)
    col = {name: i for i, name in enumerate(header)}
    k1 = body[body[:, col["k"]] == 1.0]
    if k1.shape[0] == 0:
        raise CheckFailed("components.csv has no k = 1 curve")
    isr, iff = SCENARIOS[scenario]
    t = k1[:, col["time_s"]]
    want = isr(t) - iff(t)
    err = float(np.max(np.abs(k1[:, col["if_hz"]] - want)))
    if not err <= 1e-9 * max(float(np.max(np.abs(want))), 1.0):
        raise CheckFailed(f"k = 1 curve deviates from psi' - phi' by {err:.3e} Hz")


def _check_physio(out: Path, resp_hz: float):
    # the base EDR ridge sits at the generator's respiration rate within
    # 1 bin, away from 20 s edge transients
    mag, freq, times = _read_tfr1_files(out)["edr_tfr.tfr1"]
    _check_mask_report(out)
    keep = (times >= times[0] + 20.0) & (times <= times[-1] - 20.0)
    ridge = _band_ridge(mag[:, keep], freq, 0.1, 0.65)
    mad = float(np.mean(np.abs(ridge - resp_hz))) / (freq[1] - freq[0])
    if not mad <= 1.0:
        raise CheckFailed(f"EDR ridge MAD {mad:.2f} bins from {resp_hz:.4f} Hz")


def check_job(check: dict, out: Path):
    """Raise CheckFailed unless the job's artifacts in ``out`` pass."""
    kind = check["kind"]
    if kind == "figure":
        _check_figure(out, check["scenario"], check["band"])
    elif kind == "predict":
        _check_predict(out, check["scenario"])
    elif kind == "physio":
        _check_physio(out, check["resp_hz"])
    elif kind != "exit":
        raise ValueError(f"unknown check {kind!r}")
