"""Relations between two CLI runs that the mathematics ties together."""

import json

import numpy as np
import pytest

from nyqmirror.cli import main
from nyqmirror.formats import read_tfr_binary

# a cosine-scheme scenario small enough for a run in tens of ms: 513 bins x
# 161 frames at the default nfft
SCENARIO = {
    "signal": {"kind": "harmonic", "freq_hz": 3.0, "amp": 1.0},
    "scheme": {"kind": "cosine", "base_hz": 8.0, "depth_hz": 0.5, "period_s": 10.0},
    "duration_s": 20.0,
    "resample_hz": 16.0,
}


def _tfr_run(out, method: str, amp: float) -> dict:
    """The files of a masked ``tfr`` run of ``SCENARIO`` at amplitude ``amp``."""
    scenario = {**SCENARIO, "signal": {**SCENARIO["signal"], "amp": amp}}
    rc = main(["tfr", "--out", str(out), "--set", f"scenario={json.dumps(scenario)}",
               "--set", f"analysis.method={method}", "--set", "analysis.window_s=3.0",
               "--set", "mitigation.inf_mask=true", "--set", 'output.formats=["csv", "tfr1"]'])
    assert rc == 0
    return {path.name: path for path in out.iterdir()}


@pytest.mark.parametrize("method", ["sst", "rm", "mt_sst", "mt_rm"])
def test_amplitude_times_a_power_of_two_scales_the_matrices_exactly(tmp_path, method):
    # sampling, the spline solve, resampling and the transform are linear
    # and a power of two scales each step exactly, so a magnitude is 2^k
    # (a mass 2^2k) times the unscaled one, bit for bit, and every product
    # that is scale-free keeps its bytes; the display is log1p, not
    # scale-free, and is not compared
    base = _tfr_run(tmp_path / "base", method, 1.0)
    power = 2 if method.endswith("rm") else 1
    for k in (-3, 2, 5):
        scaled = _tfr_run(tmp_path / f"k{k}", method, 2.0 ** k)
        assert scaled.keys() == base.keys()
        for name in ("tfr.tfr1", "tfr_masked.tfr1"):
            want, *axes = read_tfr_binary(base[name])
            got, *got_axes = read_tfr_binary(scaled[name])
            assert np.count_nonzero(want) and np.all(got_axes[0] == axes[0])
            assert np.all(got_axes[1] == axes[1])
            assert np.array_equal(got, want * 2.0 ** (power * k)), (name, k)
        for name in ("inf.csv", "ridge_below_inf.csv", "ridge_above_inf.csv",
                     "mask_report.json"):
            assert scaled[name].read_bytes() == base[name].read_bytes(), (name, k)
