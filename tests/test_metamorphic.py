"""Relations between two runs that the mathematics ties together: through
the CLI (amplitude) and through the library (time and the mirror identity)."""

import json

import numpy as np
import pytest

from nyqmirror import (
    IMTSignal,
    SampleSet,
    builtin_scenario,
    interpolate_nonuniform,
    interpolate_pchip,
    resample_uniform,
    sample_signal,
)
from nyqmirror.cli import main
from nyqmirror.formats import read_tfr_binary
from nyqmirror.tf_analysis import TF_METHODS, tf_magnitude

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


# fig2's first 30 s of samples: about 240 of them, 241 frames x 513 bins
# at 32 Hz, a 10 s window, hop 4 and nfft 1024
FIG2 = builtin_scenario("fig2")
FIG2_SAMPLES = sample_signal(FIG2.signal, FIG2.scheme, 0.0, 30.0)


def _time_scaled_run(scale: float, interpolation) -> dict:
    """Each TF method's matrix of fig2's samples at times ``scale`` times
    theirs, resampled at 32 Hz / ``scale`` with a 10 s * ``scale`` window;
    ``interpolation`` is a spline order or 'pchip'."""
    samples = SampleSet(FIG2_SAMPLES.times * scale, FIG2_SAMPLES.values)
    interp = (interpolate_pchip(samples) if interpolation == "pchip"
              else interpolate_nonuniform(samples, interpolation))
    sig = resample_uniform(interp, 32.0 / scale, samples.times[0], samples.times[-1])
    return {method: tf_magnitude(sig, method, 10.0 * scale, 4, 1024, 3, 1e-8)
            for method in TF_METHODS}


@pytest.mark.parametrize("interpolation", [3, 12, "pchip"])
def test_time_times_a_power_of_two_keeps_the_matrices_exactly(interpolation):
    # time and rate scale exactly by a power of two, and every step is
    # scale-free: the B-spline's knot ratios, the resampling grid in
    # samples, the window in samples, the reassigned bin and frame in grid
    # units.  So each matrix keeps its bits, and its axes scale exactly
    base = _time_scaled_run(1.0, interpolation)
    for k in (-3, 2, 5):
        for method, tfr in _time_scaled_run(2.0 ** k, interpolation).items():
            want = base[method]
            assert np.count_nonzero(want.matrix), method
            assert np.array_equal(tfr.matrix, want.matrix), (method, k)
            assert np.array_equal(tfr.time_axis, want.time_axis * 2.0 ** k), (method, k)
            assert np.array_equal(tfr.freq_axis, want.freq_axis / 2.0 ** k), (method, k)


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_the_k1_image_takes_the_signals_samples(name):
    # the paper's mirror identity: at psi(t_m) = m, a cos 2 pi phi and its
    # k = 1 image a cos 2 pi (psi - phi) take the same values, so sampling
    # cannot tell them apart.  The values differ only by the root polish
    # (|psi(t_m) - m| <= 1e-10) and by rounding psi - phi near psi ~ 480;
    # measured 3.9e-13 (fig1) and 4.4e-11 (fig2), 4.9e-13 of fig2's peak
    # amplitude.  The SST runs at the CLI's default threshold, 1e-8: below
    # it, cells of no energy reassign on rounding noise
    sc = builtin_scenario(name)
    sig, scheme = sc.signal, sc.scheme
    image = IMTSignal(am=sig.am, phase=lambda t: scheme.psi(t) - sig.phase(t),
                      iff=lambda t: scheme.psi_prime(t) - sig.iff(t))
    ours, theirs = (sample_signal(s, scheme, 0.0, 60.0) for s in (sig, image))
    assert np.array_equal(ours.times, theirs.times)
    peak_amp = np.max(np.abs(sig.am(ours.times)))
    assert np.max(np.abs(ours.values - theirs.values)) <= 1e-12 * peak_amp
    ssts = [tf_magnitude(resample_uniform(interpolate_nonuniform(s, 3), 32.0,
                                          s.times[0], s.times[-1]),
                         "sst", 10.0, 4, 1024, 3, 1e-8).matrix for s in (ours, theirs)]
    assert np.max(np.abs(ssts[0] - ssts[1])) <= 1.5e-13 * np.max(ssts[0])
    assert np.array_equal(ssts[0].argmax(axis=0), ssts[1].argmax(axis=0))
