"""Acceptance gate: one test per criterion, each printed as PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts; every tolerance is pinned here, nothing deferred.
"""

import time

import numpy as np
import pytest

from nyqmirror import (
    SampleSet,
    SamplingScheme,
    UniformSignal,
    builtin_scenario,
    check_isr_identifiability,
    fig2_variant,
    fundamental_spline_spectrum,
    interpolate_nonuniform,
    interpolate_pchip,
    nonuniform_bspline,
    nonuniform_bspline_truncated_power,
    resample_uniform,
    sample_signal,
)
from nyqmirror.mitigation import inf_hard_threshold
from nyqmirror.physio_io import edr_signal, synth_rpeaks
from nyqmirror.reflection import (
    above_inf_energy_ratio,
    residual_scaling_table,
    verify_reflection_theorem,
)
from nyqmirror.sampling import estimate_isr
from nyqmirror.tf_analysis import (
    TFRepresentation,
    make_windows,
    multitaper,
    reassign,
    ridge_extract,
    stft,
    synchrosqueeze,
)


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}")


def scenario_signal(name, order):
    sc = builtin_scenario(name)
    samples = sample_signal(sc.signal, sc.scheme, 0.0, sc.duration_s)
    interp = interpolate_nonuniform(samples, order)
    sig = resample_uniform(interp, sc.resample_hz, samples.times[0],
                           samples.times[-1])
    return sc, sig


def restrict_frames(tfr, lo, hi):
    keep = (tfr.time_axis >= lo) & (tfr.time_axis <= hi)
    mat = np.abs(tfr.matrix[:, keep])
    mat.setflags(write=False)
    return TFRepresentation(mat, tfr.freq_axis, tfr.time_axis[keep],
                            "mt_sst", tfr.window_meta)


def mask_above_inf(tfr, inf_curve):
    inf_vals = np.asarray(inf_curve(tfr.time_axis), dtype=float)
    mat = np.where(tfr.freq_axis[:, None] > inf_vals[None, :],
                   np.abs(tfr.matrix), 0.0)
    mat.setflags(write=False)
    return TFRepresentation(mat, tfr.freq_axis, tfr.time_axis, "mt_sst",
                            tfr.window_meta)


def test_01_kernel_spectrum_oracle():
    start = time.perf_counter()
    got = fundamental_spline_spectrum(3, 0.5)
    assert abs(got - 48.0 / np.pi**4) <= 1e-6
    for n in (1, 2, 3, 5, 8, 12):
        assert abs(fundamental_spline_spectrum(n, 0.0) - 1.0) <= 1e-10
        assert abs(fundamental_spline_spectrum(n, 1.0)) <= 1e-10
        assert abs(fundamental_spline_spectrum(n, -3.0)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "kernel spectrum oracle",
           f"(eta3(1/2)={got:.9f}, {elapsed:.2f}s)")


def test_02_uniform_harmonic_reflection():
    start = time.perf_counter()
    t = np.arange(0, 481) / 6.0
    samples = SampleSet(times=t, values=np.cos(2.0 * np.pi * 2.5 * t))
    interp = interpolate_nonuniform(samples, 3)
    sig = resample_uniform(interp, 64.0, 0.0, 80.0)
    seg = sig.values[640:640 + 3840]  # interior 60 s
    spec = np.abs(np.fft.rfft(seg))
    k25, k35 = 150, 210  # 2.5 Hz and 3.5 Hz at 1/60 Hz spacing
    peak25 = spec[k25 - 1:k25 + 2].max()
    peak35 = spec[k35 - 1:k35 + 2].max()
    assert spec[k25] == spec[max(0, k25 - 5):k25 + 6].max()
    assert spec[k35] == spec[k35 - 5:k35 + 6].max()
    beta = 2.5 / 6.0
    want = fundamental_spline_spectrum(3, 1.0 - beta) \
        / fundamental_spline_spectrum(3, beta)
    got = peak35 / peak25
    assert abs(got - want) <= 0.02 * want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "uniform-harmonic reflection ratio",
           f"(measured {got:.6f} vs kernel {want:.6f}, {elapsed:.2f}s)")


def test_03_theorem_residual():
    start = time.perf_counter()
    sc = builtin_scenario("fig1")
    rep = verify_reflection_theorem(sc.signal, sc.scheme, 3, 5, 64.0, (0.0, 80.0))
    assert rep.residual <= 0.05
    family = [fig2_variant(s) for s in (1.0, 0.5, 0.25)]
    table = residual_scaling_table(family, 3, 5)
    residuals = [r for _, r in table]
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "reflection-theorem residual",
           f"(fig1 {rep.residual:.5f}; family {['%.5f' % r for r in residuals]}, "
           f"{elapsed:.1f}s)")


def test_04_figure_ridge_reproduction():
    # fig1: 10 s window resolves the slow quadratic ISR drift; fig2 needs a
    # 5 s window to track the sin(t) frequency modulation within 2 bins
    start = time.perf_counter()
    sc1, sig1 = scenario_signal("fig1", 3)
    win1 = make_windows("gaussian", 10.0, 64.0)[0]
    sst1 = synchrosqueeze(sig1, win1, 8, 16384, threshold=1e-8)
    above1 = mask_above_inf(restrict_frames(sst1, 6.0, 74.0), sc1.scheme.inf)
    ridge1 = ridge_extract(above1, 3.2, 6.5, 0.0)
    truth1 = sc1.scheme.psi_prime(above1.time_axis) - 2.5
    mad1 = float(np.mean(np.abs(ridge1 - truth1))) / (64.0 / 16384)
    t_fig1 = time.perf_counter() - start
    assert mad1 <= 2.0
    assert t_fig1 < 60.0

    start2 = time.perf_counter()
    sc2, sig2 = scenario_signal("fig2", 3)
    win2 = make_windows("gaussian", 5.0, 64.0)[0]
    sst2 = synchrosqueeze(sig2, win2, 8, 8192, threshold=1e-8)
    above2 = mask_above_inf(restrict_frames(sst2, 6.0, 74.0), sc2.scheme.inf)
    ridge2 = ridge_extract(above2, 3.9, 6.0, 0.0)
    truth2 = sc2.scheme.psi_prime(above2.time_axis) \
        - sc2.signal.iff(above2.time_axis)
    mad2 = float(np.mean(np.abs(ridge2 - truth2))) / (64.0 / 8192)
    t_fig2 = time.perf_counter() - start2
    assert mad2 <= 2.0
    assert t_fig2 < 60.0
    report(4, "figure ridge reproduction",
           f"(fig1 MAD {mad1:.2f} bins {t_fig1:.0f}s; "
           f"fig2 MAD {mad2:.2f} bins {t_fig2:.0f}s)")


def test_05_mitigation():
    # masking: exact zero above INF and bitwise idempotence; order raising:
    # above-INF energy ratio of the fig2 pipeline drops from n=3 to n=12
    # (ratios measured on interior frames: the n=12 interpolant rings at
    # the span boundaries, which the asymptotic statement does not cover)
    sc, sig3 = scenario_signal("fig2", 3)
    win = make_windows("gaussian", 10.0, 64.0)[0]
    sst3 = synchrosqueeze(sig3, win, 8, 16384, threshold=1e-8)

    masked = inf_hard_threshold(sst3, sc.scheme.inf)
    assert above_inf_energy_ratio(masked, sc.scheme.inf) == 0.0
    again = inf_hard_threshold(masked, sc.scheme.inf)
    np.testing.assert_array_equal(masked.matrix, again.matrix)

    _, sig12 = scenario_signal("fig2", 12)
    sst12 = synchrosqueeze(sig12, win, 8, 16384, threshold=1e-8)
    ratio3 = above_inf_energy_ratio(restrict_frames(sst3, 6.0, 74.0),
                                    sc.scheme.inf)
    ratio12 = above_inf_energy_ratio(restrict_frames(sst12, 6.0, 74.0),
                                     sc.scheme.inf)
    assert ratio12 < ratio3
    report(5, "mitigation",
           f"(mask ratio 0 exactly, idempotent; fig2 above-INF "
           f"n=3 {ratio3:.4f} vs n=12 {ratio12:.4f})")


def test_06_interpolation_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # knot exactness on 100 random non-uniform sample sets
    schemes = [1, 2, 3, 5, "pchip"]
    for trial in range(100):
        count = int(rng.integers(8, 40))
        t = np.sort(rng.uniform(0.0, 20.0, count)) + np.arange(count) * 1e-3
        v = rng.uniform(-4.0, 4.0, count)
        samples = SampleSet(times=t, values=v)
        scheme = schemes[trial % len(schemes)]
        interp = interpolate_pchip(samples) if scheme == "pchip" \
            else interpolate_nonuniform(samples, scheme)
        scale = np.max(np.abs(v)) or 1.0
        assert np.max(np.abs(interp(t) - v)) <= 1e-9 * scale

    # partition of unity for n <= 8 on random knot sequences
    for n in range(1, 9):
        knots = np.sort(rng.uniform(0.0, 10.0, n + 14))
        knots += np.arange(knots.size) * 1e-3
        x = np.linspace(knots[n], knots[-n - 1], 64)
        total = sum(nonuniform_bspline(n, j, knots, x)
                    for j in range(knots.size - n - 1))
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    # Cox-de Boor vs truncated-power for n <= 5
    for n in range(1, 6):
        knots = np.sort(rng.uniform(0.0, 5.0, n + 8))
        knots += np.arange(knots.size) * 1e-3
        x = np.linspace(knots[0], knots[-1], 200)
        for j in range(knots.size - n - 1):
            a = nonuniform_bspline(n, j, knots, x)
            b = nonuniform_bspline_truncated_power(n, j, knots, x)
            assert np.max(np.abs(a - b)) <= 1e-8

    # degree-n polynomial reproduction
    for n in (1, 2, 3, 5):
        t = np.sort(rng.uniform(0.0, 30.0, 90)) + np.arange(90) * 1e-3
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, n + 1))
        interp = interpolate_nonuniform(SampleSet(times=t, values=poly(t)), n)
        x = np.linspace(t[0], t[-1], 400)
        scale = max(np.max(np.abs(poly(x))), 1e-12)
        assert np.max(np.abs(interp(x) - poly(x))) / scale <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, "interpolation suite", f"({elapsed:.1f}s)")


def test_07_tf_conservation_and_determinism():
    rate = 32.0
    win = make_windows("gaussian", 2.0, rate)[0]
    rng = np.random.default_rng(7)
    for _ in range(10):
        sig = UniformSignal(rng.normal(size=512), rate=rate)
        base = stft(sig, win, 4, 256)
        squeezed = synchrosqueeze(sig, win, 4, 256, threshold=0.0)
        col_ref = base.matrix.sum(axis=0)
        col_got = squeezed.matrix.sum(axis=0)
        assert np.max(np.abs(col_ref - col_got)) <= 1e-6 * np.max(np.abs(col_ref))
        moved = reassign(sig, win, 4, 256, threshold=0.0)
        mass_ref = float(np.sum(np.abs(base.matrix) ** 2))
        assert abs(moved.matrix.sum() - mass_ref) <= 1e-6 * mass_ref

    # pure-tone ridge within one bin
    t = np.arange(int(20 * rate)) / rate
    tone = UniformSignal(np.cos(2.0 * np.pi * 5.0 * t), rate=rate)
    sst = synchrosqueeze(tone, win, 4, 1024)
    keep = (sst.time_axis > 2.0) & (sst.time_axis < 18.0)
    ridge = ridge_extract(sst, 3.0, 7.0)[keep]
    assert np.max(np.abs(ridge - 5.0)) <= rate / 1024

    # bit-identical across repeated runs and chunk sizes
    sig = UniformSignal(rng.normal(size=700), rate=rate)
    for fn in (stft, synchrosqueeze, reassign):
        ref = fn(sig, win, 4, 256, chunk=128).matrix
        np.testing.assert_array_equal(ref, fn(sig, win, 4, 256, chunk=128).matrix)
        for chunk in (1, 17, 4096):
            np.testing.assert_array_equal(
                ref, fn(sig, win, 4, 256, chunk=chunk).matrix
            )
    mt_ref = multitaper(sig, 2.0, 3, 4, 256, "rm", chunk=64).matrix
    np.testing.assert_array_equal(
        mt_ref, multitaper(sig, 2.0, 3, 4, 256, "rm", chunk=512).matrix
    )
    report(7, "TF conservation and determinism")


def test_08_identifiability_bound():
    # 20 warp pairs generating identical sample instants: measured
    # deviations stay within 2*eps and 2*eps/c of the shared constants
    grid = np.linspace(0.0, 24.0, 6001)

    def perturbed(base_psi, base_rate, amp):
        def psi(t):
            p = np.asarray(base_psi(t))
            return p + amp * np.sin(2.0 * np.pi * p) / (2.0 * np.pi)

        def psi_prime(t):
            p = np.asarray(base_psi(t))
            return np.asarray(base_rate(t)) * (1.0 + amp * np.cos(2.0 * np.pi * p))

        return SamplingScheme(psi=psi, psi_prime=psi_prime)

    def measured_constants(scheme):
        rate = np.asarray(scheme.psi_prime(grid), dtype=float)
        accel = np.gradient(rate, grid, edge_order=2)
        return float(np.min(rate)), float(np.max(np.abs(accel) / rate))

    bases = []
    for k in (1.0, 2.0, 4.0, 7.5):
        bases.append(SamplingScheme(
            psi=lambda t, k=k: k * np.asarray(t, dtype=float),
            psi_prime=lambda t, k=k: np.full_like(np.asarray(t, dtype=float), k),
        ))
    bases.append(builtin_scenario("fig1").scheme)
    bases.append(builtin_scenario("fig2").scheme)

    amps = (0.005, 0.02, 0.05, 0.1)
    pairs = 0
    worst = 0.0
    for base in bases:
        for amp in amps:
            if pairs >= 20:
                break
            pert = perturbed(base.psi, base.psi_prime, amp)
            rep = check_isr_identifiability(base, pert, grid)
            c_a, eps_a = measured_constants(base)
            c_b, eps_b = measured_constants(pert)
            eps = max(eps_a, eps_b)
            c = min(c_a, c_b)
            assert rep.max_isr_deviation <= 2.0 * eps
            assert rep.max_psi_deviation <= 2.0 * eps / c
            worst = max(worst, rep.max_isr_deviation / (2.0 * eps),
                        rep.max_psi_deviation / (2.0 * eps / c))
            pairs += 1
    assert pairs == 20
    report(8, "identifiability bound",
           f"(20 pairs, worst bound usage {worst:.2f})")


def test_09_closed_loop_physio():
    start = time.perf_counter()
    const = lambda v: (lambda t: np.full_like(np.asarray(t, dtype=float), v))
    rec = synth_rpeaks(const(1.4), const(0.5), 240.0, 0.1)
    est = estimate_isr(rec.times)
    rate, window_s, nfft = 8.0, 15.0, 2048
    binw = rate / nfft
    reflected_hz = 1.4 - 0.5

    def analyze(scheme):
        edr = edr_signal(rec, rate, scheme)
        tfr = multitaper(edr, window_s, 3, 1, nfft, "sst", threshold=1e-8)
        inner = restrict_frames(tfr, tfr.time_axis[0] + 20.0,
                                tfr.time_axis[-1] - 20.0)
        return inner

    cubic = analyze("cubic")
    base_ridge = ridge_extract(cubic, 0.25, 0.69)
    base_mad = float(np.mean(np.abs(base_ridge - 0.5))) / binw
    assert base_mad <= 1.0

    above = mask_above_inf(cubic, est.inf)
    refl_ridge = ridge_extract(above, 0.75, 1.3)
    refl_mad = float(np.mean(np.abs(refl_ridge - reflected_hz))) / binw
    assert refl_mad <= 2.0
    ratio_cubic = above_inf_energy_ratio(cubic, est.inf)

    # PCHIP keeps the reflected ridge: its image is smeared a few bins wide
    # by the scheme's nonlinearity, so the ridge location is assessed by
    # its mean, and the above-INF mass must stay substantial
    pchip = analyze("pchip")
    pchip_above = mask_above_inf(pchip, est.inf)
    pchip_ridge = ridge_extract(pchip_above, 0.75, 1.3)
    pchip_loc = abs(float(np.mean(pchip_ridge)) - reflected_hz) / binw
    ratio_pchip = above_inf_energy_ratio(pchip, est.inf)
    assert pchip_loc <= 2.0
    assert ratio_pchip > 0.01

    high = analyze(12)
    ratio_high = above_inf_energy_ratio(high, est.inf)
    assert ratio_high < ratio_cubic

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, "closed-loop physio",
           f"(base MAD {base_mad:.2f} bins, reflected MAD {refl_mad:.2f} bins, "
           f"pchip loc {pchip_loc:.2f} bins, above-INF cubic {ratio_cubic:.4f} "
           f"pchip {ratio_pchip:.4f} n12 {ratio_high:.4f}, {elapsed:.0f}s)")
