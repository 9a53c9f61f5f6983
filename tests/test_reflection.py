"""Image-component prediction, synthesis, and the residual check."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from nyqmirror import (
    IMTSignal,
    reflection,
    SampleSet,
    SamplingScheme,
    UniformSignal,
    builtin_scenario,
    fig2_variant,
    fundamental_spline_spectrum,
    interpolate_nonuniform,
    resample_uniform,
    rowblocks,
    sample_signal,
)
from nyqmirror.reflection import (
    above_inf_energy_ratio,
    predict_components,
    residual_scaling_table,
    synthesize_prediction,
    verify_reflection_theorem,
)
from nyqmirror.spline_interp import image_kernel
from nyqmirror.tf_analysis import TFRepresentation, WindowMeta


def uniform_scheme(rate):
    return SamplingScheme(
        psi=lambda t: rate * np.asarray(t, dtype=float),
        psi_prime=lambda t: np.full_like(np.asarray(t, dtype=float), float(rate)),
    )


GRID = np.linspace(0.0, 80.0, 1601)


# ---------------------------------------------------------------------------
# predict_components
# ---------------------------------------------------------------------------

def test_harmonic_uniform_components():
    sc = builtin_scenario("fig1")
    comps = predict_components(sc.signal, uniform_scheme(6.0), 3, (-1, 1), GRID)
    by_k = {c.k: c for c in comps}
    beta = 2.5 / 6.0
    t = np.array([1.0, 40.0])
    np.testing.assert_allclose(by_k[0].if_curve(t), 2.5, atol=1e-12)
    np.testing.assert_allclose(by_k[1].if_curve(t), 3.5, atol=1e-12)
    np.testing.assert_allclose(
        by_k[0].amplitude, fundamental_spline_spectrum(3, beta), rtol=1e-9
    )
    np.testing.assert_allclose(
        by_k[1].amplitude, fundamental_spline_spectrum(3, 1.0 - beta), rtol=1e-9
    )
    # strongest first: the k = 0 base dominates
    assert comps[0].k == 0


def test_harmonic_uniform_components_order_12():
    sc = builtin_scenario("fig1")
    comps = predict_components(sc.signal, uniform_scheme(6.0), 12, (-2, 2), GRID)
    by_k = {c.k: c for c in comps}
    beta = 2.5 / 6.0
    for k in (0, 1, -1, 2):
        np.testing.assert_allclose(
            by_k[k].amplitude, fundamental_spline_spectrum(12, k - beta),
            rtol=1e-9,
        )


def test_fig2_first_image_frequency():
    sc = builtin_scenario("fig2")
    comps = predict_components(sc.signal, sc.scheme, 3, (0, 1), GRID)
    by_k = {c.k: c for c in comps}
    t = np.linspace(5.0, 75.0, 57)
    want = sc.scheme.psi_prime(t) - sc.signal.iff(t)
    np.testing.assert_allclose(by_k[1].if_curve(t), want, atol=1e-12)


def test_k0_is_signal_frequency():
    sc = builtin_scenario("fig2")
    comps = predict_components(sc.signal, sc.scheme, 5, (0, 0), GRID)
    t = np.linspace(0.0, 80.0, 101)
    np.testing.assert_allclose(comps[0].if_curve(t), sc.signal.iff(t), atol=1e-12)


def test_k_range_must_contain_zero():
    sc = builtin_scenario("fig1")
    with pytest.raises(ValueError):
        predict_components(sc.signal, sc.scheme, 3, (1, 3), GRID)


def test_mirror_symmetry_about_inf():
    # (psi' - phi') - psi'/2 == -(phi' - psi'/2) identically
    sc = builtin_scenario("fig2")
    t = np.linspace(0.0, 80.0, 501)
    isr = sc.scheme.psi_prime(t)
    iff = sc.signal.iff(t)
    np.testing.assert_allclose(
        np.abs((isr - iff) - isr / 2.0), np.abs(iff - isr / 2.0),
        rtol=0.0, atol=1e-12,
    )


def test_amplitude_decay_in_k():
    # |eta_hat(k - b)| strictly decays with the image index at fixed b
    for beta in (0.1, 0.25, 0.4):
        amps = [abs(fundamental_spline_spectrum(3, k - beta)) for k in (1, 2, 3, 4)]
        amps_neg = [abs(fundamental_spline_spectrum(3, -k - beta)) for k in (1, 2, 3)]
        assert all(a > b for a, b in zip(amps, amps[1:]))
        assert all(a > b for a, b in zip(amps_neg, amps_neg[1:]))
        assert abs(fundamental_spline_spectrum(3, -1 - beta)) < amps[0]


def test_order_suppression_of_first_image():
    betas = np.linspace(0.05, 0.45, 41)
    a3 = np.abs(fundamental_spline_spectrum(3, 1.0 - betas))
    a12 = np.abs(fundamental_spline_spectrum(12, 1.0 - betas))
    assert np.all(a12 < a3)


# ---------------------------------------------------------------------------
# synthesize_prediction
# ---------------------------------------------------------------------------

def test_synthesis_zero_amplitude():
    zero = IMTSignal(
        am=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        phase=lambda t: 2.0 * np.asarray(t, dtype=float),
        iff=lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
    )
    out = synthesize_prediction(zero, uniform_scheme(8.0), 3, 3, 32.0, (0.0, 10.0))
    np.testing.assert_array_equal(out.values, 0.0)


def test_synthesis_k0_high_isr_near_identity():
    # at beta = 2.5/32 the k=0 term alone reproduces the signal up to the
    # kernel passband droop plus the ignored image amplitudes
    sc = builtin_scenario("fig1")
    scheme = uniform_scheme(32.0)
    out = synthesize_prediction(sc.signal, scheme, 3, 0, 64.0, (0.0, 20.0))
    truth = np.cos(2.0 * np.pi * 2.5 * out.times)
    beta = 2.5 / 32.0
    bound = abs(1.0 - fundamental_spline_spectrum(3, beta)) + sum(
        abs(fundamental_spline_spectrum(3, k - beta))
        for k in range(-6, 7) if k != 0
    )
    rel = np.linalg.norm(out.values - truth) / np.linalg.norm(truth)
    assert rel <= bound + 1e-9


def test_synthesis_matches_pipeline_fig1():
    sc = builtin_scenario("fig1")
    samples = sample_signal(sc.signal, sc.scheme, 0.0, 80.0)
    interp = interpolate_nonuniform(samples, 3)
    actual = resample_uniform(interp, 64.0, samples.times[0], samples.times[-1])
    lo, hi = samples.times[0], samples.times[-1]
    predicted = synthesize_prediction(sc.signal, sc.scheme, 3, 3, 64.0, (lo, hi))
    keep = (actual.times >= 10.0) & (actual.times <= 70.0)
    rel = np.linalg.norm(actual.values[keep] - predicted.values[keep]) \
        / np.linalg.norm(actual.values[keep])
    assert rel <= 0.05


def counted_kernels(monkeypatch):
    """The beta arrays that reflection hands to ``image_kernel``."""
    made = []

    def counting(n, beta):
        made.append(beta)
        return image_kernel(n, beta)

    monkeypatch.setattr(reflection, "image_kernel", counting)
    return made


@pytest.mark.parametrize("name, n", [("fig1", 3), ("fig2", 12)])
def test_synthesis_makes_one_kernel_for_every_k(monkeypatch, name, n):
    # the series is the per-k spectrum's, to rounding: only the kernel's
    # periodic factors moved out of the loop over k
    sc = builtin_scenario(name)
    made = counted_kernels(monkeypatch)
    out = synthesize_prediction(sc.signal, sc.scheme, n, 4, 64.0, (0.0, 20.0))
    assert len(made) == 1
    t = out.times
    beta = sc.signal.iff(t) / sc.scheme.psi_prime(t)
    per_k = sc.signal.am(t) * sum(
        fundamental_spline_spectrum(n, k - beta)
        * np.cos(2.0 * np.pi * (k * sc.scheme.psi(t) - sc.signal.phase(t)))
        for k in range(-4, 5))
    assert np.max(np.abs(out.values - per_k)) <= 1e-14 * np.max(np.abs(per_k))


def test_components_make_one_kernel_for_every_k(monkeypatch):
    # the grid amplitudes of every k come from one kernel; each is
    # a(t) eta_hat_n(k - beta) on the grid, bit for bit, and its peak ranks it
    sc = builtin_scenario("fig2")
    made = counted_kernels(monkeypatch)
    comps = predict_components(sc.signal, sc.scheme, 12, (-3, 3), GRID)
    assert len(made) == 1 and len(comps) == 7
    kernel = image_kernel(12, sc.signal.iff(GRID) / sc.scheme.psi_prime(GRID))
    for comp in comps:
        assert comp.amplitude.tobytes() == (sc.signal.am(GRID) * kernel(comp.k)).tobytes()
        assert not comp.amplitude.flags.writeable
        assert comp.peak_amp == np.max(np.abs(comp.amplitude))


@pytest.mark.parametrize("rate", [1e13, np.inf, np.nan, 0.0, -64.0])
def test_synthesis_refuses_a_grid_rate_by_name(rate):
    # the series takes resample_uniform's grid and its refusals: no numpy
    # MemoryError, OverflowError, cast error or warning comes first
    sc = builtin_scenario("fig1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"rate must be positive and finite|"
                                             r"series points need .* lower the rate"):
            synthesize_prediction(sc.signal, sc.scheme, 3, 3, rate, (0.0, 80.0))


# ---------------------------------------------------------------------------
# verify_reflection_theorem
# ---------------------------------------------------------------------------

def test_uniform_harmonic_residual():
    sc = builtin_scenario("fig1")
    report = verify_reflection_theorem(
        sc.signal, uniform_scheme(6.0), 3, 5, 64.0, (0.0, 80.0)
    )
    assert report.residual <= 0.01


def test_fig1_residual():
    sc = builtin_scenario("fig1")
    report = verify_reflection_theorem(sc.signal, sc.scheme, 3, 5, 64.0, (0.0, 80.0))
    assert report.residual <= 0.05


def test_zero_signal_residual():
    zero = IMTSignal(
        am=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        phase=lambda t: 2.5 * np.asarray(t, dtype=float),
        iff=lambda t: np.full_like(np.asarray(t, dtype=float), 2.5),
    )
    report = verify_reflection_theorem(
        zero, uniform_scheme(8.0), 3, 3, 32.0, (0.0, 20.0)
    )
    assert report.residual == 0.0


def test_scaling_family_monotone():
    family = [fig2_variant(s) for s in (1.0, 0.5, 0.25)]
    table = residual_scaling_table(family, 3, 5)
    residuals = [r for _, r in table]
    assert all(a >= b for a, b in zip(residuals, residuals[1:]))


# ---------------------------------------------------------------------------
# above-INF energy ratio
# ---------------------------------------------------------------------------

def flat_tfr(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return TFRepresentation(
        matrix,
        np.arange(matrix.shape[0], dtype=float),
        np.arange(matrix.shape[1], dtype=float),
        "rm",
        WindowMeta("gaussian", 1.0, 1, 1),
    )


def test_ratio_zero_matrix():
    tfr = flat_tfr(np.zeros((8, 4)))
    assert above_inf_energy_ratio(tfr, lambda t: np.full_like(t, 3.0)) == 0.0


def test_ratio_all_mass_below():
    mat = np.zeros((8, 4))
    mat[1, :] = 1.0
    tfr = flat_tfr(mat)
    assert above_inf_energy_ratio(tfr, lambda t: np.full_like(t, 5.0)) == 0.0


def test_ratio_counts_strictly_above():
    mat = np.zeros((8, 4))
    mat[2, :] = 1.0  # at freq 2.0, INF 2.0: boundary belongs below
    mat[6, :] = 3.0
    tfr = flat_tfr(mat)
    got = above_inf_energy_ratio(tfr, lambda t: np.full_like(t, 2.0))
    assert got == pytest.approx(12.0 / 16.0)


@pytest.mark.parametrize("scale", [1.0, 1e306, 5e307])
def test_ratio_survives_a_sum_that_overflows(scale):
    # 16 cells of finite magnitude: at 5e307 their plain sum overflows,
    # which used to give inf / inf (NaN) and numpy's overflow warning
    mat = np.zeros((8, 4))
    mat[2, :] = scale
    mat[6, :] = 3.0 * scale
    tfr = flat_tfr(mat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = above_inf_energy_ratio(tfr, lambda t: np.full_like(t, 2.0))
    assert got == pytest.approx(12.0 / 16.0, rel=1e-15)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("rows", [1, 7, None])
def test_ratio_does_not_depend_on_block_size_or_memory_order(order, rows, monkeypatch):
    # rows are summed whole and then the row sums: one bit pattern whatever
    # the blocks or the layout (numpy sums an F-ordered block's rows
    # differently at different block sizes)
    mat = np.random.default_rng(32).lognormal(0.0, 2.0, (37, 29))
    inf = lambda t: 9.0 + 0.5 * t  # noqa: E731
    want = above_inf_energy_ratio(flat_tfr(mat), inf)
    copy = np.array(mat, order=order)
    copy.setflags(write=False)  # kept as it is, not copied to C order
    tfr = flat_tfr(copy)
    assert tfr.matrix.flags.f_contiguous == (order == "F")
    if rows is not None:  # blocks of that many rows; else the default
        monkeypatch.setattr(rowblocks, "_BLOCK_CELLS", rows * mat.shape[1])
    got = above_inf_energy_ratio(tfr, inf)
    assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)
    assert 0.0 < got < 1.0


def test_ratio_leaves_no_reference_to_its_representation():
    # the row sums make no reference cycle: the representation and its
    # matrix are freed as soon as the caller drops them, without the cyclic GC
    mat = np.zeros((8, 4))
    mat[6, :] = 3.0
    tfr = flat_tfr(mat)
    ref = weakref.ref(tfr)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert above_inf_energy_ratio(tfr, lambda t: np.full_like(t, 2.0)) == 1.0
        del tfr
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
