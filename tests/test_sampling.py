"""Sample-time generation, ISR estimation, identifiability, INR margins."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nyqmirror import (
    SampleSet,
    SamplingScheme,
    builtin_scenario,
    check_inr,
    check_isr_identifiability,
    estimate_isr,
    sample_signal,
    sampling_times,
)


def linear_scheme(k, offset=0.0):
    return SamplingScheme(
        psi=lambda t: k * np.asarray(t, dtype=float) + offset,
        psi_prime=lambda t: np.full_like(np.asarray(t, dtype=float), float(k)),
    )


# ---------------------------------------------------------------------------
# sampling_times
# ---------------------------------------------------------------------------

def test_uniform_scheme_times():
    got = sampling_times(linear_scheme(4.0), 0.0, 1.0)
    np.testing.assert_allclose(got, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_offset_shifts_labels_not_spacing():
    got = sampling_times(linear_scheme(1.0, offset=10.0), 0.0, 2.0)
    np.testing.assert_allclose(got, [0.0, 1.0, 2.0], atol=1e-12)


def test_fig1_count_matches_closed_form():
    sc = builtin_scenario("fig1")
    times = sampling_times(sc.scheme, 0.0, 80.0)
    expected = math.floor(sc.scheme.psi(80.0)) - math.ceil(sc.scheme.psi(0.0)) + 1
    assert times.size == expected == 555


def test_roots_hit_integers():
    for name in ("fig1", "fig2"):
        sc = builtin_scenario(name)
        times = sampling_times(sc.scheme, 0.0, 80.0)
        resid = np.abs(sc.scheme.psi(times) - np.round(sc.scheme.psi(times)))
        assert np.max(resid) <= 1e-10
        assert np.all(np.diff(times) > 0.0)


def test_non_monotone_scheme_rejected():
    bad = SamplingScheme(
        psi=lambda t: np.cos(np.asarray(t, dtype=float)),
        psi_prime=lambda t: -np.sin(np.asarray(t, dtype=float)),
    )
    with pytest.raises(ValueError, match="non-monotone"):
        sampling_times(bad, 0.0, 6.0)


def test_bad_span_rejected():
    with pytest.raises(ValueError):
        sampling_times(linear_scheme(2.0), 1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(k=st.floats(min_value=0.5, max_value=40.0),
       span=st.floats(min_value=0.5, max_value=30.0))
def test_linear_scheme_arithmetic_progression(k, span):
    times = sampling_times(linear_scheme(k), 0.0, span)
    want = np.arange(0, math.floor(k * span + 1e-9) + 1) / k
    assert times.size == want.size
    # the crossing tolerance |psi(t) - m| <= 1e-10 maps to time via 1/k
    np.testing.assert_allclose(times, want, atol=1e-10 / min(k, 1.0))


def test_linear_scheme_step_exact():
    times = sampling_times(linear_scheme(4.0), 0.0, 25.0)
    np.testing.assert_allclose(times, np.arange(101) / 4.0, atol=1e-10)


# ---------------------------------------------------------------------------
# sample_signal
# ---------------------------------------------------------------------------

def test_sample_signal_composition():
    sc = builtin_scenario("fig1")
    samples = sample_signal(sc.signal, linear_scheme(6.0), 0.0, 1.0)
    np.testing.assert_allclose(
        samples.values, np.cos(2.0 * np.pi * 2.5 * np.arange(7) / 6.0), atol=1e-12
    )


def test_sample_fig1_count():
    sc = builtin_scenario("fig1")
    samples = sample_signal(sc.signal, sc.scheme, 0.0, 80.0)
    assert len(samples) >= 480


def test_sample_constant_signal():
    sig = builtin_scenario("fig1").signal
    const = type(sig)(
        am=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        phase=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        iff=lambda t: np.ones_like(np.asarray(t, dtype=float)),
    )
    samples = sample_signal(const, builtin_scenario("fig2").scheme, 0.0, 10.0)
    np.testing.assert_allclose(samples.values, 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# SampleSet validation
# ---------------------------------------------------------------------------

def test_sampleset_rejects_decreasing():
    with pytest.raises(ValueError):
        SampleSet(times=np.array([0.0, 1.0, 0.5]), values=np.zeros(3))


def test_sampleset_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        SampleSet(times=np.array([0.0, 1.0]), values=np.zeros(3))


@pytest.mark.parametrize("times, values", [
    ([0.0, np.nan, 2.0], [0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0]),
], ids=["nan_time", "inf_value"])
def test_sampleset_rejects_non_finite(times, values):
    with pytest.raises(ValueError, match="finite"):
        SampleSet(times=np.array(times), values=np.array(values))


def test_sampleset_immutable():
    s = SampleSet(times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.times[0] = 5.0


# ---------------------------------------------------------------------------
# estimate_isr
# ---------------------------------------------------------------------------

def test_estimate_isr_uniform():
    times = np.arange(0.0, 3.0, 0.125)
    est = estimate_isr(times)
    g = np.linspace(est.domain[0], est.domain[1], 100)
    np.testing.assert_allclose(est.isr(g), 8.0, atol=1e-9)
    np.testing.assert_allclose(est.inf(g), 4.0, atol=1e-9)


def test_estimate_isr_tracks_fig1():
    sc = builtin_scenario("fig1")
    times = sampling_times(sc.scheme, 0.0, 80.0)
    est = estimate_isr(times)
    g = np.linspace(est.domain[0] + 0.5, est.domain[1] - 0.5, 3000)
    assert np.max(np.abs(est.isr(g) - sc.scheme.psi_prime(g))) <= 0.1


def test_estimate_isr_knot_exactness():
    rng = np.random.default_rng(11)
    times = np.cumsum(rng.uniform(0.4, 1.2, 30))
    est = estimate_isr(times)
    rel = np.abs(est.isr(est.knot_times) - est.knot_rates) / est.knot_rates
    assert np.max(rel) <= 1e-9


@pytest.mark.parametrize("case", ["fig1", "five_times"])
def test_estimate_isr_matches_scipy_not_a_knot_cubic(case):
    # the order-3 Schoenberg-Whitney spline on the generalized not-a-knot
    # knots is the not-a-knot cubic (de Boor, A Practical Guide to Splines,
    # ch. IV); on 4 knots both are the interpolating cubic
    from scipy.interpolate import CubicSpline

    if case == "fig1":
        times = sampling_times(builtin_scenario("fig1").scheme, 0.0, 80.0)
    else:
        times = np.array([0.0, 0.5, 0.95, 1.5, 2.0])
    est = estimate_isr(times)
    oracle = CubicSpline(times[:-1], 1.0 / np.diff(times))
    g = np.linspace(est.domain[0], est.domain[1], 20001)
    want = oracle(g)
    assert np.max(np.abs(est.isr(g) - want) / np.abs(want)) <= 1e-12


def test_estimate_isr_needs_five_times():
    with pytest.raises(ValueError):
        estimate_isr(np.array([0.0, 1.0, 2.0]))


def test_estimate_isr_rejects_decreasing():
    with pytest.raises(ValueError):
        estimate_isr(np.array([0.0, 1.0, 0.9, 2.0, 3.0]))


def test_estimate_isr_domain_restricted():
    times = np.arange(0.0, 2.1, 0.25)
    est = estimate_isr(times)
    assert est.domain == (0.0, times[-2])
    with pytest.raises(ValueError):
        est.isr(times[-1])


# ---------------------------------------------------------------------------
# identifiability
# ---------------------------------------------------------------------------

def perturbed_scheme(base: SamplingScheme, amp: float):
    """Warp perturbed by amp*sin(2 pi psi)/(2 pi): vanishes at every sample
    instant, so both schemes generate identical sampling points."""

    def psi(t):
        p = np.asarray(base.psi(t))
        return p + amp * np.sin(2.0 * np.pi * p) / (2.0 * np.pi)

    def psi_prime(t):
        p = np.asarray(base.psi(t))
        return np.asarray(base.psi_prime(t)) * (1.0 + amp * np.cos(2.0 * np.pi * p))

    return SamplingScheme(psi=psi, psi_prime=psi_prime)


def measure_scheme_constants(scheme, grid):
    """(c, eps) measured numerically: min ISR and max |psi''|/psi'."""
    rate = np.asarray(scheme.psi_prime(grid), dtype=float)
    accel = np.gradient(rate, grid, edge_order=2)
    return float(np.min(rate)), float(np.max(np.abs(accel) / rate))


def test_identical_schemes_zero_deviation():
    sc = builtin_scenario("fig1").scheme
    g = np.linspace(0.0, 20.0, 2001)
    report = check_isr_identifiability(sc, sc, g)
    assert report.max_isr_deviation == 0.0
    assert report.max_psi_deviation == 0.0


def test_perturbed_uniform_respects_bound():
    base = linear_scheme(1.0)
    pert = perturbed_scheme(base, 0.02)
    g = np.linspace(0.0, 20.0, 4001)
    report = check_isr_identifiability(base, pert, g)
    c_b, eps_b = measure_scheme_constants(pert, g)
    eps = max(eps_b, 0.0)
    c = min(1.0, c_b)
    assert report.max_isr_deviation <= 2.0 * eps
    assert report.max_psi_deviation <= 2.0 * eps / c


def test_mismatched_sample_sets_error():
    g = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ValueError, match="same sampling points"):
        check_isr_identifiability(linear_scheme(2.0), linear_scheme(3.0), g)


# ---------------------------------------------------------------------------
# INR margin
# ---------------------------------------------------------------------------

def test_fig1_margin():
    sc = builtin_scenario("fig1")
    report = check_inr(sc.signal, sc.scheme, np.linspace(0.0, 80.0, 8001))
    assert report.min_margin_hz >= 1.0 - 1e-9
    assert not report.undersampled


def test_fig2_margin_closed_form():
    sc = builtin_scenario("fig2")
    report = check_inr(sc.signal, sc.scheme, np.linspace(0.0, 80.0, 80001))
    # min(8 + 0.5 cos) - 2 max(pi - 0.2 sin) = 7.5 - 2 (pi + 0.2)
    assert report.min_margin_hz > 0.0
    assert report.min_margin_hz == pytest.approx(7.5 - 2.0 * (np.pi + 0.2), abs=5e-3)


def test_undersampled_flagged_not_raised():
    sig = builtin_scenario("fig1").signal  # IF 2.5 Hz -> INR 5 Hz
    report = check_inr(sig, linear_scheme(4.0), np.linspace(0.0, 5.0, 101))
    assert report.undersampled
    assert report.min_margin_hz == pytest.approx(-1.0, abs=1e-12)
