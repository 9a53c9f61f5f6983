"""Adaptive harmonic model types and built-in scenarios."""

import numpy as np
import pytest

from nyqmirror import (
    IMTSignal,
    builtin_scenario,
    fig2_variant,
)


def make_harmonic(freq=2.5, amp=1.0):
    return IMTSignal(
        am=lambda t: amp * np.ones_like(np.asarray(t, dtype=float)),
        phase=lambda t: freq * np.asarray(t, dtype=float),
        iff=lambda t: np.full_like(np.asarray(t, dtype=float), freq),
    )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_harmonic_at_zero():
    assert make_harmonic().evaluate(0.0) == 1.0


def test_evaluate_harmonic_quarter_period():
    # phase 2.5 * 0.1 = 0.25 cycles
    assert abs(make_harmonic().evaluate(0.1)) < 1e-12


def test_evaluate_fig2_at_zero():
    sig = builtin_scenario("fig2").signal
    assert sig.evaluate(0.0) == pytest.approx(0.7 * np.cos(0.4 * np.pi), abs=1e-14)


def test_evaluate_vectorized_and_deterministic():
    sig = builtin_scenario("fig1").signal
    t = np.linspace(0.0, 5.0, 101)
    a = sig.evaluate(t)
    b = sig.evaluate(t)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, np.cos(2.0 * np.pi * 2.5 * t), atol=1e-12)


# ---------------------------------------------------------------------------
# modulation
# ---------------------------------------------------------------------------

def test_fig2_measured_modulation_rates():
    # the amplitude 0.7 + t^1.1 reaches ~124.7 and |a'|/phi' ~ 0.58 on [0, 80]
    sig = builtin_scenario("fig2").signal
    grid = np.arange(0.0, 80.001, 0.001)
    am = sig.am(grid)
    assert 124.0 < np.max(am) < 125.0
    ratio = np.abs(np.gradient(am, grid)) / sig.iff(grid)
    assert 0.5 < np.max(ratio) < 0.6


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def test_unknown_scenario():
    with pytest.raises(ValueError):
        builtin_scenario("fig3")


def test_fig1_scenario_values():
    sc = builtin_scenario("fig1")
    assert sc.duration_s == 80.0 and sc.resample_hz == 64.0
    np.testing.assert_allclose(sc.signal.iff(np.linspace(0, 80, 11)), 2.5)
    # ISR minimum of 6 Hz at t = 80/pi
    assert sc.scheme.psi_prime(80.0 / np.pi) == pytest.approx(6.0, abs=1e-12)
    assert sc.scheme.psi(0.0) == pytest.approx(0.0, abs=1e-12)


def test_fig2_scenario_values():
    sc = builtin_scenario("fig2")
    assert sc.signal.iff(0.0) == pytest.approx(np.pi, abs=1e-12)
    g = np.linspace(0.0, 80.0, 20001)
    isr = sc.scheme.psi_prime(g)
    assert 7.5 - 1e-12 <= isr.min() and isr.max() <= 8.5 + 1e-12
    assert sc.scheme.psi(0.0) == pytest.approx(0.0, abs=1e-12)


def test_psi_is_antiderivative_of_psi_prime():
    for name in ("fig1", "fig2"):
        sc = builtin_scenario(name)
        g = np.linspace(0.0, 80.0, 4001)
        numeric = np.gradient(sc.scheme.psi(g), g, edge_order=2)
        assert np.max(np.abs(numeric - sc.scheme.psi_prime(g))) < 1e-3


def test_scenarios_oversample_their_signal():
    # min over [0, 80] of (ISR - 2 IF) > 0 on a 1 ms grid
    g = np.arange(0.0, 80.0005, 0.001)
    for name in ("fig1", "fig2"):
        sc = builtin_scenario(name)
        margin = sc.scheme.psi_prime(g) - 2.0 * sc.signal.iff(g)
        assert margin.min() > 0.0


def test_builtin_scenarios_are_bit_equal_to_their_closed_forms():
    # the warp and tone constructors must reproduce the figures' formulas
    # as written out here to the last bit: every figure artifact hangs on them
    g = np.linspace(-10.0, 100.0, 200001)
    T0 = 80.0 / np.pi  # time of the slowest sampling in the first scenario
    fig1, fig2 = builtin_scenario("fig1"), builtin_scenario("fig2")
    forms = [
        (fig1.scheme.psi, 6.0 * g + ((g - T0) ** 3 + T0 ** 3) / 2400.0),
        (fig1.scheme.psi_prime, 6.0 + (g - T0) ** 2 / 800.0),
        (fig1.signal.am, np.ones_like(g)),
        (fig1.signal.phase, 2.5 * g),
        (fig1.signal.iff, np.full_like(g, 2.5)),
        (fig2.scheme.psi, 8.0 * g + (5.0 / np.pi) * np.sin(np.pi * g / 10.0)),
        (fig2.scheme.psi_prime, 8.0 + 0.5 * np.cos(np.pi * g / 10.0)),
        (fig2_variant(0.5).scheme.psi, 8.0 * g + (5.0 / np.pi) * np.sin(np.pi * g / 10.0)),
    ]
    for got, want in forms:
        assert np.array_equal(got(g), want)


def test_fig2_variant_scales_modulation():
    sc = fig2_variant(0.5)
    g = np.linspace(0.0, 80.0, 1001)
    base = builtin_scenario("fig2")
    np.testing.assert_allclose(
        sc.signal.iff(g) - np.pi, 0.5 * (base.signal.iff(g) - np.pi), atol=1e-14
    )
    with pytest.raises(ValueError):
        fig2_variant(1.5)
