"""Basis functions, kernel spectrum, and interpolation schemes."""

import os
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nyqmirror import (
    SampleSet,
    spline_interp,
    fundamental_spline_spectrum,
    interpolate_nonuniform,
    interpolate_pchip,
    nonuniform_bspline,
    nonuniform_bspline_truncated_power,
    resample_uniform,
    UniformSignal,
    estimate_isr,
)
from nyqmirror.config import _MAX_K, _MAX_ORDER
from nyqmirror.spline_interp import image_kernel


def random_knots(rng, count, lo=0.0, hi=10.0, min_gap=0.02):
    # the gap floor keeps the truncated-power oracle's divided differences
    # well conditioned for the n <= 5 comparisons
    t = np.sort(rng.uniform(lo, hi, count))
    t = t + np.arange(count) * min_gap
    return t


# ---------------------------------------------------------------------------
# cardinal B-spline (the truncated-power oracle)
# ---------------------------------------------------------------------------

def cardinal_bspline(n: int, x):
    """Cardinal B-spline of order ``n`` via the truncated-power formula.

    N_n(x) = (1/n!) * sum_{k=0}^{n+1} (-1)^k C(n+1, k) (x - k)_+^n,
    supported on [0, n+1].  The alternating sum loses roughly ``n`` bits
    to cancellation, so it is an oracle for small orders only.
    """
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    xa = np.asarray(x, dtype=float)
    out = np.zeros_like(xa)
    for k in range(n + 2):
        t = xa - k
        out += (-1.0) ** k * comb(n + 1, k) * np.where(t > 0.0, t, 0.0) ** n
    out /= factorial(n)
    # clamp the cancellation dust outside the support
    out = np.where((xa <= 0.0) | (xa >= n + 1.0), 0.0, out)
    return out if out.ndim else float(out)


def test_cardinal_hat_peak():
    assert cardinal_bspline(1, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_cardinal_cubic_midpoint():
    # (1/6)(8 - 4*1) = 2/3 from the truncated-power formula
    assert cardinal_bspline(3, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_cardinal_outside_support():
    assert cardinal_bspline(3, 5.0) == 0.0
    assert cardinal_bspline(3, -0.5) == 0.0


def test_cardinal_partition_of_unity_on_integers():
    x = np.linspace(3.0, 6.0, 101)
    for n in range(1, 6):
        total = sum(cardinal_bspline(n, x - j) for j in range(-2, 12))
        assert np.max(np.abs(total - 1.0)) < 1e-12


def test_cardinal_rejects_bad_order():
    with pytest.raises(ValueError):
        cardinal_bspline(0, 1.0)


# ---------------------------------------------------------------------------
# non-uniform B-spline
# ---------------------------------------------------------------------------

def test_nonuniform_uniform_knots_reduce_to_cardinal():
    knots = np.arange(0.0, 14.0)
    x = np.linspace(0.0, 8.0, 400)
    for n in range(1, 6):
        for j in (0, 1, 2):
            got = nonuniform_bspline(n, j, knots, x)
            want = cardinal_bspline(n, x - j)
            assert np.max(np.abs(got - want)) < 1e-12


def test_nonuniform_compact_support():
    knots = np.array([0.0, 0.3, 1.1, 2.0, 4.0, 5.5])
    assert nonuniform_bspline(3, 0, knots, -1.0) == 0.0
    assert nonuniform_bspline(3, 0, knots, 5.6) == 0.0
    assert nonuniform_bspline(3, 0, knots, 4.5) == 0.0  # right of t_{j+n+1}


def test_nonuniform_hand_checked_hat():
    # n=1, knots {0, 0.5, 2}: truncated-power arithmetic gives exactly 1 at
    # the middle knot
    knots = np.array([0.0, 0.5, 2.0])
    assert nonuniform_bspline(1, 0, knots, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert nonuniform_bspline_truncated_power(1, 0, knots, 0.5) == pytest.approx(
        1.0, abs=1e-14
    )


def test_nonuniform_rejects_repeated_knots():
    knots = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        nonuniform_bspline(1, 1, knots, 1.5)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(n=4, seed=7389944)  # float64 truncated powers were off by 1.19e-8
def test_cox_de_boor_matches_truncated_power(n, seed):
    rng = np.random.default_rng(seed)
    knots = random_knots(rng, n + 6)
    x = np.linspace(knots[0] - 0.5, knots[-1] + 0.5, 200)
    for j in range(knots.size - n - 1):
        a = nonuniform_bspline(n, j, knots, x)
        b = nonuniform_bspline_truncated_power(n, j, knots, x)
        assert np.max(np.abs(a - b)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_partition_of_unity_and_nonnegativity(n, seed):
    rng = np.random.default_rng(seed)
    knots = random_knots(rng, n + 12)
    # fully covered interior: every active basis exists in the sequence
    x = np.linspace(knots[n], knots[-n - 1], 100)
    vals = [nonuniform_bspline(n, j, knots, x) for j in range(knots.size - n - 1)]
    total = np.sum(vals, axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-10
    assert min(np.min(v) for v in vals) >= -1e-12


# ---------------------------------------------------------------------------
# fundamental cardinal spline spectrum
# ---------------------------------------------------------------------------

def test_spectrum_dc_and_integer_zeros():
    for n in (1, 2, 3, 5, 8, 12):
        assert fundamental_spline_spectrum(n, 0.0) == pytest.approx(1.0, abs=1e-10)
        assert fundamental_spline_spectrum(n, 1.0) == pytest.approx(0.0, abs=1e-10)
        assert fundamental_spline_spectrum(n, -2.0) == pytest.approx(0.0, abs=1e-10)


def test_spectrum_half_sample_closed_form():
    # sum_l sinc(1/2 - l)^4 = 1/3 via sum over odd m of m^-4 = pi^4/96,
    # hence eta_hat_3(1/2) = 48/pi^4
    got = fundamental_spline_spectrum(3, 0.5)
    assert got == pytest.approx(48.0 / np.pi**4, abs=1e-10)


def test_spectrum_order_one_is_sinc_squared():
    # the linear B-spline is 1 at 0 and 0 at every other integer, so the
    # periodized denominator is exactly 1
    xi = np.linspace(-3.3, 3.7, 301)
    got = fundamental_spline_spectrum(1, xi)
    assert np.max(np.abs(got - np.sinc(xi) ** 2)) <= 1e-15


def test_spectrum_even_symmetry():
    xi = np.linspace(0.01, 3.0, 57)
    for n in (1, 3, 4, 8):
        a = fundamental_spline_spectrum(n, xi)
        b = fundamental_spline_spectrum(n, -xi)
        assert np.max(np.abs(a - b)) < 1e-12


def test_spectrum_poisson_cross_check():
    # The periodized sinc power equals the finite cosine series of centered
    # cardinal B-spline samples (Poisson summation); here the samples come
    # from the exact-rational truncated-power oracle, not Cox-de Boor.
    xi = np.linspace(-1.3, 1.7, 41)
    for n in range(1, 13):
        m = np.arange(-(n + 1) // 2 - 1, (n + 1) // 2 + 2)
        bsamp = nonuniform_bspline_truncated_power(
            n, 0, np.arange(n + 2.0), m + (n + 1) / 2.0
        )
        denom_exact = np.array(
            [np.sum(bsamp * np.cos(2.0 * np.pi * m * x)) for x in xi]
        )
        want = np.sinc(xi) ** (n + 1) / denom_exact
        got = fundamental_spline_spectrum(n, xi)
        assert np.max(np.abs(got - want)) < 1e-12, n


def sinc_power_periodization(n, xi, l_max):
    """sum_{|l| <= l_max} sinc(xi - l)^(n+1): the truncated sum."""
    shifts = np.arange(-l_max, l_max + 1, dtype=float)
    return np.sum(np.sinc(xi[:, None] - shifts[None, :]) ** (n + 1), axis=1)


def test_spectrum_matches_truncated_periodization():
    # the definition, summed directly: its truncation error is O(l_max^-n)
    xi = np.linspace(-1.3, 1.7, 41)
    l_max = 20_000
    for n in (1, 2, 3, 4, 5, 8, 12):
        want = np.sinc(xi) ** (n + 1) / sinc_power_periodization(n, xi, l_max)
        got = fundamental_spline_spectrum(n, xi)
        assert np.max(np.abs(got - want)) < max(1e-10, 2.0 * l_max ** -float(n))


def test_spectrum_order_limit_toward_ideal_filter():
    # passband value approaches 1, stopband value approaches 0, each
    # monotonically in the order
    orders = (3, 5, 8, 12)
    pass_gap = [abs(fundamental_spline_spectrum(n, 0.3) - 1.0) for n in orders]
    stop_val = [abs(fundamental_spline_spectrum(n, 0.7)) for n in orders]
    assert all(a > b for a, b in zip(pass_gap, pass_gap[1:]))
    assert all(a > b for a, b in zip(stop_val, stop_val[1:]))


def test_spectrum_rejects_order_zero():
    with pytest.raises(ValueError, match="order must be >= 1"):
        fundamental_spline_spectrum(0, 0.5)


def direct_spectrum(n, xi):
    """The spectrum's formula at xi itself, with a fresh Cox-de Boor run for
    b(m): sinc(xi)^(n+1) over the cosine series in xi.  The kernel reduces
    its argument first, so this is its oracle to a stated tolerance."""
    xa = np.asarray(xi, dtype=float)
    m = np.arange((n + 1) // 2 + 1)
    b = nonuniform_bspline(n, 0, np.arange(n + 2.0), m + (n + 1) / 2.0)
    den = np.full_like(xa, b[0])
    for mi in m[1:]:
        den += 2.0 * b[mi] * np.cos(2.0 * np.pi * mi * xa)
    return np.sinc(xa) ** (n + 1) / den


@pytest.mark.parametrize("n", range(1, 32))
def test_spectrum_keeps_the_bits_of_the_uncached_formula(monkeypatch, n):
    # the cached b(m) give the bits of a fresh Cox-de Boor run, for any
    # shape, and a scalar gives a float
    xi = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -7.0, 0.5, -0.5, 0.25, 0.499999,
                   -1.3, 3.7, 123.456, -1e6, 1e12, np.nan])
    cached = [fundamental_spline_spectrum(n, x) for x in (xi, xi.reshape(4, 4), *xi)]
    monkeypatch.setattr(spline_interp, "_centred_bspline_samples",
                        spline_interp._centred_bspline_samples.__wrapped__)
    for x, got in zip((xi, xi.reshape(4, 4), *xi), cached):
        want = fundamental_spline_spectrum(n, x)
        if np.ndim(x):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            assert type(got) is float and np.array_equal(got, want, equal_nan=True), x
    np.testing.assert_allclose(cached[0], direct_spectrum(n, xi), rtol=0.0,
                               atol=1e-14 if n <= 12 else 1e-10)


def near_integers():
    """Integers, their float neighbours and the halves between them."""
    whole = st.integers(-_MAX_K - 2, _MAX_K + 2).map(float)
    return st.one_of(whole, whole.map(lambda v: np.nextafter(v, np.inf)),
                     whole.map(lambda v: np.nextafter(v, -np.inf)), whole.map(lambda v: v + 0.5))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, _MAX_ORDER), k=st.integers(-_MAX_K, _MAX_K),
       beta=st.lists(st.one_of(st.floats(-_MAX_K - 2.0, _MAX_K + 2.0), near_integers()),
                     min_size=1, max_size=8))
@example(n=31, k=1, beta=[0.5, -0.5, 1.0, 0.0])
def test_image_kernel_matches_the_direct_formula(n, k, beta):
    # one reduction of beta serves every k: each value is finite and within
    # 1e-14 (n <= 12) or 1e-10 (n <= 31) of the formula at k - beta; the
    # denominator falls to about 2 (2/pi)^(n+1) at half-integers, where
    # both forms lose digits to its cancellation
    beta = np.array(beta)
    got = image_kernel(n, beta)(k)
    assert got.shape == beta.shape and np.isfinite(got).all()
    want = direct_spectrum(n, k - beta)
    assert np.max(np.abs(got - want)) <= (1e-14 if n <= 12 else 1e-10)
    np.testing.assert_array_equal(got[k - beta == 0.0], direct_spectrum(n, 0.0))  # 1 / D_n(0)


def test_spectrum_runs_cox_de_boor_once_per_order(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return nonuniform_bspline(*args)

    monkeypatch.setattr(spline_interp, "nonuniform_bspline", counted)
    spline_interp._centred_bspline_samples.cache_clear()
    xi = np.linspace(-2.0, 2.0, 9)
    first = fundamental_spline_spectrum(7, xi)
    for _ in range(3):
        assert fundamental_spline_spectrum(7, xi).tobytes() == first.tobytes()
    fundamental_spline_spectrum(np.int64(7), 0.3)
    fundamental_spline_spectrum(4, 0.3)
    assert calls == [7, 4]


def test_cached_spline_samples_are_read_only():
    b = spline_interp._centred_bspline_samples(5)
    assert not b.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b[0] = 1.0
    assert spline_interp._centred_bspline_samples(5) is b


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_polynomial_reproduction_interior(n):
    rng = np.random.default_rng(7 + n)
    t = random_knots(rng, 120, 0.0, 30.0)
    coeffs = rng.uniform(-1.0, 1.0, n + 1)
    poly = np.polynomial.Polynomial(coeffs)
    interp = interpolate_nonuniform(SampleSet(times=t, values=poly(t)), n)
    x = np.linspace(t[30], t[-30], 500)
    scale = max(np.max(np.abs(poly(x))), 1e-12)
    assert np.max(np.abs(interp(x) - poly(x))) / scale < 1e-8


def test_uniform_cosine_matches_notaknot_cubic():
    # 2.5 Hz tone sampled at 6 Hz: for order 3 the square system is the
    # classic not-a-knot cubic spline, so an independently built cubic is
    # an oracle for the whole banded pipeline, boundary included.
    from scipy.interpolate import CubicSpline

    t = np.arange(0, 481) / 6.0
    v = np.cos(2.0 * np.pi * 2.5 * t)
    interp = interpolate_nonuniform(SampleSet(times=t, values=v), 3)
    oracle = CubicSpline(t, v)
    x = np.linspace(0.0, 80.0, 4001)
    assert np.max(np.abs(interp(x) - oracle(x))) < 1e-10


def test_uniform_cosine_matches_cardinal_series_interior():
    # away from the boundary, uniform-grid spline interpolation converges
    # to cardinal interpolation, whose closed form for a tone is the
    # kernel-weighted image series sum_k eta_hat(k - b) cos(2 pi (k-b) s)
    t = np.arange(0, 481) / 6.0
    v = np.cos(2.0 * np.pi * 2.5 * t)
    interp = interpolate_nonuniform(SampleSet(times=t, values=v), 3)
    x = np.linspace(5.0, 75.0, 3000)
    beta = 2.5 / 6.0
    series = sum(
        fundamental_spline_spectrum(3, k - beta)
        * np.cos(2.0 * np.pi * (k - beta) * 6.0 * x)
        for k in range(-30, 31)
    )
    # residual here is the k-truncation tail of the series itself
    assert np.max(np.abs(interp(x) - series)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12])
def test_full_solver_path_matches_scipy_on_same_knots(n):
    # same knot vector handed to an independently implemented collocation
    # solver: validates assembly, banded LU, and evaluation end to end
    from scipy.interpolate import make_interp_spline

    from nyqmirror.spline_interp import _not_a_knot_vector

    rng = np.random.default_rng(42 + n)
    t = np.sort(rng.uniform(0.0, 10.0, 40)) + np.arange(40) * 0.01
    v = rng.normal(size=40)
    ours = interpolate_nonuniform(SampleSet(times=t, values=v), n)
    ref = make_interp_spline(t, v, k=n, t=_not_a_knot_vector(t, n))
    x = np.linspace(t[0], t[-1], 777)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(ours(x) - ref(x))) <= 1e-8 * scale
    cscale = np.max(np.abs(ref.c))
    assert np.max(np.abs(ours.coefficients - ref.c)) <= 1e-10 * cscale


def test_too_few_samples_raises():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)
    for n in range(2, 8):  # n samples are one short at order n
        t = np.arange(float(n))
        with pytest.raises(ValueError, match=f"at least {n + 1} samples, got {n}"):
            interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), n)


@pytest.mark.parametrize("n", range(1, 12))
def test_n_plus_one_samples_give_the_interpolating_polynomial(n):
    # n+1 samples leave the not-a-knot sequence no interior knot, so the
    # order-n spline is the degree-n polynomial through them
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 2.0, n + 1) + rng.uniform(-0.3, 0.3, n + 1) / (n + 1)
    poly = np.polynomial.Polynomial(rng.normal(size=n + 1))
    interp = interpolate_nonuniform(SampleSet(times=t, values=poly(t)), n)
    g = np.linspace(t[0], t[-1], 501)
    assert np.max(np.abs(interp(g) - poly(g))) <= 1e-10 * np.max(np.abs(poly(g)))


def test_ill_conditioned_knots_raise_with_span():
    t = np.array([0.0, 1.0, 2.0, 2.0 + 1e-14, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="knot span"):
        interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)


def _solve_all():
    """Coefficients at orders 1, 3 and 12, and an ill-conditioning refusal,
    as the current LAPACK routines give them."""
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 30.0, 200)) + np.arange(200) * 0.01
    samples = SampleSet(times=t, values=rng.normal(size=200))
    coeffs = [interpolate_nonuniform(samples, n).coefficients.tobytes()
              for n in (1, 3, 12)]
    t = np.array([0.0, 1.0, 2.0, 2.0 + 1e-14, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ValueError, match="ill-conditioned") as refusal:
        interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)
    return coeffs, str(refusal.value)


@pytest.mark.parametrize("plant", [None, "not an ELF file"], ids=["missing", "broken"])
def test_lapack_fallback_gives_the_same_results(tmp_path, monkeypatch, plant):
    # a directory without a loadable _flapack sends the loader to the public
    # scipy.linalg.lapack, whose banded LU and solve are the same routines
    from importlib.machinery import EXTENSION_SUFFIXES

    if plant is not None:
        (tmp_path / f"_flapack{EXTENSION_SUFFIXES[0]}").write_text(plant)
    fallback = spline_interp._load_lapack(str(tmp_path))
    assert fallback.__name__ == "scipy.linalg.lapack"
    fast = _solve_all()
    monkeypatch.setattr(spline_interp, "_lapack", fallback)
    assert _solve_all() == fast


def test_lapack_fast_path_is_scipy_linalg_lapack():
    # loaded by file, the wrappers are the very objects a later scipy.linalg
    # import hands out, and the package itself is never imported
    src = str(Path(spline_interp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from nyqmirror import spline_interp as si\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert si._lapack.__name__ == 'scipy.linalg._flapack'\n"
            "from scipy.linalg import lapack\n"
            "assert si._lapack.dgbtrf is lapack.dgbtrf\n"
            "assert si._lapack.dgbtrs is lapack.dgbtrs\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_without_scipy_is_an_import_error():
    # scipy is found without importing it; where it is missing, importing
    # the module still fails as ``import scipy`` would
    src = str(Path(spline_interp.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; sys.modules['scipy'] = None\n"
            "try:\n"
            "    import nyqmirror.spline_interp\n"
            "except ImportError as exc:\n"
            "    print(type(exc).__name__, exc.name)\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["ModuleNotFoundError", "scipy"]


@pytest.mark.parametrize("n", [1, 3, 12])
def test_collocation_memory_estimate_is_twice_its_traced_peak(monkeypatch, n):
    # the size check, made before anything is allocated, asks for at least
    # twice what the solve allocates
    import tracemalloc

    checks = []
    monkeypatch.setattr(spline_interp, "check_memory",
                        lambda need, what, remedy: checks.append((need, what)))
    t = np.arange(5000.0) + np.random.default_rng(n).uniform(0.0, 0.5, 5000)
    samples = SampleSet(times=t, values=np.sin(t))
    tracemalloc.start()
    try:
        interpolate_nonuniform(samples, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(need, what)] = checks
    assert what == f"5000 samples at order {n}" and 2.0 * peak <= need


def test_no_extrapolation():
    t = np.linspace(0.0, 5.0, 12)
    samples = SampleSet(times=t, values=np.cos(t))
    for interp in (interpolate_nonuniform(samples, 3), interpolate_pchip(samples),
                   estimate_isr(t).isr):
        with pytest.raises(ValueError, match="outside domain"):
            interp(5.5)
        with pytest.raises(ValueError, match="outside domain"):
            interp(np.array([1.0, -0.2]))
        # a few ulps past the left edge clip onto it
        assert interp(-1e-15) == interp(0.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 5]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_knot_exactness_random_sets(n, seed):
    rng = np.random.default_rng(seed)
    t = random_knots(rng, rng.integers(n + 2, 60))
    v = rng.uniform(-5.0, 5.0, t.size)
    interp = interpolate_nonuniform(SampleSet(times=t, values=v), n)
    scale = np.max(np.abs(v)) or 1.0
    assert np.max(np.abs(interp(t) - v)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# PCHIP
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), size=st.integers(3, 40),
       kind=st.sampled_from(["random", "flat runs", "sign changes"]),
       scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]))
@example(seed=5, size=3, kind="random", scale=1.0)
@example(seed=6, size=3, kind="sign changes", scale=1e-200)
@example(seed=7, size=12, kind="flat runs", scale=1e200)
def test_pchip_matches_scipy(seed, size, kind, scale):
    # the Fritsch-Carlson slopes of scipy's PchipInterpolator (the oracle,
    # imported here only) on the order-3 spline with double interior knots
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(seed)
    t = random_knots(rng, size)
    v = {"random": lambda: rng.normal(size=size),
         "flat runs": lambda: rng.integers(-2, 3, size).astype(float),
         "sign changes": lambda: (-1.0) ** np.arange(size) * rng.uniform(0.5, 2.0, size),
         }[kind]() * scale
    interp = interpolate_pchip(SampleSet(times=t, values=v))
    x = np.concatenate([t, np.linspace(t[0], t[-1], 500)])
    want = PchipInterpolator(t, v)(x)
    assert np.max(np.abs(interp(x) - want)) <= 1e-14 * np.max(np.abs(v))


def test_pchip_monotone_preserved():
    t = np.array([0.0, 0.5, 1.2, 2.0, 3.5, 4.0])
    v = np.array([0.0, 0.1, 0.9, 1.0, 3.0, 3.1])
    interp = interpolate_pchip(SampleSet(times=t, values=v))
    x = np.linspace(0.0, 4.0, 800)
    y = interp(x)
    assert np.all(np.diff(y) >= -1e-12)


def test_pchip_constant():
    t = np.linspace(0.0, 2.0, 7)
    interp = interpolate_pchip(SampleSet(times=t, values=np.full(7, 3.25)))
    x = np.linspace(0.0, 2.0, 100)
    np.testing.assert_allclose(interp(x), 3.25, rtol=0, atol=1e-14)


def test_pchip_no_overshoot_on_plateau():
    t = np.array([0.0, 1.0, 2.0, 3.0])
    v = np.array([0.0, 1.0, 1.0, 0.0])
    interp = interpolate_pchip(SampleSet(times=t, values=v))
    x = np.linspace(1.0, 2.0, 500)
    assert np.max(interp(x)) <= 1.0 + 1e-12


def test_pchip_knot_exactness():
    rng = np.random.default_rng(3)
    t = random_knots(rng, 25)
    v = rng.uniform(-2.0, 2.0, t.size)
    interp = interpolate_pchip(SampleSet(times=t, values=v))
    assert np.max(np.abs(interp(t) - v)) < 1e-12


def test_pchip_too_few_samples():
    with pytest.raises(ValueError):
        interpolate_pchip(SampleSet(times=np.array([0.0, 1.0]),
                                    values=np.array([1.0, 2.0])))


# ---------------------------------------------------------------------------
# uniform resampling
# ---------------------------------------------------------------------------

def test_resample_constant():
    t = np.linspace(0.0, 10.0, 31)
    interp = interpolate_nonuniform(SampleSet(times=t, values=np.full(31, 2.0)), 3)
    sig = resample_uniform(interp, 5.0, 0.0, 10.0)
    np.testing.assert_allclose(sig.values, 2.0, atol=1e-11)
    assert sig.rate == 5.0 and sig.t_start == 0.0


def test_resample_count_80s_64hz():
    t = np.linspace(0.0, 80.0, 481)
    interp = interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)
    sig = resample_uniform(interp, 64.0, 0.0, 80.0)
    assert len(sig) == 5121


def test_resample_grid_past_the_domain_takes_its_end():
    # uniform_grid admits a point 1e-9 of a step past t_end: at 16 Hz a
    # domain ending 3.05e-11 s short of 20 s gets the grid point 20.0,
    # past the evaluation's slack of 1e-12 of the domain
    end = 19.999999999969532
    t = np.linspace(0.0, end, 41)
    interp = interpolate_nonuniform(SampleSet(times=t, values=np.cos(t)), 3)
    sig = resample_uniform(interp, 16.0, 0.0, end)
    assert len(sig) == 321 and sig.times[-1] == 20.0
    assert sig.values[-1] == interp(np.array([end]))[0]


def test_resample_outside_domain():
    t = np.linspace(0.0, 4.0, 11)
    interp = interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)
    with pytest.raises(ValueError, match="outside domain"):
        resample_uniform(interp, 8.0, 0.0, 4.5)


@pytest.mark.parametrize("t_start, t_end", [(2.0, 2.0), (3.0, 1.0), (np.nan, 3.0),
                                            (1.0, np.nan)])
def test_resample_refuses_a_span_without_length_by_name(t_start, t_end):
    # a NaN end fails every comparison: refused as a span, not as memory
    t = np.linspace(0.0, 4.0, 11)
    interp = interpolate_nonuniform(SampleSet(times=t, values=np.sin(t)), 3)
    with pytest.raises(ValueError, match=r"^span \[.*\] must have positive length"):
        resample_uniform(interp, 8.0, t_start, t_end)


def test_uniform_signal_validation():
    with pytest.raises(ValueError):
        UniformSignal(values=np.array([1.0]), rate=4.0)
    with pytest.raises(ValueError):
        UniformSignal(values=np.zeros(8), rate=0.0)
    with pytest.raises(ValueError, match="finite"):
        UniformSignal(values=np.array([0.0, np.nan, 1.0]), rate=4.0)
    sig = UniformSignal(values=np.arange(8.0), rate=4.0, t_start=1.0)
    np.testing.assert_allclose(sig.times, 1.0 + np.arange(8) / 4.0)


# ---------------------------------------------------------------------------
# basis evaluation layout
# ---------------------------------------------------------------------------

def column_layout_basis(ext_knots, n, x, span):
    """Cox-de Boor with one column per basis value and one row per point:
    the layout before the rows were made contiguous, kept as the oracle."""
    p = x.size
    vals = np.zeros((p, n + 1))
    vals[:, 0] = 1.0
    left = np.zeros((p, n + 1))
    right = np.zeros((p, n + 1))
    for d in range(1, n + 1):
        left[:, d] = x - ext_knots[span + 1 - d]
        right[:, d] = ext_knots[span + d] - x
        saved = np.zeros(p)
        for r in range(d):
            tmp = vals[:, r] / (right[:, r + 1] + left[:, d - r])
            vals[:, r] = saved + right[:, r + 1] * tmp
            saved = left[:, d - r] * tmp
        vals[:, d] = saved
    return vals


@pytest.mark.parametrize("n", range(1, 32))
def test_row_layout_basis_keeps_the_column_layouts_bits(n):
    # the same operations in the same order per point, at every knot, both
    # ends of the domain and points between; the spline's pairwise row sum
    # keeps its bits too
    rng = np.random.default_rng(n)
    times = random_knots(rng, 3 * n + 8)
    knots = spline_interp._not_a_knot_vector(times, n)
    spline = spline_interp.SplineInterpolant(n, knots, rng.normal(size=times.size),
                                             (times[0], times[-1]))
    x = np.concatenate([knots, [times[0], times[-1]],
                        rng.uniform(times[0], times[-1], 200)])
    spans = spline_interp._find_spans(knots, n, x)
    want = column_layout_basis(knots, n, x, spans)
    got = spline_interp._basis_matrix_rows(knots, n, x, spans)
    np.testing.assert_array_equal(got.T.view(np.uint64), want.view(np.uint64))
    terms = want * spline.coefficients[spans[:, None] - n + np.arange(n + 1)]
    np.testing.assert_array_equal(spline(x).view(np.uint64),
                                  np.sum(terms, axis=1).view(np.uint64))
