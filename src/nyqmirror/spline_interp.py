"""B-spline machinery: the non-uniform basis, the fundamental
cardinal-spline spectrum, interpolation on arbitrary strictly increasing
knots (one order-n Schoenberg-Whitney solve, which for n = 3 is the
not-a-knot cubic that ``sampling.estimate_isr`` uses too),
shape-preserving (PCHIP) interpolation, uniform resampling, and the
size check that the package's large allocations pass first.

Every spline, PCHIP's too, is evaluated by one Cox-de Boor recursion;
the explicit truncated-power formula is kept as an independent oracle
that sums exactly in rationals.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from math import prod
from typing import Callable

import numpy as np

__all__ = [
    "SplineInterpolant",
    "UniformSignal",
    "check_memory",
    "curve",
    "frozen",
    "fundamental_spline_spectrum",
    "image_kernel",
    "interpolate_nonuniform",
    "interpolate_pchip",
    "nonuniform_bspline",
    "nonuniform_bspline_truncated_power",
    "resample_uniform",
    "uniform_grid",
]

_COND_LIMIT = 1e12


def _load_lapack(linalg_dir: str):
    """scipy's compiled LAPACK wrappers, loaded from their file in
    ``linalg_dir`` without running the ``scipy.linalg`` package import (about
    0.2 s, ``numpy.f2py`` included) or even scipy's own ``__init__``.  CPython
    hands the same routines to any later ``scipy.linalg`` import, so results
    do not depend on the path taken.  An optimisation only: where the file is
    missing or does not load, the public ``scipy.linalg.lapack``."""
    finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is not None:
        try:
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except ImportError:
            pass
    from scipy.linalg import lapack
    return lapack


def _scipy_dir() -> str:
    """The directory of the installed scipy package, found without importing it."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return spec.submodule_search_locations[0]


_lapack = _load_lapack(os.path.join(_scipy_dir(), "linalg"))


# ---------------------------------------------------------------------------
# basis functions
# ---------------------------------------------------------------------------

def nonuniform_bspline_truncated_power(n: int, j: int, knots, x) -> np.ndarray | float:
    """Non-uniform B-spline N_{n,j} by the explicit truncated-power formula.

    N_{n,j}(x) = (t_{j+n+1} - t_j) * sum_{k=j}^{j+n+1}
                 (x - t_k)_+^n / prod_{l != k} (t_l - t_k)

    ``knots`` must supply t_j .. t_{j+n+1}; ``j`` indexes into it.  Kept as
    the independent oracle for the Cox-de Boor path.  The alternating sum
    is taken in exact rationals (every float is one), so its cancellation
    costs nothing and each value is the correctly rounded B-spline.  One
    Python evaluation per point: meant for tests, not production sizes.
    """
    t = np.asarray(knots, dtype=float)
    sup = t[j:j + n + 2]
    if sup.size != n + 2:
        raise ValueError("knots must cover t_j .. t_{j+n+1}")
    if np.any(np.diff(sup) <= 0.0):
        raise ValueError("repeated or decreasing knots in the support")
    from fractions import Fraction  # imported here: only this oracle needs it

    xa = np.asarray(x, dtype=float)
    exact = [Fraction(v) for v in sup]
    weights = [(exact[-1] - exact[0]) / prod(e - tk for e in exact if e != tk)
               for tk in exact]

    def value(point: float) -> float:
        xq = Fraction(point)
        return float(sum(w * (xq - tk) ** n
                         for tk, w in zip(exact, weights) if xq > tk))

    out = np.array([value(v) if sup[0] < v < sup[-1] else 0.0
                    for v in xa.ravel()]).reshape(xa.shape)
    return out if out.ndim else float(out)


def nonuniform_bspline(n: int, j: int, knots, x) -> np.ndarray | float:
    """Non-uniform B-spline N_{n,j}, read off ``_basis_matrix_rows``.

    Parameters
    ----------
    n : int
        Order (degree), n >= 1.
    j : int
        Basis index; the support is [t_j, t_{j+n+1}].
    knots : array_like
        Strictly increasing knot sequence containing t_j .. t_{j+n+1}.
    x : float or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray
        N_{n,j}(x), zero outside the half-open support [t_j, t_{j+n+1}).
    """
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    t = np.asarray(knots, dtype=float)
    if j < 0 or j + n + 1 >= t.size:
        raise ValueError("knot sequence does not cover the requested basis index")
    sup = t[j:j + n + 2]
    if np.any(np.diff(sup) <= 0.0):
        raise ValueError("repeated or decreasing knots in the support")
    xa = np.asarray(x, dtype=float)
    # N_{n,j} is basis n of its support clamped, so row 2n - span of the
    # n+1 values that are nonzero at a point
    ext = np.pad(sup, n, mode="edge")
    inside = ((sup[0] <= xa) & (xa < sup[-1])).ravel()
    flat = np.where(inside, xa.ravel(), sup[0])
    spans = _find_spans(ext, n, flat)
    rows = _basis_matrix_rows(ext, n, flat, spans)[2 * n - spans, np.arange(flat.size)]
    out = np.where(inside, rows, 0.0).reshape(xa.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# fundamental cardinal spline spectrum
# ---------------------------------------------------------------------------

def fundamental_spline_spectrum(n: int, xi) -> np.ndarray | float:
    """eta_hat_n(xi) at ``xi`` cycles per sample (a float or an array):
    ``image_kernel(n, -xi)`` at k = 0, so 1 to rounding at xi = 0 and
    exactly 0 at nonzero integers."""
    out = image_kernel(n, -np.asarray(xi, dtype=float))(0)
    return out if out.ndim else float(out)


def image_kernel(n: int, beta) -> Callable[[int], np.ndarray]:
    """k -> eta_hat_n(k - beta) for any integer k, where eta_hat_n is the
    Fourier transform of the order-``n`` fundamental cardinal spline and
    ``beta`` an array of normalized frequencies: the work that does not
    depend on k is done once.

    eta_hat_n(xi) = sinc(xi)^(n+1) / D_n(xi), D_n(xi) = sum_l sinc(xi - l)^(n+1).
    By Poisson summation D_n is the finite cosine series b(0) + 2 sum_{m=1}^
    {floor((n+1)/2)} b(m) cos(2 pi m xi), b(m) the centred order-``n``
    B-spline at the integer m, computed once per order (the Euler-Frobenius
    polynomial; Unser, Aldroubi & Eden, IEEE TSP 1993): exact, not a
    truncated sum.  With the exact split beta = j + f, j = rint(beta), D_n
    is 1-periodic and sin(pi (k - beta)) = (-1)^(k+1) s, s = (-1)^j sin(pi f),
    so D_n(f) and s are evaluated once for

        eta_hat_n(k - beta) = ((-1)^(k+1) s / (pi (k - beta)))^(n+1) / D_n(f),

    1 / D_n(0) at k = beta, with the power taken by repeated squaring.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    beta = np.asarray(beta, dtype=float)
    j = np.rint(beta)
    f = beta - j
    b = _centred_bspline_samples(n)
    den = np.full_like(f, b[0])
    for m in range(1, b.size):
        den += 2.0 * b[m] * np.cos(2.0 * np.pi * m * f)
    s = np.where(np.fmod(j, 2.0) == 0.0, 1.0, -1.0) * np.sin(np.pi * f)

    def at(k: int) -> np.ndarray:
        arg = np.pi * (k - beta if k % 2 else beta - k)  # -s / arg = s / -arg, bit for bit
        x = np.divide(s, arg, out=np.ones_like(arg), where=arg != 0.0)
        power = x
        for bit in bin(n + 1)[3:]:
            power = power * power * x if bit == "1" else power * power
        return power / den
    return at


@functools.cache
def _centred_bspline_samples(n: int) -> np.ndarray:
    """b(m) for m = 0 .. (n + 1) // 2: the centred order-``n`` B-spline at the
    integers, computed once per order and shared read-only."""
    m = np.arange((n + 1) // 2 + 1)
    # Cox-de Boor, not the cardinal truncated-power sum: that one loses
    # about 1e-10 to cancellation at n = 12
    return frozen(nonuniform_bspline(n, 0, np.arange(n + 2.0), m + (n + 1) / 2.0))


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype`` (None: its own), the rule
    of every container.  A read-only array is kept and so shared, even a view
    of a writable buffer; a writable one is copied, out of its owner's reach."""
    a = np.asarray(values, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def curve(fn):
    """``fn`` under the calling rule of every container's curves: called with
    the times as a float array, its values returned as a float array."""
    return lambda t: np.asarray(fn(np.asarray(t, dtype=float)), dtype=float)


@dataclass(frozen=True, eq=False)
class UniformSignal:
    """Real-valued signal on a uniform time grid t_start + k/rate."""

    values: np.ndarray
    rate: float
    t_start: float = 0.0

    def __post_init__(self):
        v = frozen(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("uniform signal needs a 1-d array of length >= 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("uniform signal values must be finite")
        if not 0.0 < self.rate < np.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not np.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start}")
        with np.errstate(over="ignore"):  # a step 1/rate past the float range
            times = self.times
        if not np.all(times[1:] > times[:-1]):  # or below the float spacing
            raise ValueError(f"the sample times t_start + k/rate do not strictly increase at "
                             f"t_start={self.t_start:.6g} s, rate={self.rate:.6g} Hz: "
                             f"shift the time origin or change the rate")
        if not np.isfinite(times[-1]):
            raise ValueError(f"the grid's end t_start + {v.size - 1}/rate overflows float64 at "
                             f"t_start={self.t_start:.6g} s, rate={self.rate:.6g} Hz: "
                             f"shift the time origin or change the rate")

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.values.size) / self.rate


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say:
    the bound a size check compares its estimate with before allocating."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", ()):
        return float("inf")
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: float, what: str, remedy: str) -> None:
    """Refuse, before allocating, work of about ``need`` bytes (inf or NaN
    included) beyond physical memory: a ValueError saying that ``what``
    needs them and how to ``remedy`` it."""
    have = _physical_memory()
    if not need <= have:
        raise ValueError(f"{what} need ~{need:.3g} bytes, over the {have} bytes"
                         f" of memory: {remedy}")


# ---------------------------------------------------------------------------
# interpolants
# ---------------------------------------------------------------------------

def _clip_to_domain(x, domain: tuple[float, float], what: str) -> np.ndarray:
    """``x`` as a 1-d float array clipped into ``domain``, never extrapolated.

    Points beyond the domain by more than a relative 1e-12 slack raise
    ValueError("``what`` outside domain [lo, hi]"); points within it are
    clipped, since a span's ends can miss the knots by ulps.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = domain
    slack = 1e-12 * max(abs(lo), abs(hi), hi - lo)
    if np.any(xa < lo - slack) or np.any(xa > hi + slack):
        raise ValueError(f"{what} outside domain [{lo}, {hi}]")
    return np.clip(xa, lo, hi)


def _basis_matrix_rows(ext_knots: np.ndarray, n: int, x: np.ndarray,
                       span: np.ndarray) -> np.ndarray:
    """All ``n+1`` nonzero basis values at each x, vectorized Cox-de Boor.

    Row j holds N_{span[p]-n+j}(x[p]) at each point p, in extended basis
    numbering (basis b is built on ext_knots[b .. b+n+1]), so each step of
    the recursion reads and writes contiguous rows.  The inner steps write
    into preallocated rows (``den``, ``tmp``, ``saved``), not temporaries.
    """
    p = x.size
    vals = np.zeros((n + 1, p))
    vals[0] = 1.0
    left = np.zeros((n + 1, p))
    right = np.zeros((n + 1, p))
    den, tmp, saved = np.empty(p), np.empty(p), np.empty(p)
    for d in range(1, n + 1):
        np.subtract(x, ext_knots[span + 1 - d], out=left[d])
        np.subtract(ext_knots[span + d], x, out=right[d])
        saved.fill(0.0)
        for r in range(d):
            np.add(right[r + 1], left[d - r], out=den)
            np.divide(vals[r], den, out=tmp)
            np.multiply(right[r + 1], tmp, out=den)  # den is free again
            np.add(saved, den, out=vals[r])
            np.multiply(left[d - r], tmp, out=saved)
        vals[d] = saved
    return vals


def _find_spans(ext_knots: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    # nonempty spans live between indices n and len - n - 2 (the end knots
    # carry multiplicity n+1); out-of-domain x was clipped before this point
    spans = np.searchsorted(ext_knots, x, side="right") - 1
    return np.clip(spans, n, ext_knots.size - n - 2)


@dataclass(frozen=True, eq=False)
class SplineInterpolant:
    """Order-n spline through non-uniform samples.  Immutable; evaluation
    never extrapolates.

    ``knots`` is clamped (end-knots repeated n+1 times): the generalized
    not-a-knot sequence of ``interpolate_nonuniform``'s banded solve, or
    PCHIP's sample times with each interior one doubled.
    """

    order: int
    knots: np.ndarray          # clamped knot sequence
    coefficients: np.ndarray   # one per basis function
    domain: tuple[float, float]

    def __post_init__(self):
        for name in ("knots", "coefficients"):
            object.__setattr__(self, name, frozen(getattr(self, name)))

    def __call__(self, x) -> np.ndarray | float:
        xa = _clip_to_domain(x, self.domain, "spline evaluation")
        n = self.order
        spans = _find_spans(self.knots, n, xa)
        vals = _basis_matrix_rows(self.knots, n, xa, spans)
        terms = self.coefficients[spans[:, None] - n + np.arange(n + 1)[None, :]]
        terms *= vals.T  # each point's n+1 terms in a C-order row: a pairwise sum
        out = np.sum(terms, axis=1)
        if np.ndim(x) == 0:
            return float(out[0])
        return out


def _not_a_knot_vector(times: np.ndarray, n: int) -> np.ndarray:
    """Clamped knot vector with generalized not-a-knot interior.

    The first and last knot are repeated n+1 times; odd orders keep the
    interior sample times t_{(n+1)/2} .. t_{N-(n+1)/2} as knots, even
    orders the analogous run of inter-sample midpoints.  The resulting
    basis count equals the sample count, the collocation matrix is banded
    and nonsingular, and degree-n polynomials are reproduced exactly over
    the whole span.
    """
    if n % 2:
        m = (n - 1) // 2
        interior = times[m + 1:times.size - m - 1]
    else:
        mids = 0.5 * (times[:-1] + times[1:])
        interior = mids[n // 2:mids.size - n // 2]
    return np.concatenate([
        np.full(n + 1, times[0]), interior, np.full(n + 1, times[-1])
    ])


def _estimate_condition_1norm(lu, ipiv, kl: int, ku: int, anorm: float,
                              m: int) -> float:
    """Hager-style ||A^-1||_1 estimate from a banded LU factorization."""
    x = np.full(m, 1.0 / m)
    est = 0.0
    for _ in range(5):
        y, info = _lapack.dgbtrs(lu, kl, ku, x, ipiv)
        if info != 0:  # pragma: no cover - solve after successful factor
            break
        est = np.sum(np.abs(y))
        xi = np.where(y >= 0.0, 1.0, -1.0)
        z, info = _lapack.dgbtrs(lu, kl, ku, xi, ipiv, trans=1)
        if info != 0:  # pragma: no cover
            break
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= np.dot(z, x):
            break
        x = np.zeros(m)
        x[j] = 1.0
    return est * anorm


def interpolate_nonuniform(samples, n: int) -> SplineInterpolant:
    """Order-n spline interpolation of non-uniform samples.

    Solves the square Schoenberg-Whitney collocation system: one B-spline
    per sample on the clamped generalized not-a-knot sequence, assembled
    as a banded matrix and factorized by banded LU with partial pivoting.
    For n = 3 this is the classic not-a-knot cubic spline.

    Parameters
    ----------
    samples : SampleSet
        Strictly increasing times with one value each; needs >= n+1 points
        (with exactly n+1 there is no interior knot, and the spline is
        the interpolating polynomial).
    n : int
        Spline order, n >= 1.

    Returns
    -------
    SplineInterpolant
        Interpolant passing through every sample; domain is the sampled span.

    Raises
    ------
    ValueError
        Too few samples, more samples than physical memory can solve for,
        or a singular / ill-conditioned collocation matrix (1-norm
        condition estimate above 1e12).
    """
    times = np.asarray(samples.times, dtype=float)
    values = np.asarray(samples.values, dtype=float)
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    if times.size < n + 1:
        raise ValueError(
            f"order-{n} interpolation needs at least {n + 1} samples, "
            f"got {times.size}"
        )
    m = times.size
    # measured 72 (n + 1) + 29 bytes per sample at order n; allow about twice that
    check_memory(m * 144.0 * (n + 2), f"{m} samples at order {n}",
                 "use fewer samples or a lower spline order")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")

    ext = _not_a_knot_vector(times, n)

    spans = _find_spans(ext, n, times)
    vals = _basis_matrix_rows(ext, n, times, spans)
    rows = np.tile(np.arange(m), n + 1)
    cols = (spans - n + np.arange(n + 1)[:, None]).ravel()
    ent = vals.ravel()

    kl = int(np.max(rows - cols))
    ku = int(np.max(cols - rows))
    ab = np.zeros((2 * kl + ku + 1, m))
    ab[kl + ku + rows - cols, cols] = ent
    anorm = np.max(np.sum(np.abs(ab), axis=0))

    lu, ipiv, info = _lapack.dgbtrf(ab, kl, ku)
    if info != 0:
        q = min(max(info - 1, 0), m - 2)
        raise ValueError(
            "singular spline collocation matrix near knot span "
            f"[{times[q]}, {times[q + 1]}]"
        )
    cond = _estimate_condition_1norm(lu, ipiv, kl, ku, anorm, m)
    if cond > _COND_LIMIT:
        q = int(np.argmin(np.diff(times)))
        raise ValueError(
            f"ill-conditioned spline collocation matrix (cond ~ {cond:.3e}) "
            f"near knot span [{times[q]}, {times[q + 1]}]"
        )
    coeffs, info = _lapack.dgbtrs(lu, kl, ku, values, ipiv)
    if info != 0:  # pragma: no cover - factorization already validated
        raise ValueError("banded solve failed after factorization")

    return SplineInterpolant(
        order=n,
        knots=ext,
        coefficients=coeffs,
        domain=(float(times[0]), float(times[-1])),
    )


def interpolate_pchip(samples) -> SplineInterpolant:
    """Monotone piecewise cubic Hermite interpolation of the samples.

    Never overshoots between monotone knot runs; needs >= 3 samples.  The
    slopes d are those of scipy's ``PchipInterpolator`` (Fritsch-Carlson): 0
    where the secants beside a sample differ in sign or either is 0, else
    their weighted harmonic mean, and the shape-preserving three-point rule
    at the ends.  The C1 cubic is the order-3 spline with each interior
    sample time a double knot and, per interval, the Bezier points
    y_i + h_i d_i / 3 and y_{i+1} - h_i d_{i+1} / 3 as coefficients.
    """
    times = np.asarray(samples.times, dtype=float)
    values = np.asarray(samples.values, dtype=float)
    if times.size < 3:
        raise ValueError(f"PCHIP needs at least 3 samples, got {times.size}")
    h = np.diff(times)
    if np.any(h <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    m = np.diff(values) / h
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    # a zero secant divides by 0, and a tiny one overflows the mean to a 0 slope
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    ends = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    steep = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
    ends = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(steep, 3.0 * m0, ends))
    d = np.concatenate([ends[:1], inner, ends[1:]])
    bezier = np.column_stack([values[:-1] + h * d[:-1] / 3.0, values[1:] - h * d[1:] / 3.0])
    return SplineInterpolant(
        order=3,
        knots=np.pad(np.repeat(times, 2), 2, mode="edge"),
        coefficients=np.concatenate([values[:1], bezier.ravel(), values[-1:]]),
        domain=(float(times[0]), float(times[-1])),
    )


def resample_uniform(interp, rate: float, t_start: float,
                     t_end: float) -> UniformSignal:
    """Evaluate an interpolant on the uniform grid t_start + k/rate.

    The grid covers k = 0 .. floor((t_end - t_start) * rate); the whole
    span must lie inside the interpolant domain, and a grid too large for
    physical memory is refused before it is allocated.
    """
    _clip_to_domain([t_start, t_end], interp.domain,
                   f"resampling span [{t_start}, {t_end}]")
    # measured 24 (n + 1) + 56 bytes per point at order n; allow over twice that
    grid = uniform_grid(rate, t_start, t_end, 64.0 * (interp.order + 2), "resampled points")
    np.minimum(grid, interp.domain[1], out=grid)  # its end may pass t_end by 1e-9 of a step
    return UniformSignal(values=np.asarray(interp(grid), dtype=float),
                         rate=float(rate), t_start=float(t_start))


def uniform_grid(rate: float, t_start: float, t_end: float, point_bytes: float,
                 what: str) -> np.ndarray:
    """t_start + k/rate for k = 0 .. floor((t_end - t_start) * rate): the one
    grid of a resampled signal and of the image series it is compared with.
    A rate that is not positive and finite is refused, and so are a span
    without positive length (NaN included) and a grid of ``what`` whose
    ``point_bytes`` per point exceed physical memory, before it is allocated."""
    if not 0.0 < rate < np.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not t_end > t_start:
        raise ValueError(f"span [{t_start}, {t_end}] must have positive length")
    count = np.floor(float(t_end - t_start) * float(rate) + 1e-9) + 1.0  # inf, no warning
    check_memory(count * point_bytes, f"{count:.3g} {what}",
                 f"lower the rate ({rate}) or the span [{t_start}, {t_end}]")
    return t_start + np.arange(int(count)) / rate
