"""B-spline machinery: the non-uniform basis, the fundamental
cardinal-spline spectrum, interpolation on arbitrary strictly increasing
knots (one order-n Schoenberg-Whitney solve, which for n = 3 is the
not-a-knot cubic that ``sampling.estimate_isr`` uses too),
shape-preserving (PCHIP) interpolation, uniform resampling, and the
size check that the package's large allocations pass first.

Basis evaluation uses the Cox-de Boor recursion; the explicit
truncated-power formula is kept as an independent oracle that sums
exactly in rationals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np
from scipy.linalg import lapack as _lapack

__all__ = [
    "PchipInterpolant",
    "SplineInterpolant",
    "UniformSignal",
    "check_memory",
    "clip_to_domain",
    "fundamental_spline_spectrum",
    "interpolate_nonuniform",
    "interpolate_pchip",
    "nonuniform_bspline",
    "nonuniform_bspline_truncated_power",
    "physical_memory",
    "resample_uniform",
]

_COND_LIMIT = 1e12


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
    """Non-uniform B-spline N_{n,j} evaluated by the Cox-de Boor recursion.

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
        N_{n,j}(x), zero outside [t_j, t_{j+n+1}].
    """
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    t = np.asarray(knots, dtype=float)
    if j < 0 or j + n + 1 >= t.size:
        raise ValueError("knot sequence does not cover the requested basis index")
    if np.any(np.diff(t[j:j + n + 2]) <= 0.0):
        raise ValueError("repeated or decreasing knots in the support")
    xa = np.atleast_1d(np.asarray(x, dtype=float))

    # degree-0 seed on half-open cells [t_i, t_{i+1})
    vals = [
        np.where((t[j + i] <= xa) & (xa < t[j + i + 1]), 1.0, 0.0)
        for i in range(n + 1)
    ]
    for d in range(1, n + 1):
        nxt = []
        for i in range(n + 1 - d):
            left = (xa - t[j + i]) / (t[j + i + d] - t[j + i]) * vals[i]
            right = (t[j + i + d + 1] - xa) / (t[j + i + d + 1] - t[j + i + 1]) * vals[i + 1]
            nxt.append(left + right)
        vals = nxt
    out = vals[0]
    if np.ndim(x) == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# fundamental cardinal spline spectrum
# ---------------------------------------------------------------------------

def fundamental_spline_spectrum(n: int, xi) -> np.ndarray | float:
    """Fourier transform of the order-``n`` fundamental cardinal spline.

    eta_hat_n(xi) = sinc(xi)^(n+1) / sum_l sinc(xi - l)^(n+1)
    with sinc(u) = sin(pi u)/(pi u) and sinc(0) = 1.

    By Poisson summation the periodized denominator is the finite cosine
    series b(0) + 2 sum_{m=1}^{floor((n+1)/2)} b(m) cos(2 pi m xi), where
    b(m) is the centred order-``n`` B-spline at the integer m (the
    Euler-Frobenius polynomial; Unser, Aldroubi & Eden, IEEE TSP 1993), so
    the spectrum is exact rather than a truncated sum.

    Parameters
    ----------
    n : int
        Spline order, n >= 1.
    xi : float or array_like
        Frequency in cycles per sample.

    Returns
    -------
    float or ndarray
        eta_hat_n(xi); equals 1 at xi = 0 and 0 at nonzero integers.
    """
    if n < 1:
        raise ValueError(f"spline order must be >= 1, got {n}")
    xa = np.asarray(xi, dtype=float)
    m = np.arange((n + 1) // 2 + 1)
    # Cox-de Boor, not the cardinal truncated-power sum: that one loses
    # about 1e-10 to cancellation at n = 12
    b = nonuniform_bspline(n, 0, np.arange(n + 2.0), m + (n + 1) / 2.0)
    den = np.full_like(xa, b[0])
    for mi in m[1:]:
        den += 2.0 * b[mi] * np.cos(2.0 * np.pi * mi * xa)
    out = np.sinc(xa) ** (n + 1) / den
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# uniform signal container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UniformSignal:
    """Real-valued signal on a uniform time grid t_start + k/rate."""

    values: np.ndarray
    rate: float
    t_start: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("uniform signal needs a 1-d array of length >= 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("uniform signal values must be finite")
        if not 0.0 < self.rate < np.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if not np.isfinite(self.t_start):
            raise ValueError(f"t_start must be finite, got {self.t_start}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.values.size) / self.rate

    @property
    def duration(self) -> float:
        return (self.values.size - 1) / self.rate


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say:
    the bound a size check compares its estimate with before allocating."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", ()):
        return float("inf")
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(need: float, what: str, remedy: str) -> None:
    """Refuse, before allocating, work of about ``need`` bytes (inf or NaN
    included) beyond physical memory: a ValueError saying that ``what``
    needs them and how to ``remedy`` it."""
    have = physical_memory()
    if not need <= have:
        raise ValueError(f"{what} need ~{need:.3g} bytes, over the {have} bytes"
                         f" of memory: {remedy}")


# ---------------------------------------------------------------------------
# interpolants
# ---------------------------------------------------------------------------

def clip_to_domain(x, domain: tuple[float, float], what: str) -> np.ndarray:
    """``x`` as a 1-d float array clipped into ``domain``, never extrapolated.

    Points beyond the domain by more than a relative 1e-12 slack raise
    ValueError("``what`` outside domain [lo, hi]"); points within it are
    clipped, since resampling grids can overshoot the last knot by ulps.
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

    Row p holds N_{span[p]-n}(x[p]) .. N_{span[p]}(x[p]) in extended basis
    numbering (basis b is built on ext_knots[b .. b+n+1]).
    """
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


def _find_spans(ext_knots: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    # nonempty spans live between indices n and len - n - 2 (the end knots
    # carry multiplicity n+1); out-of-domain x was clipped before this point
    spans = np.searchsorted(ext_knots, x, side="right") - 1
    return np.clip(spans, n, ext_knots.size - n - 2)


@dataclass(frozen=True, eq=False)
class SplineInterpolant:
    """Order-n spline through non-uniform samples, defined by a banded
    Schoenberg-Whitney solve.  Immutable; evaluation never extrapolates.

    ``knots`` is the clamped (end-knots repeated n+1 times) generalized
    not-a-knot sequence, which makes the square system reproduce degree-n
    polynomials on the whole sampled span.
    """

    order: int
    knots: np.ndarray          # clamped knot sequence
    coefficients: np.ndarray   # one per basis function
    domain: tuple[float, float]

    def __post_init__(self):
        for name in ("knots", "coefficients"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __call__(self, x) -> np.ndarray | float:
        xa = clip_to_domain(x, self.domain, "spline evaluation")
        n = self.order
        spans = _find_spans(self.knots, n, xa)
        vals = _basis_matrix_rows(self.knots, n, xa, spans)
        c_idx = spans[:, None] - n + np.arange(n + 1)[None, :]
        out = np.sum(vals * self.coefficients[c_idx], axis=1)
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
        Too few samples, or a singular / ill-conditioned collocation
        matrix (1-norm condition estimate above 1e12).
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
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")

    m = times.size
    ext = _not_a_knot_vector(times, n)

    spans = _find_spans(ext, n, times)
    vals = _basis_matrix_rows(ext, n, times, spans)
    rows = np.repeat(np.arange(m), n + 1)
    cols = (spans[:, None] - n + np.arange(n + 1)[None, :]).ravel()
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


class PchipInterpolant:
    """Shape-preserving (Fritsch-Carlson) piecewise cubic interpolant with
    the same domain discipline as :class:`SplineInterpolant`."""

    order = 3

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.knots = times
        self.domain = (float(times[0]), float(times[-1]))
        # imported here: scipy.interpolate would add ~0.3 s to every import
        from scipy.interpolate import PchipInterpolator
        self._pchip = PchipInterpolator(times, values, extrapolate=False)

    def __call__(self, x) -> np.ndarray | float:
        out = self._pchip(clip_to_domain(x, self.domain, "PCHIP evaluation"))
        if np.ndim(x) == 0:
            return float(out[0])
        return out


def interpolate_pchip(samples) -> PchipInterpolant:
    """Monotone piecewise cubic Hermite interpolation of the samples.

    Never overshoots between monotone knot runs; needs >= 3 samples.
    """
    times = np.asarray(samples.times, dtype=float)
    values = np.asarray(samples.values, dtype=float)
    if times.size < 3:
        raise ValueError(f"PCHIP needs at least 3 samples, got {times.size}")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    return PchipInterpolant(times, values)


def resample_uniform(interp, rate: float, t_start: float,
                     t_end: float) -> UniformSignal:
    """Evaluate an interpolant on the uniform grid t_start + k/rate.

    The grid covers k = 0 .. floor((t_end - t_start) * rate); the whole
    span must lie inside the interpolant domain, and a grid too large for
    physical memory is refused before it is allocated.
    """
    if not rate > 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    clip_to_domain([t_start, t_end], interp.domain,
                   f"resampling span [{t_start}, {t_end}]")
    count = np.floor((t_end - t_start) * rate + 1e-9) + 1.0
    # measured 24 (n + 1) + 56 bytes per point at order n; allow over twice that
    check_memory(count * 64.0 * (interp.order + 2), f"{count:.3g} resampled points",
                 f"lower the rate ({rate}) or the span [{t_start}, {t_end}]")
    count = int(count)
    grid = t_start + np.arange(count) / rate
    return UniformSignal(values=np.asarray(interp(grid), dtype=float),
                         rate=float(rate), t_start=float(t_start))
