"""In-repo special functions: erf and the modified Bessel functions I0, I1.

The expression language needs these beyond what ``math`` provides uniformly
across platforms, so they are implemented here from their defining series:

* ``erf`` -- Maclaurin series for |x| <= 2, Laplace continued fraction for the
  complementary function elsewhere.  Absolute error <= 1e-14 on the real line.
* ``besseli0`` / ``besseli1`` -- ascending power series with the summation cut
  off once the term ratio drops below 1e-17; arguments past the overflow
  threshold (about |x| = 714) give +-inf.

Each function has a scalar and an ndarray variant; the array variants are used
by compiled expression evaluators and accept arbitrary shapes.
"""

from __future__ import annotations

import math

import numpy as np

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)

# Switch point between the Maclaurin series and the continued fraction.
_ERF_SERIES_CUTOFF = 2.0
# Term-ratio cutoff for the Bessel series.
_BESSEL_CUTOFF = 1e-17


def erf(x: float) -> float:
    """Gauss error function, |abs error| <= 1e-14."""
    if x != x:  # NaN propagates
        return x
    ax = abs(x)
    if ax <= _ERF_SERIES_CUTOFF:
        return math.copysign(_erf_series(ax), x) if x != 0.0 else 0.0
    return math.copysign(1.0 - _erfc_cf(ax), x)


def _erf_series(ax: float) -> float:
    # erf(x) = (2/sqrt(pi)) * sum_n (-1)^n x^(2n+1) / (n! (2n+1))
    x2 = ax * ax
    term = ax  # x^(2n+1) / n!
    total = ax
    n = 1
    while True:
        term *= -x2 / n
        contrib = term / (2 * n + 1)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            return _TWO_OVER_SQRT_PI * total
        n += 1
        if n > 200:  # unreachable for |x| <= 2; defensive
            return _TWO_OVER_SQRT_PI * total


def _erfc_cf(ax: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated with the modified Lentz algorithm; valid for x >= ~1.
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    m = 0
    while m < 300:
        a = 1.0 if m == 0 else m / 2.0
        b = ax
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
        m += 1
    if ax * ax > 745.0:
        return 0.0
    return math.exp(-ax * ax) / _SQRT_PI * f


def besseli0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0 (power series)."""
    if x != x:
        return x
    x2 = 0.25 * x * x
    term = 1.0
    total = 1.0
    k = 1
    while True:
        term *= x2 / (k * k)
        total += term
        if term <= _BESSEL_CUTOFF * total:
            return total
        k += 1
        if k > 10000:
            raise OverflowError(f"besseli0 series did not terminate for x={x!r}")


def besseli1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1 (power series)."""
    if x != x:
        return x
    x2 = 0.25 * x * x
    term = 0.5 * x
    total = term
    k = 1
    while True:
        term *= x2 / (k * (k + 1))
        total += term
        if abs(term) <= _BESSEL_CUTOFF * abs(total) or total == 0.0:
            return total
        k += 1
        if k > 10000:
            raise OverflowError(f"besseli1 series did not terminate for x={x!r}")


def erf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise erf; same accuracy as the scalar version."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.empty_like(ax)

    small = ax <= _ERF_SERIES_CUTOFF
    if np.any(small):
        xs = ax[small]
        x2 = xs * xs
        term = xs.copy()
        total = xs.copy()
        # 50 terms bound the |x|<=2 remainder far below 1e-16.
        for n in range(1, 50):
            term *= -x2 / n
            total += term / (2 * n + 1)
        out[small] = _TWO_OVER_SQRT_PI * total

    big = ~small
    if np.any(big):
        xb = ax[big]
        tiny = 1e-300
        f = np.full_like(xb, tiny)
        c = f.copy()
        d = np.zeros_like(xb)
        # Fixed-depth Lentz iteration; 80 levels converge for x >= 2.
        for m in range(80):
            a = 1.0 if m == 0 else m / 2.0
            d = xb + a * d
            np.copyto(d, tiny, where=d == 0.0)
            c = xb + a / c
            np.copyto(c, tiny, where=c == 0.0)
            d = 1.0 / d
            f = f * (c * d)
        with np.errstate(under="ignore"):
            erfc = np.exp(-xb * xb) / _SQRT_PI * f
        out[big] = 1.0 - erfc

    return np.copysign(out, x)


def _bessel_series_array(x: np.ndarray, order: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x2 = 0.25 * x * x
    if order == 0:
        term = np.ones_like(x2)
    else:
        term = 0.5 * x.copy()
    total = term.copy()
    k = 1
    while True:
        if order == 0:
            term = term * x2 / (k * k)
        else:
            term = term * x2 / (k * (k + 1))
        total += term
        denom = np.maximum(np.abs(total), 1e-300)
        # An entry whose sum overflowed has ratio 0 (or NaN once its term
        # overflows too) and counts as done, so it comes out as +-inf.
        if not (np.abs(term) / denom > _BESSEL_CUTOFF).any():
            return total
        k += 1
        if k > 10000:
            raise OverflowError("Bessel series did not terminate")


def besseli0_array(x: np.ndarray) -> np.ndarray:
    """Elementwise I0 by the same series as the scalar version."""
    return _bessel_series_array(x, 0)


def besseli1_array(x: np.ndarray) -> np.ndarray:
    """Elementwise I1 by the same series as the scalar version."""
    return _bessel_series_array(x, 1)
