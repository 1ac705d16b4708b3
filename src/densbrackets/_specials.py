"""In-repo special functions: erf and the modified Bessel functions I0, I1.

The expression language needs these beyond what numpy provides, so they are
implemented here from their defining series, elementwise over arrays of any
shape (a 0-d array or a float is one point):

* ``erf_array`` -- Maclaurin series for |x| <= 2, Laplace continued fraction
  for the complementary function elsewhere.  Absolute error <= 1e-14 on the
  real line; erf(+-inf) = +-1.
* ``besseli0_array`` / ``besseli1_array`` -- ascending power series with the
  summation cut off once every term ratio drops below 1e-17; an entry's
  value does not depend on the other entries.  The series overflows from
  about |x| = 705.8, where the entry comes out as +-inf.

They are the only implementations: compiled kernels, strict evaluation and
constant folding all call them.
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


def erf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise erf, absolute error <= 1e-14."""
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

    # erfc(inf) = 0; the continued fraction would form inf * 0 there
    infinite = np.isinf(ax)
    out[infinite] = 1.0
    big = ~(small | infinite)
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
    """Elementwise modified Bessel function of the first kind, order 0."""
    return _bessel_series_array(x, 0)


def besseli1_array(x: np.ndarray) -> np.ndarray:
    """Elementwise modified Bessel function of the first kind, order 1."""
    return _bessel_series_array(x, 1)
