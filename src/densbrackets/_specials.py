"""Special functions on arrays: erf and the modified Bessel functions I0, I1.

The expression language needs these beyond what numpy provides.  Each is
elementwise over arrays of any shape (a 0-d array or a float is one point):

* ``erf_array`` -- the C library's ``erf`` (through :func:`math.erf`)
  applied to each entry as a Python float, so it is within about 1 ulp of
  the true value; erf(+-0) = +-0, erf(+-inf) = +-1 and erf(NaN) is NaN.
* ``besseli0_array`` / ``besseli1_array`` -- ascending power series,
  summed until every term/sum ratio is at most 1e-17; an entry's value
  does not depend on the other entries.  The series overflows from about
  |x| = 705.8, where the entry comes out as +-inf.  The stopping test runs
  only after every ``_BESSEL_CHECK_EVERY``-th term, and that gives the
  same bits as testing after each one: 1e-17 < 2**-54, and once an entry's
  ratio is that small its terms are past their peak and decreasing, so
  each term summed after it is below half an ulp of the sum and leaves the
  sum unchanged.

They are the only implementations: compiled kernels, strict evaluation and
constant folding all call them.
"""

from __future__ import annotations

import math

import numpy as np

# Term-ratio cutoff for the Bessel series, and how many terms are summed
# between two tests of it.
_BESSEL_CUTOFF = 1e-17
_BESSEL_CHECK_EVERY = 4


def erf_array(x: np.ndarray) -> np.ndarray:
    """Elementwise erf, within about 1 ulp."""
    x = np.asarray(x, dtype=float)
    values = map(math.erf, x.ravel().tolist())
    return np.fromiter(values, float, x.size).reshape(x.shape)


def _bessel_series_array(x: np.ndarray, order: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x2 = 0.25 * x * x
    if order == 0:
        term = np.ones_like(x2)
    else:
        term = 0.5 * x
    total = term.copy()
    k = 1
    while True:
        for _ in range(_BESSEL_CHECK_EVERY):
            term = term * x2 / (k * k if order == 0 else k * (k + 1))
            total += term
            k += 1
        denom = np.maximum(np.abs(total), 1e-300)
        # An entry whose sum overflowed has ratio 0 (or NaN once its term
        # overflows too) and counts as done, so it comes out as +-inf.
        if not (np.abs(term) / denom > _BESSEL_CUTOFF).any():
            return total
        if k > 10000:
            raise OverflowError("Bessel series did not terminate")


def besseli0_array(x: np.ndarray) -> np.ndarray:
    """Elementwise modified Bessel function of the first kind, order 0."""
    return _bessel_series_array(x, 0)


def besseli1_array(x: np.ndarray) -> np.ndarray:
    """Elementwise modified Bessel function of the first kind, order 1."""
    return _bessel_series_array(x, 1)
