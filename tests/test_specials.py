"""In-repo erf/besseli0/besseli1 against high-precision series oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from densbrackets import _specials

erf = _specials.erf_array
besseli0 = _specials.besseli0_array
besseli1 = _specials.besseli1_array

from oracles import (
    ERF_SQRT2_OVER_2,
    I0_AT_1,
    I0_AT_1_SQUARED,
    I1_AT_1,
    besseli_oracle,
    check_closed_forms,
    erf_oracle,
)


def test_frozen_values_match_oracles():
    check_closed_forms()
    assert erf_oracle(math.sqrt(2) / 2) == pytest.approx(ERF_SQRT2_OVER_2, abs=1e-16)
    assert besseli_oracle(0, 1.0) == pytest.approx(I0_AT_1, abs=1e-16)
    assert besseli_oracle(1, 1.0) == pytest.approx(I1_AT_1, abs=1e-16)
    assert besseli_oracle(0, 1.0) ** 2 == pytest.approx(I0_AT_1_SQUARED, abs=1e-15)


@pytest.mark.parametrize("x", [0.0, 1e-12, 0.1, 0.5, math.sqrt(2) / 2, 1.0, 1.9999, 2.0])
def test_erf_series_region(x):
    assert erf(x) == pytest.approx(erf_oracle(x), abs=1e-14)
    assert erf(-x) == -erf(x)


@pytest.mark.parametrize("x", [2.0001, 2.5, 3.0, 4.0, 6.0, 10.0, 30.0])
def test_erf_continued_fraction_region(x):
    assert erf(x) == pytest.approx(erf_oracle(x), abs=1e-14)
    assert erf(-x) == pytest.approx(-erf_oracle(x), abs=1e-14)


def test_erf_dense_grid():
    xs = np.linspace(-8.0, 8.0, 401)
    worst = max(abs(v - erf_oracle(float(x))) for x, v in zip(xs, erf(xs)))
    assert worst <= 1e-14


@pytest.mark.parametrize("x", [0.0, 0.25, 1.0, 2.0, 5.0, 10.0, 25.0])
def test_besseli0(x):
    assert besseli0(x) == pytest.approx(besseli_oracle(0, x), rel=1e-14)
    assert besseli0(-x) == besseli0(x)


@pytest.mark.parametrize("x", [0.0, 0.25, 1.0, 2.0, 5.0, 10.0, 25.0])
def test_besseli1(x):
    assert besseli1(x) == pytest.approx(besseli_oracle(1, x), rel=1e-14, abs=1e-300)
    assert besseli1(-x) == -besseli1(x)


def test_array_variants_preserve_shape():
    x = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    assert erf(x).shape == (3, 4)
    assert besseli0(x).shape == (3, 4)


def test_bessel_arrays_overflow_to_inf():
    x = np.array([0.5, 25.0, 700.0, 1000.0, -1000.0, 1e6, 1e200])
    with np.errstate(all="ignore"):
        i0 = besseli0(x)
        i1 = besseli1(x)
    # finite entries equal the arrays evaluated on their own
    np.testing.assert_array_equal(i0[:3], besseli0(x[:3]))
    np.testing.assert_array_equal(i1[:3], besseli1(x[:3]))
    assert np.all(np.isfinite(i0[:3])) and np.all(np.isfinite(i1[:3]))
    assert np.all(i0[3:] == np.inf)
    assert list(i1[3:]) == [np.inf, -np.inf, np.inf, np.inf]
