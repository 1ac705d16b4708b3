"""erf/besseli0/besseli1 against high-precision series oracles, erf against
the C library bit for bit, and the Bessel series against its per-term
reference."""

from __future__ import annotations

import math
import warnings

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
    bessel_series_per_term,
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


def test_erf_at_infinity_without_warnings():
    x = np.array([np.inf, -np.inf, 0.3, -2.5, 7.0, -40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = erf(x)
    assert list(out[:2]) == [1.0, -1.0]
    # finite entries are the ones computed without the infinities
    np.testing.assert_array_equal(out[2:], erf(x[2:]))


# Zeros of both signs, the smallest subnormal, the old series/continued
# fraction switch point, the far tails, the infinities and NaN.
ERF_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.3, -0.7, 2.0, -2.0,
    np.nextafter(2.0, 3.0), 3.5, 6.0, -6.0, 27.0, np.inf, -np.inf, np.nan,
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _libm_erf(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.array([math.erf(v) for v in x.ravel()], dtype=float).reshape(x.shape)


def test_erf_is_libm_erf_on_floats_and_0d():
    for v in ERF_EDGES:
        for form in (float(v), np.float64(v), np.array(v)):
            out = erf(form)
            assert np.shape(out) == ()
            assert _bits(out) == _bits(math.erf(v)), v


@pytest.mark.parametrize(
    "form",
    [
        lambda a: a,
        lambda a: np.repeat(a, 3)[1::3],
        lambda a: np.stack([a, -a, 2 * a])[:, ::-1].T,
        lambda a: np.broadcast_to(a[:, None], (a.size, 4)),
        lambda a: np.broadcast_to(a, (3, a.size)),
    ],
    ids=["1-d", "strided", "transposed", "broadcast-column", "broadcast-row"],
)
def test_erf_is_libm_erf_on_arrays(form):
    x = form(np.array(ERF_EDGES))
    out = erf(x)
    assert out.shape == x.shape and out.dtype == np.float64
    np.testing.assert_array_equal(_bits(out), _bits(_libm_erf(x)))


def _bessel_cases():
    rng = np.random.default_rng(20261018)

    def spread(shape):
        # both signs; magnitudes below 720, spread over about six decades
        return rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-3, np.log10(720), shape)

    overflow = np.array([705.0, 705.8, 706.0, 713.0, -713.0, 715.0, -720.0, 720.0])
    return [
        spread(50),
        spread((7, 9)),
        rng.uniform(-720, 720, (30, 1)),
        np.concatenate([spread(20), overflow, -overflow, [0.0, -0.0]]),
        rng.uniform(690, 720, (4, 5)) * rng.choice([-1.0, 1.0], (4, 5)),
        np.array(rng.uniform(-720, 720)),
        float(rng.uniform(-30, 30)),
    ]


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_matches_per_term_reference(order):
    fn = besseli0 if order == 0 else besseli1
    saw_overflow = False
    for x in _bessel_cases():
        with np.errstate(all="ignore"):
            out = fn(x)
            want = bessel_series_per_term(x, order)
        assert np.shape(out) == np.shape(x)
        np.testing.assert_array_equal(_bits(out), _bits(want))
        saw_overflow |= bool(np.isinf(out).any())
    assert saw_overflow
