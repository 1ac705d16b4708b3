"""Adaptive Gauss-Kronrod quadrature: rule exactness, adaptivity,
determinism."""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from densbrackets import AreaProblem, FlowMap, area, parse, quadrature
from densbrackets.quadrature import (
    _BLOCK_ROWS,
    _GK15,
    _GK21,
    _RULES,
    DivergentIntegralError,
    NonFiniteIntegrandError,
    QuadSpec,
    QuadratureError,
    integrate_2d,
    integrate_4d,
)

from conftest import integrate_1d
from oracles import (
    I0_AT_1_SQUARED,
    ONE_MINUS_EXP_MINUS_HALF,
    TWO_PI_I0_AT_1,
)


# -- the rule itself -----------------------------------------------------------


# each pair with the degrees to which its Gauss and Kronrod parts are exact
_PAIRS = pytest.mark.parametrize(
    "rule, gauss_degree, kronrod_degree",
    [(_GK15, 13, 23), (_GK21, 19, 31)],
    ids=["G7/K15", "G10/K21"],
)


@_PAIRS
def test_rule_nodes_are_interior_and_symmetric(rule, gauss_degree, kronrod_degree):
    nodes, wk, wg = rule
    assert nodes.shape == wk.shape == wg.shape == (gauss_degree + 2,)
    assert np.all(nodes > -1.0) and np.all(nodes < 1.0)
    assert np.all(np.diff(nodes) > 0)
    np.testing.assert_allclose(nodes, -nodes[::-1], atol=0)
    np.testing.assert_allclose(wk, wk[::-1], atol=0)
    np.testing.assert_allclose(wg, wg[::-1], atol=0)
    assert np.all(wk > 0)
    # embedded Gauss weights live at the odd positions
    assert np.all(wg[0::2] == 0.0) and np.all(wg[1::2] > 0.0)
    assert sum(wk) == pytest.approx(2.0, abs=1e-15)
    assert sum(wg) == pytest.approx(2.0, abs=1e-15)


@_PAIRS
def test_both_parts_are_exact_on_monomials_to_their_degree(
    rule, gauss_degree, kronrod_degree
):
    # one panel on [-1, 1]: half-width 1, midpoint 0
    nodes, wk, wg = rule
    for weights, degree in ((wg, gauss_degree), (wk, kronrod_degree)):
        for p in range(degree + 1):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            assert abs(nodes**p @ weights - exact) <= 1e-13
    # one degree more is beyond the Gauss part
    p = gauss_degree + 1
    assert abs(nodes**p @ wg - 2.0 / (p + 1)) > 1e-6


# -- 1-d examples ---------------------------------------------------------------


def test_integral_of_sin():
    r = integrate_1d(np.sin, 0.0, math.pi)
    assert r.converged
    assert r.value == pytest.approx(2.0, abs=1e-12)
    assert r.error_estimate <= 1e-10


def test_integral_gaussian_moment():
    r = integrate_1d(lambda x: x * np.exp(-x * x / 2), 0.0, 1.0)
    assert r.value == pytest.approx(ONE_MINUS_EXP_MINUS_HALF, abs=1e-12)


def test_integral_bessel_period():
    r = integrate_1d(lambda t: np.exp(np.cos(t)), 0.0, 2 * math.pi)
    assert r.value == pytest.approx(TWO_PI_I0_AT_1, abs=1e-9)


# The same constant integrand, returned by the kernel as a Python float and
# in four other forms; the quadrature leaf copies each to a C-ordered node
# grid.
@pytest.mark.parametrize(
    "form",
    [
        lambda *x: np.array(0.3),
        lambda *x: np.full(np.shape(x[-2]), 0.3),
        lambda *x: np.full(np.broadcast(*x).shape, 0.3),
        lambda *x: np.full(np.broadcast(*x).shape, 0.3, order="F"),
    ],
    ids=["0-d array", "some axes", "full shape", "full shape, F order"],
)
@pytest.mark.parametrize(
    "run",
    [
        lambda f: integrate_2d(f, ((0, 1), (0, 2))),
        lambda f: integrate_4d(f, ((0, 1), (0, 2)), ((0, 3), (0, 1))),
    ],
    ids=["2d", "4d"],
)
def test_kernel_output_form_does_not_change_the_result(run, form):
    expected, got = run(lambda *x: 0.3), run(form)
    assert (got.value, got.error_estimate, got.n_evals, got.converged) == (
        expected.value,
        expected.error_estimate,
        expected.n_evals,
        expected.converged,
    )


# Empty, infinite, or with an infinite width or midpoint: the constant 1
# would otherwise be evaluated at nan or inf.
@pytest.mark.parametrize(
    "interval", [(1.0, 1.0), (0.0, math.inf), (1e308, 1.7e308), (-1e308, 1e308)]
)
def test_invalid_interval_rejected(interval):
    with pytest.raises(QuadratureError, match="invalid interval"):
        integrate_1d(np.sin, *interval)

    def one(*coords):
        return 1.0

    for box in ((interval, (0.0, 1.0)), ((0.0, 1.0), interval)):
        with pytest.raises(QuadratureError, match="invalid interval"):
            integrate_2d(one, box)
        with pytest.raises(QuadratureError, match="invalid interval"):
            integrate_4d(one, box, ((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(QuadratureError, match="invalid interval"):
            integrate_4d(one, ((0.0, 1.0), (0.0, 1.0)), box)


_UNIT, _TRIPLE = (0.0, 1.0), (0.0, 0.5, 1.0)


@pytest.mark.parametrize(
    "entry, boxes, message",
    [
        # a box of the wrong number of axes
        (integrate_2d, [()], "a 2-d box has 2 axes, got 0"),
        (integrate_2d, [(_UNIT,)], "a 2-d box has 2 axes, got 1"),
        (integrate_2d, [(_UNIT,) * 3], "a 2-d box has 2 axes, got 3"),
        (integrate_4d, [(), (_UNIT,) * 2], "the outer box has 1 or 2 axes, got 0"),
        (integrate_4d, [(_UNIT,) * 3, (_UNIT,) * 2], "the outer box has 1 or 2 axes, got 3"),
        (integrate_4d, [(_UNIT,) * 2, ()], "the inner box has 2 axes, got 0"),
        (integrate_4d, [(_UNIT,) * 2, (_UNIT,)], "the inner box has 2 axes, got 1"),
        (integrate_4d, [(_UNIT,), (_UNIT,) * 3], "the inner box has 2 axes, got 3"),
        # an interval that is not a pair
        (integrate_2d, [(_TRIPLE, _UNIT)], "an interval has 2 ends, got 3"),
        (integrate_2d, [(_UNIT, (0.0,))], "an interval has 2 ends, got 1"),
        (integrate_4d, [(_TRIPLE,), (_UNIT,) * 2], "an interval has 2 ends, got 3"),
        (integrate_4d, [(_UNIT,) * 2, (_UNIT, _TRIPLE)], "an interval has 2 ends, got 3"),
        # a box or an interval that is not a sequence
        (integrate_2d, [5], "a 2-d box has 2 axes, got 5, which is not a sequence"),
        (integrate_2d, [(3, _UNIT)], "an interval has 2 ends, got 3, which is not a sequence"),
        (integrate_4d, [7, (_UNIT,) * 2], "the outer box has 1 or 2 axes, got 7, which is not a sequence"),
        (integrate_4d, [(_UNIT,), 7], "the inner box has 2 axes, got 7, which is not a sequence"),
        (integrate_4d, [(_UNIT,), (_UNIT, None)], "an interval has 2 ends, got None, which is not a sequence"),
        # an end that is not a number
        (integrate_2d, [(_UNIT, (0, "a"))], "the ends of an interval are numbers, got (0, 'a')"),
        (integrate_2d, [(_UNIT, (0, None))], "the ends of an interval are numbers, got (0, None)"),
        (integrate_4d, [((None, 1.0),), (_UNIT,) * 2], "the ends of an interval are numbers, got (None, 1.0)"),
        (integrate_4d, [(_UNIT,), (_UNIT, (0.0, 1j))], "the ends of an interval are numbers, got (0.0, 1j)"),
        # text, which float() and tuple() would read as numbers or as pairs
        (integrate_2d, ["ab"], "a 2-d box has 2 axes, got 'ab', which is text"),
        (integrate_2d, [("01", _UNIT)], "an interval has 2 ends, got '01', which is text"),
        (integrate_2d, [((0, "1e0"), _UNIT)], "the ends of an interval are numbers, got (0, '1e0')"),
        (integrate_2d, [(_UNIT, (b"0", 1))], "the ends of an interval are numbers, got (b'0', 1)"),
        (integrate_4d, [b"0", (_UNIT,) * 2], "the outer box has 1 or 2 axes, got b'0', which is text"),
        (integrate_4d, [(_UNIT,), "uv"], "the inner box has 2 axes, got 'uv', which is text"),
        (integrate_4d, [(_UNIT,), (_UNIT, bytearray(b"01"))], "an interval has 2 ends, got bytearray(b'01'), which is text"),
    ],
)
def test_a_box_of_the_wrong_shape_is_rejected(entry, boxes, message):
    # unchecked, a one-axis box would give a lower-dimensional integral
    # without a word, and a box that is not a sequence of pairs of numbers
    # would end in a bare TypeError or ValueError
    with pytest.raises(QuadratureError, match=re.escape(message)):
        entry(lambda *coords: 1.0, *boxes)


def test_spec_validation():
    with pytest.raises(QuadratureError):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(QuadratureError):
        QuadSpec(abs_tol=math.inf)
    with pytest.raises(QuadratureError):
        QuadSpec(rel_tol=math.nan)
    with pytest.raises(QuadratureError):
        QuadSpec(max_subdivisions=0)
    with pytest.raises(QuadratureError):
        QuadSpec(max_evals=14)


@pytest.mark.parametrize(
    "field, value",
    [
        ("abs_tol", None),
        ("abs_tol", "1e-3"),  # text is not a number, as in to_float
        ("rel_tol", [1]),
        ("max_subdivisions", None),
        ("max_evals", "x"),
        ("abs_tol", np.array([1e-3])),  # not hashable either
        ("abs_tol", True),
        ("rel_tol", np.True_),
        ("max_subdivisions", 2.5),
        ("max_subdivisions", True),
        ("max_subdivisions", 100.0),
        ("max_evals", 15.5),
        ("max_evals", np.float64(1000.0)),
    ],
)
def test_a_spec_field_that_is_not_a_number_is_a_typed_error(field, value):
    kind = "a number" if field.endswith("_tol") else "an integer"
    with pytest.raises(QuadratureError, match=f"^{field} must be {kind}, got "):
        QuadSpec(**{field: value})


def test_spec_fields_are_stored_as_plain_numbers():
    spec = QuadSpec(np.float32(0.5), 1, np.int64(7), np.int32(99))
    fields = (spec.abs_tol, spec.rel_tol, spec.max_subdivisions, spec.max_evals)
    assert fields == (0.5, 1.0, 7, 99)
    assert [type(x) for x in fields] == [float, float, int, int]
    with pytest.raises(QuadratureError, match="^abs_tol must be positive and finite"):
        QuadSpec(abs_tol=10**400)
    # the spec keys the start-rule cache, so it must hash
    result = quadrature.integrate_2d(lambda x, y: x * y, ((0.0, 1.0), (0.0, 1.0)), spec)
    assert result.value == pytest.approx(0.25)


def test_tightened_tolerances_stop_at_the_smallest_double():
    spec = QuadSpec(abs_tol=5e-324, rel_tol=1e-3).tightened(1000.0)
    assert spec.abs_tol == 5e-324 and spec.rel_tol == 1e-3 / 1000.0
    assert QuadSpec(abs_tol=1e-300).tightened(10.0).abs_tol == 1e-300 / 10.0


def test_a_rescaled_tolerance_stays_between_the_smallest_and_the_largest_double():
    # one clamp rule for every rescaling: each tolerance by its own factor
    spec = QuadSpec(abs_tol=1e-3, rel_tol=1e-6)
    assert spec.tightened(4.0, 2.0) == replace(spec, abs_tol=1e-3 / 4.0, rel_tol=1e-6 / 2.0)
    assert spec.tightened(0.5, 1.0) == replace(spec, abs_tol=2e-3)
    huge = QuadSpec(abs_tol=1e300).tightened(1e-300, 1.0)
    assert huge.abs_tol == sys.float_info.max and huge.rel_tol == QuadSpec().rel_tol
    tiny = QuadSpec(rel_tol=1e-300).tightened(1.0, 1e300)
    assert tiny.rel_tol == 5e-324 and tiny.abs_tol == QuadSpec().abs_tol


@pytest.mark.parametrize(
    "outer, expected",
    [
        # the inner axis of a pair is 10x tighter than its outer axis, and
        # the inner pair 3x tighter than the last axis outside it
        ((), (1e-3, 1e-3 / 10)),
        (((0.0, 3.0),), (1e-3, 1e-3 / 3, 1e-3 / 3 / 10)),
        (((0.0, 3.0), (0.0, 4.0)), (1e-3, 1e-3 / 10, 1e-3 / 10 / 3, 1e-3 / 10 / 3 / 10)),
    ],
    ids=["2-d", "3-d", "4-d"],
)
def test_a_pair_tightens_10x_and_a_nested_group_3x(monkeypatch, outer, expected):
    # Every integral, on every axis, starts in _start, the outer axis of a
    # pair included; that axis's first round is the tensor step that also
    # starts its inner axis.
    tolerances = {}
    start_ = quadrature._start

    def spy(f, a, b, spec, *args):
        tolerances.setdefault(b, set()).add((spec.abs_tol, spec.rel_tol))
        return start_(f, a, b, spec, *args)

    monkeypatch.setattr(quadrature, "_start", spy)
    inner = ((0.0, 1.0), (0.0, 2.0))
    spec = QuadSpec(abs_tol=1e-3, rel_tol=1e-3)
    if outer:
        integrate_4d(lambda *x: np.cos(sum(x)), outer, inner, spec)
    else:
        integrate_2d(lambda u, v: np.cos(u + v), inner, spec)
    ends = [hi for _, hi in outer + inner]
    assert [tolerances[b] for b in ends] == [{(tol, tol)} for tol in expected]


# -- adaptivity properties ---------------------------------------------------------


def test_linearity():
    f = lambda x: np.sin(x)
    g = lambda x: x * x
    a, b = 0.3, 2.1
    rf = integrate_1d(f, a, b)
    rg = integrate_1d(g, a, b)
    rc = integrate_1d(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b)
    assert rc.value == pytest.approx(
        2.5 * rf.value - 1.25 * rg.value,
        abs=2.5 * rf.error_estimate + 1.25 * rg.error_estimate + 1e-13,
    )


def test_interval_additivity():
    rng = random.Random(71)
    f = lambda x: np.exp(-x) * np.sin(5 * x)
    for _ in range(10):
        m = rng.uniform(0.1, 2.9)
        whole = integrate_1d(f, 0.0, 3.0)
        left = integrate_1d(f, 0.0, m)
        right = integrate_1d(f, m, 3.0)
        assert whole.value == pytest.approx(
            left.value + right.value,
            abs=whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13,
        )


def test_determinism_bit_identical():
    f = lambda x: np.exp(-x * x) * np.cos(7 * x)
    r1 = integrate_1d(f, -2.0, 3.0)
    r2 = integrate_1d(f, -2.0, 3.0)
    assert (r1.value, r1.error_estimate, r1.n_evals) == (
        r2.value,
        r2.error_estimate,
        r2.n_evals,
    )
    g = lambda X, Y: np.exp(np.sin(X) + Y / 3.0)
    q1 = integrate_2d(g, ((0, 2), (0, 3)))
    q2 = integrate_2d(g, ((0, 2), (0, 3)))
    assert (q1.value, q1.error_estimate, q1.n_evals) == (
        q2.value,
        q2.error_estimate,
        q2.n_evals,
    )


def test_error_honesty_on_smooth_set():
    # polynomials times trig with known antiderivative-free checks via
    # high-resolution reference runs
    cases = [
        (lambda x: x**3 * np.cos(9 * x), 0.0, 2.0),
        (lambda x: (1 + x * x) * np.sin(4 * x), -1.0, 2.0),
        (lambda x: np.exp(x / 2) * np.cos(3 * x) * x, 0.0, 3.0),
    ]
    for f, a, b in cases:
        loose = integrate_1d(f, a, b, QuadSpec(abs_tol=1e-6, rel_tol=1e-6))
        tight = integrate_1d(f, a, b, QuadSpec(abs_tol=1e-13, rel_tol=1e-13))
        true_error = abs(loose.value - tight.value)
        assert true_error <= 10.0 * loose.error_estimate + 1e-14


def test_converged_flag_matches_tolerance_invariant():
    r = integrate_1d(lambda x: np.sin(x * x), 0.0, 4.0, QuadSpec(abs_tol=1e-9, rel_tol=1e-9))
    assert r.converged
    assert r.error_estimate <= max(1e-9, 1e-9 * abs(r.value))


def test_nonconvergence_reports_best_estimate():
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=4)
    r = integrate_1d(lambda x: np.sqrt(np.abs(x - 1 / 3)), 0.0, 1.0, spec)
    assert not r.converged
    assert r.value == pytest.approx(0.4912, abs=1e-2)  # still a sane estimate


def test_eval_budget_exhaustion():
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_evals=100)
    r = integrate_1d(lambda x: np.sqrt(np.abs(x - 1 / 3)), 0.0, 1.0, spec)
    assert not r.converged
    assert r.n_evals <= 100 + 30  # one split may finish in flight


def test_open_interval_endpoints_never_evaluated():
    def f(x):
        assert np.all((0.0 < x) & (x < 1.0)), "endpoint touched"
        return 1.0 / np.sqrt(x)

    r = integrate_1d(f, 0.0, 1.0, QuadSpec(abs_tol=1e-6, rel_tol=1e-6, max_subdivisions=60))
    assert r.value == pytest.approx(2.0, abs=1e-3)


def test_nonfinite_integrand_reported():
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_1d(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)
    (x,) = err.value.point
    assert x > 0.5


def test_nonfinite_point_has_every_coordinate():
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_2d(lambda U, V: np.where(V > 0.5, np.inf, U), ((0, 1), (0, 1)))
    u, v = err.value.point
    assert 0.0 < u < 1.0 and v > 0.5
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_4d(
            lambda s, t, u, v: np.where(s + v > 1.5, np.nan, 1.0),
            ((0, 1), (0, 1)),
            ((0, 1), (0, 1)),
            QuadSpec(abs_tol=1e-6, rel_tol=1e-6),
        )
    s, t, u, v = err.value.point
    assert s + v > 1.5 and 0.0 < t < 1.0 and 0.0 < u < 1.0


def test_divergent_integral_reports_every_coordinate():
    # every value 1/x is finite, but near x = 0 the inner y-panel sums overflow
    with pytest.raises(DivergentIntegralError) as err:
        integrate_2d(lambda x, y: 1.0 / x + 0.0 * y, ((0, 1), (0, 1)))
    assert not isinstance(err.value, NonFiniteIntegrandError)
    assert "likely divergent" in str(err.value)
    x, y = err.value.point  # the outer x and the midpoint of the inner panel
    assert 0.0 < x < 1e-300 and y == 0.5
    with pytest.raises(DivergentIntegralError) as err:
        integrate_1d(lambda x: 1e308, 0.0, 10.0)
    assert err.value.point == (5.0,)


@pytest.mark.parametrize(
    "start", [[[0, 2, 4]], [[0, 2, 4], [0, 4]]], ids=["uniform", "ragged"]
)
def test_sums_that_overflow_over_finite_panels_report_the_largest_panel(start):
    # the first row's panels sum to 1.6e308 and 1.7e308, each finite, but
    # its total overflows: the error names the panel of largest value
    def f(x, live, edges, outer):
        return np.where(x < 2, 0.8e308, 0.85e308)[:, None, :], None

    rows = len(start)
    outer = (np.full((rows, 1), 7.0),)
    run = quadrature._Run(None, _GK21)
    # as _integrate holds it: an overflow raises, it does not warn
    with np.errstate(all="ignore"), pytest.raises(DivergentIntegralError) as err:
        quadrature._start(f, 0.0, 4.0, QuadSpec(), run, rows, outer, start)
    assert err.value.point == (7.0, 3.0)


def test_convergence_is_tested_on_the_partition_itself():
    # A node lands on fl(1/3), where the integrand is 1e300, and a panel sum
    # of about 5.5e283 appears.  Sums carried from round to round (minus the
    # split panel, plus its halves) absorbed the other panels into it and,
    # once it was split away, read 2.0 +- 2.2e-16: the row stopped at
    # 75.44 +- 0.108 with converged=True.
    spec = QuadSpec()
    r = integrate_1d(lambda x: 1 / (abs(x - 1 / 3) + 1e-300), 0.0, 1.0, spec)
    assert not r.converged or r.error_estimate <= max(
        spec.abs_tol, spec.rel_tol * abs(r.value)
    )


def test_converged_result_is_the_one_its_tolerance_test_read():
    # The relative tolerance is met by a hair.  A second sum of the same
    # panels in another order (left to right, compensated) reported
    # 9.01269074173666, one ulp less, which missed it with converged=True.
    spec = QuadSpec(abs_tol=5e-324, rel_tol=5.045077262778121e-09)
    r = integrate_1d(lambda x: np.cos(11 * x) * np.exp(-x) + x * x, 0.0, 3.0, spec)
    assert r.converged
    assert r.error_estimate <= spec.rel_tol * abs(r.value)


def test_panels_too_narrow_to_bisect_stop_the_row():
    # Every panel is bisected down to one ulp; then no panel is splittable
    # and the loop ends long before max_subdivisions: the first panel and
    # 63 bisections of n nodes per panel.
    n = len(_RULES[1].nodes)
    tiny = QuadSpec(abs_tol=5e-324, rel_tol=5e-324)
    r = integrate_1d(lambda x: np.sin(1e17 * x), 1.0, 1.0 + 64 * math.ulp(1.0), tiny)
    assert not r.converged
    assert r.n_evals == n + 63 * 2 * n


# -- 2-d ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "run, first_call",
    [
        (lambda f: integrate_2d(f, ((0, 1), (0, 2))), (1, 21, 21)),
        (lambda f: integrate_4d(f, ((0, 3),), ((0, 1), (0, 2))), (15, 15, 15)),
        (lambda f: integrate_4d(f, ((0, 3), (0, 4)), ((0, 1), (0, 2))), (_BLOCK_ROWS, 15, 15)),
    ],
    ids=["2-d", "3-d", "4-d"],
)
def test_a_2d_integral_runs_g10_k21_and_a_nested_one_g7_k15(run, first_call):
    # The first kernel call of a 2-d integral is the 21 x 21 grid of its
    # first panel.  That of a 3-d one has the 15 s-nodes as rows and 15 x 15
    # (u, v) points each; that of a 4-d one the first block of (s, t) nodes.
    shapes = []

    def f(*coords):
        shapes.append(np.broadcast(*coords).shape)
        return 1.0

    run(f)
    assert shapes[0] == first_call


def test_2d_unit_box():
    r = integrate_2d(lambda u, v: 1.0, ((0, 1), (0, 1)))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_2d_square_bracket_integrand():
    f = lambda x, y: -2 * (x + y) * 1.5 * (x * x + y * y)
    r = integrate_2d(f, ((0, 1), (0, 1)))
    assert r.value == pytest.approx(-2.5, abs=1e-10)


def test_2d_torus_bessel_mass():
    # The outer axis splits its first panel once.  Each of the first panel's
    # n inner integrals bisects its first panel 3 times, to 4 panels; the
    # split round's 2n inner integrals start from those 4 panels and meet
    # the tolerance on them, where starting from one panel would repeat the
    # 3 bisections.  Every outer node adds its inner result.
    n = len(_RULES[1].nodes)
    first = n * (n + 3 * 2 * n) + n
    split = 2 * n * 4 * n + 2 * n
    spec = QuadSpec()
    f = lambda U, V: np.exp(np.cos(U) + np.cos(V))
    r = integrate_2d(f, ((0, 2 * math.pi), (0, 2 * math.pi)), spec)
    exact = 4 * math.pi**2 * I0_AT_1_SQUARED
    assert r.converged and r.n_evals == first + split
    assert abs(r.value - exact) <= max(spec.abs_tol, spec.rel_tol * exact)


def test_2d_error_includes_inner_accumulation():
    r = integrate_2d(
        lambda U, V: np.sin(U * 3) * np.cos(V * 2) + U * V,
        ((0, 1), (0, 2)),
    )
    assert r.converged
    assert r.error_estimate <= 1e-9
    # reference by 1-d composition
    inner = integrate_1d(lambda v: np.cos(2 * v), 0.0, 2.0).value
    ref = (
        integrate_1d(lambda u: np.sin(3 * u), 0.0, 1.0).value * inner
        + 1.0  # int_0^1 u du * int_0^2 v dv = 1/2 * 2
    )
    assert r.value == pytest.approx(ref, abs=1e-10)


def test_a_one_panel_2d_integral_makes_one_integrand_call():
    # Both axes meet their tolerance on the first panel: the 21 x 21 grid of
    # one tensor step is the only call.
    shapes = []

    def f(x, y):
        shapes.append(np.broadcast(x, y).shape)
        return x * y + 1

    r = integrate_2d(f, ((0, 1), (0, 1)))
    assert r.converged and r.n_evals == 462
    assert shapes == [(1, 21, 21)]


def test_an_integrand_cannot_write_into_its_coordinates():
    # The node grid of a one-panel start is shared by every integral that
    # starts there: writing into it raises, and the next integral on the
    # same box still gets its pinned numbers, so the grid is unchanged.
    def shifts(x, y):
        x += 1
        return x * y

    box = ((0, 1), (0, 1))
    for _ in range(2):
        with pytest.raises(ValueError, match="read-only"):
            integrate_2d(shifts, box)
        r = integrate_2d(lambda x, y: x * y + 1, box)
        assert (r.value.hex(), r.error_estimate.hex(), r.n_evals, r.converged) == (
            "0x1.4000000000000p+0", "0x1.175496f561a33p-53", 462, True
        )


def test_a_budget_below_the_first_panel_still_takes_it():
    spec = QuadSpec(max_evals=100)
    r = integrate_2d(lambda x, y: x * y + 1, ((0, 1), (0, 1)), spec)
    # the first panel meets both tolerances: the budget cut nothing short
    assert (r.value, r.n_evals, r.converged) == (1.25, 462, True)


# The rotation flow of the paper's Gaussian density in measure mode: its
# inner sphere integral does not depend on t, so the area runs the 3-d path.
_ROTATION_PATCH = AreaProblem(
    rho=parse(
        "exp(-(1/4)*(sin(theta)/(1 - cos(theta)))^4*sin(2*phi)^2)"
        "/0.7082398710282987"
    ),
    flow=FlowMap(theta_map=parse("theta"), phi_map=parse("phi + t")),
    s_interval=(math.pi / 4, 3 * math.pi / 4),
    t_interval=(math.pi / 4, 3 * math.pi / 4),
    weight_mode="measure",
)

# The paper's patch in literal mode: its pole at theta = 1 - s moves with s.
_PAPER_PATCH = replace(
    _ROTATION_PATCH,
    flow=FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse("phi + t")),
    weight_mode="literal",
)

# A flow whose inner sphere integral depends on t, so the area runs the 4-d
# core (the patch the CI step "Console script" runs).
_4D_PATCH = replace(
    _PAPER_PATCH,
    flow=FlowMap(theta_map=parse("arccos(theta + s*t/4)"), phi_map=parse("phi + t")),
)

# (value, error_estimate, n_evals, converged), each value as float.hex(), of
# runs through every branch of the pair driver: a first round that meets
# both tolerances, an inner axis that bisects its first panel, outer split
# rounds whose inner integrals start from seeded partitions, the pair
# blocks of a 3-d area, a seeded inner integral that misses its tolerance
# and bisects, a 3-d block whose rows start from seeded partitions of
# different sizes, blocks where some rows meet their tolerance on their
# start partition while the others bisect (the paper's patch: one such
# block starts from one panel, three from seeds of different sizes), a 4-d
# budget that runs out in a split round, and the 4-d patch under a budget
# that runs out without cutting an outer split round short.  A change to
# the driver that keeps the numbers keeps every bit of them.
@pytest.mark.parametrize(
    "run, bits",
    [
        (
            lambda: integrate_2d(lambda x, y: x * y + 1, ((0, 1), (0, 1))),
            ("0x1.4000000000000p+0", "0x1.175496f561a33p-53", 462, True),
        ),
        (
            lambda: integrate_2d(
                lambda t1, t2: np.exp(np.cos(t1) + np.cos(t2)),
                ((0, 2 * math.pi), (0, 2 * math.pi)),
            ),
            ("0x1.fa3f3168230d1p+5", "0x1.7d56caba7cf7cp-28", 6678, True),
        ),
        (
            lambda: integrate_2d(
                lambda u, v: np.sqrt(np.abs(v - 1 / 3)) + u, ((0, 1), (0, 1))
            ),
            ("0x1.fb7ceb3092509p-1", "0x1.46bd51c817b4bp-38", 18102, True),
        ),
        (
            lambda: integrate_2d(
                lambda u, v: np.sqrt(np.abs(u - 0.6)) * np.cos(3 * v)
                + np.sqrt(np.abs(v - 1 / 3)) * u,
                ((0, 1), (0, 1)),
                QuadSpec(abs_tol=1e-8, rel_tol=1e-8),
            ),
            ("0x1.1289581fff948p-2", "0x1.4795adb693371p-28", 155232, True),
        ),
        (
            lambda: area(_ROTATION_PATCH, QuadSpec(abs_tol=1e-3, rel_tol=1e-3)),
            ("0x1.3bd3cbd8325e2p+1", "0x1.231f4aa1d5b46p-14", 106215, True),
        ),
        (
            # a v-kink that only outer nodes near u = 0.612 see: the outer
            # axis splits there, and the seeded inner integrals bisect
            lambda: integrate_2d(
                lambda u, v: np.sqrt(np.abs(u - 0.6))
                + np.abs(v - 0.3) * np.maximum(0.0, 1 - np.abs(u - 0.612) / 0.01),
                ((0, 1), (0, 1)),
                QuadSpec(abs_tol=1e-6, rel_tol=1e-6),
            ),
            ("0x1.ecf286dc24dedp-2", "0x1.ff3e62c432af6p-21", 98910, True),
        ),
        (
            lambda: integrate_4d(
                lambda s, u, v: np.sqrt(np.abs(v - s)) * np.cos(u)
                + np.sqrt(np.abs(u - s / 2)),
                ((0.0, 1.0),),
                ((0.0, 1.0), (0.0, 1.0)),
                QuadSpec(abs_tol=1e-4, rel_tol=1e-4),
            ),
            ("0x1.f6dba822164ffp-1", "0x1.31ba8ac27cc4ep-15", 286875, True),
        ),
        (
            lambda: area(_PAPER_PATCH, QuadSpec(abs_tol=1e-3, rel_tol=1e-3)),
            ("0x1.a684555701213p+1", "0x1.5fc82936a313ap-12", 85575, True),
        ),
        (
            lambda: integrate_4d(
                lambda s, t, u, v: np.sqrt(np.abs(s - 1 / 3)) * np.cos(u * v) + t,
                ((0.0, 1.0), (0.0, 1.0)),
                ((0.0, 1.0), (0.0, 1.0)),
                QuadSpec(abs_tol=1e-6, rel_tol=1e-6, max_evals=461040),
            ),
            ("0x1.edf3f8f349aabp-1", "0x1.8f302f3681f47p-15", 488160, False),
        ),
        (
            lambda: area(_4D_PATCH, QuadSpec(1e-3, 1e-3, max_evals=2_000_000)),
            ("0x1.36aaba95aa0c7p+1", "0x1.014aa8764e67dp-2", 2053620, False),
        ),
    ],
    ids=[
        "one panel",
        "torus mass",
        "inner bisects",
        "outer splits",
        "rotation area",
        "seeded inner bisects",
        "3-d seeds of several sizes",
        "rows done on their start partition beside rows that bisect",
        "4-d budget stops a split round",
        "4-d patch under a budget",
    ],
)
def test_the_driver_keeps_its_numbers_bit_for_bit(run, bits):
    r = run()
    assert (r.value.hex(), r.error_estimate.hex(), r.n_evals, r.converged) == bits


def test_errors_on_the_first_grid_of_a_3d_block_report_every_coordinate():
    # The first grid is the first (u, v) tensor step of the first block of
    # s-nodes; (s, u) are its first nodes and v the midpoint of the inner
    # panel whose sum overflows.
    box = ((0.0, 1.0), (0.0, 1.0))
    calls = []

    def nan_near_the_corner(s, u, v):
        calls.append(1)
        return np.where(u + v > 1.5, np.nan, s)

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_4d(nan_near_the_corner, ((0.0, 1.0),), box)
    assert len(calls) == 1
    assert tuple(x.hex() for x in err.value.point) == (
        "0x1.17fd8acbd93c0p-8",
        "0x1.353165125c18fp-1",
        "0x1.dd67c13dcdd9fp-1",
    )
    calls.clear()

    def huge(s, u, v):
        calls.append(1)
        return 1e308 + 0.0 * (s + u + v)

    with pytest.raises(DivergentIntegralError) as err:
        integrate_4d(huge, ((0.0, 1.0),), box)
    assert not isinstance(err.value, NonFiniteIntegrandError)
    assert len(calls) == 1
    assert tuple(x.hex() for x in err.value.point) == (
        "0x1.17fd8acbd93c0p-8",
        "0x1.17fd8acbd93c0p-8",
        "0x1.0000000000000p-1",
    )


@pytest.mark.parametrize(
    "singular, error, point",
    [
        (
            lambda u, v: np.where(u < 1e-7, np.nan, np.abs(u) ** -0.5) * (1 + v),
            NonFiniteIntegrandError,
            ("0x1.353165125c18fp-1", "0x1.17fd8acbd93c0p-24", "0x1.17fd8acbd93c0p-8"),
        ),
        (
            lambda u, v: 1 / u * (1 + v),
            DivergentIntegralError,
            ("0x1.353165125c18fp-1", "0x0.8bfec565ec9e0p-1022", "0x1.0000000000000p-1"),
        ),
        (
            # finite values: each row's first-round sums are finite though
            # their total overflows, and a row's sums overflow once it
            # bisects, so the bisection loop's own check raises
            lambda u, v: np.where(v < 0.45, 1.7e308, 0.0) + 0.0 * u,
            DivergentIntegralError,
            ("0x1.353165125c18fp-1", "0x1.17fd8acbd93c0p-8", "0x1.0000000000000p-2"),
        ),
    ],
    ids=["not finite", "divergent", "overflows after bisection"],
)
def test_a_late_error_names_the_row_that_raised_it(singular, error, point):
    # The (u, v) integrals of the 15 s-nodes run as one block.  The 8 rows
    # with s <= 0.5 integrate 1 and meet their tolerance in the first round;
    # the others bisect, and the first of them, s = 0.6039, raises.  The
    # point names that row's own s: the rows that bisect reach the integrand
    # and the error report as the rows of the block they are.
    def f(s, u, v):
        with np.errstate(all="ignore"):
            return np.where(s > 0.5, singular(u, v), 1.0)

    with pytest.raises(error) as err:
        integrate_4d(f, ((0, 1),), ((0, 1), (0, 1)), QuadSpec(1e-6, 1e-6))
    assert tuple(x.hex() for x in err.value.point) == point


# -- 4-d ---------------------------------------------------------------------------


def test_4d_constant():
    box_outer = ((math.pi / 4, 3 * math.pi / 4), (math.pi / 4, 3 * math.pi / 4))
    box_inner = ((0.0, math.pi), (0.0, 2 * math.pi))
    r = integrate_4d(lambda s, t, u, v: 1.0, box_outer, box_inner, QuadSpec(abs_tol=1e-6, rel_tol=1e-6))
    expect = (math.pi / 2) ** 2 * 2 * math.pi**2
    assert r.converged
    assert r.value == pytest.approx(expect, abs=1e-6)


def test_4d_separable_sphere_mass():
    # inner integrand sin(u)/4pi integrates to 1 for every (s, t)
    box_outer = ((math.pi / 4, 3 * math.pi / 4), (math.pi / 4, 3 * math.pi / 4))
    box_inner = ((0.0, math.pi), (0.0, 2 * math.pi))

    def f(s, t, u, v):
        return np.sin(u) / (4 * math.pi) + 0.0 * v

    r = integrate_4d(f, box_outer, box_inner, QuadSpec(abs_tol=1e-8, rel_tol=1e-8))
    assert r.value == pytest.approx((math.pi / 2) ** 2, abs=1e-8)


@pytest.mark.parametrize(
    "f, tol, n_evals, converged",
    [
        # every integral meets its tolerance in its first round: the count
        # passes the budget, but the budget cuts no integral short
        (lambda s, t, u, v: np.exp(s * u) * np.cos(3 * t * v), 1e-10, 54240, True),
        # the cusp at s = 1/3 needs outer split rounds that the budget stops
        (
            lambda s, t, u, v: np.sqrt(np.abs(s - 1 / 3)) * np.cos(u * v) + t,
            1e-6,
            54240,
            False,
        ),
    ],
    ids=["met in the first round", "cut short"],
)
def test_a_4d_budget_marks_only_what_it_cuts_short(f, tol, n_evals, converged):
    box = ((0.0, 1.0), (0.0, 1.0))
    r = integrate_4d(f, box, box, QuadSpec(tol, tol, max_evals=20000))
    assert (r.n_evals, r.converged) == (n_evals, converged)
    assert math.isfinite(r.value)
    # converged speaks of the tolerance, not of the budget
    assert (r.error_estimate <= max(tol, tol * abs(r.value))) == converged


def test_4d_budget_stops_after_the_round_in_flight(monkeypatch):
    # Once the budget is out, no axis starts another round.  The overshoot is
    # the round in flight of one block of (u, v) rows: its kernel call (at
    # most _BLOCK_ROWS x 30 u-nodes x 15 v-nodes per panel of the largest
    # seeded v start, or 30 v-nodes in a split round) and the _BLOCK_ROWS x
    # 30 u results it yields.  Then the (u, v) integrals of the t round in
    # flight that had not started take their first round (15 x 15 + 15
    # each, at most 30 s-nodes times 15 t-nodes per panel of the largest
    # seeded t start, or 30 t-nodes), and the outer rounds in flight yield
    # their (s, t) results.  The largest seeded starts come from a spy: the
    # t axis has one outer coordinate (s), the v axis three (s, t, u).
    largest = {}
    start_ = quadrature._start

    def spy(f, a, b, spec, run, rows, outer, start=None):
        if start is not None and len(outer) in largest:
            sizes = [len(edges) - 1 for edges in start]
            largest[len(outer)] = max(sizes + [largest[len(outer)]])
        return start_(f, a, b, spec, run, rows, outer, start)

    monkeypatch.setattr(quadrature, "_start", spy)
    box = ((0.0, 1.0), (0.0, 1.0))

    def f(s, t, u, v):
        return np.sqrt(np.abs(s - 1 / 3)) * np.cos(u * v) + t

    spec = QuadSpec(abs_tol=1e-6, rel_tol=1e-6)
    full = integrate_4d(f, box, box, spec)
    assert full.converged and full.n_evals == 922080
    for max_evals in (276624, 461040, 645456, 829872):
        largest.update({1: 2, 3: 2})
        r = integrate_4d(f, box, box, replace(spec, max_evals=max_evals))
        t_nodes, v_nodes = 15 * largest[1], 15 * largest[3]
        one_round = _BLOCK_ROWS * (30 * v_nodes + 30)
        first_rounds = 30 * t_nodes * (15 * 15 + 15)
        outer = 30 * t_nodes + 30
        assert max_evals <= r.n_evals <= max_evals + one_round + first_rounds + outer
        # the run stopped short of its tolerance, unless the round in
        # flight was its last
        assert r.converged == (r.n_evals == full.n_evals)
        assert r.value == pytest.approx(full.value, abs=1e-3)


def test_an_integral_that_starts_once_the_budget_is_out_takes_one_round(monkeypatch):
    # The (u, v) rows of a block split with seeds of several sizes, all in
    # one inner integration per split round.  Once the budget is out, the
    # blocks of the round in flight that had not started still start: each
    # integral that starts makes its first integrand call, tests it and
    # returns without building panel records (None as its third value).
    # Every integral starts in _start, before its first integrand call; the
    # outer axis of a pair starts before the inner integrals of its first
    # round.
    late = []
    start_ = quadrature._start

    def spy(f, a, b, spec, run, rows, outer, start=None):
        if not run.exhausted:
            return start_(f, a, b, spec, run, rows, outer, start)
        calls = []

        def counted(*args):
            calls.append(1)
            return f(*args)

        result = start_(counted, a, b, spec, run, rows, outer, start)
        late.append((len(calls), result[2]))
        return result

    monkeypatch.setattr(quadrature, "_start", spy)
    box = ((0.0, 1.0), (0.0, 1.0))

    def f(s, t, u, v):
        return np.sqrt(np.abs(v - s)) * np.cos(u * t) + np.sqrt(np.abs(u - t / 2))

    for max_evals in (186615, 353230):
        late.clear()
        r = integrate_4d(f, box, box, QuadSpec(1e-3, 1e-3, max_evals=max_evals))
        assert not r.converged and math.isfinite(r.value)
        assert late and all(calls == 1 and lefts is None for calls, lefts in late)


# -- rows and seeds -------------------------------------------------------------


@pytest.mark.parametrize(
    "groups",
    [
        (((0.0, 1.0), (0.0, 2.0)),),
        (((0.0, 1.0),), ((0.0, 2.0), (0.5, 1.5))),
    ],
    ids=["pair", "axis and pair"],
)
def test_a_rows_numbers_do_not_depend_on_its_block(groups, monkeypatch):
    # Rows whose partitions differ on every axis, run as one block and one
    # by one.  In some split rounds the rows' inner seeds differ in size, and
    # the round still runs one inner integration.
    rounds = _block_against_rows(groups, QuadSpec(abs_tol=1e-4, rel_tol=1e-4), monkeypatch)
    assert any(len(set(sizes)) > 1 for sizes in rounds)


def test_a_row_out_of_bisections_stops_alone(monkeypatch):
    # With 4 bisections per axis, some (u, v) rows start a split round with
    # their inner axis full (5 panels), next to rows that may still bisect.
    groups = (((0.0, 1.0),), ((0.0, 2.0), (0.5, 1.5)))
    spec = QuadSpec(abs_tol=1e-6, rel_tol=1e-6, max_subdivisions=4)
    rounds = _block_against_rows(groups, spec, monkeypatch)
    assert any(sizes and max(sizes) == 5 > min(sizes) for sizes in rounds)


def _block_against_rows(groups, spec, monkeypatch):
    """Check five rows run as one block against each run alone, bit for bit,
    and return the rounds of the block (see ``_spy_on_rounds``)."""

    def g(c, *x):
        return (
            np.sqrt(np.abs(x[-1] - c)) * np.cos(c * sum(x))
            + np.sqrt(np.abs(x[-2] - c / 2))
            + np.sqrt(np.abs(x[0] - c / 3))
        )

    c = np.array([0.3, 1.1, 0.75, 1.9, 0.05])
    specs = quadrature._specs(spec, groups)
    block = quadrature._Run(None, _RULES[len(groups)])
    rounds = _spy_on_rounds(monkeypatch)
    value, error = quadrature._iterated(g, groups, specs, block, (c[:, None],), len(c))
    monkeypatch.undo()
    used = 0
    for i in range(len(c)):
        alone = quadrature._Run(None, _RULES[len(groups)])
        v, e = quadrature._iterated(g, groups, specs, alone, (c[i : i + 1, None],), 1)
        assert (v[0], e[0]) == (value[i], error[i])
        used += alone.used
    assert block.used == used
    return rounds


def _spy_on_rounds(monkeypatch):
    """Record, for every round of every axis, the start panel count of each
    row of the inner integrals that the round runs.

    A split round is an ``_evaluate`` call from the bisection loop of
    ``_start``, and the inner integrals it runs start in ``_start`` from
    seeded partitions, whose own first round (an ``_evaluate`` call too)
    belongs to that split round.
    Integrals that start from one panel evaluate it without ``_evaluate``:
    that ``_start`` call is a round of its own, except for the outer axis of
    a pair, whose integrand starts the inner integrals itself: its first
    round is the tensor step that the ``_start`` call of its inner axis
    records."""
    rounds, stack, seeded = [], [[]], []
    evaluate, start_ = quadrature._evaluate, quadrature._start

    def evaluate_spy(*args):
        if seeded:  # the first round of a seeded start
            seeded.pop()
            return evaluate(*args)
        stack.append([])
        try:
            return evaluate(*args)
        finally:
            rounds.append(stack.pop())

    def start_spy(f, a, b, spec, run, rows, outer, start=None):
        if start is not None:
            stack[-1].extend(len(e) - 1 for e in start)
            seeded.append(True)
            return start_(f, a, b, spec, run, rows, outer, start)
        if "_start" in f.__code__.co_names:  # the outer axis of a pair
            return start_(f, a, b, spec, run, rows, outer, start)
        stack.append([1] * rows)
        try:
            return start_(f, a, b, spec, run, rows, outer, start)
        finally:
            rounds.append(stack.pop())

    monkeypatch.setattr(quadrature, "_evaluate", evaluate_spy)
    monkeypatch.setattr(quadrature, "_start", start_spy)
    return rounds


def _spy_on_seeds(monkeypatch):
    """Record (start panels, final panels), each the most of any row, of
    every integral, in the order they return.

    Every integral starts in ``_start``, which returns no left edges if
    every row ended on its start partition."""
    calls = []
    start_ = quadrature._start

    def spy(f, a, b, spec, run, rows, outer, start=None):
        value, error, lefts = start_(f, a, b, spec, run, rows, outer, start)
        p = 1 if start is None else max(len(e) - 1 for e in start)
        calls.append((p, p if lefts is None else int(np.isfinite(lefts).sum(0).max())))
        return value, error, lefts

    monkeypatch.setattr(quadrature, "_start", spy)
    return calls


def test_a_seeded_axis_holds_at_most_max_subdivisions_plus_one_panels(monkeypatch):
    calls = _spy_on_seeds(monkeypatch)
    spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=6)
    r = integrate_2d(
        lambda u, v: np.sqrt(np.abs(v - 1 / 3)) * (1 + u) + np.sqrt(np.abs(u - 0.6)),
        ((0, 1), (0, 1)),
        spec,
    )
    assert not r.converged
    assert max(p for p, _ in calls) == 7  # some inner integral started full
    assert all(panels <= 7 for _, panels in calls)


def test_seed_panels_too_narrow_to_bisect_stop_the_row(monkeypatch):
    # The first inner integral bisects down to 64 panels of one ulp; every
    # later one starts from them, finds each too narrow to bisect and
    # evaluates nothing more.  The outer axis splits max_subdivisions times.
    calls = _spy_on_seeds(monkeypatch)
    n = len(_RULES[1].nodes)
    tiny = QuadSpec(abs_tol=5e-324, rel_tol=5e-324, max_subdivisions=64)
    r = integrate_2d(
        lambda u, v: np.sin(1e17 * v) + 0.0 * u,
        ((0.0, 1.0), (1.0, 1.0 + 64 * math.ulp(1.0))),
        tiny,
    )
    assert not r.converged
    inner = calls[:-1]  # the outer integral returns last
    assert inner == [(1, 64)] + [(64, 64)] * 64
    # the first outer panel: the inner first panel and 63 bisections at its
    # n nodes, and its n inner results; then each outer bisection evaluates
    # 64 inner panels at each of its 2n nodes, and its 2n inner results
    first = n * n + 63 * n * 2 * n + n
    assert r.n_evals == first + 64 * (64 * n * 2 * n + 2 * n)
