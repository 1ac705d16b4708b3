"""Adaptive G7/K15 quadrature: rule exactness, adaptivity, determinism."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from densbrackets import quadrature
from densbrackets.quadrature import (
    _BLOCK_ROWS,
    _G7_WEIGHTS_EMBEDDED,
    _GK_NODES,
    _K15_WEIGHTS,
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


def test_rule_nodes_are_interior_and_symmetric():
    nodes, wk, wg = _GK_NODES, _K15_WEIGHTS, _G7_WEIGHTS_EMBEDDED
    assert nodes.shape == (15,)
    assert np.all(nodes > -1.0) and np.all(nodes < 1.0)
    np.testing.assert_allclose(nodes, -nodes[::-1], atol=0)
    np.testing.assert_allclose(wk, wk[::-1], atol=0)
    assert np.all(wk > 0)
    # embedded Gauss weights live at the odd positions
    assert np.all(wg[0::2] == 0.0) and np.all(wg[1::2] > 0.0)
    assert sum(wk) == pytest.approx(2.0, abs=1e-15)
    assert sum(wg) == pytest.approx(2.0, abs=1e-15)


def test_gauss_part_exact_to_degree_13():
    rng = random.Random(5)
    for _ in range(20):
        coeffs = [rng.uniform(-2, 2) for _ in range(14)]  # degree 13

        def poly(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        exact = sum(
            c * (1 - (-1) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
        )
        # one panel on [-1, 1]: half-width 1, midpoint 0
        values = poly(_GK_NODES)
        g, k = values @ _G7_WEIGHTS_EMBEDDED, values @ _K15_WEIGHTS
        assert abs(g - exact) <= 1e-13 * (1 + abs(exact))
        assert abs(k - exact) <= 1e-13 * (1 + abs(exact))


def test_kronrod_part_exact_to_degree_22():
    for p in range(23):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        k = _GK_NODES**p @ _K15_WEIGHTS
        assert abs(k - exact) <= 1e-13


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


def test_tightened_tolerances_stop_at_the_smallest_double():
    spec = QuadSpec(abs_tol=5e-324, rel_tol=1e-3).tightened(1000.0)
    assert spec.abs_tol == 5e-324 and spec.rel_tol == 1e-3 / 1000.0
    assert QuadSpec(abs_tol=1e-300).tightened(10.0).abs_tol == 1e-300 / 10.0


@pytest.mark.parametrize(
    "outer, expected",
    [
        # each nested axis is 10x tighter than the axis outside it
        ((), (1e-3, 1e-3 / 10)),
        (((0.0, 3.0),), (1e-3, 1e-3 / 10, 1e-3 / 10 / 10)),
        (((0.0, 3.0), (0.0, 4.0)), (1e-3, 1e-3 / 10, 1e-3 / 100, 1e-3 / 100 / 10)),
    ],
    ids=["2-d", "3-d", "4-d"],
)
def test_each_nested_axis_is_10x_tighter(monkeypatch, outer, expected):
    tolerances = {}
    adaptive = quadrature._adaptive

    def spy(f, a, b, spec, *args):
        tolerances.setdefault(b, set()).add((spec.abs_tol, spec.rel_tol))
        return adaptive(f, a, b, spec, *args)

    monkeypatch.setattr(quadrature, "_adaptive", spy)
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
    # and the loop ends long before max_subdivisions.
    tiny = QuadSpec(abs_tol=5e-324, rel_tol=5e-324)
    r = integrate_1d(lambda x: np.sin(1e17 * x), 1.0, 1.0 + 64 * math.ulp(1.0), tiny)
    assert not r.converged
    assert r.n_evals == 15 + 63 * 30


# -- 2-d ---------------------------------------------------------------------------


def test_2d_unit_box():
    r = integrate_2d(lambda u, v: 1.0, ((0, 1), (0, 1)))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_2d_square_bracket_integrand():
    f = lambda x, y: -2 * (x + y) * 1.5 * (x * x + y * y)
    r = integrate_2d(f, ((0, 1), (0, 1)))
    assert r.value == pytest.approx(-2.5, abs=1e-10)


def test_2d_torus_bessel_mass():
    # The inner integral of each outer split round starts from the inner
    # partition of the split panel: 10680 evaluations, where starting from
    # one panel took 17430.
    spec = QuadSpec()
    f = lambda U, V: np.exp(np.cos(U) + np.cos(V))
    r = integrate_2d(f, ((0, 2 * math.pi), (0, 2 * math.pi)), spec)
    exact = 4 * math.pi**2 * I0_AT_1_SQUARED
    assert r.converged and r.n_evals == 10680
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


def test_4d_budget_marks_nonconverged():
    box = ((0.0, 1.0), (0.0, 1.0))
    spec = QuadSpec(abs_tol=1e-10, rel_tol=1e-10, max_evals=20000)
    r = integrate_4d(
        lambda s, t, u, v: np.exp(s * u) * np.cos(3 * t * v),
        box,
        box,
        spec,
    )
    assert not r.converged
    assert math.isfinite(r.value)


def test_4d_budget_stops_after_the_round_in_flight():
    # Once the budget is out, no level starts another round.  The overshoot is
    # the round in flight of one block of inner rows: its kernel call (at most
    # _BLOCK_ROWS x 30 x 30 points) and the _BLOCK_ROWS x 30 inner results it
    # yields, plus the outer (s, t) results of the outer rounds it belongs to
    # (30 x 30 + 30).  An outer split round that is not complete is dropped.
    one_round = _BLOCK_ROWS * (30 * 30 + 30) + 30 * 30 + 30
    box = ((0.0, 1.0), (0.0, 1.0))

    def f(s, t, u, v):
        return np.sqrt(np.abs(s - 1 / 3)) * np.cos(u * v) + t

    spec = QuadSpec(abs_tol=1e-6, rel_tol=1e-6)
    full = integrate_4d(f, box, box, spec)
    assert full.converged and full.n_evals == 922080
    for max_evals in (276624, 461040, 645456, 829872):
        r = integrate_4d(f, box, box, replace(spec, max_evals=max_evals))
        assert not r.converged and math.isfinite(r.value)
        assert max_evals <= r.n_evals <= max_evals + one_round
        # the estimate of the last complete outer round
        assert r.value == pytest.approx(full.value, abs=1e-3)


def test_no_integral_starts_in_a_split_round_once_the_budget_is_out(monkeypatch):
    # The (u, v) rows of a block split with seeds of several sizes, all in
    # one inner integration per split round.  Once the budget is out, a
    # block still to run drops the split round instead of evaluating its
    # start partitions.
    late = []
    adaptive = quadrature._adaptive

    def spy(f, a, b, spec, run, rows, outer, start=None):
        if run.exhausted and run.splitting:
            late.append(rows)
        return adaptive(f, a, b, spec, run, rows, outer, start)

    monkeypatch.setattr(quadrature, "_adaptive", spy)
    box = ((0.0, 1.0), (0.0, 1.0))

    def f(s, t, u, v):
        return np.sqrt(np.abs(v - s)) * np.cos(u * t) + np.sqrt(np.abs(u - t / 2))

    for max_evals in (186615, 353230):
        r = integrate_4d(f, box, box, QuadSpec(1e-3, 1e-3, max_evals=max_evals))
        assert not r.converged and math.isfinite(r.value)
    assert late == []


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
    block = quadrature._Run(None)
    rounds = _spy_on_rounds(monkeypatch)
    value, error = quadrature._iterated(g, groups, specs, block, (c,), len(c))
    monkeypatch.undo()
    used = 0
    for i in range(len(c)):
        alone = quadrature._Run(None)
        v, e = quadrature._iterated(g, groups, specs, alone, (c[i : i + 1],), 1)
        assert (v[0], e[0]) == (value[i], error[i])
        used += alone.used
    assert block.used == used
    return rounds


def _spy_on_rounds(monkeypatch):
    """Record, for every round of every axis, the start panel count of each
    row of the inner integrals that the round runs."""
    rounds, stack = [], [[]]
    evaluate, adaptive = quadrature._evaluate, quadrature._adaptive

    def evaluate_spy(*args):
        stack.append([])
        try:
            return evaluate(*args)
        finally:
            rounds.append(stack.pop())

    def adaptive_spy(f, a, b, spec, run, rows, outer, start=None):
        stack[-1].extend([1] * rows if start is None else [len(e) - 1 for e in start])
        return adaptive(f, a, b, spec, run, rows, outer, start)

    monkeypatch.setattr(quadrature, "_evaluate", evaluate_spy)
    monkeypatch.setattr(quadrature, "_adaptive", adaptive_spy)
    return rounds


def _spy_on_seeds(monkeypatch):
    """Record (start panels, final panels), each the most of any row, of
    every inner integral of a pair."""
    calls = []
    adaptive = quadrature._adaptive

    def spy(f, a, b, spec, run, rows, outer, start=None):
        value, error, lefts = adaptive(f, a, b, spec, run, rows, outer, start)
        p = 1 if start is None else max(len(e) - 1 for e in start)
        calls.append((p, int(np.isfinite(lefts).sum(0).max())))
        return value, error, lefts

    monkeypatch.setattr(quadrature, "_adaptive", spy)
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
    # 15 nodes, and its 15 inner results
    first = 15 * 15 + 63 * 15 * 30 + 15
    assert r.n_evals == first + 64 * (64 * 15 * 30 + 30)
