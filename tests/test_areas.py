"""Flow-map pullbacks, inner brackets and leaf-patch areas on the sphere."""

from __future__ import annotations

import math
import random

import pytest

from densbrackets.areas import (
    AreaProblem,
    FlowMap,
    area,
    inner_bracket,
    pullback_density,
)
from densbrackets.expressions import (
    ExpressionError,
    Var,
    evaluate,
    parse,
    to_text,
)
from densbrackets.geometry import GeometryError, SPHERE, normalize
from densbrackets.quadrature import QuadSpec

from conftest import assert_value_equal
from oracles import (
    GAUSS_INNER_LITERAL_AT_HALF_PI,
    GAUSS_INNER_MEASURE_AT_HALF_PI,
    GAUSS_MASS_CONST_MEASURE,
)

QUARTER = (math.pi / 4, 3 * math.pi / 4)
ROTATION = FlowMap(theta_map=Var("theta"), phi_map=parse("phi + t"))
ARCCOS_FLOW = FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse("phi + t"))
IDENTITY = FlowMap(theta_map=Var("theta"), phi_map=Var("phi"))

GAUSSIAN_RAW = "exp(-(1/4)*(sin(theta)/(1-cos(theta)))^4*sin(2*phi)^2)"
GAUSSIAN_NORMALIZED = parse(f"{GAUSSIAN_RAW}/{GAUSS_MASS_CONST_MEASURE!r}")


def _gauss_problem(mode: str) -> AreaProblem:
    return AreaProblem(
        rho=GAUSSIAN_NORMALIZED,
        flow=ARCCOS_FLOW,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode=mode,
    )


# -- pullbacks -----------------------------------------------------------------


def test_pullback_constant():
    assert_value_equal(
        pullback_density(parse("1"), ARCCOS_FLOW), parse("1"), (), points=1
    )


def test_pullback_cos_arccos():
    pulled = pullback_density(parse("cos(theta)"), ARCCOS_FLOW)
    assert_value_equal(pulled, parse("theta + s"), ("theta", "s"), points=50)


def test_pullback_identity_returns_density():
    rng = random.Random(3)
    pulled = pullback_density(GAUSSIAN_NORMALIZED, IDENTITY)
    checked = 0
    while checked < 100:
        b = {
            "theta": rng.uniform(0.3, math.pi - 1e-3),
            "phi": rng.uniform(1e-3, 2 * math.pi - 1e-3),
        }
        want = evaluate(GAUSSIAN_NORMALIZED, b)
        got = evaluate(pulled, b)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
        checked += 1


def test_pullback_gaussian_rationalizes():
    pulled = pullback_density(parse(GAUSSIAN_RAW), ARCCOS_FLOW)
    text = to_text(pulled)
    assert "sqrt" not in text and "arccos" not in text
    reference = parse(
        "exp(-(1/4)*((1+theta+s)/(1-theta-s))^2*sin(2*(phi+t))^2)"
    )
    rng = random.Random(9)
    checked = 0
    while checked < 100:
        b = {
            "theta": rng.uniform(1e-3, math.pi - 1e-3),
            "phi": rng.uniform(0, 2 * math.pi),
            "s": rng.uniform(*QUARTER),
            "t": rng.uniform(*QUARTER),
        }
        if abs(b["theta"] + b["s"] - 1.0) < 1e-6:
            continue
        want = evaluate(reference, b)
        got = evaluate(pulled, b)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
        checked += 1


def test_pullback_substitution_is_sequential():
    # theta is substituted first, then phi inside the result
    flow = FlowMap(theta_map=parse("phi"), phi_map=parse("phi + t"))
    pulled = pullback_density(parse("theta"), flow)
    assert_value_equal(pulled, parse("phi + t"), ("phi", "t"), points=20)


# -- inner bracket -----------------------------------------------------------------


def test_inner_bracket_uniform_measure_mode():
    p = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    r = inner_bracket(p, 1.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_inner_bracket_uniform_literal_mode():
    p = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="literal",
    )
    r = inner_bracket(p, 1.0, 1.0)
    assert r.value == pytest.approx(math.pi / 2, abs=1e-10)


def test_inner_bracket_gaussian_fixtures():
    # frozen after verification against the phi/t-reduced oracle
    for mode, expected in (
        ("measure", GAUSS_INNER_MEASURE_AT_HALF_PI),
        ("literal", GAUSS_INNER_LITERAL_AT_HALF_PI),
    ):
        r = inner_bracket(
            _gauss_problem(mode),
            math.pi / 2,
            math.pi / 2,
            QuadSpec(abs_tol=1e-11, rel_tol=1e-11),
        )
        assert r.converged
        assert r.value == pytest.approx(expected, abs=1e-9)


def test_inner_bracket_rotation_invariance_in_t():
    p = _gauss_problem("measure")
    rot = AreaProblem(
        rho=p.rho,
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    spec = QuadSpec(abs_tol=1e-10, rel_tol=1e-10)
    values = [
        inner_bracket(rot, 1.2, t, spec).value
        for t in (0.8, 1.1, 1.5, 1.9, 2.3)
    ]
    assert max(values) - min(values) <= 1e-8


def test_inner_bracket_rejects_outside_parameters():
    p = _gauss_problem("measure")
    with pytest.raises(GeometryError):
        inner_bracket(p, 0.1, 1.0)


# -- areas -------------------------------------------------------------------------


def test_rotation_area_is_box_measure():
    p = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    r = area(p, QuadSpec(abs_tol=1e-9, rel_tol=1e-9))
    assert r.converged
    assert r.value == pytest.approx((math.pi / 2) ** 2, abs=1e-8)


def test_rotation_area_any_normalized_density():
    rho = normalize(SPHERE, parse("1 + sin(theta)^2*cos(phi)^2/3")).expr
    p = AreaProblem(
        rho=rho,
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    # rotations preserve the measure: the inner integral is the unit mass at
    # every sampled (s, t), hence the area is the parameter-box measure
    rng = random.Random(77)
    for _ in range(10):
        s = rng.uniform(*QUARTER)
        t = rng.uniform(*QUARTER)
        inner = inner_bracket(p, s, t)
        assert inner.value == pytest.approx(1.0, abs=1e-8)
    r = area(p, QuadSpec(abs_tol=1e-8, rel_tol=1e-8))
    assert r.value == pytest.approx((math.pi / 2) ** 2, abs=1e-6)


def test_area_additive_over_s_partition():
    p = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    mid = 1.1
    left = AreaProblem(
        rho=p.rho,
        flow=p.flow,
        s_interval=(QUARTER[0], mid),
        t_interval=QUARTER,
        weight_mode="measure",
    )
    right = AreaProblem(
        rho=p.rho,
        flow=p.flow,
        s_interval=(mid, QUARTER[1]),
        t_interval=QUARTER,
        weight_mode="measure",
    )
    spec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)
    whole = area(p, spec)
    parts = area(left, spec).value + area(right, spec).value
    assert whole.value == pytest.approx(parts, abs=1e-8)


def test_area_scales_linearly_in_density():
    base = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    doubled = AreaProblem(
        rho=parse("2"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    spec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)
    assert area(doubled, spec).value == pytest.approx(
        2 * area(base, spec).value, rel=1e-9
    )


def test_area_budget_exhaustion_flags_nonconvergence():
    p = _gauss_problem("literal")
    r = area(p, QuadSpec(abs_tol=1e-7, rel_tol=1e-7, max_evals=200_000))
    assert not r.converged
    assert math.isfinite(r.value)


# -- validation and domain errors --------------------------------------------------


def test_problem_validation():
    good = _gauss_problem("measure")
    good.validate()
    with pytest.raises(GeometryError):
        AreaProblem(
            rho=parse("1"),
            flow=ROTATION,
            s_interval=(1.0, 0.5),
            t_interval=QUARTER,
        ).validate()
    with pytest.raises(GeometryError):
        AreaProblem(
            rho=parse("1"),
            flow=ROTATION,
            s_interval=QUARTER,
            t_interval=(0.0, 7.0),
        ).validate()
    with pytest.raises(GeometryError):
        AreaProblem(
            rho=parse("1"),
            flow=ROTATION,
            s_interval=QUARTER,
            t_interval=QUARTER,
            weight_mode="both",
        ).validate()
    with pytest.raises(GeometryError):
        AreaProblem(
            rho=parse("x"),
            flow=ROTATION,
            s_interval=QUARTER,
            t_interval=QUARTER,
        ).validate()
    with pytest.raises(GeometryError):
        FlowMap(theta_map=parse("q"), phi_map=parse("phi")).validate()


def test_surviving_sqrt_domain_error_identifies_node():
    p = AreaProblem(
        rho=parse("sqrt(cos(theta))"),  # negative past the equator
        flow=IDENTITY,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode="measure",
    )
    with pytest.raises(ExpressionError) as err:
        inner_bracket(p, 1.0, 1.0)
    assert "theta=" in str(err.value)
    assert "sqrt" in str(err.value)
    with pytest.raises(ExpressionError) as err:
        area(p, QuadSpec(abs_tol=1e-3, rel_tol=1e-3))
    for name in ("theta=", "phi=", "s=", "t="):
        assert name in str(err.value)
