"""Flow-map pullbacks, inner brackets and leaf-patch areas on the sphere."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from densbrackets import geometry, quadrature
from densbrackets.areas import (
    _PHI_BOX,
    _THETA_BOX,
    _VARS,
    AreaProblem,
    FlowMap,
    IntervalError,
    _integrand_expr,
    _t_invariant,
    area,
    inner_bracket,
    pullback_density,
)
from densbrackets.expressions import (
    DomainError,
    ExpressionError,
    Var,
    compile_expr,
    evaluate,
    parse,
    to_text,
)
from densbrackets.geometry import GeometryError, SPHERE, normalize
from densbrackets.quadrature import (
    _BLOCK_ROWS,
    DivergentIntegralError,
    QuadratureError,
    QuadSpec,
    integrate_4d,
)

from conftest import assert_value_equal
from oracles import (
    GAUSS_AREA_LITERAL,
    GAUSS_AREA_MEASURE,
    GAUSS_INNER_LITERAL_AT_HALF_PI,
    GAUSS_INNER_MEASURE_AT_HALF_PI,
    GAUSS_MASS_CONST_MEASURE,
    GAUSS_ROTATION_AREA_LITERAL,
)

QUARTER = (math.pi / 4, 3 * math.pi / 4)
ROTATION = FlowMap(theta_map=Var("theta"), phi_map=parse("phi + t"))
ARCCOS_FLOW = FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse("phi + t"))
IDENTITY = FlowMap(theta_map=Var("theta"), phi_map=Var("phi"))

GAUSSIAN_RAW = "exp(-(1/4)*(sin(theta)/(1-cos(theta)))^4*sin(2*phi)^2)"
GAUSSIAN_NORMALIZED = parse(f"{GAUSSIAN_RAW}/{GAUSS_MASS_CONST_MEASURE!r}")


def _gauss_problem(
    mode: str, flow: FlowMap = ARCCOS_FLOW, rho=GAUSSIAN_NORMALIZED
) -> AreaProblem:
    return AreaProblem(
        rho=rho,
        flow=flow,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode=mode,
    )


def _area_4d(problem: AreaProblem, spec: QuadSpec):
    """The area through the 4-d core over (s, t) x sphere, never reduced."""
    kernel = compile_expr(_integrand_expr(problem), _VARS)
    result = integrate_4d(
        kernel, (problem.s_interval, problem.t_interval), (_PHI_BOX, _THETA_BOX), spec
    )
    return result.scaled(1 / (4 * math.pi))


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


def test_area_budget_in_the_first_outer_round_still_estimates(monkeypatch):
    # In the 4-d core, the paper's patch converges in one outer (s, t)
    # round, so the budget runs out while that round's 15 x 15 outer points
    # fan out.  The round in flight of one block finishes (see the 4-d
    # budget test in test_quadrature), and each outer point that has not
    # started takes its first round, as every integral that starts does
    # (15 x 15 points and 15 results).  Those first rounds and the round in
    # flight are the overshoot QuadSpec documents: per row, the theta
    # integral of the 30 phi nodes of a split round evaluates 2 panels, or,
    # in its first round, its whole seeded start partition.  Every theta
    # integral starts in _start.
    largest_start = []
    start_ = quadrature._start

    def spy(f, a, b, spec, run, rows, outer, start=None):
        if start is not None and b == _THETA_BOX[1]:
            largest_start.append(max(len(edges) - 1 for edges in start))
        return start_(f, a, b, spec, run, rows, outer, start)

    monkeypatch.setattr(quadrature, "_start", spy)
    first_panels = 15 * 15 * (15 * 15 + 15)
    for max_evals in (20_000, 1_000_000, 5_000_000):
        largest_start.clear()
        spec = QuadSpec(1e-3, 1e-3, max_evals=max_evals)
        r = _area_4d(_gauss_problem("literal"), spec)
        theta_panels = max(largest_start + [2])
        one_round = _BLOCK_ROWS * (30 * 15 * theta_panels + 30) + 30 * 30 + 30
        assert not r.converged and math.isfinite(r.value)
        assert max_evals <= r.n_evals <= max_evals + one_round + first_panels


# A run whose outer points each run alone, as blocks of one row, must take
# the same bisections as the lockstep 4-d core; the values are those of the
# one-row run.
@pytest.mark.parametrize(
    "flow, mode, value, error, n_evals",
    [
        (ARCCOS_FLOW, "literal", 3.3000857738222074, 0.00568559964179955, 1560840),
        (ROTATION, "measure", 2.4644626978680804, 0.006863726298101047, 1539240),
    ],
)
def test_area_matches_the_per_point_driver(
    flow, mode, value, error, n_evals, monkeypatch
):
    problem = AreaProblem(
        rho=GAUSSIAN_NORMALIZED,
        flow=flow,
        s_interval=QUARTER,
        t_interval=QUARTER,
        weight_mode=mode,
    )
    spec = QuadSpec(abs_tol=0.1, rel_tol=0.1)
    r = _area_4d(problem, spec)
    monkeypatch.setattr(quadrature, "_BLOCK_ROWS", 1)
    assert _area_4d(problem, spec) == r
    assert r.converged
    assert r.n_evals == n_evals
    assert r.value == pytest.approx(value, rel=1e-13)
    assert r.error_estimate == pytest.approx(error, rel=1e-13)


# The area of the Gaussian patch under arccos(theta + s*t/4), phi + t, whose
# inner sphere integral depends on t, through area() (so the 4-d core) at
# abs_tol = rel_tol = 1e-5 with the (tol, tol/10, tol/30, tol/300) ladder:
# 2.4234325632774256 +- 4.3e-6 after 330,537,450 evaluations, converged.  A
# run at 1e-6 (2.4234333763745077 +- 2.5e-7) is 8.1e-7 from it.
GAUSS_AREA_4D_LITERAL = 2.4234325632774256
GAUSS_AREA_4D_LITERAL_ERROR = 4.3e-6


def test_4d_area_converges_within_its_estimate():
    # the 4-d core on the patch of the CI smoke run; no shipped area and no
    # benchmark workload reaches it
    flow = FlowMap(theta_map=parse("arccos(theta + s*t/4)"), phi_map=parse("phi + t"))
    r = area(_gauss_problem("literal", flow), QuadSpec(abs_tol=1e-3, rel_tol=1e-3))
    assert r.converged
    assert r.n_evals == 17_128_620
    deviation = abs(r.value - GAUSS_AREA_4D_LITERAL)
    assert deviation + GAUSS_AREA_4D_LITERAL_ERROR <= r.error_estimate


@pytest.mark.parametrize(
    "flow, mode, calls",
    [(ARCCOS_FLOW, "literal", 15), (ARCCOS_FLOW, "measure", 14), (ROTATION, "measure", 7)],
    ids=["literal", "measure", "rotation"],
)
def test_a_split_round_makes_one_kernel_call(flow, mode, calls, monkeypatch):
    # The (phi, theta) rows of a block start their split rounds from inner
    # partitions of different sizes, and each round still makes one kernel
    # call for all of them.
    counted = [0]
    compile_expr = geometry.compile_expr

    def counting(expr, variables):
        kernel = compile_expr(expr, variables)

        def call(*coords):
            counted[0] += 1
            return kernel(*coords)

        return call

    monkeypatch.setattr(geometry, "compile_expr", counting)
    r = area(_gauss_problem(mode, flow), QuadSpec(abs_tol=1e-3, rel_tol=1e-3))
    assert r.converged
    assert counted[0] == calls


@pytest.mark.parametrize(
    "rho, theta_map, phi_map, reduces",
    [
        (GAUSSIAN_RAW, "arccos(theta + s)", "phi + t", True),
        (GAUSSIAN_RAW, "theta", "phi + t", True),
        ("1 + sin(3*sin(phi))*cos(theta)", "theta", "phi + s*t", True),
        ("1 + tan(2*phi + theta)^2", "theta + s", "phi - t", True),
        ("1 + sin(phi/2)^2", "theta", "phi + t", False),
        ("1 + phi", "theta", "phi + t", False),
        ("1 + cos(phi*theta)", "theta", "phi + t", False),
        (GAUSSIAN_RAW, "theta", "2*phi + t", False),
        (GAUSSIAN_RAW, "arccos(theta + s)", "phi + t*theta", True),
        ("1 + sin(phi)^2", "theta", "phi + t + sign(t - 1)", True),
        ("1 + sin(phi)^2", "theta", "phi + t + sign(phi - 1)", False),
        ("1 + sin(phi + sign(phi - 1))^2", "theta", "phi + t", False),
        (GAUSSIAN_RAW, "arccos(theta + s*t/4)", "phi + t", False),
        (GAUSSIAN_RAW, "theta + phi/100", "phi + t", False),
    ],
)
def test_t_invariance_is_recognised_symbolically(rho, theta_map, phi_map, reduces):
    flow = FlowMap(theta_map=parse(theta_map), phi_map=parse(phi_map))
    assert _t_invariant(_gauss_problem("measure", flow, parse(rho))) is reduces


def _small_expressions(leaves: tuple[str, ...]):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds(
                "{}({})".format,
                st.sampled_from(("sin", "cos", "exp", "abs", "sign", "arctan")),
                inner,
            ),
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/^"), inner),
        ),
        max_leaves=4,
    )


@given(
    _small_expressions(("theta", "phi", "2", "0.5", "sin(phi)", "cos(2*phi)", "sign(phi - 1)")),
    _small_expressions(("theta", "phi", "s", "t", "1", "sign(phi - 1)", "sign(t - 1)")),
    st.sampled_from(["theta", "theta + s", "arccos(theta + s)/2"]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_inner_bracket_of_a_reducible_flow_does_not_depend_on_t(rho, shift, theta_map):
    # the claim the reduction rests on, at both ends of I2
    try:
        flow = FlowMap(parse(theta_map), parse(f"phi + {shift}"))
        problem = _gauss_problem("measure", flow, parse(f"1 + ({rho})^2"))
    except ExpressionError:
        assume(False)
    assume(_t_invariant(problem))
    spec = QuadSpec(abs_tol=1e-8, rel_tol=1e-8, max_evals=2_000_000)
    try:
        a, b = (inner_bracket(problem, 1.0, t, spec) for t in (0.8, 2.3))
    except (ExpressionError, GeometryError, QuadratureError):
        assume(False)
    assume(a.converged and b.converged)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-12 * abs(a.value)


@pytest.mark.parametrize(
    "mode, phi_map",
    [("literal", "phi + t"), ("measure", "phi + t"), ("measure", "phi + t*theta")],
)
def test_reduced_area_agrees_with_the_4d_core(mode, phi_map):
    # a shift by t*theta moves each theta-circle by its own amount, and
    # the phi-integral over a full period does not see it
    flow = FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse(phi_map))
    problem = _gauss_problem(mode, flow)
    spec = QuadSpec(abs_tol=1e-3, rel_tol=1e-3)
    reduced, full = area(problem, spec), _area_4d(problem, spec)
    assert reduced.converged and full.converged
    assert abs(reduced.value - full.value) <= reduced.error_estimate + full.error_estimate
    assert reduced.n_evals < full.n_evals / 10


def test_a_shift_by_a_quotient_is_recognised():
    # d/dphi of t/(1 + theta) has the numerator 0*(1 + theta) - t*0, which
    # simplifies to 0: diff gives 0, not 0/(1 + theta)^2, so phi_map is seen
    # to be phi plus a shift, and the area integrates in 3-d
    flow = FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse("phi + t/(1 + theta)"))
    problem = _gauss_problem("measure", flow)
    assert _t_invariant(problem)
    spec = QuadSpec(abs_tol=1e-3, rel_tol=1e-3)
    reduced, full = area(problem, spec), _area_4d(problem, spec)
    assert reduced.converged and full.converged
    assert abs(reduced.value - full.value) <= reduced.error_estimate + full.error_estimate
    assert reduced.n_evals < full.n_evals / 10


@pytest.mark.parametrize(
    "rho, flow",
    [
        # not 2 pi-periodic in phi
        (parse("1 + sin(phi/2)^2"), ROTATION),
        (parse("1 + phi/10"), ROTATION),
        # sign has phi-derivative 0 but jumps: not a shift, not periodic
        (parse("1 + sin(phi)^2"), FlowMap(parse("theta"), parse("phi + t + sign(phi - 1)"))),
        (parse("1 + sin(phi + sign(phi - 1))^2"), ROTATION),
        # theta_map depends on t
        (GAUSSIAN_NORMALIZED, FlowMap(parse("arccos(theta + s*t/4)"), parse("phi + t"))),
    ],
    ids=["half-angle", "bare-phi", "phi-map-jump", "rho-jump", "theta-map-of-t"],
)
def test_area_outside_the_reduction_is_the_4d_core(rho, flow):
    problem = _gauss_problem("measure", flow, rho)
    spec = QuadSpec(abs_tol=1e-2, rel_tol=1e-2, max_evals=3_000_000)
    assert area(problem, spec) == _area_4d(problem, spec)


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize(
    "mode, truth", [("literal", GAUSS_AREA_LITERAL), ("measure", GAUSS_AREA_MEASURE)]
)
def test_gauss_area_error_estimate_covers_the_true_error(mode, truth, tol):
    r = area(_gauss_problem(mode), QuadSpec(abs_tol=tol, rel_tol=tol))
    assert r.converged
    assert abs(r.value - truth) <= r.error_estimate


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize(
    "mode, truth",
    [("literal", GAUSS_ROTATION_AREA_LITERAL), ("measure", (math.pi / 2) ** 2)],
)
def test_rotation_area_error_estimate_covers_the_true_error(mode, truth, tol):
    r = area(_gauss_problem(mode, ROTATION), QuadSpec(abs_tol=tol, rel_tol=tol))
    assert r.converged
    assert abs(r.value - truth) <= r.error_estimate


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 4-d core reports 3.5490464670471287 +- 2.07e-4 with converged=True, "
    "2.49e-4 from the exact value",
)
def test_4d_error_estimate_covers_the_true_error_on_the_rotation_patch():
    r = _area_4d(_gauss_problem("literal", ROTATION), QuadSpec(abs_tol=1e-3, rel_tol=1e-3))
    assert r.converged
    assert abs(r.value - GAUSS_ROTATION_AREA_LITERAL) <= r.error_estimate


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the reduced 3-d path reports 2.258944047680672 +- 9.70e-6 with "
    "converged=True, 6.08e-4 (63x the estimate) from the exact value",
)
def test_3d_error_estimate_covers_the_true_error_on_a_shifted_rotation_patch():
    # t is bound to the midpoint of I2, 1.559; over I1 x I2 the exact area is
    # the full rotation patch's, scaled from (pi/2)^2 to |I1| |I2|
    t_interval = (1.059, 2.059)
    problem = AreaProblem(
        rho=GAUSSIAN_NORMALIZED,
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=t_interval,
        weight_mode="literal",
    )
    width = t_interval[1] - t_interval[0]
    exact = GAUSS_ROTATION_AREA_LITERAL / (math.pi / 2) ** 2 * (math.pi / 2) * width
    r = area(problem, QuadSpec(abs_tol=1e-4, rel_tol=1e-4))
    assert r.converged
    assert abs(r.value - exact) <= r.error_estimate


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the inner sphere integral reports 5.62e16 +- 5.5e8 at t = 0.8 and "
    "1.47e16 +- 1.5e8 at t = 2.3, each with converged=True",
)
def test_a_divergent_inner_integral_is_not_reported_as_converged():
    # With phi shifted by sign(t - 1) = -1 or 1, 1/sin(phi -+ 1)^2 has two
    # non-integrable poles in (0, 2 pi): the integral is infinite.
    flow = FlowMap(theta_map=Var("theta"), phi_map=parse("phi + sign(t - 1)"))
    problem = _gauss_problem("measure", flow, parse("1 + ((theta)/(sin(phi)))^2"))
    for t in (0.8, 2.3):
        try:
            r = inner_bracket(problem, 1.0, t, QuadSpec(abs_tol=1e-8, rel_tol=1e-8))
        except DivergentIntegralError:
            continue
        assert not r.converged


def test_subnormal_absolute_tolerance_runs():
    # 5e-324 / |I2| and the inner levels' tighter tolerances underflow; each
    # is floored at the smallest positive double, not at 0
    p = AreaProblem(
        rho=parse("1"),
        flow=ROTATION,
        s_interval=QUARTER,
        t_interval=(0.1, 6.2),
        weight_mode="measure",
    )
    r = area(p, QuadSpec(abs_tol=5e-324, rel_tol=1e-3))
    assert r.converged
    assert r.value == pytest.approx((math.pi / 2) * 6.1, rel=1e-12)


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
    with pytest.raises(
        GeometryError,
        match=r"^density 'x' uses variables \['x'\] outside the sphere "
        r"coordinates \('theta', 'phi'\)$",
    ):
        AreaProblem(
            rho=parse("x"),
            flow=ROTATION,
            s_interval=QUARTER,
            t_interval=QUARTER,
        ).validate()
    with pytest.raises(GeometryError):
        FlowMap(theta_map=parse("q"), phi_map=parse("phi")).validate()


@pytest.mark.parametrize("field", ["s_interval", "t_interval"])
@pytest.mark.parametrize(
    "interval", [(1.0,), (1, 2, 3), ("a", "b"), None, ("1", "2"), "12"]
)
def test_an_interval_that_is_not_a_pair_of_numbers_names_its_field(field, interval):
    p = AreaProblem(rho=parse("1"), flow=ROTATION, s_interval=QUARTER, t_interval=QUARTER)
    with pytest.raises(IntervalError, match="must be a pair of numbers$") as err:
        area(replace(p, **{field: interval}), QuadSpec(abs_tol=1e-3, rel_tol=1e-3))
    assert err.value.field == field


@pytest.mark.parametrize("s, t", [("1", 1.0), (1.0, None), (1.0, "1e0")])
def test_inner_bracket_takes_numbers_only(s, t):
    p = AreaProblem(rho=parse("1"), flow=ROTATION, s_interval=QUARTER, t_interval=QUARTER)
    with pytest.raises(GeometryError, match=r"^\(s, t\) = .* must be numbers$"):
        inner_bracket(p, s, t)


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
    # the identity flow reduces to 3-d: t is the midpoint of I2
    assert f" at t={(QUARTER[0] + QUARTER[1]) / 2!r}, s=" in str(err.value)
    # inner_bracket: the quadrature reports the (phi, theta) point, and the
    # fixed (s, t) lead the coordinates of the domain error
    p = AreaProblem(
        rho=parse("sqrt(theta - 1)"),
        flow=IDENTITY,
        s_interval=QUARTER,
        t_interval=QUARTER,
    )
    with pytest.raises(DomainError) as err:
        inner_bracket(p, 1.0, 1.0)
    assert err.value.kind == "sqrt-negative"
    message = str(err.value)
    assert " at s=1.0, t=1.0, phi=" in message
    assert message.index("phi=") < message.index("theta=")
