"""Bracket integrand construction and bracket values on the three domains."""

from __future__ import annotations

import random

import pytest

from densbrackets.brackets import BracketProblem, bracket, build_integrand
from densbrackets.expressions import Const, parse
from densbrackets.geometry import (
    DOMAINS,
    GeometryError,
    NormalizationError,
    SPHERE,
    SQUARE,
    TORUS,
)
from densbrackets.quadrature import QuadSpec

from conftest import assert_value_equal
from oracles import SPHERE_ROW3, SQUARE_ROW3, REPORTED_SPHERE_ROW3


def _problem(domain, tau, rho, f, h, **kw) -> BracketProblem:
    return BracketProblem(
        domain=domain,
        tau=parse(tau),
        rho=parse(rho),
        f=parse(f),
        h=parse(h),
        **kw,
    )


# -- integrand construction -----------------------------------------------------


def test_integrand_identity_jacobian():
    p = _problem(SQUARE, "1", "1", "x", "y")
    assert_value_equal(build_integrand(p), Const(1.0), ("x", "y"), points=20)


def test_integrand_sphere_coordinates():
    p = _problem(SPHERE, "1", "1", "theta", "phi")
    assert_value_equal(
        build_integrand(p), parse("sin(theta)"), ("theta", "phi"), points=50
    )


def test_integrand_hand_computed_jacobian():
    p = _problem(SQUARE, "1", "(3/2)*(x^2+y^2)", "x+y", "x^2-y^2")
    expected = parse("-2*(x+y)*(3/2)*(x^2+y^2)")
    assert_value_equal(build_integrand(p), expected, ("x", "y"), points=100)


def test_integrand_rejects_foreign_variables():
    with pytest.raises(GeometryError):
        build_integrand(_problem(SQUARE, "1", "1", "x", "theta"))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize(
    "field, what",
    [
        ("tau", "conformal factor"),
        ("rho", "density"),
        ("f", "function f"),
        ("h", "function h"),
    ],
)
def test_bracket_rejects_foreign_variables(field, what, normalize):
    texts = {"tau": "1", "rho": "1", "f": "x", "h": "y", field: "x + theta"}
    problem = _problem(SQUARE, *texts.values(), auto_normalize=normalize)
    with pytest.raises(GeometryError, match=f"^{what} 'x \\+ theta' uses variables"):
        bracket(problem)


# -- bracket values ----------------------------------------------------------------


def test_square_coordinates_bracket():
    r = bracket(_problem(SQUARE, "1", "1", "x", "y"))
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.normalization_constant == pytest.approx(1.0, abs=1e-12)


def test_square_sine_bracket():
    r = bracket(_problem(SQUARE, "1", "(3/2)*(x^2+y^2)", "sin(x)", "sin(y)"))
    assert r.value == pytest.approx(SQUARE_ROW3, abs=1e-9)


def test_sphere_radial_density_annihilates():
    rho = "(2/pi)*sin(theta)/(1-cos(theta))"
    h = "sqrt(15/(4*pi))*sin(theta)^2*sin(phi)*cos(phi)"
    r = bracket(_problem(SPHERE, "1", rho, rho, h))
    assert abs(r.value) <= 1e-8


def test_sphere_exponential_row():
    r = bracket(
        _problem(
            SPHERE,
            "1",
            "exp(sin(theta)/(cos(theta)-1))",
            "sqrt(3/(4*pi))*sin(theta)*sin(phi)",
            "sqrt(3/(4*pi))*sin(theta)*cos(phi)",
        )
    )
    assert r.value == pytest.approx(SPHERE_ROW3, abs=1e-10)
    assert r.value == pytest.approx(REPORTED_SPHERE_ROW3, abs=1e-5)


def test_no_normalize_scales_by_raw_mass():
    p = _problem(SQUARE, "1", "2", "x", "y")  # mass 2, bracket of raw rho = 2
    r = bracket(p)
    assert r.value == pytest.approx(1.0, abs=1e-10)
    assert r.normalization_constant == pytest.approx(2.0, abs=1e-12)
    raw = bracket(_problem(SQUARE, "1", "2", "x", "y", auto_normalize=False))
    assert raw.value == pytest.approx(2.0, abs=1e-10)
    assert raw.normalization_constant is None


def test_a_budget_that_cuts_nothing_short_keeps_the_result_converged():
    # table1 row2: the mass and the bracket each meet their tolerances on
    # their first panel (462 evaluations each), past a budget of 100; the
    # mass 0.9999999999999999 divides the raw bracket -2.5000000000000004
    p = _problem(SQUARE, "1", "(3/2)*(x^2 + y^2)", "x + y", "x^2 - y^2")
    r = bracket(p, QuadSpec(max_evals=100))
    assert (r.value, r.n_evals, r.converged) == (-2.500000000000001, 924, True)
    assert r == bracket(p)


@pytest.mark.parametrize(
    "c, n_evals", [(1, 20_496), (1000, 20_496), (0.001, 16_968), (1e-12, 14_280)]
)
def test_the_tolerance_holds_on_the_normalized_bracket(c, n_evals):
    # the bracket integrates c*rho as given at abs_tol times its mass and
    # divides by that mass, so it takes 13,818 evaluations for every c; only
    # the mass integral (6,678, 6,678, 3,150 and 462), whose abs_tol applies
    # to the raw mass, depends on c.  Without the scaled abs_tol the last two
    # would take 10,752 and 924 evaluations in all and stop short of the
    # tolerance on their value.
    rho = f"{c!r}*exp(cos(t1) + cos(t2))"
    r = bracket(_problem(TORUS, "1", rho, "sin(t1)*t2", "cos(t2) + t1^2"))
    assert (r.n_evals, r.converged) == (n_evals, True)
    spec = QuadSpec()
    assert r.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(r.value))


def test_mass_lost_in_noise_raises():
    # integrates to 0: the computed mass is far below its error estimate
    with pytest.raises(NormalizationError):
        bracket(_problem(SQUARE, "1", "x - 1/2", "x", "y"))


def test_unresolvable_mass_raises():
    spec = QuadSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=2)
    with pytest.raises(NormalizationError):
        bracket(_problem(SQUARE, "1", "exp(sin(9*x*y))", "x", "y"), spec)


# -- algebraic properties ------------------------------------------------------------

_RANDOM_FH = {
    "square": ["x", "y", "x*y", "sin(x)", "cos(2*y)", "x^2 - y", "exp(x/2)*y"],
    "torus": ["t1", "t2", "sin(t1)", "cos(t2)", "t1*t2/10", "sin(t1)*cos(t2)"],
    "sphere": [
        "theta",
        "phi",
        "cos(theta)",
        "sin(theta)*cos(phi)",
        "theta*phi/5",
        "sin(theta)^2*sin(phi)",
    ],
}
_RANDOM_RHO = {
    "square": ["1", "3/2*(x^2+y^2)", "exp(-(x^2+y^2)/2)"],
    "torus": ["1", "(cos(t1)+cos(t2)+2)/2", "exp(cos(t1)+cos(t2))"],
    "sphere": ["1", "(2/pi)*sin(theta)/(1-cos(theta))", "1 + sin(theta)^2/2"],
}

_PROP_SPEC = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)


def _random_triples(domain_name: str, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        f = rng.choice(_RANDOM_FH[domain_name])
        h = rng.choice(_RANDOM_FH[domain_name])
        rho = rng.choice(_RANDOM_RHO[domain_name])
        yield f, h, rho


@pytest.mark.parametrize("domain_name", list(DOMAINS))
def test_antisymmetry_and_self_annihilation(domain_name):
    domain = DOMAINS[domain_name]
    for f, h, rho in _random_triples(domain_name, 8, seed=hash(domain_name) % 1000):
        fw = bracket(_problem(domain, "1", rho, f, h), _PROP_SPEC)
        bw = bracket(_problem(domain, "1", rho, h, f), _PROP_SPEC)
        tol = 2 * (fw.error_estimate + bw.error_estimate) + 1e-11
        assert abs(fw.value + bw.value) <= tol, (f, h, rho)
        self_r = bracket(_problem(domain, "1", rho, f, f), _PROP_SPEC)
        assert abs(self_r.value) <= 2 * self_r.error_estimate + 1e-11


@pytest.mark.parametrize("domain_name", list(DOMAINS))
def test_constant_functional_annihilates(domain_name):
    domain = DOMAINS[domain_name]
    for f, _, rho in _random_triples(domain_name, 4, seed=5):
        r = bracket(_problem(domain, "1", rho, "7/2", f), _PROP_SPEC)
        assert abs(r.value) <= 2 * r.error_estimate + 1e-11


@pytest.mark.parametrize("domain_name", list(DOMAINS))
def test_bilinearity(domain_name):
    domain = DOMAINS[domain_name]
    rng = random.Random(31)
    f1, f2, h, rho = (
        _RANDOM_FH[domain_name][0],
        _RANDOM_FH[domain_name][3],
        _RANDOM_FH[domain_name][1],
        _RANDOM_RHO[domain_name][1],
    )
    a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
    combo = f"{a!r}*({f1}) + {b!r}*({f2})"
    rc = bracket(_problem(domain, "1", rho, combo, h), _PROP_SPEC)
    r1 = bracket(_problem(domain, "1", rho, f1, h), _PROP_SPEC)
    r2 = bracket(_problem(domain, "1", rho, f2, h), _PROP_SPEC)
    tol = (
        abs(a) * r1.error_estimate
        + abs(b) * r2.error_estimate
        + rc.error_estimate
        + 1e-10
    )
    assert rc.value == pytest.approx(a * r1.value + b * r2.value, abs=tol)


def test_linear_functionals_on_square_give_determinant():
    # {F_f, F_h} = ad - bc for f = a x + b y, h = c x + d y, any density
    rng = random.Random(41)
    for _ in range(5):
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        for rho in _RANDOM_RHO["square"]:
            p = _problem(SQUARE, "1", rho, f"{a!r}*x + {b!r}*y", f"{c!r}*x + {d!r}*y")
            r = bracket(p)
            assert r.value == pytest.approx(a * d - b * c, abs=1e-8)


def test_conformal_factor_scales_linearly():
    base = bracket(_problem(TORUS, "1", "(cos(t1)+cos(t2)+2)/2", "sin(t1)", "t2"))
    doubled = bracket(_problem(TORUS, "2", "(cos(t1)+cos(t2)+2)/2", "sin(t1)", "t2"))
    assert doubled.value == pytest.approx(2 * base.value, rel=1e-9, abs=1e-12)


def test_nonconstant_conformal_factor():
    # tau = cos(theta) against f = theta, h = phi on the unit sphere:
    # (1/4pi) int cos sin dtheta dphi = 0
    r = bracket(_problem(SPHERE, "cos(theta)", "1", "theta", "phi"))
    assert abs(r.value) <= 1e-10
