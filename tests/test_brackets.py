"""Bracket integrand construction and bracket values on the three domains."""

from __future__ import annotations

import configparser
import pathlib
import random
from dataclasses import asdict

import numpy as np
import pytest

from densbrackets.brackets import BracketProblem, bracket, build_integrand
from densbrackets.expressions import BinOp, Const, compile_expr, parse, simplify, to_text
from densbrackets.geometry import (
    DOMAINS,
    GeometryError,
    NormalizationError,
    SPHERE,
    SQUARE,
    TORUS,
)
from densbrackets.quadrature import QuadResult, QuadSpec, integrate_2d

from conftest import SMOOTH_FUNCTIONS, assert_value_equal, random_expr
from oracles import SPHERE_ROW3, SQUARE_ROW3, REPORTED_SPHERE_ROW3, raw_diff

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


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


def _table_problems() -> list[BracketProblem]:
    """The problem of every bracket row of the shipped configs."""
    problems = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        config = configparser.RawConfigParser()
        config.read(path)
        for name in config.sections():
            row = config[name]
            if row.get("kind") == "bracket":
                problems.append(
                    BracketProblem(
                        DOMAINS[row["domain"]],
                        parse(row.get("tau", "1")),
                        parse(row["rho"]),
                        parse(row["f"]),
                        parse(row["h"]),
                    )
                )
    return problems


def _textbook_integrand(p: BracketProblem) -> BinOp:
    """J tau rho w with the raw textbook partials, before any rewrite."""
    u, v = p.domain.coords
    jacobian = BinOp(
        "-",
        BinOp("*", raw_diff(p.f, u), raw_diff(p.h, v)),
        BinOp("*", raw_diff(p.f, v), raw_diff(p.h, u)),
    )
    return BinOp("*", BinOp("*", BinOp("*", jacobian, p.tau), p.rho), p.domain.weight)


def test_the_built_integrand_is_the_simplified_textbook_product():
    # one walk per function and a product built through the rewrite rules
    # give the tree simplify makes of the textbook product, already at the
    # fixed point; both sides drop a quotient whose numerator simplifies
    # to 0 (diff's contract, which raw_diff states on its own)
    problems = _table_problems()
    assert len(problems) >= 13
    rng = random.Random(30)
    for _ in range(400):
        domain = rng.choice(list(DOMAINS.values()))
        tau, rho, f, h = (
            random_expr(rng, rng.randint(1, 4), domain.coords) for _ in range(4)
        )
        problems.append(BracketProblem(domain, tau, rho, f, h))
    for p in problems:
        built = build_integrand(p)
        want = simplify(_textbook_integrand(p))
        where = f"f = {to_text(p.f)}, h = {to_text(p.h)}"
        assert built == want and repr(built) == repr(want), where
        assert simplify(built) is built


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


def test_a_bracket_result_is_a_quadrature_result_with_its_mass():
    r = bracket(_problem(SQUARE, "1", "2", "x", "y"))
    assert isinstance(r, QuadResult)
    # the quadrature result's four fields, in order, then the mass
    assert list(asdict(r).items()) == [
        ("value", 1.0), ("error_estimate", 0.0), ("n_evals", 924), ("converged", True),
        ("normalization_constant", 2.0),
    ]


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


# -- tolerance census ----------------------------------------------------------------

# QUADPACK's rounding floor, 50 eps times the integral of |f|: an error below
# it is rounding, in the result or in the reference, which no estimate of the
# rule's error is asked to cover.
_ROUNDING = 50 * np.finfo(float).eps


def _gauss_legendre(kernel, box, order: int) -> tuple[float, float]:
    """(integral of the kernel, integral of its absolute value) over the box
    by an order x order tensor Gauss-Legendre rule, in numpy alone."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    (a, b), (c, d) = box
    u = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    v = 0.5 * (c + d) + 0.5 * (d - c) * nodes
    w = np.outer(weights, weights) * (0.25 * (b - a) * (d - c))
    values = np.broadcast_to(kernel(u[:, None], v[None, :]), w.shape)
    return float(np.sum(w * values)), float(np.sum(w * np.abs(values)))


def test_converged_2d_integrals_are_within_their_tolerance_and_estimate():
    # the mass and the bracket kernel of every table row and of 250 seeded
    # smooth problems, each integrated by integrate_2d at the default spec,
    # as the stream's 4,032 integrals were; the truth is a tensor
    # Gauss-Legendre rule of order 64, and a kernel on which order 48
    # differs from it by more than 1e-13 is skipped as not resolved
    rng = random.Random(15)
    problems = _table_problems()
    for _ in range(250):
        domain = rng.choice(list(DOMAINS.values()))
        tau, rho, f, h = (
            random_expr(rng, rng.randint(1, 3), domain.coords, SMOOTH_FUNCTIONS, gentle=True)
            for _ in range(4)
        )
        problems.append(BracketProblem(domain, tau, rho, f, h))
    spec, checked = QuadSpec(), 0
    for p in problems:
        mass = simplify(BinOp("*", p.rho, p.domain.weight))
        for integrand in (mass, build_integrand(p)):
            kernel = compile_expr(integrand, p.domain.coords)
            result = integrate_2d(kernel, p.domain.box, spec)
            coarse, _ = _gauss_legendre(kernel, p.domain.box, 48)
            truth, resabs = _gauss_legendre(kernel, p.domain.box, 64)
            if abs(coarse - truth) > 1e-13 or not result.converged:
                continue
            error, floor = abs(result.value - truth), _ROUNDING * resabs
            where = f"'{to_text(integrand)}' on the {p.domain.name}: {result}, truth {truth!r}"
            assert error <= max(spec.abs_tol, spec.rel_tol * abs(result.value)) + floor, where
            assert error <= result.error_estimate + floor, where
            checked += 1
    assert checked >= 420
