"""Domains, masses, normalization."""

from __future__ import annotations

import math

import pytest

from densbrackets.expressions import DomainError, evaluate, parse
from densbrackets.brackets import BracketProblem, bracket
from densbrackets.geometry import (
    DOMAINS,
    GeometryError,
    NegativeDensityError,
    NormalizationError,
    SPHERE,
    SQUARE,
    TORUS,
    density_mass,
    domain_by_name,
    normalize,
)
from densbrackets.quadrature import _GK21, QuadSpec

from oracles import (
    GAUSS_MASS_CONST_MEASURE,
    I0_AT_1_SQUARED,
    REPORTED_GAUSS_MASS_CONST,
    SPHERE_EXP_MASS_CONST,
    SPIKY_SPHERE_MASS,
)

GAUSSIAN_SPHERE = "exp(-(1/4)*(sin(theta)/(1-cos(theta)))^4*sin(2*phi)^2)"


def test_domain_lookup():
    assert domain_by_name("square") is SQUARE
    assert domain_by_name("torus") is TORUS
    assert domain_by_name("sphere") is SPHERE
    with pytest.raises(GeometryError):
        domain_by_name("klein-bottle")


def test_domain_descriptors():
    assert SQUARE.coords == ("x", "y") and SQUARE.prefactor == 1.0
    assert TORUS.coords == ("t1", "t2")
    assert TORUS.prefactor == pytest.approx(1 / (4 * math.pi**2), rel=1e-15)
    assert SPHERE.coords == ("theta", "phi")
    assert SPHERE.prefactor == pytest.approx(1 / (4 * math.pi), rel=1e-15)
    assert evaluate(SPHERE.weight, {"theta": math.pi / 2}) == 1.0
    assert sorted(DOMAINS) == ["sphere", "square", "torus"]


# -- masses -------------------------------------------------------------------


def test_square_radial_density_mass():
    r = density_mass(SQUARE, parse("3/2*(x^2+y^2)"))
    assert r.converged
    assert r.value == pytest.approx(1.0, abs=1e-10)


def test_sphere_uniform_mass():
    r = density_mass(SPHERE, parse("1"))
    assert r.value == pytest.approx(1.0, abs=1e-12)


def test_torus_bessel_mass():
    r = density_mass(TORUS, parse("exp(cos(t1)+cos(t2))"))
    assert r.value == pytest.approx(I0_AT_1_SQUARED, abs=1e-9)


def test_constant_density_mass_is_one_everywhere():
    for domain in DOMAINS.values():
        r = density_mass(domain, parse("1"))
        assert r.value == pytest.approx(1.0, abs=1e-11), domain.name


def test_mass_is_linear():
    r1 = density_mass(SQUARE, parse("x^2"))
    r2 = density_mass(SQUARE, parse("sin(y)"))
    rc = density_mass(SQUARE, parse("2*x^2 + 3*sin(y)"))
    assert rc.value == pytest.approx(
        2 * r1.value + 3 * r2.value,
        abs=2 * r1.error_estimate + 3 * r2.error_estimate + 1e-13,
    )


def test_mass_rejects_foreign_variables():
    with pytest.raises(GeometryError):
        density_mass(SQUARE, parse("x + theta"))


def test_mass_propagates_domain_errors():
    with pytest.raises(DomainError):
        density_mass(SQUARE, parse("sqrt(x - 1/2)"))


# -- normalize ------------------------------------------------------------------


def test_normalize_unit_density_unchanged():
    d = normalize(SQUARE, parse("1"))
    assert d.mass is not None
    assert d.mass.value == pytest.approx(1.0, abs=1e-12)
    assert evaluate(d.expr, {"x": 0.3, "y": 0.7}) == pytest.approx(1.0, rel=1e-12)


def test_normalize_torus_exponential():
    d = normalize(TORUS, parse("exp(cos(t1)+cos(t2))"))
    assert d.mass.value == pytest.approx(1.0, abs=1e-10)
    # the applied scale is the Bessel mass, so the normalized density at the
    # origin equals e^2 / I0(1)^2
    at_origin = evaluate(d.expr, {"t1": 0.0, "t2": 0.0})
    assert at_origin == pytest.approx(math.exp(2.0) / I0_AT_1_SQUARED, rel=1e-9)


def test_normalize_idempotent():
    d1 = normalize(SPHERE, parse(GAUSSIAN_SPHERE))
    d2 = normalize(SPHERE, d1.expr)
    assert abs(d2.mass.value - d1.mass.value) <= 1e-10


def test_normalize_carries_its_scale():
    rho = parse("exp(cos(t1)+cos(t2))")
    d = normalize(TORUS, rho)
    mass = density_mass(TORUS, rho)
    assert d.scale == mass
    assert d.mass.value == pytest.approx(1.0, abs=1e-9)


def test_normalize_rejects_nonpositive_mass():
    with pytest.raises(NormalizationError):
        normalize(SQUARE, parse("x - 1/2"))  # integrates to 0
    with pytest.raises(NormalizationError):
        normalize(SQUARE, parse("-1"))


# The first K21 node of (0, 1), the first node of a 2-d mass integral on
# the square in each axis.
_FIRST_NODE = 0.5 + 0.5 * float(_GK21.nodes[0])


@pytest.mark.parametrize(
    "run",
    [
        lambda rho: density_mass(SQUARE, rho),
        lambda rho: normalize(SQUARE, rho),
        lambda rho: bracket(BracketProblem(SQUARE, parse("1"), rho, parse("x"), parse("y"))),
    ],
    ids=["mass", "normalize", "bracket"],
)
def test_a_density_negative_at_a_mass_node_is_rejected(run):
    # x - 1/4 is negative at the first node (x0, x0), the first of the
    # first integrand call in C order; its mass (1/4) alone would pass
    with pytest.raises(NegativeDensityError) as err:
        run(parse("x - 1/4"))
    assert isinstance(err.value, NormalizationError)
    assert err.value.point == (_FIRST_NODE, _FIRST_NODE)
    assert str(err.value) == (
        f"density 'x - 1/4' is negative at x = {_FIRST_NODE!r}, y = {_FIRST_NODE!r}; "
        "a density is positive on its domain"
    )


def test_the_sign_check_names_every_coordinate_of_the_first_negative_node():
    with pytest.raises(NegativeDensityError) as err:
        density_mass(SPHERE, parse("cos(theta)"))
    theta, phi = err.value.point
    assert math.pi / 2 < theta < math.pi and 0.0 < phi < 2 * math.pi
    assert f"theta = {theta!r}, phi = {phi!r}" in str(err.value)
    # the weight sin(theta) >= 0 keeps the sign of rho
    assert math.cos(theta) < 0.0


def test_the_sign_check_sees_only_the_nodes():
    # negative only within 1e-3 of x = 0.535, where no node of the first
    # panel lies; there the density looks constant, and the mass passes
    r = density_mass(SQUARE, parse("1 - 2*exp(-((x - 0.535)/0.001)^2)"))
    assert r.converged and r.n_evals == 462 and r.value == 1.0
    # without normalization no mass is integrated, so nothing is checked
    b = bracket(
        BracketProblem(SQUARE, parse("1"), parse("x - 1/4"), parse("x"), parse("y"), False)
    )
    assert b.normalization_constant is None and b.value == pytest.approx(0.25)


def test_normalize_rejects_unresolved_mass():
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
    with pytest.raises(NormalizationError):
        normalize(SQUARE, parse("exp(sin(13*x*y))"), spec)


def test_sphere_exponential_mass_constant():
    # mass of e^(sin/(cos-1)) equals 2 pi c with c the reported constant
    r = density_mass(SPHERE, parse("exp(sin(theta)/(cos(theta)-1))"))
    assert r.converged
    assert r.value == pytest.approx(math.pi * SPHERE_EXP_MASS_CONST, rel=1e-9)


def test_gaussian_sphere_mass_constant():
    # the sin(theta)-weighted convention reproduces the reported constant
    r = density_mass(SPHERE, parse(GAUSSIAN_SPHERE), QuadSpec(abs_tol=1e-12, rel_tol=1e-12))
    assert r.value == pytest.approx(GAUSS_MASS_CONST_MEASURE, abs=1e-11)
    assert r.value == pytest.approx(REPORTED_GAUSS_MASS_CONST, abs=1e-6)


# -- resolution limit ---------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 21 nodes of the first phi panel miss all four 0.01-wide peaks, "
    "so G10 = K21 there and the mass converges to 1.9e-40 after 462 evaluations",
)
def test_narrow_peaks_between_first_panel_nodes_are_resolved():
    r = density_mass(SPHERE, parse("exp(-1e4*sin(2*phi+0.3)^2)"))
    assert r.value == pytest.approx(SPIKY_SPHERE_MASS, rel=1e-6)
