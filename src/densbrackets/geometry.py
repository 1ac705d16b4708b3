"""The three built-in base domains and density bookkeeping.

A :class:`Domain` fixes coordinates, the open integration box, the volume
weight (density of the surface measure with respect to the coordinate
measure) and the normalization prefactor:

* ``square``: coordinates ``(x, y)`` on (0,1) x (0,1), weight 1, prefactor 1;
* ``torus``: coordinates ``(t1, t2)`` on (0,2pi) x (0,2pi), weight 1,
  prefactor 1/(4 pi^2);
* ``sphere``: spherical coordinates ``(theta, phi)`` on (0,pi) x (0,2pi),
  weight sin(theta), prefactor 1/(4 pi).

A probability density on a domain is a positive expression ``rho`` in the
domain coordinates with ``prefactor * integral(rho * weight) = 1``.  Stated
normalization constants are never trusted: :func:`density_mass` recomputes
the total mass and :func:`normalize` rescales by it.

Every front end (masses here, brackets and areas) hands the compiled kernel
of its integrand straight to the quadrature, inside :func:`compiled_kernel`.
The quadrature leaf makes the one finiteness check per kernel call; the
context turns the non-finite point it reports into the strict
:class:`~densbrackets.expressions.DomainError` there, with every coordinate.
Positivity of ``rho`` is a precondition on the caller's input; nothing here
samples its sign.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from .expressions import (
    BinOp,
    Call,
    Const,
    Expr,
    Var,
    compile_expr,
    free_vars,
    locate_domain_error,
    simplify,
    to_text,
)
from .quadrature import NonFiniteIntegrandError, QuadResult, QuadSpec, integrate_2d

__all__ = [
    "Domain",
    "Density",
    "GeometryError",
    "NormalizationError",
    "SQUARE",
    "TORUS",
    "SPHERE",
    "DOMAINS",
    "domain_by_name",
    "density_mass",
    "normalize",
]


class GeometryError(Exception):
    """Invalid domain/density input."""


class NormalizationError(GeometryError):
    """A density could not be normalized (non-positive or unresolved mass)."""


@dataclass(frozen=True)
class Domain:
    name: str
    coords: tuple[str, str]
    box: tuple[tuple[float, float], tuple[float, float]]
    weight: Expr
    prefactor: float


SQUARE = Domain(
    name="square",
    coords=("x", "y"),
    box=((0.0, 1.0), (0.0, 1.0)),
    weight=Const(1.0),
    prefactor=1.0,
)
TORUS = Domain(
    name="torus",
    coords=("t1", "t2"),
    box=((0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)),
    weight=Const(1.0),
    prefactor=1.0 / (4.0 * math.pi**2),
)
SPHERE = Domain(
    name="sphere",
    coords=("theta", "phi"),
    box=((0.0, math.pi), (0.0, 2.0 * math.pi)),
    weight=Call("sin", Var("theta")),
    prefactor=1.0 / (4.0 * math.pi),
)

DOMAINS = {d.name: d for d in (SQUARE, TORUS, SPHERE)}


def domain_by_name(name: str) -> Domain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise GeometryError(
            f"unknown domain {name!r}; expected one of {sorted(DOMAINS)}"
        ) from None


@dataclass(frozen=True)
class Density:
    """A normalized density expression, as :func:`normalize` returns it.

    ``scale`` is the mass of the input density that :func:`normalize`
    divided by to get ``expr``; ``mass`` is the mass of ``expr`` itself,
    integrated again after the division.
    """

    expr: Expr
    mass: QuadResult
    scale: QuadResult


def require_domain_vars(domain: Domain, expr: Expr, what: str) -> None:
    extra = free_vars(expr) - set(domain.coords)
    if extra:
        raise GeometryError(
            f"{what} '{to_text(expr)}' uses variables {sorted(extra)} outside "
            f"the {domain.name} coordinates {domain.coords}"
        )


@contextmanager
def compiled_kernel(
    expr: Expr, variables: tuple[str, ...], fixed: tuple[float, ...] = ()
):
    """Compile ``expr`` over ``variables`` and yield the kernel, with the
    leading variables bound to ``fixed``.

    The quadrature leaf makes the one finiteness check of each kernel call
    and raises :class:`NonFiniteIntegrandError` at the first non-finite
    point.  Leaving the block with it evaluates ``expr`` strictly at that
    point, fixed coordinates first, which raises the domain error there,
    naming every coordinate of the point.
    """
    kernel = compile_expr(expr, variables)
    try:
        yield partial(kernel, *fixed) if fixed else kernel
    except NonFiniteIntegrandError as exc:
        locate_domain_error(expr, variables, fixed + exc.point)
        raise


def density_mass(domain: Domain, rho: Expr, spec: QuadSpec | None = None) -> QuadResult:
    """Total mass ``prefactor * integral(rho * weight)`` over the domain box."""
    require_domain_vars(domain, rho, "density")
    spec = spec or QuadSpec()
    integrand = simplify(BinOp("*", rho, domain.weight))
    with compiled_kernel(integrand, domain.coords) as kernel:
        result = integrate_2d(kernel, domain.box, spec)
    return result.scaled(domain.prefactor)


def check_mass(rho: Expr, mass: QuadResult) -> QuadResult:
    """Return ``mass`` if ``rho`` can be divided by it: converged, finite,
    positive and more than 10x its error estimate; else raise
    :class:`NormalizationError`."""
    if not mass.converged:
        raise NormalizationError(
            f"mass integration of '{to_text(rho)}' did not converge "
            f"(estimate {mass.value!r} +/- {mass.error_estimate!r})"
        )
    # reject masses that are negative or lost in the quadrature noise
    if not (
        math.isfinite(mass.value)
        and mass.value > 0.0
        and mass.value > 10.0 * mass.error_estimate
    ):
        raise NormalizationError(
            f"density '{to_text(rho)}' has mass {mass.value!r} with error "
            f"estimate {mass.error_estimate!r}; a usable mass is finite, "
            "positive and more than 10x its error estimate"
        )
    return mass


def normalize(domain: Domain, rho: Expr, spec: QuadSpec | None = None) -> Density:
    """Rescale ``rho`` to unit mass; the returned density carries the mass it
    was divided by and its own recomputed mass."""
    spec = spec or QuadSpec()
    scale = check_mass(rho, density_mass(domain, rho, spec))
    scaled = simplify(BinOp("/", rho, Const(scale.value)))
    check = density_mass(domain, scaled, spec)
    return Density(expr=scaled, mass=check, scale=scale)

