"""Poisson brackets of linear density functionals on the built-in domains.

For functions ``f``, ``h`` on a domain with coordinates ``(u, v)``, conformal
factor ``tau`` and density ``rho``, the bracket of the induced linear
functionals evaluated at the measure with density ``rho`` is::

    prefactor * integral( (df/du dh/dv - df/dv dh/du) * tau * rho * weight )

over the domain box.  With ``auto_normalize`` on (the default), the bracket
is evaluated at ``rho / m``, ``m`` the computed mass of ``rho``, which is
reported alongside the result so that externally stated normalization
constants can be compared against it.  The bracket is linear in ``rho``: it
is the integral of ``rho`` as given, run at ``abs_tol * m`` and divided by
``m``, so the tolerance holds on the reported value.

The integrand is built symbolically first: one derivative walk over ``f``
and one over ``h`` give both partials of each (see
:func:`densbrackets.expressions.partials`), and
:func:`densbrackets.expressions.combine` joins them and the other factors
through simplify's rewrite rules, so the product is simplified without a
second pass.
"""

from __future__ import annotations

from dataclasses import dataclass

# diff stays a name of this module, beside the partials that build the
# integrand, so that benchmarks/tracing.py can wrap it as it wraps simplify
from .expressions import Expr, combine, diff, partials, simplify  # noqa: F401
from .geometry import (
    Domain,
    check_mass,
    compiled_kernel,
    density_mass,
    require_domain_vars,
    scaled_spec,
)
from .quadrature import QuadSpec, integrate_2d

__all__ = ["BracketProblem", "BracketResult", "build_integrand", "bracket"]


@dataclass(frozen=True)
class BracketProblem:
    domain: Domain
    tau: Expr
    rho: Expr
    f: Expr
    h: Expr
    auto_normalize: bool = True

    def validate(self) -> None:
        require_domain_vars(self.domain, self.tau, "conformal factor")
        require_domain_vars(self.domain, self.rho, "density")
        require_domain_vars(self.domain, self.f, "function f")
        require_domain_vars(self.domain, self.h, "function h")


@dataclass(frozen=True)
class BracketResult:
    """Quadrature outcome plus the normalization constant actually used.

    ``normalization_constant`` is the computed mass of the input density
    (None when auto-normalization is off); ``n_evals`` includes the mass
    integration.
    """

    value: float
    error_estimate: float
    n_evals: int
    converged: bool
    normalization_constant: float | None


def build_integrand(problem: BracketProblem) -> Expr:
    """The simplified integrand, without the domain prefactor.

    Returns ``simplify((df/du dh/dv - df/dv dh/du) * tau * rho * weight)``
    using the problem's density as given: it is what :func:`bracket`
    integrates, normalized or not.  One walk over ``f`` and one over ``h``
    give both partials of each, at simplify's fixed point, and ``combine``
    joins them through the same rewrite rules, so it needs no second pass.
    """
    problem.validate()
    coords = problem.domain.coords
    (fu, fv), (hu, hv) = partials(problem.f, coords), partials(problem.h, coords)
    jacobian = combine("-", combine("*", fu, hv), combine("*", fv, hu))
    factors = (problem.tau, problem.rho, problem.domain.weight)
    return combine("*", jacobian, *map(simplify, factors))


def bracket(problem: BracketProblem, spec: QuadSpec | None = None) -> BracketResult:
    """Evaluate the bracket; raises :class:`NormalizationError` for densities
    whose mass :func:`densbrackets.geometry.check_mass` rejects."""
    integrand = build_integrand(problem)
    domain = problem.domain

    norm_const = None
    mass_evals = 0
    divisor = 1.0
    if problem.auto_normalize:
        mass = check_mass(problem.rho, density_mass(domain, problem.rho, spec))
        mass_evals = mass.n_evals
        norm_const = divisor = mass.value
        spec = scaled_spec(spec, 1.0 / divisor)

    with compiled_kernel(integrand, domain.coords) as kernel:
        result = integrate_2d(kernel, domain.box, spec)
    result = result.scaled(domain.prefactor)
    return BracketResult(
        value=result.value / divisor,
        error_estimate=result.error_estimate / divisor,
        n_evals=result.n_evals + mass_evals,
        converged=result.converged,
        normalization_constant=norm_const,
    )
