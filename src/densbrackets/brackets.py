"""Poisson brackets of linear density functionals on the built-in domains.

For functions ``f``, ``h`` on a domain with coordinates ``(u, v)``, conformal
factor ``tau`` and density ``rho``, the bracket of the induced linear
functionals evaluated at the measure with density ``rho`` is::

    prefactor * integral( (df/du dh/dv - df/dv dh/du) * tau * rho * weight )

over the domain box.  With ``auto_normalize`` on (the default), ``rho`` is
first divided by its computed mass, and that constant is reported alongside
the result so that externally stated normalization constants can be compared
against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expressions import BinOp, Const, Expr, diff, simplify
from .geometry import (
    Domain,
    check_mass,
    compiled_kernel,
    density_mass,
    require_domain_vars,
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
    using the problem's density as given (any normalization is applied by
    :func:`bracket` before building the integrand).
    """
    problem.validate()
    u, v = problem.domain.coords
    jacobian = BinOp(
        "-",
        BinOp("*", diff(problem.f, u), diff(problem.h, v)),
        BinOp("*", diff(problem.f, v), diff(problem.h, u)),
    )
    product = BinOp(
        "*",
        BinOp("*", BinOp("*", jacobian, problem.tau), problem.rho),
        problem.domain.weight,
    )
    return simplify(product)


def bracket(problem: BracketProblem, spec: QuadSpec | None = None) -> BracketResult:
    """Evaluate the bracket; raises :class:`NormalizationError` for densities
    whose mass :func:`densbrackets.geometry.check_mass` rejects."""
    problem.validate()
    spec = spec or QuadSpec()

    norm_const = None
    mass_evals = 0
    effective = problem
    if problem.auto_normalize:
        mass = check_mass(
            problem.rho, density_mass(problem.domain, problem.rho, spec)
        )
        mass_evals = mass.n_evals
        norm_const = mass.value
        effective = replace(
            problem, rho=simplify(BinOp("/", problem.rho, Const(mass.value)))
        )

    integrand = build_integrand(effective)
    with compiled_kernel(integrand, problem.domain.coords) as kernel:
        result = integrate_2d(kernel, problem.domain.box, spec)
    result = result.scaled(problem.domain.prefactor)
    return BracketResult(
        value=result.value,
        error_estimate=result.error_estimate,
        n_evals=result.n_evals + mass_evals,
        converged=result.converged,
        normalization_constant=norm_const,
    )
