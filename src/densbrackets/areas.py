"""Symplectic areas of parametrized leaf patches over the sphere.

Let ``rho`` be a normalized density on the sphere and let a pair of
coordinate substitutions (a "flow map")::

    theta -> theta_map(theta, phi, s, t)
    phi   -> phi_map(theta, phi, s, t)

model the action of two one-parameter families of Hamiltonian flows.  As
``(s, t)`` sweeps ``I1 x I2``, the transported measures trace a 2-d patch of
the symplectic leaf through the measure with density ``rho``, and its area is
the iterated integral::

    area = 1/(4 pi) * int_I1 int_I2 int_0^2pi int_0^pi  pullback(rho) * W

where ``pullback(rho)`` substitutes the flow map into ``rho`` and ``W``
depends on the weight convention: ``W = sin(theta)`` in ``measure`` mode and
``W = 1`` in ``literal`` mode.  Both conventions are first-class because the
two natural readings of the area formula disagree for rho = 1; run both and
compare (the reference Gaussian-patch value is reproduced by ``literal``
mode, see the acceptance suite).

Substituting something like ``arccos(theta + s)`` takes arccos outside its
principal domain; :func:`pullback_density` therefore runs the rationalizing
rewrites of :func:`densbrackets.expressions.simplify` so that even powers of
``sin(arccos(...))`` become polynomial and the integrand is real away from a
measure-zero set of removable points.  Quadrature nodes are interior and do
not hit that set in the shipped problems.  The compiled kernel of the
integrand goes straight into the quadrature, and every non-finite value is
an error, as for masses and brackets: the quadrature leaf reports the point
and :func:`densbrackets.geometry.compiled_kernel` re-evaluates it strictly.
A division by zero, an overflow, a surviving square root of a negative
quantity or a logarithm of a non-positive value aborts with the offending
subexpression and all four coordinates of the point reported, the fixed
``(s, t)`` of :func:`inner_bracket` included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .expressions import (
    BinOp,
    Call,
    Expr,
    Var,
    compile_expr,  # noqa: F401 -- benchmarks/tracing.py wraps areas.compile_expr
    free_vars,
    simplify,
    substitute,
    to_text,
)
from .geometry import SPHERE, GeometryError, compiled_kernel
from .quadrature import QuadResult, QuadSpec, integrate_2d, integrate_4d

__all__ = [
    "FlowMap",
    "AreaProblem",
    "WEIGHT_MODES",
    "DEFAULT_TOL",
    "DEFAULT_EVAL_BUDGET",
    "pullback_density",
    "area",
    "inner_bracket",
]

WEIGHT_MODES = ("measure", "literal")

# Default tolerance (absolute and relative) of a 4-d run, looser than the
# 2-d default, and default cap on its integrand evaluations.
DEFAULT_TOL = 1e-7
DEFAULT_EVAL_BUDGET = 5_000_000_000

# Driver order: outer (s, t), inner (phi, theta) with theta innermost.
_VARS = ("s", "t", "phi", "theta")
_THETA_BOX = SPHERE.box[0]
_PHI_BOX = SPHERE.box[1]


@dataclass(frozen=True)
class FlowMap:
    """Coordinate substitutions in the variables theta, phi, s, t."""

    theta_map: Expr
    phi_map: Expr

    def validate(self) -> None:
        for what, expr in (("theta_map", self.theta_map), ("phi_map", self.phi_map)):
            extra = free_vars(expr) - set(_VARS)
            if extra:
                raise GeometryError(
                    f"{what} '{to_text(expr)}' uses variables {sorted(extra)}; "
                    f"allowed: {_VARS}"
                )


@dataclass(frozen=True)
class AreaProblem:
    rho: Expr  # density on the sphere, normalized by the caller
    flow: FlowMap
    s_interval: tuple[float, float]  # I1, inside (0, pi)
    t_interval: tuple[float, float]  # I2, inside (0, 2 pi)
    weight_mode: str = "measure"

    def validate(self) -> None:
        extra = free_vars(self.rho) - {"theta", "phi"}
        if extra:
            raise GeometryError(
                f"density '{to_text(self.rho)}' uses variables {sorted(extra)}; "
                "expected sphere coordinates (theta, phi)"
            )
        self.flow.validate()
        if self.weight_mode not in WEIGHT_MODES:
            raise GeometryError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        s_lo, s_hi = self.s_interval
        t_lo, t_hi = self.t_interval
        if not (0.0 < s_lo < s_hi < math.pi):
            raise GeometryError(
                f"parameter interval I1 = {self.s_interval!r} must satisfy "
                "0 < lo < hi < pi"
            )
        if not (0.0 < t_lo < t_hi < 2.0 * math.pi):
            raise GeometryError(
                f"parameter interval I2 = {self.t_interval!r} must satisfy "
                "0 < lo < hi < 2*pi"
            )


def pullback_density(rho: Expr, flow: FlowMap) -> Expr:
    """Substitute the flow map into ``rho`` and run the rationalizing rewrites.

    Substitution is sequential: theta first, then phi, exactly as the
    composed map is written.
    """
    flow.validate()
    composed = substitute(
        substitute(rho, "theta", flow.theta_map), "phi", flow.phi_map
    )
    return simplify(composed)


def _integrand_expr(problem: AreaProblem) -> Expr:
    pulled = pullback_density(problem.rho, problem.flow)
    if problem.weight_mode == "measure":
        return simplify(BinOp("*", pulled, Call("sin", Var("theta"))))
    return pulled


def _default_spec(spec: QuadSpec | None) -> QuadSpec:
    if spec is None:
        spec = QuadSpec(abs_tol=DEFAULT_TOL, rel_tol=DEFAULT_TOL)
    if spec.max_evals is None:
        spec = replace(spec, max_evals=DEFAULT_EVAL_BUDGET)
    return spec


def area(problem: AreaProblem, spec: QuadSpec | None = None) -> QuadResult:
    """The patch area: 1/(4 pi) times the iterated 4-d integral.

    The outer adaptive integration runs over (s, t); each outer point
    triggers an inner 2-d integration over the sphere at 100x tighter
    tolerance, with theta innermost.  A non-converged result (tolerance or
    budget exhausted) is returned with ``converged=False`` rather than
    raised.
    """
    problem.validate()
    spec = _default_spec(spec)
    with compiled_kernel(_integrand_expr(problem), _VARS) as kernel:
        result = integrate_4d(
            kernel,
            (problem.s_interval, problem.t_interval),
            (_PHI_BOX, _THETA_BOX),
            spec,
        )
    return result.scaled(SPHERE.prefactor)


def inner_bracket(
    problem: AreaProblem, s: float, t: float, spec: QuadSpec | None = None
) -> QuadResult:
    """The inner sphere integral at fixed parameters ``(s, t)``.

    This is the bracket of the two coordinate functionals at the transported
    measure; exposed for diagnostics and for the rotation-invariance
    property.
    """
    problem.validate()
    s_lo, s_hi = problem.s_interval
    t_lo, t_hi = problem.t_interval
    if not (s_lo <= s <= s_hi and t_lo <= t <= t_hi):
        raise GeometryError(
            f"(s, t) = ({s!r}, {t!r}) is outside I1 x I2 = "
            f"{problem.s_interval!r} x {problem.t_interval!r}"
        )
    spec = spec or QuadSpec()
    fixed = (float(s), float(t))
    with compiled_kernel(_integrand_expr(problem), _VARS, fixed) as kernel:
        result = integrate_2d(kernel, (_PHI_BOX, _THETA_BOX), spec)
    return result.scaled(SPHERE.prefactor)
