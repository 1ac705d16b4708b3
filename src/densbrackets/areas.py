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

A flow that only shifts phi, ``phi_map = phi + c(theta, s, t)``, with
``theta_map`` free of phi and t, leaves the inner sphere integral
independent of t when ``rho`` is 2 pi-periodic in phi.  :func:`area` checks
these three preconditions symbolically and then integrates in 3-d, over s
and the sphere, with t bound to the midpoint of I2; every other flow runs
the 4-d integral.

Substituting something like ``arccos(theta + s)`` takes arccos outside its
principal domain, on most of the paper's own patch: ``theta + s > 1`` once
``theta > 1 - s``.  :func:`pullback_density` runs the rationalizing rewrites
of :func:`densbrackets.expressions.simplify`, so that even powers of
``sin(arccos(...))`` become polynomial, and an area integrates that
rationalized pullback, which stays defined there; that is how the paper's
3.3009295509955767 is reproduced.  Such a patch is integrated, not rejected:
``1 + sin(theta)^2/2`` under ``arccos(theta + s*t)`` on the paper's
intervals reports the area -29.43 as converged.  The integrand is real away
from a measure-zero set of removable points, which the interior quadrature
nodes do not hit in the shipped problems.  The compiled kernel of the
integrand goes straight into the quadrature, and every non-finite value is
an error, as for masses and brackets: the quadrature leaf reports the point
and :func:`densbrackets.geometry.compiled_kernel` re-evaluates it strictly.
A division by zero, an overflow, a surviving square root of a negative
quantity or a logarithm of a non-positive value aborts with the offending
subexpression and all four coordinates of the point reported, the fixed
``(s, t)`` of :func:`inner_bracket` and the fixed t of a 3-d area included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .expressions import (
    BinOp,
    Call,
    Const,
    Expr,
    Var,
    compile_expr,  # noqa: F401 -- benchmarks/tracing.py wraps areas.compile_expr
    diff,
    free_vars,
    simplify,
    substitute,
    to_text,
)
from .geometry import SPHERE, GeometryError, compiled_kernel, require_domain_vars
from .quadrature import QuadResult, QuadSpec, integrate_2d, integrate_4d, to_float

__all__ = [
    "FlowMap",
    "AreaProblem",
    "IntervalError",
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


class IntervalError(GeometryError):
    """A parameter interval is out of range; ``field`` names it
    (``s_interval`` or ``t_interval``)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


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
        require_domain_vars(SPHERE, self.rho, "density")
        self.flow.validate()
        if self.weight_mode not in WEIGHT_MODES:
            raise GeometryError(
                f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}"
            )
        for field, name, top, top_text in (
            ("s_interval", "I1", math.pi, "pi"),
            ("t_interval", "I2", 2.0 * math.pi, "2*pi"),
        ):
            interval = getattr(self, field)
            try:
                lo, hi = map(to_float, interval)
            except (TypeError, ValueError):
                raise IntervalError(
                    field,
                    f"parameter interval {name} = {interval!r} must be a pair "
                    "of numbers",
                ) from None
            if not (0.0 < lo < hi < top):
                raise IntervalError(
                    field,
                    f"parameter interval {name} = {interval!r} must satisfy "
                    f"0 < lo < hi < {top_text}",
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
        return simplify(BinOp("*", pulled, SPHERE.weight))
    return pulled


def _default_spec(spec: QuadSpec | None) -> QuadSpec:
    if spec is None:
        spec = QuadSpec(abs_tol=DEFAULT_TOL, rel_tol=DEFAULT_TOL)
    if spec.max_evals is None:
        spec = replace(spec, max_evals=DEFAULT_EVAL_BUDGET)
    return spec


def _jumps_in_phi(expr: Expr) -> bool:
    """Does ``expr`` hold a ``sign`` of something that depends on phi?
    :func:`diff` gives ``sign`` the derivative 0, so across its jump a
    constant phi-derivative proves nothing."""
    if isinstance(expr, Call):
        if expr.fn == "sign" and "phi" in free_vars(expr.arg):
            return True
        return _jumps_in_phi(expr.arg)
    if isinstance(expr, BinOp):
        return _jumps_in_phi(expr.left) or _jumps_in_phi(expr.right)
    return False


def _periodic_in_phi(expr: Expr) -> bool:
    """Is every ``phi`` in ``expr`` inside a sin, cos or tan whose argument
    has a constant integer phi-derivative and no jump in phi (so ``expr`` is
    2 pi-periodic)?"""
    if isinstance(expr, Call):
        if expr.fn in ("sin", "cos", "tan") and not _jumps_in_phi(expr.arg):
            slope = diff(expr.arg, "phi")
            if isinstance(slope, Const) and slope.value.is_integer():
                return True
        return _periodic_in_phi(expr.arg)
    if isinstance(expr, BinOp):
        return _periodic_in_phi(expr.left) and _periodic_in_phi(expr.right)
    return expr != Var("phi")


def _t_invariant(problem: AreaProblem) -> bool:
    """Does the inner sphere integral not depend on t?  It does not when
    ``phi_map = phi + c(theta, s, t)``, ``theta_map`` has no phi and no t,
    and rho is 2 pi-periodic in phi: at each theta the shift by c then
    leaves the phi-integral over a full period unchanged."""
    flow = problem.flow
    return (
        diff(flow.phi_map, "phi") == Const(1.0)
        and not _jumps_in_phi(flow.phi_map)
        and not free_vars(flow.theta_map) & {"phi", "t"}
        and _periodic_in_phi(problem.rho)
    )


def area(problem: AreaProblem, spec: QuadSpec | None = None) -> QuadResult:
    """The patch area: 1/(4 pi) times the iterated 4-d integral.

    The outer adaptive integration runs over (s, t); each outer point
    triggers an inner 2-d integration over the sphere, with theta innermost.
    The tolerance of ``spec`` holds on s, then /10 on t, /30 on phi and /300
    on theta: 10x tighter within a pair of axes, 3x from t to phi.  When the
    inner integral does not depend on t (see :func:`_t_invariant`), the
    outer integration runs over s alone with t at the midpoint of I2, so phi
    and theta run at /3 and /30, and the result is multiplied by ``|I2|``;
    the absolute tolerance is divided by ``|I2|`` so that it still holds on
    the 4-d scale, and kept between the smallest and the largest positive
    double.  A result that stops short of its tolerance (out of bisections
    or of the evaluation budget) is returned with ``converged=False``
    rather than raised; a budget that runs out once every integral met its
    tolerance leaves the result converged.
    """
    problem.validate()
    spec = _default_spec(spec)
    if _t_invariant(problem):
        t_lo, t_hi = problem.t_interval
        width = t_hi - t_lo
        # t leads, bound to the midpoint of I2, so that a domain error still
        # names all four coordinates of a point of the patch
        variables, fixed = ("t", "s", "phi", "theta"), (0.5 * (t_lo + t_hi),)
        outer = (problem.s_interval,)
        spec = spec.tightened(width, 1.0)
    else:
        width, variables, fixed = 1.0, _VARS, ()
        outer = (problem.s_interval, problem.t_interval)
    with compiled_kernel(_integrand_expr(problem), variables, fixed) as kernel:
        result = integrate_4d(kernel, outer, (_PHI_BOX, _THETA_BOX), spec)
    return result.scaled(SPHERE.prefactor * width)


def inner_bracket(
    problem: AreaProblem, s: float, t: float, spec: QuadSpec | None = None
) -> QuadResult:
    """The inner sphere integral at fixed parameters ``(s, t)``.

    This is the bracket of the two coordinate functionals at the transported
    measure; exposed for diagnostics and for the rotation-invariance
    property.
    """
    problem.validate()
    try:
        s, t = to_float(s), to_float(t)
    except (TypeError, ValueError):
        raise GeometryError(f"(s, t) = ({s!r}, {t!r}) must be numbers") from None
    s_lo, s_hi = problem.s_interval
    t_lo, t_hi = problem.t_interval
    if not (s_lo <= s <= s_hi and t_lo <= t <= t_hi):
        raise GeometryError(
            f"(s, t) = ({s!r}, {t!r}) is outside I1 x I2 = "
            f"{problem.s_interval!r} x {problem.t_interval!r}"
        )
    fixed = (s, t)
    with compiled_kernel(_integrand_expr(problem), _VARS, fixed) as kernel:
        result = integrate_2d(kernel, (_PHI_BOX, _THETA_BOX), spec)
    return result.scaled(SPHERE.prefactor)
