"""Numerical Poisson brackets of density functionals and symplectic leaf areas.

The package evaluates brackets of linear functionals ``mu -> integral(f dmu)``
on spaces of smooth probability densities over the unit square, the flat
2-torus and the round 2-sphere, and computes symplectic areas of
flow-parametrized patches of leaves over the sphere.  It is built from four
layers: a small real-valued expression language (``expressions``),
deterministic adaptive Gauss-Kronrod quadrature (``quadrature``), domain
descriptors and density normalization (``geometry``), and the bracket/area
front ends (``brackets``, ``areas``) with a JSON-emitting CLI (``cli``).
"""

from .expressions import (
    DomainError,
    Expr,
    ExpressionError,
    ParseError,
    UnboundVariableError,
    compile_expr,
    diff,
    evaluate,
    free_vars,
    parse,
    simplify,
    substitute,
    to_text,
)
from .quadrature import (
    QuadResult,
    QuadSpec,
    QuadratureError,
    integrate_2d,
    integrate_4d,
)
from .geometry import (
    DOMAINS,
    Density,
    Domain,
    GeometryError,
    NormalizationError,
    SPHERE,
    SQUARE,
    TORUS,
    density_mass,
    domain_by_name,
    normalize,
)
from .brackets import BracketProblem, BracketResult, bracket, build_integrand
from .areas import AreaProblem, FlowMap, area, inner_bracket, pullback_density

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # expressions
    "Expr",
    "ExpressionError",
    "ParseError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "diff",
    "substitute",
    "simplify",
    "free_vars",
    "to_text",
    "compile_expr",
    # quadrature
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_2d",
    "integrate_4d",
    # geometry
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
    # brackets / areas
    "BracketProblem",
    "BracketResult",
    "bracket",
    "build_integrand",
    "FlowMap",
    "AreaProblem",
    "pullback_density",
    "area",
    "inner_bracket",
]
