"""The package's public surface: the modules' own ``__all__`` lists."""

from __future__ import annotations

import densbrackets
from densbrackets import areas, brackets, expressions, geometry, quadrature

# What the package exported before it re-exported the module lists; none of
# these may go.
_EARLIER_NAMES = [
    "__version__",
    "Expr", "ExpressionError", "ParseError", "UnboundVariableError", "DomainError",
    "parse", "evaluate", "diff", "substitute", "simplify", "free_vars", "to_text",
    "compile_expr",
    "QuadSpec", "QuadResult", "QuadratureError", "integrate_2d", "integrate_4d",
    "Domain", "Density", "GeometryError", "NormalizationError", "SQUARE", "TORUS",
    "SPHERE", "DOMAINS", "domain_by_name", "density_mass", "normalize",
    "BracketProblem", "BracketResult", "bracket", "build_integrand",
    "FlowMap", "AreaProblem", "pullback_density", "area", "inner_bracket",
]


def test_earlier_names_are_still_exported():
    assert len(_EARLIER_NAMES) == 39
    assert not set(_EARLIER_NAMES) - set(densbrackets.__all__)


def test_package_list_is_the_module_lists():
    assert densbrackets.__all__ == [
        "__version__",
        *expressions.__all__,
        *quadrature.__all__,
        *geometry.__all__,
        *brackets.__all__,
        *areas.__all__,
    ]


def test_every_listed_name_resolves():
    namespace: dict = {}
    exec("from densbrackets import *", namespace)
    for name in densbrackets.__all__:
        assert name in namespace
        assert getattr(densbrackets, name) is namespace[name]


def test_no_name_is_listed_twice():
    assert len(densbrackets.__all__) == len(set(densbrackets.__all__))
