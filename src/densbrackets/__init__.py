"""Numerical Poisson brackets of density functionals and symplectic leaf areas.

The package evaluates brackets of linear functionals ``mu -> integral(f dmu)``
on spaces of smooth probability densities over the unit square, the flat
2-torus and the round 2-sphere, and computes symplectic areas of
flow-parametrized patches of leaves over the sphere.  It is built from four
layers: a small real-valued expression language (``expressions``),
deterministic adaptive Gauss-Kronrod quadrature (``quadrature``), domain
descriptors and density normalization (``geometry``), and the bracket/area
front ends (``brackets``, ``areas``) with a JSON-emitting CLI (``cli``).

Each module's ``__all__`` is its public surface.  The package re-exports
those of the five library modules, so ``densbrackets.__all__`` is
``__version__`` followed by their lists, in layer order; ``cli`` is not
re-exported.
"""

from . import areas, brackets, expressions, geometry, quadrature
from .expressions import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .geometry import *  # noqa: F403
from .brackets import *  # noqa: F403
from .areas import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *expressions.__all__,
    *quadrature.__all__,
    *geometry.__all__,
    *brackets.__all__,
    *areas.__all__,
]
