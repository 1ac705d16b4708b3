"""Deterministic adaptive Gauss-Kronrod quadrature in 1, 2 and 4 dimensions.

The only rule is the embedded G7/K15 pair.  One axis is integrated by
globally adaptive bisection: the interval with the largest local error
estimate ``|G - K|`` is split first, ties broken by the leftmost interval,
and the final value is a compensated (Kahan) sum of panel contributions in
left-to-right order.  The result is therefore a pure function of the inputs:
repeat runs are bit-identical, and batched (vectorised) evaluation cannot
change the reduction order.

Every integral runs through one iterated core over nested groups of axes.
The axes of a pair are batched: the inner axis is integrated for all nodes
of an outer panel at once, with its tolerance tightened by 10.  A further
group (the inner pair of the 4-d case) is integrated once per point of the
outer group, at 100x tighter tolerance.  The error estimate of an iterated
integral is the outer ``|G - K|`` sum plus a Kronrod-weighted bound on the
accumulated inner error.  Kronrod nodes are strictly interior, so
integrands defined on open intervals are never evaluated at the endpoints.

Integrands may be plain scalar callables or, with ``vectorized=True``,
numpy-broadcasting callables (such as the ones produced by
:func:`densbrackets.expressions.compile_expr`).  Either kind is adapted once,
at the public entry, to the core's batched protocol ``g(*coords)``.  Any NaN
or infinity aborts the integration with every coordinate of the offending
point reported.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "NonFiniteIntegrandError",
    "integrate_1d",
    "integrate_2d",
    "integrate_4d",
    "kronrod_panel",
    "gauss_kronrod_rule",
]


class QuadratureError(Exception):
    """Raised for invalid quadrature inputs."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand produced NaN or infinity; ``point`` has every coordinate."""

    def __init__(self, point: tuple[float, ...]):
        self.point = point
        super().__init__(f"integrand is not finite at {point!r}")


# G7/K15 nodes and weights on [-1, 1], ascending.  Derived from the Legendre
# polynomial P7 and its Stieltjes extension by 50-digit moment matching; the
# embedded Gauss points sit at the odd indices.
_GK_NODES = np.array(
    (
        -0.991455371120812639,
        -0.949107912342758525,
        -0.864864423359769073,
        -0.741531185599394440,
        -0.586087235467691130,
        -0.405845151377397167,
        -0.207784955007898468,
        0.0,
        0.207784955007898468,
        0.405845151377397167,
        0.586087235467691130,
        0.741531185599394440,
        0.864864423359769073,
        0.949107912342758525,
        0.991455371120812639,
    )
)
_K15_WEIGHTS = np.array(
    (
        0.0229353220105292250,
        0.0630920926299785533,
        0.104790010322250184,
        0.140653259715525919,
        0.169004726639267903,
        0.190350578064785410,
        0.204432940075298892,
        0.209482141084727828,
        0.204432940075298892,
        0.190350578064785410,
        0.169004726639267903,
        0.140653259715525919,
        0.104790010322250184,
        0.0630920926299785533,
        0.0229353220105292250,
    )
)
_G7_WEIGHTS_EMBEDDED = np.zeros(15)
_G7_WEIGHTS_EMBEDDED[1::2] = (
    0.129484966168869693,
    0.279705391489276668,
    0.381830050505118945,
    0.417959183673469388,
    0.381830050505118945,
    0.279705391489276668,
    0.129484966168869693,
)


def gauss_kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (nodes, kronrod weights, embedded gauss weights) on [-1, 1]."""
    return _GK_NODES.copy(), _K15_WEIGHTS.copy(), _G7_WEIGHTS_EMBEDDED.copy()


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budgets for one integration call.

    ``max_subdivisions`` limits the number of bisections per axis;
    ``max_evals`` (optional) caps the total number of scalar integrand
    evaluations across all nesting levels.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    max_evals: int | None = None

    def __post_init__(self):
        if not (0.0 < self.abs_tol < np.inf and 0.0 < self.rel_tol < np.inf):
            raise QuadratureError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise QuadratureError("max_subdivisions must be >= 1")
        if self.max_evals is not None and self.max_evals < 15:
            raise QuadratureError("max_evals must allow at least one panel")

    def tightened(self, factor: float) -> "QuadSpec":
        return replace(
            self, abs_tol=self.abs_tol / factor, rel_tol=self.rel_tol / factor
        )


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    n_evals: int
    converged: bool

    def scaled(self, factor: float) -> "QuadResult":
        """The result of ``factor`` times the integrand."""
        return replace(
            self,
            value=factor * self.value,
            error_estimate=factor * self.error_estimate,
        )


class _Budget:
    """Shared evaluation counter across nesting levels."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int | None):
        self.used = 0
        self.limit = limit

    def spend(self, n: int) -> None:
        self.used += n

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used >= self.limit


# Batched integrand protocol: g(*coords) -> values broadcast over the coords.
_Batched = Callable[..., np.ndarray]

# One axis's integrand: f(nodes[n]) -> (values[..., n], aux), where aux is
# either None or the per-node absolute error carried by the values (used to
# propagate inner-integral error estimates outward).
_AxisIntegrand = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def _batched(f: Callable[..., float], vectorized: bool) -> _Batched:
    """Adapt a caller's integrand, scalar or broadcasting, to ``g(*coords)``."""
    if vectorized:
        def g(*coords):
            shape = np.broadcast_shapes(*map(np.shape, coords))
            return np.broadcast_to(np.asarray(f(*coords), dtype=float), shape)
    else:
        def g(*coords):
            grid = np.broadcast_arrays(*coords)
            out = np.empty(grid[0].shape, dtype=float)
            flat = out.reshape(-1)
            for i, point in enumerate(zip(*(c.reshape(-1) for c in grid))):
                flat[i] = f(*map(float, point))
            return out

    return g


class _Panel:
    __slots__ = ("left", "right", "value", "err", "aux", "priority", "splittable")

    def __init__(self, left, right, value, err, aux):
        self.left = left
        self.right = right
        self.value = value  # ndarray, batch shape
        self.err = err  # ndarray, batch shape
        self.aux = aux  # ndarray, batch shape (zeros if no aux)
        self.priority = float(np.max(err + aux))
        mid = 0.5 * (left + right)
        self.splittable = left < mid < right


def _evaluate_panels(
    f: _AxisIntegrand,
    bounds: Sequence[tuple[float, float]],
    budget: _Budget,
    coords: tuple,
) -> list[_Panel]:
    """Evaluate G7/K15 on each (a, b) in ``bounds`` with a single f call.

    ``coords`` are the outer coordinates of the batch, for error reports.
    """
    xs = []
    for a, b in bounds:
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * _GK_NODES)
    x = np.concatenate(xs)
    values, aux = f(x)
    budget.spend(values.size)
    if not np.isfinite(values).all():
        idx = tuple(np.argwhere(~np.isfinite(values))[0])
        batch = values.shape[:-1]
        point = tuple(float(np.broadcast_to(c, batch)[idx[:-1]]) for c in coords)
        raise NonFiniteIntegrandError(point + (float(x[idx[-1]]),))
    panels = []
    for i, (a, b) in enumerate(bounds):
        half = 0.5 * (b - a)
        chunk = values[..., 15 * i : 15 * (i + 1)]
        k15 = half * (chunk @ _K15_WEIGHTS)
        g7 = half * (chunk @ _G7_WEIGHTS_EMBEDDED)
        err = np.abs(k15 - g7)
        if aux is None:
            aux_total = np.zeros_like(k15)
        else:
            achunk = aux[..., 15 * i : 15 * (i + 1)]
            aux_total = half * (np.abs(achunk) @ _K15_WEIGHTS)
        panels.append(_Panel(a, b, k15, err, aux_total))
    return panels


def _kahan_total(parts: list[np.ndarray]) -> np.ndarray:
    total = np.zeros_like(parts[0])
    comp = np.zeros_like(parts[0])
    for p in parts:
        y = p - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _adaptive(
    f: _AxisIntegrand,
    a: float,
    b: float,
    spec: QuadSpec,
    budget: _Budget,
    coords: tuple,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Globally adaptive integration of one axis, batched over ``coords``.

    Returns per-component (value, error_estimate, converged); the error
    includes both the |G - K| sums and the accumulated aux error.
    """
    first = _evaluate_panels(f, [(a, b)], budget, coords)[0]
    active: dict[int, _Panel] = {0: first}
    heap: list[tuple[float, float, int]] = []
    if first.splittable:
        heapq.heappush(heap, (-first.priority, first.left, 0))
    next_id = 1

    val_total = first.value.copy()
    err_total = first.err + first.aux
    splits = 0

    def converged_now() -> bool:
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(val_total))
        return bool(np.all(err_total <= tol))

    converged = converged_now()
    while not converged:
        if splits >= spec.max_subdivisions or budget.exhausted or not heap:
            break
        _, _, ident = heapq.heappop(heap)
        panel = active.pop(ident)
        mid = 0.5 * (panel.left + panel.right)
        halves = _evaluate_panels(
            f, [(panel.left, mid), (mid, panel.right)], budget, coords
        )
        val_total = val_total - panel.value
        err_total = err_total - (panel.err + panel.aux)
        for h in halves:
            active[next_id] = h
            if h.splittable:
                heapq.heappush(heap, (-h.priority, h.left, next_id))
            next_id += 1
            val_total = val_total + h.value
            err_total = err_total + h.err + h.aux
        splits += 1
        converged = converged_now()

    # Deterministic final reduction: panels in left-to-right order.
    panels = sorted(active.values(), key=lambda p: p.left)
    value = _kahan_total([p.value for p in panels])
    error = _kahan_total([p.err + p.aux for p in panels])
    return value, error, converged


# -- the iterated core -----------------------------------------------------------

Interval = tuple[float, float]
Box2D = tuple[Interval, Interval]


def _iterated(
    g: _Batched,
    groups: tuple[tuple[Interval, ...], ...],
    specs: list[tuple[QuadSpec, ...]],
    budget: _Budget,
    fixed: tuple[float, ...] = (),
) -> tuple[float, float, bool]:
    """Iterated integral of ``g(*fixed, *coords)`` over nested groups of axes.

    ``groups[0]`` holds one axis or a pair; a pair's inner axis is integrated
    for all nodes of an outer panel at once.  Every point of ``groups[0]``
    runs one integral over ``groups[1:]``.  ``specs`` holds one spec per axis,
    group by group.  Returns (value, error_estimate, converged).
    """
    ok = True

    def values(*coords):
        nonlocal ok
        if len(groups) == 1:
            return g(*fixed, *coords), None
        grid = np.broadcast_arrays(*coords)
        vals = np.empty(grid[0].shape, dtype=float)
        errs = np.empty(grid[0].shape, dtype=float)
        for idx in np.ndindex(vals.shape):
            point = fixed + tuple(float(c[idx]) for c in grid)
            vals[idx], errs[idx], point_ok = _iterated(
                g, groups[1:], specs[1:], budget, point
            )
            ok = ok and point_ok
        return vals, errs

    if len(groups[0]) == 1:
        f = values
    else:
        vlo, vhi = groups[0][1]

        def f(u_nodes: np.ndarray):
            nonlocal ok

            def inner(v_nodes: np.ndarray):
                return values(u_nodes[:, None], v_nodes[None, :])

            vals, errs, inner_ok = _adaptive(
                inner, vlo, vhi, specs[0][1], budget, fixed + (u_nodes,)
            )
            ok = ok and inner_ok
            return vals, errs

    lo, hi = groups[0][0]
    value, err, outer_ok = _adaptive(f, lo, hi, specs[0][0], budget, fixed)
    return float(value), float(err), outer_ok and ok


def _integrate(
    f: Callable[..., float],
    groups: tuple[tuple[Interval, ...], ...],
    spec: QuadSpec | None,
    vectorized: bool,
) -> QuadResult:
    """Public entry: check the intervals, adapt ``f`` and run the core."""
    checked = []
    for group in groups:
        for lo, hi in group:
            if not lo < hi:
                raise QuadratureError(f"invalid interval ({lo!r}, {hi!r})")
        checked.append(tuple((float(lo), float(hi)) for lo, hi in group))
    spec = spec or QuadSpec()
    specs, level = [], spec
    for group in checked:
        if specs:
            level = level.tightened(100.0)
        specs.append((level, level.tightened(10.0))[: len(group)])
    budget = _Budget(spec.max_evals)
    # panel sums may overflow on a divergent integrand; that shows as a
    # non-finite estimate or value, not as a warning
    with np.errstate(all="ignore"):
        value, err, ok = _iterated(
            _batched(f, vectorized), tuple(checked), specs, budget
        )
    return QuadResult(value, err, budget.used, ok and not budget.exhausted)


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    *,
    vectorized: bool = False,
) -> QuadResult:
    """Adaptive integral of ``f`` over the open interval (a, b)."""
    return _integrate(f, (((a, b),),), spec, vectorized)


def kronrod_panel(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float]:
    """Single G7/K15 panel on (a, b): returns (gauss, kronrod, |G - K|)."""
    half = 0.5 * (b - a)
    fx = _batched(f, False)(0.5 * (a + b) + half * _GK_NODES)
    k15 = half * float(fx @ _K15_WEIGHTS)
    g7 = half * float(fx @ _G7_WEIGHTS_EMBEDDED)
    return g7, k15, abs(k15 - g7)


def integrate_2d(
    f: Callable[[float, float], float],
    box: Box2D,
    spec: QuadSpec | None = None,
    *,
    vectorized: bool = False,
) -> QuadResult:
    """Iterated adaptive integral over a rectangle.

    Outer integration runs over the first box axis, inner over the second,
    with the inner tolerance tightened by a factor of 10.  The error estimate
    is the outer |G - K| sum plus the accumulated inner estimates.
    """
    return _integrate(f, (tuple(box),), spec, vectorized)


def integrate_4d(
    f: Callable[[float, float, float, float], float],
    outer_box: Box2D,
    inner_box: Box2D,
    spec: QuadSpec | None = None,
    *,
    vectorized: bool = False,
) -> QuadResult:
    """Iterated 4-d integral: adaptive 2-d over the outer box whose integrand
    is an adaptive 2-d integral over the inner box at 100x tighter tolerance.

    ``f(s, t, u, v)`` takes the outer coordinates first.  With
    ``vectorized=True`` it must broadcast over ``u``/``v`` arrays for fixed
    scalar ``(s, t)``.  The evaluation budget (``spec.max_evals``) is shared
    by all levels; exhausting it yields the best estimate with
    ``converged=False``.
    """
    return _integrate(f, (tuple(outer_box), tuple(inner_box)), spec, vectorized)
