"""Deterministic adaptive Gauss-Kronrod quadrature in 2, 3 and 4 dimensions.

The only rule is the embedded G7/K15 pair.  One axis is integrated by
globally adaptive bisection: the interval with the largest local error
estimate ``|G - K|`` is split first, ties broken by the leftmost interval,
until the sums over the current partition meet the tolerance.  Those sums,
the ones the last convergence test read, are the value and error returned.
Each is a plain sum of the partition's panels in slot order: the panels of
the start partition left to right, then the order the bisections created
them in.  The result is a pure function of the inputs: repeat runs are
bit-identical, and batched evaluation cannot change the reduction order.

Every integral runs through one adaptive core, which advances a block of
independent integrations ("rows") in lockstep.  Each row keeps its own
partition in flat arrays (panel edges, values, errors and priorities); each
round, every unconverged row bisects its own worst panel, exactly as a
one-row driver would, and the new nodes of all rows go to the integrand in
one call.  A row's numbers therefore do not depend on the other rows of its
block.  The axes of a pair are nested: the inner axis is integrated for all
nodes of an outer panel at once.  A further group (the inner pair of the 3-
and 4-d cases) is integrated for every point of the outer group; these inner
integrals run as the rows of blocks of ``_BLOCK_ROWS``.  Each nested axis
runs at 10x tighter tolerance than the axis outside it: (tol, tol/10) in
2-d, (tol, tol/10, tol/100) in 3-d and (tol, tol/10, tol/100, tol/1000) in
4-d.  The error estimate of an iterated integral is the outer ``|G - K|``
sum plus a Kronrod-weighted bound on the accumulated inner error.  Kronrod
nodes are strictly interior, so integrands defined on open intervals are
never evaluated at the endpoints.

An integral starts from the one panel of its interval, except the inner
integral of a pair's outer split round.  That one starts, row by row, from
the partition that the split panel's inner integral ended on, built over
the same inner range for outer nodes that span both halves; the new
integral still refines it against its own tolerance, and the P - 1
bisections that made its P panels count against ``max_subdivisions``.  The
rows of a block may start from partitions of different sizes; they still
run as one inner integration, one integrand call per round, and each row
takes the bisections it would take alone.

An evaluation budget stops the run after the round in flight.  An outer
split round whose inner integrals have not all started is dropped, and its
level keeps the estimate it had: once the budget is out, no further block
starts.  Before any level has an estimate, the inner integrals still to
start take their first panel only.

Integrands are numpy-broadcasting callables ``f(*coords)``, such as the
kernels of :func:`densbrackets.expressions.compile_expr`: every coordinate,
outer ones included, arrives as an array, and the result may be anything
that broadcasts against them (a Python float included).  The quadrature
leaf copies it to a C-ordered array on the full node grid, so the form of
the result does not change any sum.  Any NaN or infinity aborts the
integration with every coordinate of the offending point reported; a panel
sum that is not finite although every value was raises
:class:`DivergentIntegralError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "NonFiniteIntegrandError",
    "DivergentIntegralError",
    "integrate_2d",
    "integrate_4d",
]


class QuadratureError(Exception):
    """Raised for invalid quadrature inputs."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand produced NaN or infinity; ``point`` has every coordinate."""

    def __init__(self, point: tuple[float, ...]):
        self.point = point
        super().__init__(f"integrand is not finite at {point!r}")


class DivergentIntegralError(QuadratureError):
    """A panel sum is not finite although every integrand value was.

    ``point`` has every coordinate: the outer ones and the midpoint of the
    panel whose sum is not finite.
    """

    def __init__(self, point: tuple[float, ...]):
        self.point = point
        super().__init__(
            f"integral is not finite near {point!r} (likely divergent)"
        )


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


_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budgets for one integration call.

    ``max_subdivisions`` limits the number of bisections per axis and
    integration; ``max_evals`` (optional) caps the total number of
    evaluations across all nesting levels (integrand values plus the inner
    integrals fed to outer levels).  The cap is checked between rounds: the
    round in flight finishes, so the count may overshoot it by one round of
    the rows of one block (the first round of a seeded inner integral
    evaluates each row's whole start partition), and by the first panels of
    inner integrals that had not started while no level had an estimate
    yet.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    max_evals: int | None = None

    def __post_init__(self):
        # each message starts with the name of the field it is about
        for name, ok, rule in (
            ("abs_tol", 0.0 < self.abs_tol < np.inf, "must be positive and finite"),
            ("rel_tol", 0.0 < self.rel_tol < np.inf, "must be positive and finite"),
            ("max_subdivisions", self.max_subdivisions >= 1, "must be >= 1"),
            (
                "max_evals",
                self.max_evals is None or self.max_evals >= 15,
                "must allow at least one panel (15 evaluations)",
            ),
        ):
            if not ok:
                raise QuadratureError(f"{name} {rule}, got {getattr(self, name)!r}")

    def tightened(self, factor: float) -> "QuadSpec":
        """Both tolerances divided by ``factor``, floored at the smallest
        positive double so that a tiny tolerance stays valid."""
        return replace(
            self,
            abs_tol=max(self.abs_tol / factor, math.ulp(0.0)),
            rel_tol=max(self.rel_tol / factor, math.ulp(0.0)),
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


class _Run:
    """State shared by every level of one integration.

    ``used`` counts evaluations against the budget ``limit``; ``converged``
    is cleared by any integral, at any level, that stops short of its
    tolerance; ``splitting`` counts the enclosing levels that are in a split
    round and so have an estimate to fall back on.
    """

    __slots__ = ("used", "limit", "converged", "splitting")

    def __init__(self, limit: int | None):
        self.used = 0
        self.limit = limit
        self.converged = True
        self.splitting = 0

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used >= self.limit


class _Dropped(Exception):
    """The budget ran out before every inner integral of a split round began."""


# Outer points of the 3- and 4-d cases run their inner integrals in blocks
# of this many rows.  The three Gaussian leaf-patch areas at tolerance 1e-3
# take 21-22 ms in 3-d with 16, 32 and 64 rows (8 rows: 24 ms).  Through
# the 4-d core they take 1.1 s with 16 rows, 0.9-1.0 s with 32 and 64 rows
# and 1.5 s with 8, while the peak memory of 34 MB at 16 rows grows by 3.0
# and 7.6 MB at 32 and 64 (one process per size, 2-core Xeon).
_BLOCK_ROWS = 16

# Integrand protocol: f(*coords) -> values that broadcast against the coords.
_Integrand = Callable[..., np.ndarray]

# One axis's integrand over a block of rows: f(x, live, edges) takes the
# nodes x[i, n] of the live rows (an index array or a slice) on the panels
# between consecutive edges[i] and returns (values, aux) of shape
# (len(x), k, n): k components per row, all on the row's partition.  aux is
# None or the absolute error carried by the values (the error estimates of
# inner integrals, propagated outward).
_RowIntegrand = Callable[
    [np.ndarray, "np.ndarray | slice", np.ndarray],
    tuple[np.ndarray, np.ndarray | None],
]


def _evaluate(
    f: _RowIntegrand, edges: np.ndarray, live, run: _Run
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """G7/K15 on the panels between consecutive ``edges`` [rows, h + 1] of
    the live rows, with a single f call.

    Returns (value, |G - K|, aux error), each [rows, h, k]; the aux error is
    None without inner integrals.  Each row and panel gets its own
    matrix-vector product over the row's k components, the same BLAS call a
    one-row driver makes, so a row's sums do not depend on the other rows.
    """
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _GK_NODES) + (0.5 * (lo + hi))[..., None]
    values, aux = f(x.reshape(len(x), -1), live, edges)
    run.used += values.size
    shape = values.shape[:2] + (lo.shape[1], 15)
    half = half[..., None]
    chunks = values.reshape(shape).transpose(0, 2, 1, 3)
    value = half * (chunks @ _K15_WEIGHTS)
    err = np.abs(value - half * (chunks @ _G7_WEIGHTS_EMBEDDED))
    if aux is not None:
        aux = half * (np.abs(aux).reshape(shape).transpose(0, 2, 1, 3) @ _K15_WEIGHTS)
    return value, err, aux


def _check_records(panels, sums, k, outer) -> None:
    """Raise :class:`DivergentIntegralError` at a panel of the first row
    whose [value | error] sums are not finite: its first panel whose value
    or error is not finite, else (the sums overflowed) its panel of largest
    value.  Every integrand value was finite."""
    rows = np.flatnonzero(~np.isfinite(sums).all(1))
    if not len(rows):
        return
    row = rows[0]
    records = panels[:, row]  # [value | error | right | left ...]
    records = records[records[:, 2 * k + 1] < np.inf]
    bad = ~np.isfinite(records[:, : 2 * k])
    if bad.any():
        slot, col = np.argwhere(bad)[0]
    else:
        slot, col = np.unravel_index(np.abs(records[:, :k]).argmax(), (len(records), k))
    mid = 0.5 * (records[slot, 2 * k] + records[slot, 2 * k + 1])
    raise DivergentIntegralError(outer(row, col % k) + (float(mid),))


def _met(value: np.ndarray, error: np.ndarray, spec: QuadSpec) -> np.ndarray:
    """Per row: does every component meet the tolerance?"""
    ok = error <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    return ok[:, 0] if ok.shape[1] == 1 else ok.all(1)


def _adaptive(
    f: _RowIntegrand,
    a: float,
    b: float,
    spec: QuadSpec,
    run: _Run,
    rows: int,
    outer: Callable[[int, int], tuple[float, ...]],
    start: list[list[float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Globally adaptive integration over (a, b) of ``rows`` independent
    integrations, advanced in lockstep with one ``f`` call per round.

    Row i starts from the P_i panels between its edges ``start[i]`` (each
    from ``a`` to ``b``; the sizes may differ), or from the one panel [a, b]
    without ``start``.  The first round evaluates every start panel, and
    counts as P_i - 1 bisections against ``max_subdivisions``, so a row
    never holds more than ``max_subdivisions + 1`` panels.  Every later
    round, each unconverged row bisects its worst splittable panel (largest
    error, the leftmost on ties).  Each row takes the slots, sums and
    evaluations it would take alone: with P = max P_i, row i's start panels
    take slots P - P_i .. P - 1, left to right, and value and error -0.0 in
    the slots before them, which add nothing to its sums (x + -0.0 == x).  A
    budget that runs out stops the loop after the round in flight, whose
    first round evaluates every start panel of every row.  After each round,
    a row whose panel sums meet the tolerance is done; no running total is
    kept, so that one huge panel cannot absorb the others.  ``outer(row,
    k)`` gives the outer coordinates of a component, for error reports.
    Returns per-component (value, error_estimate), each [rows, k]: the sums
    that the row's last convergence test read, so ``converged`` speaks of
    the numbers returned.  The error includes the |G - K| sums and the aux
    error.  The third array holds the left edges of each row's final panels
    in slot order, [slots, rows], with inf in slots a row never filled.
    """
    every = slice(None)
    if start is None or all(len(e) == len(start[0]) for e in start):
        sizes = None  # every row starts from p panels
        edges = np.array(start or [[a, b]] * rows)
        live = every
    else:
        # each start panel is a one-panel row of its own in the first round
        sizes = [len(e) - 1 for e in start]
        p = max(sizes)
        place = (
            [s for size in sizes for s in range(p - size, p)],
            [i for i, size in enumerate(sizes) for _ in range(size)],
        )
        edges = np.array([e[j : j + 2] for e in start for j in range(len(e) - 1)])
        live = np.array(place[1])
    value, err, aux = _evaluate(f, edges, live, run)
    ea = err if aux is None else err + aux
    k = value.shape[2]
    # the start panels' [value | error | right | left], made slot-major
    # below: records[s, i] is the panel in slot s of row i
    records = np.concatenate([value, ea, edges[:, 1:, None], edges[:, :-1, None]], 2)
    # each row's [value | error] sums from the last test of its partition
    # (a sum of one panel would turn -0.0 into 0.0)
    if sizes is None:
        p = value.shape[1]
        records = records.transpose(1, 0, 2)
        total = records[0, :, : 2 * k].copy() if p == 1 else records[..., : 2 * k].sum(0)
    else:
        records, pseudo = np.full((p, rows, 2 * k + 2), -0.0), records
        records[..., -1] = np.inf
        records[place] = pseudo[:, 0]
        total = records[..., : 2 * k].sum(0)
        single = [i for i, size in enumerate(sizes) if size == 1]
        total[single] = records[-1, single, : 2 * k]
    if not math.isfinite(total.sum()):
        _check_records(records, total, k, outer)
    done = _met(total[:, :k], total[:, k:], spec)
    converged = int(np.count_nonzero(done))
    if converged == rows or run.exhausted:
        run.converged = run.converged and converged == rows
        return total[:, :k], total[:, k:], records[..., -1]

    # The partition, slot-major: panels[s, i] is the record of the panel in
    # slot s of row i, [value | error | right | left | priority].  A split's
    # left half keeps its panel's slot and the right half of round r takes
    # slot r.  Unused slots have left = inf; done rows, rows out of
    # bisections, and panels found too narrow to bisect have priority -inf.
    width = 2 * k + 3
    panels = _blank(max(8, 2 * p), rows, width)
    panels[:p, :, :-1] = records
    if sizes is None:
        panels[:p, :, -1] = ea.max(2).T
    else:
        panels[place + (-1,)] = ea.max(2)[:, 0]
    if converged:
        panels[:p, done, -1] = -np.inf
    index = np.arange(rows)
    # Bisection keeps every panel d bisections below a start panel of width
    # w at least w / 2**d - eps M wide, M = max(|a|, |b|), and a panel wider
    # than 2 eps M is splittable: until round `narrowing`, counted from the
    # narrowest start panel of any row, no panel can be too narrow to
    # bisect, and the test for one is skipped.
    w = (edges[:, 1:] - edges[:, :-1]).min()
    narrowing = p - 1 + math.log2(w / (4 * _EPS * max(abs(a), abs(b)) + 1e-300))
    r = p - 1  # every live row i has split r - (p - P_i) times

    limit = spec.max_subdivisions
    while not run.exhausted:
        if r >= limit:
            if sizes is None:
                break
            out = [i for i, size in enumerate(sizes) if r - p + size >= limit]
            panels[:, out, -1] = -np.inf
        priority = panels[..., -1]
        worst = priority.max(0)
        # a non-finite priority stops its row; the final sums report it
        go = np.isfinite(worst)
        n = np.count_nonzero(go)
        if not n:
            break
        live = every if n == rows else np.flatnonzero(go)
        i = index[live]
        top = priority[:, live] == worst[live]
        flat = np.where(top, panels[:, live, -2], np.inf).argmin(0)
        if rows > 1:
            flat = flat * rows + i
        records = panels.reshape(-1, width)
        lo, hi = records[flat, -2], records[flat, -3]
        edges = np.array((lo, 0.5 * (lo + hi), hi)).T
        if r >= narrowing and not (edges[:, 1:] > edges[:, :-1]).all():
            narrow = (edges[:, 1:] <= edges[:, :-1]).any(1)
            records[flat[narrow], -1] = -np.inf
            continue
        run.splitting += 1
        try:
            hv, he, ha = _evaluate(f, edges, live, run)
        except _Dropped:
            break
        finally:
            run.splitting -= 1
        r += 1
        if r == len(panels):
            panels = np.concatenate([panels, _blank(r, rows, width)])
            records = panels.reshape(-1, width)
        hea = he if ha is None else he + ha
        worst = hea.max(2)
        halves = np.concatenate(
            [hv, hea, edges[:, 1:, None], edges[:, :-1, None], worst[..., None]], 2
        )
        records[flat] = halves[:, 0]
        panels[r, live] = halves[:, 1]
        # test the sums of each live row's partition (and its -0.0 pads)
        sums = total[live] = panels[: r + 1, live, : 2 * k].sum(0)
        finished = _met(sums[:, :k], sums[:, k:], spec)
        m = int(np.count_nonzero(finished))
        if m:
            converged += m
            if m == n:
                break
            panels[:, i[finished], -1] = -np.inf

    run.converged = run.converged and converged == rows
    if not math.isfinite(total.sum()):
        _check_records(panels, total, k, outer)
    return total[:, :k], total[:, k:], panels[: r + 1, :, -2]


def _blank(cap: int, rows: int, width: int) -> np.ndarray:
    """Unused panel records: left = inf, priority = -inf."""
    panels = np.empty((cap, rows, width))
    panels[..., -2:] = np.inf, -np.inf
    return panels


# -- the iterated core -----------------------------------------------------------

Interval = tuple[float, float]
Box2D = tuple[Interval, Interval]


def _coords_of(fixed: tuple[np.ndarray, ...], row: int) -> tuple[float, ...]:
    return tuple(float(c[row]) for c in fixed)


def _iterated(
    g: _Integrand,
    groups: tuple[tuple[Interval, ...], ...],
    specs: list[tuple[QuadSpec, ...]],
    run: _Run,
    fixed: tuple[np.ndarray, ...],
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterated integrals of ``g(*fixed, *coords)`` over nested groups of
    axes, one per row of the ``fixed`` coordinate arrays.

    ``groups[0]`` holds one axis or a pair; a pair's inner axis is integrated
    for all nodes of an outer panel at once.  Every point of ``groups[0]``
    runs one integral over ``groups[1:]``; these run in blocks of
    ``_BLOCK_ROWS`` rows.  ``specs`` holds one spec per axis, group by group.
    Returns per-row (value, error_estimate).

    A pair keeps the inner partition that each row's outer panels ended on
    and starts each row's inner integral of a split round from its split
    panel's.  The live rows run one inner integration, whose rows start from
    partitions of different sizes and each take the bisections they would
    take alone.
    """

    def leaf(coords):
        if len(groups) > 1:
            return _fan_out(g, groups[1:], specs[1:], run, coords)
        shape = np.broadcast(*coords).shape
        values = np.asarray(g(*coords), dtype=float)
        # _evaluate's sums depend on the memory layout: hand it a C-order grid
        if values.shape != shape or not values.flags.c_contiguous:
            values = np.ascontiguousarray(np.broadcast_to(values, shape))
        # a sum of finite values can overflow; only then look at each value
        if not math.isfinite(values.sum()) and not np.isfinite(values).all():
            idx = tuple(np.argwhere(~np.isfinite(values))[0])
            raise NonFiniteIntegrandError(
                tuple(float(np.broadcast_to(c, values.shape)[idx]) for c in coords)
            )
        return values, None

    (lo, hi), *inner = groups[0]
    if not inner:
        def f(x, live, edges):
            return leaf(tuple(c[live, None, None] for c in fixed) + (x[:, None, :],))
    else:
        ((vlo, vhi),) = inner
        # the final inner partition (a list of edges) of each row's outer
        # panels, keyed by (row, left edge, right edge)
        ends = {}

        def f(u, live, edges):
            fixed_u = tuple(c[live] for c in fixed)
            ids = range(rows)[live] if isinstance(live, slice) else live.tolist()
            e = edges.tolist()
            seeds = None
            if len(e[0]) == 3:  # a split round: each row's panel's partition
                seeds = [ends.pop((i, lo, hi)) for i, (lo, _, hi) in zip(ids, e)]

            def fv(v, live, _):
                return leaf(
                    tuple(c[live, None, None] for c in fixed_u)
                    + (u[live, :, None], v[:, None, :])
                )

            value, error, lefts = _adaptive(
                fv, vlo, vhi, specs[0][1], run, len(u),
                lambda r, k: _coords_of(fixed_u, r) + (float(u[r, k]),),
                seeds,
            )
            for i, row, partition in zip(ids, e, np.sort(lefts, 0).T.tolist()):
                if partition[-1] == math.inf:  # slots the row never filled
                    del partition[partition.index(math.inf) :]
                partition.append(vhi)
                ends.update(((i, lo, hi), partition) for lo, hi in zip(row, row[1:]))
            return value[:, None, :], error[:, None, :]

    value, error, _ = _adaptive(
        f, lo, hi, specs[0][0], run, rows, lambda r, k: _coords_of(fixed, r)
    )
    return value[:, 0], error[:, 0]


def _fan_out(g, groups, specs, run, coords) -> tuple[np.ndarray, np.ndarray]:
    """Values and errors of the integrals over ``groups`` at every point of
    the broadcast ``coords``, in blocks of ``_BLOCK_ROWS`` rows.

    Once the budget is out, a split round in flight is dropped instead of
    starting more blocks; without one to drop, the remaining blocks still
    take their first panels, so that every level has an estimate.
    """
    grid = np.broadcast_arrays(*coords)
    points = [c.reshape(-1) for c in grid]
    value = np.empty(points[0].size)
    error = np.empty_like(value)
    for start in range(0, value.size, _BLOCK_ROWS):
        if run.exhausted and run.splitting:
            raise _Dropped
        block = slice(start, start + _BLOCK_ROWS)
        fixed = tuple(c[block] for c in points)
        value[block], error[block] = _iterated(
            g, groups, specs, run, fixed, len(fixed[0])
        )
    return value.reshape(grid[0].shape), error.reshape(grid[0].shape)


def _specs(spec: QuadSpec, groups) -> list[tuple[QuadSpec, ...]]:
    """One spec per axis, group by group, each nested axis 10x tighter than
    the axis outside it."""
    specs, level = [], spec
    for group in groups:
        if specs:
            level = level.tightened(10.0 ** len(specs[-1]))
        specs.append((level, level.tightened(10.0))[: len(group)])
    return specs


def _integrate(
    f: _Integrand,
    groups: tuple[tuple[Interval, ...], ...],
    spec: QuadSpec | None,
) -> QuadResult:
    """Public entry: check the intervals and run the core on ``f``."""
    checked = []
    for group in groups:
        group = tuple((float(lo), float(hi)) for lo, hi in group)
        for lo, hi in group:
            # the core bisects at 0.5 * (lo + hi) and scales by 0.5 * (hi - lo)
            if not (lo < hi and math.isfinite(hi - lo) and math.isfinite(lo + hi)):
                raise QuadratureError(f"invalid interval ({lo!r}, {hi!r})")
        checked.append(group)
    spec = spec or QuadSpec()
    run = _Run(spec.max_evals)
    # panel sums may overflow on a divergent integrand; that raises
    # DivergentIntegralError, not a warning
    with np.errstate(all="ignore"):
        value, err = _iterated(f, tuple(checked), _specs(spec, checked), run, (), 1)
    return QuadResult(
        float(value[0]), float(err[0]), run.used, run.converged and not run.exhausted
    )


def integrate_2d(
    f: _Integrand, box: Box2D, spec: QuadSpec | None = None
) -> QuadResult:
    """Iterated adaptive integral over a rectangle.

    Outer integration runs over the first box axis, inner over the second,
    with the inner tolerance tightened by a factor of 10.  The error estimate
    is the outer |G - K| sum plus the accumulated inner estimates.
    """
    return _integrate(f, (tuple(box),), spec)


def integrate_4d(
    f: _Integrand,
    outer_box: tuple[Interval, ...],
    inner_box: Box2D,
    spec: QuadSpec | None = None,
) -> QuadResult:
    """Iterated 4-d integral: adaptive 2-d over the outer box whose integrand
    is an adaptive 2-d integral over the inner box, each axis at 10x tighter
    tolerance than the one outside it (``spec`` on s, 10x on t, 100x and
    1000x on u and v).

    ``f(s, t, u, v)`` takes the outer coordinates first and broadcasts over
    arrays in all four: a block of outer points arrives as ``s``, ``t`` of
    shape ``(rows, 1, 1)``, with ``u`` of shape ``(rows, n, 1)`` and ``v`` of
    shape ``(rows, 1, m)``.  An outer box of one axis, ``((a, b),)``, makes
    the integral 3-d: ``f(s, u, v)``, by the same rule (``spec`` on s, 10x
    and 100x tighter on u and v).  The evaluation
    budget (``spec.max_evals``) is shared by all levels; exhausting it yields
    the best estimate with ``converged=False``.
    """
    return _integrate(f, (tuple(outer_box), tuple(inner_box)), spec)
