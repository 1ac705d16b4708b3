"""Deterministic adaptive Gauss-Kronrod quadrature in 2, 3 and 4 dimensions.

Each axis runs an embedded Gauss-Kronrod pair: G10/K21 on both axes of a
2-d integral, G7/K15 on every axis of the nested 3- and 4-d ones, where
each outer node costs a whole inner integral (``_RULES``).  One axis is
integrated by globally adaptive bisection: the interval with the largest
local error estimate ``|G - K|`` is split first, ties broken by the
leftmost interval, until the sums over the current partition meet the
tolerance.  Those sums, the ones the last convergence test read, are the
value and error returned.  Each is a plain sum of the partition's panels
in slot order: the panels of the start partition left to right, then the
order the bisections created them in.  The result is a pure function of
the inputs: repeat runs are bit-identical, and batched evaluation cannot
change the reduction order.

Every integral runs through one adaptive core, which advances a block of
independent integrations ("rows") in lockstep.  Each row keeps its own
partition as panel records [value | error | right | left | priority]; each
round, every unconverged row bisects its own worst panel, exactly as a
one-row driver would, and the new nodes of all rows go to the integrand in
one call.  A row's numbers therefore do not depend on the other rows of its
block.  The axes of a pair are nested: the inner axis is integrated for all
nodes of an outer panel at once.  A further group (the inner pair of the 3-
and 4-d cases) is integrated for every point of the outer group; these inner
integrals run as the rows of blocks of ``_BLOCK_ROWS``.  The inner axis of
a pair runs at 10x tighter tolerance than its outer axis, and a further
group at 3x (``_GROUP_TIGHTENING``) tighter than the last axis outside it:
(tol, tol/10) in 2-d, (tol, tol/3, tol/30) in 3-d and (tol, tol/10, tol/30,
tol/300) in 4-d.  The error estimate of an iterated integral is the outer
``|G - K|`` sum plus a Kronrod-weighted bound on the accumulated inner
error.  Kronrod nodes are strictly interior, so integrands defined on open
intervals are never evaluated at the endpoints.

An integral starts from the one panel of its interval, except the inner
integral of a pair's outer split round.  That one starts, row by row, from
the partition that the split panel's inner integral ended on, built over
the same inner range for outer nodes that span both halves; the new
integral still refines it against its own tolerance, and the P - 1
bisections that made its P panels count against ``max_subdivisions``.  The
rows of a block may start from partitions of different sizes; they still
run as one inner integration, one integrand call per round, and each row
takes the bisections it would take alone.

Each round of a pair is one tensor step: one integrand call on the outer
nodes times each row's inner start partition (the one inner panel in the
first round, the seeded partition in a split round).  The inner sums are
taken from that grid, and in the first round the outer sums too, with the
same products in the same slot order as every other round.  Every axis,
the outer axis of a pair included, runs in one ``_start`` call, which makes
its first integrand call, tests it and then bisects; a one-panel start
takes its node grid from a cache (``_panel``).  If every row's sums meet
its tolerance on its start partition, ``_start`` returns them and builds no
partition.  Else every row's start panels become the first records of
its partition: a row that met its tolerance is not bisected (its panels sit
at priority -inf, as those of a row done later do), and the others bisect
from the sums already tested, so no value is computed twice.  A pair keeps
no inner partition for an outer panel whose inner integrals ended on their
one panel.  A 2-d integral whose first panel meets both tolerances makes
one integrand call, on a 21 x 21 grid.

An evaluation budget is checked between rounds, by one rule at every
level: once it is out, no axis starts another round, and the round in
flight finishes.  Every integral that starts takes its first round, so the
inner integrals of an outer round in flight that had not started still run
their first round only.  ``converged`` speaks of tolerances only: it is
True exactly when every integral met its tolerance, whether or not the
count reached the budget.

Integrands are numpy-broadcasting callables ``f(*coords)``, such as the
kernels of :func:`densbrackets.expressions.compile_expr`: every coordinate,
outer ones included, arrives as an array, and the result may be anything
that broadcasts against them (a Python float included).  The quadrature
leaf copies it to a C-ordered array on the full node grid, so the form of
the result does not change any sum.  An integrand must not write into its
coordinates: a one-panel start's node grid is shared, read-only, by every
integral that starts there.  Any NaN or infinity aborts the
integration with every coordinate of the offending point reported; a panel
sum that is not finite although every value was raises
:class:`DivergentIntegralError`.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

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


class _Rule(NamedTuple):
    """An embedded Gauss-Kronrod pair on [-1, 1]: the Kronrod nodes,
    ascending, their weights, and the Gauss weights at the same positions
    (0 at the Kronrod-only nodes, which are the even positions).  A rule
    hashes by identity, as a key of ``_panel``'s cache."""

    nodes: np.ndarray
    kronrod: np.ndarray
    gauss: np.ndarray

    __hash__ = object.__hash__


def _rule(nodes, kronrod, gauss) -> _Rule:
    """The rule from its nodes >= 0 and their Kronrod weights, each from the
    outermost node in to 0, and the Gauss weights in the same order (the
    Gauss nodes are the 2nd, 4th, ... of ``nodes``), mirrored to [-1, 1]."""
    nodes, kronrod = np.array(nodes), np.array(kronrod)
    embedded = np.zeros(len(nodes))
    embedded[1::2] = gauss
    return _Rule(
        np.concatenate([-nodes[:-1], nodes[::-1]]),
        np.concatenate([kronrod[:-1], kronrod[::-1]]),
        np.concatenate([embedded[:-1], embedded[::-1]]),
    )


# The G7/K15 and G10/K21 pairs.  Each was derived from the Legendre
# polynomial P7 or P10 and its Stieltjes extension by 50-digit moment
# matching (mpmath); the G10/K21 values agree with QUADPACK's qk21 (Piessens
# et al., Springer 1983) to every digit shown.
_GK15 = _rule(
    (
        0.991455371120812639,
        0.949107912342758525,
        0.864864423359769073,
        0.741531185599394440,
        0.586087235467691130,
        0.405845151377397167,
        0.207784955007898468,
        0.0,
    ),
    (
        0.0229353220105292250,
        0.0630920926299785533,
        0.104790010322250184,
        0.140653259715525919,
        0.169004726639267903,
        0.190350578064785410,
        0.204432940075298892,
        0.209482141084727828,
    ),
    (
        0.129484966168869693,
        0.279705391489276668,
        0.381830050505118945,
        0.417959183673469388,
    ),
)
_GK21 = _rule(
    (
        0.995657163025808081,
        0.973906528517171720,
        0.930157491355708226,
        0.865063366688984511,
        0.780817726586416897,
        0.679409568299024406,
        0.562757134668604683,
        0.433395394129247191,
        0.294392862701460198,
        0.148874338981631211,
        0.0,
    ),
    (
        0.0116946388673718743,
        0.0325581623079647275,
        0.0547558965743519960,
        0.0750396748109199528,
        0.0931254545836976055,
        0.109387158802297642,
        0.123491976262065851,
        0.134709217311473326,
        0.142775938577060081,
        0.147739104901338491,
        0.149445554002916906,
    ),
    (
        0.0666713443086881376,
        0.149451349150580593,
        0.219086362515982044,
        0.269266719309996355,
        0.295524224714752870,
    ),
)


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budgets for one integration call.

    ``max_subdivisions`` limits the number of bisections per axis and
    integration; ``max_evals`` (optional) caps the total number of
    evaluations across all nesting levels (integrand values plus the inner
    integrals fed to outer levels).  The cap is checked between rounds: the
    round in flight finishes, so the count may overshoot it by one round of
    the rows of one block (the first round of a seeded inner integral
    evaluates each row's whole start partition), plus the first rounds of
    the integrals that start after the budget ran out.  A result is
    converged if every integral met its tolerance, budget or not.

    The tolerances are real numbers and the counts integers (a numpy scalar
    will do, a ``bool`` will not); they are stored as ``float`` and ``int``.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    max_evals: int | None = None

    def __post_init__(self):
        # each message starts with the name of the field it is about
        positive = "must be positive and finite"
        for name, kind, ok, rule in (
            ("abs_tol", float, lambda x: 0.0 < x < np.inf, positive),
            ("rel_tol", float, lambda x: 0.0 < x < np.inf, positive),
            ("max_subdivisions", int, lambda n: n >= 1, "must be >= 1"),
            ("max_evals", int, lambda n: n >= 15,
             "must allow at least one G7/K15 panel (15 evaluations)"),
        ):
            value = getattr(self, name)
            if value is None and name == "max_evals":
                continue  # no budget
            if kind is float:
                abc, what = numbers.Real, "a number"
            else:
                abc, what = numbers.Integral, "an integer"
            if not isinstance(value, abc) or isinstance(value, bool):
                raise QuadratureError(f"{name} must be {what}, got {value!r}")
            try:
                stored = kind(value)
            except OverflowError:  # an integer too large for a double
                stored = math.inf
            if not ok(stored):
                raise QuadratureError(f"{name} {rule}, got {value!r}")
            object.__setattr__(self, name, stored)

    def tightened(self, factor: float, rel_factor: float | None = None) -> "QuadSpec":
        """``abs_tol / factor`` and ``rel_tol / rel_factor`` (by default
        ``factor``), each kept between the smallest and the largest positive
        double.  An integral whose result will be multiplied by c runs at
        ``tightened(c, 1.0)``, so that ``abs_tol`` holds on the product."""
        rel_factor = factor if rel_factor is None else rel_factor
        tiny, huge = math.ulp(0.0), sys.float_info.max
        abs_tol = min(max(self.abs_tol / factor, tiny), huge)
        rel_tol = min(max(self.rel_tol / rel_factor, tiny), huge)
        return replace(self, abs_tol=abs_tol, rel_tol=rel_tol)


_DEFAULT_SPEC = QuadSpec()


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    n_evals: int
    converged: bool

    def scaled(self, factor: float) -> "QuadResult":
        """The result of ``factor`` times the integrand."""
        return QuadResult(
            factor * self.value, factor * self.error_estimate, self.n_evals, self.converged
        )


class _Run:
    """State shared by every level of one integration.

    ``rule`` is the Gauss-Kronrod pair of every axis; ``used`` counts
    evaluations against the budget ``limit``; ``converged`` is cleared by
    any integral, at any level, that stops short of its tolerance, and by
    nothing else.
    """

    __slots__ = ("rule", "used", "limit", "converged")

    def __init__(self, limit: int | None, rule: _Rule):
        self.rule = rule
        self.used = 0
        self.limit = limit
        self.converged = True

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.used >= self.limit


# Outer points of the 3- and 4-d cases run their inner integrals in blocks
# of this many rows.  The three Gaussian leaf-patch areas at tolerance 1e-3
# take 21-22 ms in 3-d with 16, 32 and 64 rows (8 rows: 24 ms).  Through
# the 4-d core they take 1.1 s with 16 rows, 0.9-1.0 s with 32 and 64 rows
# and 1.5 s with 8, while the peak memory of 34 MB at 16 rows grows by 3.0
# and 7.6 MB at 32 and 64 (one process per size, 2-core Xeon).
_BLOCK_ROWS = 16

# The inner sphere pair of the 3- and 4-d cases runs this many times tighter
# than the axis outside it; within a pair the factor is 10.  At tolerance
# 1e-3 the three Gaussian leaf-patch areas take 263,805 evaluations with 3,
# against 349,245 with 10, 303,105 with 5 and 253,845 with 2, and each
# stays inside its estimate.  The 4-d arccos(theta + s*t/4) patch takes
# 17.1M with 3 and 24.5M with 10, but 45.0M with 1, so 3 keeps a margin
# from that cliff.
_GROUP_TIGHTENING = 3.0

# The rule of an integral, by its number of groups of axes: a 2-d integral
# (one pair) runs G10/K21 on both axes, the nested 3- and 4-d ones G7/K15.
# On the 2,016 seed-1 stream brackets (tol 1e-10) G10/K21 takes 5,097,918
# evaluations against 6,558,390 (seed 7: 5,059,950 against 6,369,930) and
# 0.78-0.80 of the time, in alternating in-process passes; on the outer
# axis alone it saves 12.7% and on the inner alone 6.4%.  Nested, every
# outer node costs a whole inner integral, so the node grid grows as n^3 or
# n^4: G10/K21 everywhere takes gauss-area from 263,805 to 670,257
# evaluations and 1.98x the time, K21 on the 3-d s-axis alone costs it
# +33%, and the paper's three areas at tol 1e-7 take 1.30x the time.  A
# one-panel 2-d integral takes 462 evaluations instead of 240.
_RULES = {1: _GK21, 2: _GK15}

# Integrand protocol: f(*coords) -> values that broadcast against the coords.
_Integrand = Callable[..., np.ndarray]

# One axis's integrand over a block of rows: f(x, live, edges, outer) takes
# the nodes x[i, n] of the live rows (an index array or a slice) on the
# panels between consecutive edges[i] and returns (values, aux) of shape
# (len(x), k, n): k components per row, all on the row's partition.  aux is
# None or the absolute error carried by the values (the error estimates of
# inner integrals, propagated outward).  ``outer`` holds the coordinates of
# the enclosing axes, each [rows, 1] or [rows, k] over all rows of the axis.
_RowIntegrand = Callable[
    [np.ndarray, "np.ndarray | slice", np.ndarray, tuple[np.ndarray, ...]],
    tuple[np.ndarray, np.ndarray | None],
]


def _nodes(edges: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rule's ``nodes`` on the panels between consecutive ``edges``
    [rows, h + 1], [rows, h * n], and the panels' half-widths [rows, h, 1]."""
    lo, hi = edges[:, :-1], edges[:, 1:]
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, nodes) + (0.5 * (lo + hi))[..., None]
    return x.reshape(len(x), -1), half[..., None]


@functools.lru_cache(maxsize=64)
def _panel(a: float, b: float, rows: int, rule: _Rule):
    """The one panel [a, b] of each of ``rows`` rows: its edges [rows, 2],
    then its ``_nodes``.  Built on first use and shared, read-only, by every
    integral that starts there."""
    edges = np.array([[a, b]] * rows)
    x, half = _nodes(edges, rule.nodes)
    edges.flags.writeable = x.flags.writeable = half.flags.writeable = False
    return edges, x, half


def _sums(
    values: np.ndarray, aux: np.ndarray | None, half: np.ndarray, rule: _Rule
) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Kronrod pair ``rule`` on panels of half-widths ``half``
    ([rows, h, 1], or one for all), from ``values`` [rows, k, h * n] at their
    nodes.

    Returns (value, error), each [rows, h, k]; the error is |G - K| plus the
    inner integrals' errors ``aux``, Kronrod-weighted, if any.  Each row and
    panel gets its own product over its k components, the BLAS call of a
    one-row driver, so a row's sums do not depend on the other rows.
    """
    _, kronrod, gauss = rule
    shape = values.shape[:2] + (-1, len(kronrod))
    chunks = values.reshape(shape).transpose(0, 2, 1, 3)
    value = half * (chunks @ kronrod)
    err = np.abs(value - half * (chunks @ gauss))
    if aux is not None:
        err += half * (np.abs(aux).reshape(shape).transpose(0, 2, 1, 3) @ kronrod)
    return value, err


def _evaluate(
    f: _RowIntegrand, edges: np.ndarray, live, run: _Run, outer: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The run's pair on the panels between consecutive ``edges``
    [rows, h + 1] of the live rows, with a single f call (see ``_sums``)."""
    x, half = _nodes(edges, run.rule.nodes)
    values, aux = f(x, live, edges, outer)
    run.used += values.size
    return _sums(values, aux, half, run.rule)


def _records(value: np.ndarray, error: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The records [value | error | right | left | priority] of panels
    [rows, h, k], slot-major: records[s, i] is panel s of row i.  The
    priority is the panel's largest error over its k components."""
    columns = [value, error, edges[:, 1:, None], edges[:, :-1, None], error.max(2)[..., None]]
    return np.concatenate(columns, 2).transpose(1, 0, 2)


def _check_records(panels, sums, k, outer) -> None:
    """Raise :class:`DivergentIntegralError` at a panel of the first row
    whose [value | error] sums are not finite: its first panel whose value
    or error is not finite, else (the sums overflowed) its panel of largest
    value.  Every integrand value was finite.  ``outer`` holds the outer
    coordinates of each row, [rows, 1] or [rows, k] (one per component)."""
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
    point = [c[row, col % k if c.shape[1] > 1 else 0] for c in outer] + [mid]
    raise DivergentIntegralError(tuple(map(float, point)))


def _met(value: np.ndarray, error: np.ndarray, spec: QuadSpec) -> np.ndarray:
    """Per row: does every component meet the tolerance?"""
    ok = error <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))
    return ok[:, 0] if ok.shape[1] == 1 else np.logical_and.reduce(ok, 1)


def _start(
    f: _RowIntegrand,
    a: float,
    b: float,
    spec: QuadSpec,
    run: _Run,
    rows: int,
    outer: tuple[np.ndarray, ...],
    start: list[list[float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Globally adaptive integration over (a, b) of ``rows`` independent
    integrations, advanced in lockstep with one ``f`` call per round.

    Row i starts from the P_i panels between its edges ``start[i]`` (each
    from ``a`` to ``b``; the sizes may differ), or from the one panel [a, b]
    without ``start``.  The first round evaluates every start panel of every
    row in one call, laid out [rows, p, k] if every row starts from p panels
    (``place`` is None), else one panel of ``start`` per row, [panels, 1,
    k], at the (slot, row) ``place``.  Each row's sums are those of its
    start panels in slot order; with P = max P_i, row i's start panels take
    slots P - P_i .. P - 1, and value and error -0.0 in the slots before
    them, which add nothing to its sums (x + -0.0 == x).  A row whose sums
    meet the tolerance is done; so is every row once the budget is out.

    Then every row's start panels become the first records (``_records``)
    of its partition, ``panels[slot, row]``, and the rows not done bisect,
    from the sums already tested.  The start panels count as P_i - 1
    bisections against ``max_subdivisions``, so a row never holds more than
    ``max_subdivisions + 1`` panels.  Every round, each unconverged row
    bisects its worst splittable panel (largest priority, the leftmost on
    ties).  A budget that runs out stops the loop after the round in flight.
    After each round, a row whose panel sums meet the tolerance is done; no
    running total is kept, so that one huge panel cannot absorb the others.
    ``outer`` holds the coordinates of the enclosing axes, for ``f`` and
    error reports.

    Returns per-component (value, error_estimate), each [rows, k]: the sums
    that the row's last convergence test read, so ``converged`` speaks of
    the numbers returned.  The third is None if every row ended on its start
    partition; else it holds the left edges of each row's final panels in
    slot order, [slots, rows], with inf in slots a row never filled.
    """
    place = sizes = None
    if start is None:
        edges, x, half = _panel(a, b, rows, run.rule)
        values, aux = f(x, slice(None), edges, outer)
        run.used += values.size
        value, error = _sums(values, aux, half, run.rule)
    elif all(len(e) == len(start[0]) for e in start):
        edges = np.array(start)  # every row starts from p panels
        value, error = _evaluate(f, edges, slice(None), run, outer)
    else:
        # each start panel is a one-panel row of its own in the first round,
        # and takes the (slot, row) ``place`` in the records
        sizes = [len(e) - 1 for e in start]
        p = max(sizes)
        place = (
            [s for size in sizes for s in range(p - size, p)],
            [i for i, size in enumerate(sizes) for _ in range(size)],
        )
        edges = np.array([e[j : j + 2] for e in start for j in range(len(e) - 1)])
        value, error = _evaluate(f, edges, np.array(place[1]), run, outer)
    k = value.shape[2]
    records = None
    if place is None and value.shape[1] == 1:
        # one start panel per row, whose numbers are its sums; a value that
        # is not finite makes its error not finite
        tv, te = value[:, 0], error[:, 0]
        finite = math.isfinite(te.sum())
    else:
        if sizes is None:
            # each row's panels in slot order, as the records would sum them:
            # with 2k >= 2 columns innermost, numpy adds slot after slot
            total = np.concatenate([value, error], 2).sum(1)
        else:
            records = _blank(p, rows, k)
            records[..., : 2 * k] = -0.0
            records[place] = _records(value, error, edges)[0]
            total = records[..., : 2 * k].sum(0)
            # (a sum of one panel would turn -0.0 into 0.0)
            single = [i for i, size in enumerate(sizes) if size == 1]
            total[single] = records[-1, single, : 2 * k]
        finite = math.isfinite(total.sum())
        tv, te = total[:, :k], total[:, k:]
    if not finite:
        panels = _records(value, error, edges) if records is None else records
        _check_records(panels, np.concatenate([tv, te], 1), k, outer)
    done = _met(tv, te, spec)
    converged = int(np.count_nonzero(done))
    if converged == rows or run.exhausted:
        run.converged = run.converged and converged == rows
        return tv, te, None

    # Every row's start panels enter the partition; a row that met its
    # tolerance there is done, at priority -inf like a row done later.
    if records is None:  # only a ragged start has built them
        records, total = _records(value, error, edges), np.concatenate([tv, te], 1)
    records[:, done, -1] = -np.inf
    p = len(records)
    # The partition: a split's left half keeps its panel's slot and the
    # right half of round r takes slot r.  Unused slots have left = inf; done
    # rows, rows out of bisections, and panels found too narrow to bisect
    # have priority -inf.
    panels = _blank(max(8, 2 * p), rows, k)
    panels[:p] = records
    index = np.arange(rows)
    r = p - 1  # every live row i has split r - (p - P_i) times

    limit = spec.max_subdivisions
    while not run.exhausted:
        if r >= limit:
            if sizes is None:
                break
            out = [i for i, size in enumerate(sizes) if r - p + size >= limit]
            panels[:, out, -1] = -np.inf
        priority = panels[..., -1]
        worst = np.maximum.reduce(priority, 0)
        # a non-finite priority stops its row; the final sums report it
        go = np.isfinite(worst)
        n = np.count_nonzero(go)
        if not n:
            break
        live = slice(None) if n == rows else np.flatnonzero(go)
        i = index[live]
        top = priority[:, live] == worst[live]
        slot = np.where(top, panels[:, live, -2], np.inf).argmin(0)
        hi, lo = panels[slot, i, -3:-1].T
        edges = np.array((lo, 0.5 * (lo + hi), hi)).T
        if not (edges[:, 1:] > edges[:, :-1]).all():
            narrow = (edges[:, 1:] <= edges[:, :-1]).any(1)
            panels[slot[narrow], i[narrow], -1] = -np.inf
            continue
        left, right = _records(*_evaluate(f, edges, live, run, outer), edges)
        r += 1
        if r == len(panels):
            panels = np.concatenate([panels, _blank(r, rows, k)])
        panels[slot, i] = left
        panels[r, live] = right
        # test the sums of each live row's partition (and its -0.0 pads)
        sums = total[live] = np.add.reduce(panels[: r + 1, live, : 2 * k], 0)
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


def _blank(cap: int, rows: int, k: int) -> np.ndarray:
    """``cap`` slots of unused records of k components: left = inf, priority = -inf."""
    panels = np.empty((cap, rows, 2 * k + 3))
    panels[..., -2:] = np.inf, -np.inf
    return panels


# -- the iterated core -----------------------------------------------------------

Interval = tuple[float, float]
Box2D = tuple[Interval, Interval]


def _iterated(
    g: _Integrand,
    groups: tuple[tuple[Interval, ...], ...],
    specs: tuple[tuple[QuadSpec, ...], ...],
    run: _Run,
    fixed: tuple[np.ndarray, ...],
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterated integrals of ``g(*fixed, *coords)`` over nested groups of
    axes, one per row of the ``fixed`` coordinate columns [rows, 1].

    ``groups[0]`` holds one axis or a pair; a pair's inner axis is integrated
    for all nodes of an outer panel at once.  Every point of ``groups[0]``
    runs one integral over ``groups[1:]``; these run in blocks of
    ``_BLOCK_ROWS`` rows, and once the budget is out, each block still to
    run takes its first round only.  ``specs`` holds one spec per axis,
    group by group.  Returns per-row (value, error_estimate).

    Each round of a pair is one tensor step: one call of the integrand on
    the outer nodes times each row's inner start partition, from which the
    inner sums, and in the first round the outer sums too, are taken.  A
    pair keeps the inner partition that each row's outer panels ended on and
    starts each row's inner integral of a split round from its split
    panel's.  The live rows run one inner integration, whose rows start from
    partitions of different sizes and each take the bisections they would
    take alone.
    """

    def leaf(coords):
        if len(groups) > 1:
            # the integrals over groups[1:] at every point of the coords
            grid = np.broadcast_arrays(*coords)
            points = [c.reshape(-1, 1) for c in grid]
            value = np.empty(len(points[0]))
            error = np.empty_like(value)
            for start in range(0, value.size, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                fixed = tuple(c[block] for c in points)
                value[block], error[block] = _iterated(
                    g, groups[1:], specs[1:], run, fixed, len(fixed[0])
                )
            return value.reshape(grid[0].shape), error.reshape(grid[0].shape)
        shape = np.broadcast(*coords).shape
        values = np.asarray(g(*coords), dtype=float)
        # _sums depend on the memory layout: hand them a C-order grid
        if values.shape != shape or not values.flags.c_contiguous:
            values, result = np.empty(shape), values
            values[...] = result
        # a sum of finite values can overflow; only then look at each value
        if not math.isfinite(values.sum()) and not np.isfinite(values).all():
            idx = tuple(np.argwhere(~np.isfinite(values))[0])
            raise NonFiniteIntegrandError(
                tuple(float(np.broadcast_to(c, values.shape)[idx]) for c in coords)
            )
        return values, None

    def last(x, live, _, outer):
        """The last axis: its nodes x after the outer coordinates."""
        return leaf([c[live, :, None] for c in outer] + [x[:, None, :]])

    (lo, hi), *inner = groups[0]
    if inner:
        ((vlo, vhi),) = inner
        # the final inner partition (a list of edges) of each row's outer
        # panels, keyed by (row, left edge, right edge); none for a panel
        # whose inner integrals ended on the one panel [vlo, vhi]
        ends, whole = {}, [vlo, vhi]

        def step(u, live, edges, fixed):
            """The inner integrals at the outer nodes u of the live rows'
            panels between ``edges``: from [vlo, vhi] in the first round
            (two edges), from the split panel's partition in a split round
            (three)."""
            keyed = seeds = None  # (row, edges) of each live row of a split round
            if edges.shape[1] == 3:
                ids = range(rows)[live] if isinstance(live, slice) else live.tolist()
                keyed = list(zip(ids, edges.tolist()))
                seeds = [ends.pop((i, lo, hi), whole) for i, (lo, _, hi) in keyed]
            value, error, lefts = _start(
                last, vlo, vhi, specs[0][1], run, len(u),
                [c[live] for c in fixed] + [u], seeds,
            )
            partitions = seeds  # a row that ended on its start partition keeps it
            if lefts is not None:
                partitions = np.sort(lefts, 0).T.tolist()
                for partition in partitions:
                    if partition[-1] == math.inf:  # slots the row never filled
                        del partition[partition.index(math.inf) :]
                    partition.append(vhi)
            if partitions is not None:  # a first round runs every row on [lo, hi]
                for (i, row), partition in zip(keyed or enumerate([[lo, hi]] * rows), partitions):
                    ends.update(((i, lo, hi), partition) for lo, hi in zip(row, row[1:]))
            return value[:, None, :], error[:, None, :]

    value, error, _ = _start(step if inner else last, lo, hi, specs[0][0], run, rows, fixed)
    return value[:, 0], error[:, 0]


@functools.lru_cache(maxsize=64)
def _specs(spec: QuadSpec, groups) -> tuple[tuple[QuadSpec, ...], ...]:
    """One spec per axis, group by group: the inner axis of a pair 10x
    tighter than its outer axis, and the first axis of a group
    ``_GROUP_TIGHTENING`` times tighter than the last axis of the group
    outside it."""
    specs = []
    for group in groups:
        level = specs[-1][-1].tightened(_GROUP_TIGHTENING) if specs else spec
        specs.append((level, level.tightened(10.0))[: len(group)])
    return tuple(specs)


# float() reads text, and tuple() splits it into characters: neither is a
# box, an interval or an end
_TEXT = (str, bytes, bytearray)


def to_float(x) -> float:
    """``float(x)``; raises :class:`TypeError` for text, which ``float``
    would read (``'1e0'``) but which is not a number."""
    if isinstance(x, _TEXT):
        raise TypeError(f"{x!r} is text")
    return float(x)


def _sized(items, counts: tuple[int, ...], rule: str) -> tuple:
    """``items`` as a tuple, if their number is one of ``counts``."""
    if isinstance(items, _TEXT):
        raise QuadratureError(f"{rule}, got {items!r}, which is text")
    try:
        items = tuple(items)
    except TypeError:
        raise QuadratureError(f"{rule}, got {items!r}, which is not a sequence") from None
    if len(items) not in counts:
        raise QuadratureError(f"{rule}, got {len(items)}")
    return items


@functools.lru_cache(maxsize=64)
def _checked(groups) -> tuple[tuple[Interval, ...], ...]:
    """``groups`` with every interval checked, its ends as floats."""
    checked = []
    for group in groups:
        pairs = []
        for interval in group:
            ends = _sized(interval, (2,), "an interval has 2 ends")
            try:
                lo, hi = map(to_float, ends)
            except (TypeError, ValueError):
                raise QuadratureError(
                    f"the ends of an interval are numbers, got {ends!r}"
                ) from None
            # the core bisects at 0.5 * (lo + hi) and scales by 0.5 * (hi - lo)
            if not (lo < hi and math.isfinite(hi - lo) and math.isfinite(lo + hi)):
                raise QuadratureError(f"invalid interval ({lo!r}, {hi!r})")
            pairs.append((lo, hi))
        checked.append(tuple(pairs))
    return tuple(checked)


def _integrate(
    f: _Integrand,
    groups: tuple[tuple[Interval, ...], ...],
    spec: QuadSpec | None,
) -> QuadResult:
    """Public entry: check the intervals and run the core on ``f``."""
    try:
        groups = _checked(groups)
    except TypeError:  # an unhashable interval (a list) is checked every time
        groups = _checked.__wrapped__(groups)
    spec = spec or _DEFAULT_SPEC
    run = _Run(spec.max_evals, _RULES[len(groups)])
    # panel sums may overflow on a divergent integrand; that raises
    # DivergentIntegralError, not a warning
    with np.errstate(all="ignore"):
        value, err = _iterated(f, groups, _specs(spec, groups), run, (), 1)
    return QuadResult(float(value[0]), float(err[0]), run.used, run.converged)


def integrate_2d(
    f: _Integrand, box: Box2D, spec: QuadSpec | None = None
) -> QuadResult:
    """Iterated adaptive integral over a rectangle, with G10/K21 on both
    axes.

    Outer integration runs over the first box axis, inner over the second,
    with the inner tolerance tightened by a factor of 10.  The error estimate
    is the outer |G - K| sum plus the accumulated inner estimates.
    """
    return _integrate(f, (_sized(box, (2,), "a 2-d box has 2 axes"),), spec)


def integrate_4d(
    f: _Integrand,
    outer_box: tuple[Interval, ...],
    inner_box: Box2D,
    spec: QuadSpec | None = None,
) -> QuadResult:
    """Iterated 4-d integral: adaptive 2-d over the outer box whose integrand
    is an adaptive 2-d integral over the inner box, with G7/K15 on every
    axis.  The inner axis of each pair runs at 10x tighter tolerance than
    its outer axis, and the inner box at 3x tighter than t: ``spec`` on s,
    10x tighter on t, 30x and 300x on u and v.

    ``f(s, t, u, v)`` takes the outer coordinates first and broadcasts over
    arrays in all four: a block of outer points arrives as ``s``, ``t`` of
    shape ``(rows, 1, 1)``, with ``u`` of shape ``(rows, n, 1)`` and ``v`` of
    shape ``(rows, 1, m)``.  An outer box of one axis, ``((a, b),)``, makes
    the integral 3-d: ``f(s, u, v)``, by the same rule (``spec`` on s, 3x
    and 30x tighter on u and v).  The evaluation
    budget (``spec.max_evals``) is shared by all levels; exhausting it yields
    the best estimate, with ``converged=False`` if it cut an integral short
    of its tolerance.
    """
    outer_box = _sized(outer_box, (1, 2), "the outer box has 1 or 2 axes")
    inner_box = _sized(inner_box, (2,), "the inner box has 2 axes")
    return _integrate(f, (outer_box, inner_box), spec)
