"""Shared test helpers: value-equality checks, random expression trees and
the 1-d quadrature core."""

from __future__ import annotations

import random

import pytest

from densbrackets import quadrature
from densbrackets.expressions import (
    BinOp,
    Call,
    Const,
    Expr,
    ExpressionError,
    NamedConst,
    Var,
    evaluate,
)

# Functions of the surface grammar, grouped by how gentle they are for
# numerical work.  SMOOTH_FUNCTIONS avoid kinks and runaway growth and are
# used for finite-difference checks; TREE_FUNCTIONS exercise the full
# grammar for parse/print round-trips.
SMOOTH_FUNCTIONS = ("sin", "cos", "exp", "arctan", "erf", "sqrt", "ln", "besseli0")
TREE_FUNCTIONS = SMOOTH_FUNCTIONS + ("tan", "abs", "arcsin", "arccos")


def assert_value_equal(
    e1: Expr,
    e2: Expr,
    variables: tuple[str, ...],
    *,
    points: int = 100,
    rel: float = 1e-10,
    rng: random.Random | None = None,
    low: float = -2.0,
    high: float = 2.0,
):
    """Assert e1 == e2 at ``points`` random bindings where both are defined."""
    rng = rng or random.Random(20240517)
    checked = 0
    attempts = 0
    while checked < points:
        attempts += 1
        assert attempts < 50 * points, "could not find enough in-domain points"
        b = {v: rng.uniform(low, high) for v in variables}
        try:
            v1 = evaluate(e1, b)
            v2 = evaluate(e2, b)
        except ExpressionError:
            continue
        assert v1 == pytest.approx(v2, rel=rel, abs=1e-12), f"mismatch at {b}"
        checked += 1


def random_expr(
    rng: random.Random,
    depth: int,
    variables: tuple[str, ...],
    functions: tuple[str, ...] = TREE_FUNCTIONS,
    gentle: bool = False,
) -> Expr:
    """A random tree.  With ``gentle=True``, guards keep compositions smooth
    and bounded (for finite-difference comparisons): no bare divisions by
    sign-changing expressions, sqrt/ln arguments bounded away from zero."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.5 and variables:
            return Var(rng.choice(variables))
        if r < 0.85:
            return Const(round(rng.uniform(-3.0, 3.0), 3))
        return NamedConst(rng.choice(("pi", "e")))
    if rng.random() < 0.4:
        fn = rng.choice(functions)
        child = random_expr(rng, depth - 1, variables, functions, gentle)
        if gentle:
            if fn in ("sqrt", "ln"):
                # strictly positive, derivative-friendly argument
                child = BinOp(
                    "+", Const(1.5), BinOp("*", Const(0.25), Call("sin", child))
                )
            elif fn == "exp":
                child = BinOp("*", Const(0.4), Call("arctan", child))
            elif fn == "besseli0":
                child = Call("sin", child)
        return Call(fn, child)
    op = rng.choice("+-*/^" if not gentle else "+-**/")
    left = random_expr(rng, depth - 1, variables, functions, gentle)
    right = random_expr(rng, depth - 1, variables, functions, gentle)
    if op == "^":
        right = Const(float(rng.randint(1, 3)))
    if op == "/":
        # keep the denominator away from zero
        right = BinOp("+", Const(2.0), Call("sin", right))
    return BinOp(op, left, right)


def integrate_1d(f, a, b, spec=None):
    """The adaptive core on one axis: a broadcasting ``f`` over (a, b)."""
    return quadrature._integrate(f, (((a, b),),), spec)
