"""Independent high-precision oracles shared by the test modules.

Everything numeric here is derived from defining series or closed forms in
mpmath 50-digit arithmetic (or the math module where exact), never from the
package under test.  Frozen constants are reproduced by the functions below;
a test in test_specials.py guards that correspondence.  :func:`raw_diff` is
a reference differentiator over the package's tree nodes: the textbook rules
applied literally, with no rewriting but one, the zero quotient rule of
``densbrackets.expressions.diff``.  :func:`bessel_series_per_term` is the
package's I0/I1 array series with its stopping test after every term, the
reference for the bits of the package's version, which tests less often.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from densbrackets.expressions import PI, BinOp, Call, Const, Expr, NamedConst, Var, simplify

mpmath.mp.dps = 50


def erf_oracle(x: float) -> float:
    """erf by its Maclaurin series, working precision scaled to absorb the
    ~e^(x^2) cancellation of the alternating terms."""
    extra = int(0.9 * x * x) + 50
    with mpmath.workdps(extra):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = xm
        n = 0
        while True:
            contrib = term / (2 * n + 1)
            total += contrib
            if abs(contrib) < mpmath.mpf(10) ** (-extra + 5) * (1 + abs(total)):
                break
            n += 1
            term *= -xm * xm / n
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


def besseli_oracle(order: int, x: float) -> float:
    """I_nu by the ascending series sum_k (x/2)^(2k+nu) / (k! (k+nu)!)."""
    xm = mpmath.mpf(x) / 2
    total = mpmath.mpf(0)
    k = 0
    while True:
        term = xm ** (2 * k + order) / (
            mpmath.factorial(k) * mpmath.factorial(k + order)
        )
        total += term
        if k > 3 and abs(term) < mpmath.mpf(10) ** -45 * (1 + abs(total)):
            break
        k += 1
    return float(total)


def bessel_series_per_term(x, order: int) -> np.ndarray:
    """I0 (order 0) or I1 (order 1) elementwise by the ascending series in
    doubles, stopped at the first term after which every term/sum ratio is
    at most 1e-17."""
    x = np.asarray(x, dtype=float)
    x2 = 0.25 * x * x
    if order == 0:
        term = np.ones_like(x2)
    else:
        term = 0.5 * x.copy()
    total = term.copy()
    k = 1
    while True:
        if order == 0:
            term = term * x2 / (k * k)
        else:
            term = term * x2 / (k * (k + 1))
        total += term
        denom = np.maximum(np.abs(total), 1e-300)
        if not (np.abs(term) / denom > 1e-17).any():
            return total
        k += 1


# Spot values produced by the oracles above.
# erf evaluated at the double nearest sqrt(2)/2 (as the expression grammar does)
ERF_SQRT2_OVER_2 = 0.682689492137086
TWO_OVER_SQRT_PI = 1.1283791670955126  # d erf / dx at 0
I0_AT_1 = 1.2660658777520084
I1_AT_1 = 0.565159103992485
I0_AT_1_SQUARED = 1.6029228068079633
TWO_PI_I0_AT_1 = 7.954926521012846  # integral of e^cos over a period

# Closed forms used by the quadrature and bracket tests.
ONE_MINUS_EXP_MINUS_HALF = 0.3934693402873666  # int_0^1 x e^(-x^2/2)
SQUARE_ROW3 = 0.6036720256563315  # 3 (sin 2 - sin^2 1)
SQUARE_ROW5 = 0.8458930796971276  # 8 (1 - e^(-1/2))^2 / (pi erf(sqrt2/2)^2)
TORUS_ROW3 = 10854.588930917726  # 3 (e^(2 pi) - 1)^2 / (8 pi^2)
FOUR_PI_SQUARED = 39.47841760435743

# Sphere "exponential density" row: bracket = -3 I / (8 pi^2 c) with
# c = (1/2pi) int_0^pi e^(-cot(t/2)) sin t dt and
# I = int_0^pi sin^2 t cos t e^(-cot(t/2)) dt (mpmath tanh-sinh, dps 30).
SPHERE_EXP_MASS_CONST = 0.12049632702432944
SPHERE_ROW3 = 0.05034986903738783

# Gaussian-density leaf patch (flow maps arccos(theta+s), phi+t over
# [pi/4, 3pi/4]^2).  Derived by the phi/t reduction
#   area = |I2| * int_I1 (1/(2c)) int_0^pi W(theta) E((theta+s)) dtheta ds,
#   E(u) = exp(-b) I0(b), b = ((1+u)/(1-u))^2 / 8;
# the two areas are reproduced by gauss_area_oracle below.
GAUSS_MASS_CONST_MEASURE = 0.7082398710282988  # with sin(theta) weight
GAUSS_MASS_CONST_LITERAL = 1.0187855104944141  # plain dtheta dphi
GAUSS_AREA_MEASURE = 2.1737326966049421
GAUSS_AREA_LITERAL = 3.3009295487041389
GAUSS_INNER_MEASURE_AT_HALF_PI = 0.8984723978938014  # s = t = pi/2
GAUSS_INNER_LITERAL_AT_HALF_PI = 1.3649156435247580
# The same density under the rotation flow (theta, phi + t): the inner
# integral is the density's literal mass at every (s, t), so the literal area
# is (pi/2)^2 c_literal / c_measure; see gauss_masses_oracle.
GAUSS_ROTATION_AREA_LITERAL = 3.5492953621570305

# Sphere mass of exp(-1e4 sin(2 phi + 0.3)^2): e^-5000 I0(5000).  Its four
# peaks in phi are about 0.01 wide.
SPIKY_SPHERE_MASS = 0.005642036898744589

# Reference values reported for the same quantities elsewhere.
REPORTED_GAUSS_MASS_CONST = 0.7082398710278981
REPORTED_GAUSS_AREA = 3.3009295509955767
REPORTED_SPHERE_ROW3 = 0.0503498


def gauss_area_oracle() -> dict[str, float]:
    """The Gaussian leaf-patch area in both weight modes, reduced to 1-d.

    The phi-integral is closed, int_0^2pi exp(-A sin^2(2 phi)) dphi =
    2 pi e^(-A/2) I0(A/2), with A = ((1+v)/(1-v))^2 / 4 and v = theta + s
    the cosine of the pulled-back polar angle; nothing depends on t.  For a
    given v, s runs over the overlap [lo, hi] of I1 with (v - pi, v), so the
    weight in v is hi - lo (literal mode) or int_lo^hi sin(v - s) ds =
    cos(v - hi) - cos(v - lo) (measure mode).  The density is divided by its
    mass c = (1/2) int_-1^1 e^(-A/2) I0(A/2) dv.  Tanh-sinh over the sorted
    breakpoints of the weight and of the pole v = 1.
    """
    pi = mpmath.pi
    lo1, hi1 = pi / 4, 3 * pi / 4

    def phi_integral(v):  # e^(-A/2) I0(A/2), without the 2 pi
        half_a = ((1 + v) / (1 - v)) ** 2 / 8
        return mpmath.exp(-half_a) * mpmath.besseli(0, half_a)

    def weight(v, mode):
        lo, hi = max(lo1, v - pi), min(hi1, v)
        if mode == "literal":
            return hi - lo
        return mpmath.cos(v - hi) - mpmath.cos(v - lo)

    c = mpmath.quad(phi_integral, [-1, 1]) / 2
    breaks = [pi / 4, 1, 3 * pi / 4, 5 * pi / 4, 7 * pi / 4]
    return {
        mode: float(
            (hi1 - lo1) / (2 * c)
            * mpmath.quad(lambda v: weight(v, mode) * phi_integral(v), breaks)
        )
        for mode in ("literal", "measure")
    }


def gauss_masses_oracle() -> tuple[mpmath.mpf, mpmath.mpf]:
    """The Gaussian density's mass (c_measure, c_literal): (1/4 pi) times
    its sphere integral with and without the sin(theta) weight.  The
    phi-integral is closed as in gauss_area_oracle, with A/2 =
    cot(theta/2)^4 / 8."""

    def phi_integral(theta):
        half_a = mpmath.cot(theta / 2) ** 4 / 8
        return mpmath.exp(-half_a) * mpmath.besseli(0, half_a)

    box = [0, mpmath.pi / 2, mpmath.pi]
    return tuple(
        mpmath.quad(lambda theta: w(theta) * phi_integral(theta), box) / 2
        for w in (mpmath.sin, lambda theta: 1)
    )


def check_closed_forms() -> None:
    """Recompute the frozen closed forms; raises AssertionError on drift."""
    assert SQUARE_ROW3 == float(3 * (mpmath.sin(2) - mpmath.sin(1) ** 2))
    assert FOUR_PI_SQUARED == float(4 * mpmath.pi**2)
    assert TORUS_ROW3 == float(3 * (mpmath.e ** (2 * mpmath.pi) - 1) ** 2 / (8 * mpmath.pi**2))
    assert ONE_MINUS_EXP_MINUS_HALF == float(1 - mpmath.exp(-0.5))
    assert SQUARE_ROW5 == float(
        8
        * (1 - mpmath.exp(mpmath.mpf(-1) / 2)) ** 2
        / (mpmath.pi * mpmath.erf(mpmath.sqrt(2) / 2) ** 2)
    )
    assert TWO_PI_I0_AT_1 == float(2 * mpmath.pi * mpmath.besseli(0, 1))
    assert math.isclose(ERF_SQRT2_OVER_2, erf_oracle(math.sqrt(2) / 2), rel_tol=0, abs_tol=1e-16)
    assert SPIKY_SPHERE_MASS == float(mpmath.exp(-5000) * mpmath.besseli(0, 5000))
    areas = gauss_area_oracle()
    assert GAUSS_AREA_LITERAL == areas["literal"]
    assert GAUSS_AREA_MEASURE == areas["measure"]
    c_measure, c_literal = gauss_masses_oracle()
    assert GAUSS_MASS_CONST_LITERAL == float(c_literal)
    assert GAUSS_ROTATION_AREA_LITERAL == float((mpmath.pi / 2) ** 2 * c_literal / c_measure)


# -- reference differentiation -------------------------------------------------


def raw_diff(expr: Expr, variable: str) -> Expr:
    """d expr / d variable as the raw tree of the sum, product, quotient,
    power and chain rules, with no rewriting but one: a quotient whose raw
    numerator u'v - uv' simplifies to 0, while v^2 does not simplify to a
    constant, has derivative 0.  Conventions as in
    ``densbrackets.expressions.diff``: d|u|/du = sign(u), d besseli0 =
    besseli1, and that quotient rule."""
    if isinstance(expr, (Const, NamedConst)):
        return Const(0.0)
    if isinstance(expr, Var):
        return Const(1.0 if expr.name == variable else 0.0)
    if isinstance(expr, BinOp):
        u, v = expr.left, expr.right
        du = raw_diff(u, variable)
        dv = raw_diff(v, variable)
        op = expr.op
        if op == "+":
            return BinOp("+", du, dv)
        if op == "-":
            return BinOp("-", du, dv)
        if op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if op == "/":
            num_ = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            square = BinOp("^", v, Const(2.0))
            if simplify(num_) == Const(0.0) and not isinstance(simplify(square), Const):
                return Const(0.0)
            return BinOp("/", num_, square)
        if op == "^":
            if isinstance(v, Const):
                # power rule: n u^(n-1) u'
                return BinOp(
                    "*",
                    BinOp("*", v, BinOp("^", u, Const(v.value - 1.0))),
                    du,
                )
            # general: u^v (v' ln u + v u'/u)
            bracket = BinOp(
                "+",
                BinOp("*", dv, Call("ln", u)),
                BinOp("*", v, BinOp("/", du, u)),
            )
            return BinOp("*", expr, bracket)
    if isinstance(expr, Call):
        u = expr.arg
        du = raw_diff(u, variable)
        outer = _raw_function_derivative(expr.fn, u)
        return BinOp("*", outer, du)
    raise TypeError(f"not an expression node: {expr!r}")


def _raw_function_derivative(fn: str, u: Expr) -> Expr:
    if fn == "sin":
        return Call("cos", u)
    if fn == "cos":
        return BinOp("-", Const(0.0), Call("sin", u))
    if fn == "tan":
        return BinOp("/", Const(1.0), BinOp("^", Call("cos", u), Const(2.0)))
    if fn == "exp":
        return Call("exp", u)
    if fn == "ln":
        return BinOp("/", Const(1.0), u)
    if fn == "sqrt":
        return BinOp("/", Const(1.0), BinOp("*", Const(2.0), Call("sqrt", u)))
    if fn == "abs":
        return Call("sign", u)
    if fn == "sign":
        return Const(0.0)
    if fn == "arcsin":
        return BinOp(
            "/",
            Const(1.0),
            Call("sqrt", BinOp("-", Const(1.0), BinOp("^", u, Const(2.0)))),
        )
    if fn == "arccos":
        return BinOp(
            "-",
            Const(0.0),
            BinOp(
                "/",
                Const(1.0),
                Call("sqrt", BinOp("-", Const(1.0), BinOp("^", u, Const(2.0)))),
            ),
        )
    if fn == "arctan":
        return BinOp(
            "/", Const(1.0), BinOp("+", Const(1.0), BinOp("^", u, Const(2.0)))
        )
    if fn == "erf":
        coeff = BinOp("/", Const(2.0), Call("sqrt", PI))
        gauss = Call("exp", BinOp("-", Const(0.0), BinOp("^", u, Const(2.0))))
        return BinOp("*", coeff, gauss)
    if fn == "besseli0":
        return Call("besseli1", u)
    if fn == "besseli1":
        return BinOp("-", Call("besseli0", u), BinOp("/", Call("besseli1", u), u))
    raise TypeError(f"unknown function {fn!r}")
