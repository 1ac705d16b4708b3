"""Parser, evaluator, differentiation, substitution, simplifier, printer."""

from __future__ import annotations

import dataclasses
import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densbrackets import expressions
from densbrackets.expressions import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    DomainError,
    NamedConst,
    ParseError,
    UnboundVariableError,
    Var,
    combine,
    compile_expr,
    diff,
    evaluate,
    free_vars,
    locate_domain_error,
    parse,
    partials,
    simplify,
    substitute,
    to_text,
)

from conftest import (
    SMOOTH_FUNCTIONS,
    TREE_FUNCTIONS,
    assert_value_equal,
    random_expr,
)
from oracles import ERF_SQRT2_OVER_2, I0_AT_1, I1_AT_1, TWO_OVER_SQRT_PI, raw_diff


# -- parsing ------------------------------------------------------------------


def test_parse_basic_shapes():
    assert parse("x") == Var("x")
    assert parse("2.5") == Const(2.5)
    assert parse("pi") == NamedConst("pi")
    assert parse("sin(x)") == Call("sin", Var("x"))
    assert parse("x + y*z") == BinOp("+", Var("x"), BinOp("*", Var("y"), Var("z")))


@pytest.mark.parametrize(
    "text,bindings,expected",
    [
        ("sin(x)*y", {"x": 0.0, "y": 5.0}, 0.0),
        ("3/2*(x^2+y^2)", {"x": 1.0, "y": 1.0}, 3.0),
        ("1e-3 + 2.5E+2 + .5", {}, 250.501),
        ("2^3^2", {}, 512.0),  # right associative
        ("-2^2", {}, -4.0),  # ^ binds tighter than unary minus
        ("2^-2", {}, 0.25),
        ("6/3/2", {}, 1.0),  # left associative
        ("1-2-3", {}, -4.0),
        ("-x*y", {"x": 3.0, "y": 2.0}, -6.0),
        ("1/(4*pi)", {}, 0.07957747154594767),
        ("e^1", {}, math.e),
    ],
)
def test_parse_and_eval(text, bindings, expected):
    assert evaluate(parse(text), bindings) == pytest.approx(expected, rel=1e-15)


def test_parse_erf_spot_value():
    assert evaluate(parse("erf(sqrt(2)/2)"), {}) == pytest.approx(
        ERF_SQRT2_OVER_2, abs=1e-12
    )


@pytest.mark.parametrize(
    "text,pos",
    [
        ("x+", 2),
        ("(x", 2),
        ("x )", 2),
        ("frob(x)", 0),
        ("sin", 0),  # function name without arguments
        ("1..2", 2),
        ("x $ y", 2),
        ("", 0),
        ("x + 1e400", 4),  # not a finite double
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == pos


def test_the_grammar_has_every_function_but_the_derivative_only_ones():
    # FUNCTIONS is derived from the operator table; sign and besseli1 parse
    # but come only out of diff
    assert FUNCTIONS == (
        "sin", "cos", "tan", "exp", "ln", "sqrt", "abs", "arcsin", "arccos",
        "arctan", "erf", "besseli0",
    )
    for name in FUNCTIONS + ("sign", "besseli1"):
        assert parse(f"{name}(x)") == Call(name, Var("x"))


def test_unary_minus_is_zero_minus():
    assert parse("-x") == BinOp("-", Const(0.0), Var("x"))


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_total(text):
    # arbitrary input either parses or raises ParseError, nothing else
    try:
        parse(text)
    except ParseError:
        pass


# -- evaluation ---------------------------------------------------------------


def test_eval_besseli0():
    assert evaluate(parse("besseli0(1)"), {}) == pytest.approx(I0_AT_1, abs=1e-12)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + y"), {"x": 1.0})


@pytest.mark.parametrize(
    "text,bindings,kind",
    [
        ("arccos(1.5)", {}, "arccos-range"),
        ("arcsin(x)", {"x": -1.0001}, "arcsin-range"),
        ("sqrt(x)", {"x": -1e-12}, "sqrt-negative"),
        ("ln(0)", {}, "log-nonpositive"),
        ("1/x", {"x": 0.0}, "division-by-zero"),
        ("exp(1000)", {}, "overflow"),
        ("(-2)^(1/2)", {}, "pow-negative-base"),
        ("x^(-1)", {"x": 0.0}, "division-by-zero"),
        ("1e308*10", {}, "overflow"),
        ("besseli0(1000)", {}, "overflow"),
    ],
)
def test_eval_domain_errors(text, bindings, kind):
    with pytest.raises(DomainError) as err:
        evaluate(parse(text), bindings)
    assert err.value.kind == kind
    assert "offending argument" in str(err.value)


def test_eval_is_bitwise_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        e = random_expr(rng, 4, ("x", "y"))
        b = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        try:
            v1 = evaluate(e, b)
        except Exception:
            continue
        assert evaluate(e, b) == v1


def test_expressions_are_immutable():
    e = parse("x + 1")
    with pytest.raises(AttributeError):
        e.op = "*"  # type: ignore[misc]
    nodes = [
        Const(2.0),
        NamedConst("pi"),
        Var("x"),
        Call("sin", Var("x")),
        BinOp("+", Var("x"), Const(1.0)),
    ]
    for node in nodes:
        before = repr(node)
        for field in dataclasses.fields(node):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field.name, Var("y"))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, field.name)
        assert repr(node) == before


def test_const_value_is_a_python_float():
    for value in (np.float64(2), 2, np.int64(2), np.array(2.0)):
        c = Const(value)
        assert type(c.value) is float and c.value == 2.0
    assert math.copysign(1.0, Const(-0.0).value) == -1.0


def test_parsed_tree_repr():
    assert repr(parse("sin(x)^2 - pi*y/2")) == (
        "BinOp(op='-', "
        "left=BinOp(op='^', left=Call(fn='sin', arg=Var(name='x')), "
        "right=Const(value=2.0)), "
        "right=BinOp(op='/', "
        "left=BinOp(op='*', left=NamedConst(name='pi'), right=Var(name='y')), "
        "right=Const(value=2.0)))"
    )


def test_equal_trees_hash_equal():
    rng = random.Random(11)
    for _ in range(50):
        text = to_text(random_expr(rng, 4, ("x", "y")))
        e, twin = parse(text), parse(text)
        assert twin == e and twin is not e
        assert hash(twin) == hash(e)
        assert len({e, twin}) == 1
    assert Const(np.float64(0.5)) == Const(0.5)
    assert hash(Const(np.float64(0.5))) == hash(Const(0.5))


# -- differentiation ------------------------------------------------------------


def test_diff_power_rule():
    d = diff(parse("x^2"), "x")
    assert_value_equal(d, parse("2*x"), ("x",), points=100)


def test_diff_product_chain():
    d = diff(parse("sin(theta)*cos(phi)"), "phi")
    assert_value_equal(d, parse("-sin(theta)*sin(phi)"), ("theta", "phi"), points=100)


def test_diff_erf_at_zero():
    d = diff(parse("erf(x)"), "x")
    assert evaluate(d, {"x": 0.0}) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)


def test_diff_besseli0_is_besseli1():
    d = diff(parse("besseli0(x)"), "x")
    assert evaluate(d, {"x": 1.0}) == pytest.approx(I1_AT_1, rel=1e-13)


def test_diff_abs_at_zero_is_zero():
    d = diff(parse("abs(x)"), "x")
    assert evaluate(d, {"x": 0.0}) == 0.0
    assert evaluate(d, {"x": -2.0}) == -1.0
    assert evaluate(d, {"x": 3.0}) == 1.0


def test_diff_general_exponent():
    d = diff(parse("x^y"), "x")
    assert evaluate(d, {"x": 2.0, "y": 3.0}) == pytest.approx(12.0, rel=1e-12)
    d = diff(parse("x^x"), "x")
    # d/dx x^x = x^x (ln x + 1)
    assert evaluate(d, {"x": 2.0}) == pytest.approx(4 * (math.log(2) + 1), rel=1e-12)


def test_diff_absent_variable_is_zero():
    rng = random.Random(11)
    for _ in range(25):
        e = random_expr(rng, 4, ("x", "y"))
        d = diff(e, "zz")
        for _ in range(5):
            b = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2), "zz": rng.uniform(-2, 2)}
            try:
                v = evaluate(d, b)
            except Exception:
                continue
            assert v == 0.0


def test_diff_simplifies_to_the_raw_derivative_fixed_point():
    # diff builds through the rewrite rules: its tree is at the fixed point
    # already, and it is the textbook tree's, node for node and bit for bit
    rng = random.Random(23)
    functions = TREE_FUNCTIONS + ("besseli1", "sign")
    for _ in range(300):
        e = random_expr(rng, rng.randint(2, 5), ("x", "y"), functions=functions)
        for variable in ("x", "y", "z"):
            got = diff(e, variable)
            want = simplify(raw_diff(e, variable))
            assert got == want and repr(got) == repr(want), to_text(e)
            assert simplify(got) is got, to_text(e)


def test_partials_are_the_diffs_in_one_walk():
    rng = random.Random(31)
    for _ in range(200):
        e = random_expr(rng, rng.randint(1, 5), ("x", "y"))
        got = partials(e, ("y", "x", "z"))
        want = (diff(e, "y"), diff(e, "x"), diff(e, "z"))
        assert got == want and repr(got) == repr(want), to_text(e)
    assert partials(parse("x*y"), ()) == ()
    for variables in (("x", "x"), ("x", "y", "x")):
        with pytest.raises(ValueError, match="repeated variables"):
            partials(parse("x*y"), variables)


def _finite_difference_check(n_cases: int, seed: int) -> None:
    rng = random.Random(seed)
    checked = 0
    attempts = 0
    while checked < n_cases:
        attempts += 1
        assert attempts < 60 * n_cases, "generator kept hitting undefined points"
        e = random_expr(rng, 4, ("x", "y"), functions=SMOOTH_FUNCTIONS, gentle=True)
        x0 = rng.uniform(-2.0, 2.0)
        y0 = rng.uniform(-2.0, 2.0)
        h = 1e-6 * (1.0 + abs(x0))
        try:
            up = evaluate(e, {"x": x0 + h, "y": y0})
            dn = evaluate(e, {"x": x0 - h, "y": y0})
            grad = evaluate(diff(e, "x"), {"x": x0, "y": y0})
        except Exception:
            continue
        fd = (up - dn) / (2 * h)
        if abs(fd) > 1e5 or abs(up) > 1e8:  # finite differences untrustworthy
            continue
        assert abs(grad - fd) <= 1e-6 * (1.0 + abs(fd)), (
            f"derivative mismatch for {to_text(e)} at x={x0}, y={y0}: "
            f"symbolic {grad}, finite difference {fd}"
        )
        checked += 1


def test_derivative_matches_finite_differences_sample():
    _finite_difference_check(200, seed=101)


# -- substitution ---------------------------------------------------------------


def test_substitute_shift():
    e = substitute(parse("phi + 1"), "phi", parse("phi + t"))
    assert_value_equal(e, parse("phi + t + 1"), ("phi", "t"), points=50)


def test_substitute_cos_arccos():
    e = simplify(substitute(parse("cos(theta)"), "theta", parse("arccos(theta + s)")))
    assert e == BinOp("+", Var("theta"), Var("s"))


def test_substitute_sin_squared_arccos():
    e = simplify(substitute(parse("sin(theta)^2"), "theta", parse("arccos(u)")))
    assert_value_equal(e, parse("1 - u^2"), ("u",), points=50, low=-0.99, high=0.99)
    # and the rewrite extends beyond the principal domain
    assert evaluate(e, {"u": 2.5}) == pytest.approx(1 - 2.5**2, rel=1e-15)


def test_substitute_self_is_identity():
    rng = random.Random(13)
    for _ in range(50):
        e = random_expr(rng, 4, ("x", "y"))
        assert substitute(e, "x", Var("x")) == e


# -- simplify ---------------------------------------------------------------------


def test_simplify_constant_folding():
    assert simplify(parse("2*(3+0)")) == Const(6.0)
    assert simplify(parse("x*1 + 0")) == Var("x")
    assert simplify(parse("x^1")) == Var("x")
    assert simplify(parse("x*0")) == Const(0.0)
    assert simplify(parse("x/1")) == Var("x")
    # by the checked step evaluate runs, bit for bit: a signed zero stays,
    # and an overflow stays symbolic
    assert simplify(BinOp("*", Const(0.0), Const(-3.0))).value.hex() == "-0x0.0p+0"
    assert simplify(BinOp("-", Const(-0.0), Const(0.0))).value.hex() == "-0x0.0p+0"
    overflow = BinOp("*", Const(1e308), Const(10.0))
    assert simplify(overflow) == overflow


def test_simplify_keeps_named_constants():
    assert simplify(parse("pi")) == NamedConst("pi")


def test_simplify_cos_arccos():
    assert simplify(parse("cos(arccos(u))")) == Var("u")


def test_simplify_sqrt_even_powers():
    assert simplify(parse("sqrt(u)^2")) == Var("u")
    assert simplify(parse("sqrt(u)^4")) == BinOp("^", Var("u"), Const(2.0))
    # odd powers keep the radical
    assert "sqrt" in to_text(simplify(parse("sqrt(u)^3")))


def test_simplify_rationalizes_quotient_powers():
    e = simplify(parse("(sin(arccos(u))/(1 - u))^4"))
    assert "sqrt" not in to_text(e)
    assert "arccos" not in to_text(e)
    assert_value_equal(
        e, parse("(1-u^2)^2/(1-u)^4"), ("u",), points=50, low=-0.9, high=0.9
    )


def test_simplify_half_angle_identity():
    # identity check by evaluation: sin^4 x / (1-cos x)^4 == ((1+cos x)/(1-cos x))^2
    lhs = simplify(parse("sin(x)^4/(1 - cos(x))^4"))
    rhs = parse("((1 + cos(x))/(1 - cos(x)))^2")
    rng = random.Random(3)
    for _ in range(100):
        x = rng.uniform(1e-3, math.pi - 1e-3)
        assert evaluate(lhs, {"x": x}) == pytest.approx(
            evaluate(rhs, {"x": x}), rel=1e-10
        )


def test_simplify_preserves_value_on_random_trees():
    rng = random.Random(17)
    checked = 0
    while checked < 200:
        e = random_expr(rng, 4, ("x", "y"))
        s = simplify(e)
        b = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        try:
            v = evaluate(e, b)
            w = evaluate(s, b)
        except Exception:
            continue
        assert abs(v - w) <= 1e-12 * (1.0 + abs(v))
        checked += 1


@pytest.mark.parametrize(
    "text, fixed",
    [
        # an integer power spread over * and / meets a sqrt it removes
        ("(x*sqrt(1 + y^2))^2", "x^2*(1 + y^2)"),
        ("(x/sqrt(y))^4", "x^4/y^2"),
        # sqrt(u)^(2k) -> u^k, where u^k is a power the rules rewrite again
        ("sqrt(sqrt(x))^4", "x"),
        ("sqrt(x*sqrt(y))^4", "x^2*y"),
        ("sqrt(-4)^4", "16"),
        # the base is spread only while it holds a sqrt after its rewrite
        ("(x*sqrt(sqrt(y))^4)^2", "(x*y)^2"),
        # sin(arccos(u)) -> sqrt(1 - u^2), with u^2 rewritten at once
        ("sin(arccos(sqrt(x)))", "sqrt(1 - x)"),
        ("sin(arccos(sqrt(x)))^2", "1 - x"),
    ],
)
def test_one_pass_reaches_the_fixed_point(text, fixed):
    once = expressions._simplify_pass(parse(text), {})
    assert once == parse(fixed)
    assert expressions._simplify_pass(once, {}) is once


def test_combine_is_simplify_of_the_joined_tree():
    rng = random.Random(41)
    for _ in range(200):
        operands = [simplify(random_expr(rng, 3, ("x", "y"))) for _ in range(3)]
        for op in "+-*/^":
            joined = BinOp(op, BinOp(op, operands[0], operands[1]), operands[2])
            got = combine(op, *operands)
            want = simplify(joined)
            assert got == want and repr(got) == repr(want)
            assert simplify(got) is got
    assert combine("*", Var("x")) == Var("x")


def test_simplify_returns_a_simplified_tree_itself():
    rng = random.Random(29)
    for _ in range(200):
        s = simplify(random_expr(rng, 5, ("x", "y")))
        assert simplify(s) is s
    for text in ("x", "pi", "sin(x)*y^3 - 2/x", "sqrt(x + 1)^3"):
        s = simplify(parse(text))
        assert simplify(s) is s


def test_simplify_does_not_fold_undefined_constants():
    # 1/0 must stay symbolic and fail at evaluation, not at simplification
    e = simplify(parse("x + 1/0"))
    with pytest.raises(DomainError):
        evaluate(e, {"x": 1.0})


def test_simplify_does_not_fold_overflowing_calls():
    e = simplify(parse("besseli0(1000)"))
    assert e == Call("besseli0", Const(1000.0))
    with pytest.raises(DomainError) as err:
        evaluate(e, {})
    assert err.value.kind == "overflow"


# -- free_vars / printing ----------------------------------------------------------


def test_free_vars():
    assert free_vars(parse("sin(theta)*rho0")) == {"theta", "rho0"}
    assert free_vars(parse("pi")) == frozenset()
    assert free_vars(parse("x + x*y")) == {"x", "y"}


@pytest.mark.parametrize(
    "text",
    [
        "x + y",
        "-x^2",
        "(-x)^2",
        "x^-2",
        "x - (y - z)",
        "a/(b*c)",
        "x*-3",
        "2^3^2",
        "sin(cos(x))*pi - e",
        "-(x + 1)",
        "0 - -x",
        "besseli0(x)^2",
    ],
)
def test_roundtrip_specific(text):
    e = parse(text)
    again = parse(to_text(e))
    assert_value_equal(e, again, tuple(sorted(free_vars(e))), points=30, rel=1e-14)


def test_roundtrip_random_trees():
    rng = random.Random(23)
    checked = 0
    attempts = 0
    while checked < 300:
        attempts += 1
        assert attempts < 10000
        e = random_expr(rng, 5, ("x", "y", "z"))
        text = to_text(e)
        again = parse(text)
        found = False
        for _ in range(8):
            b = {v: rng.uniform(-2, 2) for v in ("x", "y", "z")}
            try:
                v1 = evaluate(e, b)
                v2 = evaluate(again, b)
            except Exception:
                continue
            assert abs(v1 - v2) <= 1e-14 * (1.0 + abs(v1)), text
            found = True
        if found:
            checked += 1


def test_internal_names_roundtrip_but_are_not_public():
    # derivative-only helpers print and re-parse, keeping the round-trip total
    d = diff(parse("besseli0(x)"), "x")
    assert_value_equal(parse(to_text(d)), d, ("x",), points=20)
    d = diff(parse("abs(x)"), "x")
    assert_value_equal(parse(to_text(d)), d, ("x",), points=20)


# -- compiled evaluation ------------------------------------------------------------


def test_compile_matches_evaluate():
    rng = random.Random(29)
    checked = 0
    while checked < 100:
        e = random_expr(rng, 4, ("x", "y"))
        f = compile_expr(e, ("x", "y"))
        x = rng.uniform(-2, 2)
        y = rng.uniform(-2, 2)
        try:
            want = evaluate(e, {"x": x, "y": y})
        except Exception:
            continue
        got = float(np.asarray(f(np.array([x]), np.array([y]))).reshape(-1)[0])
        assert got == want
        checked += 1


@pytest.mark.filterwarnings("error")
def test_evaluate_is_the_kernel_bit_for_bit():
    # strict evaluation and the kernel run one program: where evaluate
    # returns it gives the kernel's entry exactly, for contiguous, strided and
    # broadcast inputs; where the kernel is not finite, evaluate raises
    rng = random.Random(31)
    returned = raised = 0
    for _ in range(150):
        e = random_expr(rng, 5, ("x", "y"))
        f = compile_expr(e, ("x", "y"))
        xs = np.array([rng.uniform(-3, 3) for _ in range(8)])[:, None]
        ys = np.array([rng.uniform(-3, 3) for _ in range(16)])[None, ::2]
        out = np.broadcast_to(f(xs, ys), (8, 8))
        for (i, j), kernel_value in np.ndenumerate(out):
            point = {"x": float(xs[i, 0]), "y": float(ys[0, j])}
            if not np.isfinite(kernel_value):
                with pytest.raises(DomainError):
                    evaluate(e, point)
                raised += 1
                continue
            try:
                value = evaluate(e, point)
            except DomainError:
                raised += 1
                continue
            assert value.hex() == float(kernel_value).hex(), (to_text(e), point)
            returned += 1
    assert returned > 4000 and raised > 500


# Bases whose cube and fourth power np.power rounds differently from the
# products, then signed zeros, subnormals and bases whose powers overflow.
POWER_BASES = (
    -1.2866774954705678,
    -2.8563447193452123,
    -0.0,
    0.0,
    5e-324,
    -2.5e-310,
    -1e100,
    1e160,
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
def test_small_integer_powers_are_products_everywhere(n):
    # the kernel, strict evaluation and constant folding compute u^n alike
    e = parse(f"u^{n}")
    kernel = compile_expr(e, ("u",))(np.array(POWER_BASES))
    for u, k in zip(POWER_BASES, kernel.tolist()):
        product = u * u if n == 2 else u * u * u if n == 3 else (u * u) * (u * u)
        assert k.hex() == product.hex()
        if not math.isfinite(product):
            with pytest.raises(DomainError) as err:
                evaluate(e, {"u": u})
            assert err.value.kind == "overflow" and err.value.subexpr == e
            continue
        assert evaluate(e, {"u": u}).hex() == product.hex()
        folded = simplify(BinOp("^", Const(u), Const(float(n))))
        assert folded.value.hex() == product.hex()


@pytest.mark.filterwarnings("error")
def test_a_variable_exponent_goes_through_np_power():
    x = -1.2866774954705678
    power = float(np.power(x, 3.0))
    assert power != x * x * x
    e = parse("x^y")
    kernel = compile_expr(e, ("x", "y"))
    assert float(kernel(np.array([x]), np.array([3.0]))[0]).hex() == power.hex()
    assert float(kernel(x, 3.0)).hex() == power.hex()
    assert evaluate(e, {"x": x, "y": 3.0}).hex() == power.hex()


def test_locate_domain_error_names_the_overflowing_call():
    with pytest.raises(DomainError) as err:
        locate_domain_error(parse("2*besseli0(x)"), ("x",), (713.0,))
    assert err.value.kind == "overflow"
    assert err.value.subexpr == parse("besseli0(x)")
    assert err.value.value == 713.0
    assert str(err.value).endswith(" at x=713.0")


def test_compile_broadcasts():
    f = compile_expr(parse("sin(x)*y"), ("x", "y"))
    x = np.linspace(0, 1, 5)[:, None]
    y = np.linspace(0, 1, 3)[None, :]
    out = f(x, y)
    assert out.shape == (5, 3)
    np.testing.assert_allclose(out, np.sin(x) * y)


def test_compile_rejects_unknown_variable():
    with pytest.raises(UnboundVariableError):
        compile_expr(parse("x + q"), ("x", "y"))


@pytest.mark.parametrize(
    "text", ["sin(x)*y + exp(-x^2)/(1+y)", "x + q"], ids=["compiles", "unbound"]
)
def test_compiling_leaves_no_garbage_cycle(text):
    # A cycle would keep each lowering's slot table and program until the
    # cyclic collector runs, also when an unbound variable stops it.
    expr = parse(text)
    gc.collect()
    gc.disable()
    try:
        try:
            compile_expr(expr, ("x", "y"))
        except UnboundVariableError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compile_out_of_domain_yields_nonfinite():
    f = compile_expr(parse("sqrt(x)"), ("x",))
    out = f(np.array([-1.0, 4.0]))
    assert math.isnan(out[0]) and out[1] == 2.0
