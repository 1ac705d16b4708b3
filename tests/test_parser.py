"""The parser against a frozen corpus of outcomes, and its nesting guard.

Each corpus entry is an input and either the ``repr`` of its tree or the
``ParseError`` message and position that the earlier recursive-descent
parser gave for it.  The corpus holds the cases that are easy to get wrong:
Unicode digits (``\\d`` is not ASCII-only), characters that start no token,
numbers that end early, unary minus around ``^``, calls and parentheses,
and a character that starts no token after a syntax error, which is still
reported first.
"""

from __future__ import annotations

import pytest

from densbrackets.expressions import Call, ParseError, Var, parse

CORPUS = [
    ("٣", "Const(value=3.0)"),
    ("é", ("unexpected character 'é'", 0)),
    ("_", ("unexpected character '_'", 0)),
    (".", ("unexpected character '.'", 0)),
    ("$", ("unexpected character '$'", 0)),
    ("1..2", ("unexpected trailing input '.2'", 2)),
    ("1.e3", "Const(value=1000.0)"),
    (".5", "Const(value=0.5)"),
    ("1e5e", ("unexpected trailing input 'e'", 3)),
    ("2^-3^2", "BinOp(op='^', left=Const(value=2.0), right=BinOp(op='-', left=Const(value=0.0), right=BinOp(op='^', left=Const(value=3.0), right=Const(value=2.0))))"),
    ("x^-y*z", "BinOp(op='*', left=BinOp(op='^', left=Var(name='x'), right=BinOp(op='-', left=Const(value=0.0), right=Var(name='y'))), right=Var(name='z'))"),
    ("2*-x^2", "BinOp(op='*', left=Const(value=2.0), right=BinOp(op='-', left=Const(value=0.0), right=BinOp(op='^', left=Var(name='x'), right=Const(value=2.0))))"),
    ("--x", "BinOp(op='-', left=Const(value=0.0), right=BinOp(op='-', left=Const(value=0.0), right=Var(name='x')))"),
    ("+x", ("expected a number, name or '('", 0)),
    ("sin (x)", "Call(fn='sin', arg=Var(name='x'))"),
    ("pi(x)", ("unknown function 'pi'", 0)),
    ("sin()", ("expected a number, name or '('", 4)),
    ("()", ("expected a number, name or '('", 1)),
    ("x^", ("unexpected end of input", 2)),
    ("(x y", ("expected ')'", 3)),
    ("sin(x", ("expected ')'", 5)),
    ("x + + $", ("unexpected character '$'", 6)),
    ("x", "Var(name='x')"),
    ("2.5", "Const(value=2.5)"),
    ("pi", "NamedConst(name='pi')"),
    ("e", "NamedConst(name='e')"),
    ("e^x", "BinOp(op='^', left=NamedConst(name='e'), right=Var(name='x'))"),
    ("1e+5", "Const(value=100000.0)"),
    ("1E-3", "Const(value=0.001)"),
    ("1e", ("unexpected trailing input 'e'", 1)),
    ("007", "Const(value=7.0)"),
    ("1e400", ("number '1e400' is too large for a double", 0)),
    ("x + 1e400", ("number '1e400' is too large for a double", 4)),
    ("x*y/z", "BinOp(op='/', left=BinOp(op='*', left=Var(name='x'), right=Var(name='y')), right=Var(name='z'))"),
    ("x/y/z", "BinOp(op='/', left=BinOp(op='/', left=Var(name='x'), right=Var(name='y')), right=Var(name='z'))"),
    ("x-y-z", "BinOp(op='-', left=BinOp(op='-', left=Var(name='x'), right=Var(name='y')), right=Var(name='z'))"),
    ("x^y^z", "BinOp(op='^', left=Var(name='x'), right=BinOp(op='^', left=Var(name='y'), right=Var(name='z')))"),
    ("-x^2", "BinOp(op='-', left=Const(value=0.0), right=BinOp(op='^', left=Var(name='x'), right=Const(value=2.0)))"),
    ("(-x)^2", "BinOp(op='^', left=BinOp(op='-', left=Const(value=0.0), right=Var(name='x')), right=Const(value=2.0))"),
    ("x--y", "BinOp(op='-', left=Var(name='x'), right=BinOp(op='-', left=Const(value=0.0), right=Var(name='y')))"),
    ("x+-y", "BinOp(op='+', left=Var(name='x'), right=BinOp(op='-', left=Const(value=0.0), right=Var(name='y')))"),
    ("-x*y", "BinOp(op='*', left=BinOp(op='-', left=Const(value=0.0), right=Var(name='x')), right=Var(name='y'))"),
    ("a_b", "Var(name='a_b')"),
    ("x_", "Var(name='x_')"),
    ("t1*t2", "BinOp(op='*', left=Var(name='t1'), right=Var(name='t2'))"),
    ("besseli1(x) - sign(x)", "BinOp(op='-', left=Call(fn='besseli1', arg=Var(name='x')), right=Call(fn='sign', arg=Var(name='x')))"),
    ("abs(-x)/sqrt(2)", "BinOp(op='/', left=Call(fn='abs', arg=BinOp(op='-', left=Const(value=0.0), right=Var(name='x'))), right=Call(fn='sqrt', arg=Const(value=2.0)))"),
    ("sin(theta)^2 - pi*y/2", "BinOp(op='-', left=BinOp(op='^', left=Call(fn='sin', arg=Var(name='theta')), right=Const(value=2.0)), right=BinOp(op='/', left=BinOp(op='*', left=NamedConst(name='pi'), right=Var(name='y')), right=Const(value=2.0)))"),
    ("((x))", "Var(name='x')"),
    ("exp(-(x^2 + y^2)/2)", "Call(fn='exp', arg=BinOp(op='/', left=BinOp(op='-', left=Const(value=0.0), right=BinOp(op='+', left=BinOp(op='^', left=Var(name='x'), right=Const(value=2.0)), right=BinOp(op='^', left=Var(name='y'), right=Const(value=2.0)))), right=Const(value=2.0)))"),
    ("frob(x)", ("unknown function 'frob'", 0)),
    ("sin", ("function 'sin' used without arguments", 0)),
    ("sin + 1", ("function 'sin' used without arguments", 0)),
    ("x+", ("unexpected end of input", 2)),
    ("(x", ("expected ')'", 2)),
    ("x )", ("unexpected trailing input ')'", 2)),
    ("x y", ("unexpected trailing input 'y'", 2)),
    ("2(x)", ("unexpected trailing input '('", 1)),
    ("sin(x)(y)", ("unexpected trailing input '('", 6)),
    ("x ** 2", ("expected a number, name or '('", 3)),
    ("x $ y", ("unexpected character '$'", 2)),
    ("-", ("unexpected end of input", 1)),
    ("x*", ("unexpected end of input", 2)),
    ("1 2", ("unexpected trailing input '2'", 2)),
    ("1.5e3.2", ("unexpected trailing input '.2'", 5)),
    ("x @ y", ("unexpected character '@'", 2)),
    ("²", ("unexpected character '²'", 0)),
    ("x\t+\ny", "BinOp(op='+', left=Var(name='x'), right=Var(name='y'))"),
    ("é + (", ("unexpected character 'é'", 0)),
    ("x + (é", ("unexpected character 'é'", 5)),
    ("sin(x))", ("unexpected trailing input ')'", 6)),
    (")", ("expected a number, name or '('", 0)),
    ("1e400 $", ("unexpected character '$'", 6)),
    ("frob(x) + _", ("unexpected character '_'", 10)),
]


@pytest.mark.parametrize("text,expected", CORPUS)
def test_parse_matches_the_frozen_corpus(text, expected):
    if isinstance(expected, str):
        assert repr(parse(text)) == expected
        return
    message, position = expected
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


SHAPES = {
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "minus": lambda n: "-" * n + "x",
    "power": lambda n: "^".join(["x"] * (n + 1)),
}
# The deepest inputs of each shape that the earlier parser took when called
# straight from a test function, as below (197, 197, 987 and 494 from a
# script).  The nesting guard is the interpreter's recursion limit, so these
# depend on the caller's stack.
EARLIER_LIMITS = {"calls": 190, "parentheses": 190, "minus": 952, "power": 476}


def _depth(expr) -> int:
    """How many calls, minus signs or powers lead down to the variable."""
    depth = 0
    while not isinstance(expr, Var):
        expr = expr.arg if isinstance(expr, Call) else expr.right
        depth += 1
    return depth


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_the_earlier_parser_took_still_parses(shape):
    n = EARLIER_LIMITS[shape]
    expr = parse(SHAPES[shape](n))
    assert _depth(expr) == (0 if shape == "parentheses" else n)


def _called_from(frames: int, fn, *args):
    return fn(*args) if frames == 0 else _called_from(frames - 1, fn, *args)


# Deeper than any caller parses under the default limit of 1000 frames: a
# call or parenthesis takes three frames, a minus sign or power one.
DEEPER = {"calls": 400, "parentheses": 400, "minus": 1000, "power": 1000}


@pytest.mark.parametrize("frames", [0, 300, 600])
@pytest.mark.parametrize("times", [1, 4])
@pytest.mark.parametrize("shape", SHAPES)
def test_deeper_nesting_is_a_parse_error(shape, times, frames):
    text = SHAPES[shape](DEEPER[shape] * times)
    with pytest.raises(ParseError) as err:
        _called_from(frames, parse, text)
    assert str(err.value).startswith("expression nests too deeply (at position ")
