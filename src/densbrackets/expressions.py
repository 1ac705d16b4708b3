"""Math expression language: immutable trees with parse, eval, diff, rewrite.

The grammar is plain infix arithmetic over real numbers::

    expr    :=  term  (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ['^' unary]          # right associative
    atom    :=  NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

``^`` binds tighter than unary minus, which binds tighter than ``*``/``/``.
Unary minus is represented as ``0 - x``.  ``pi`` and ``e`` are named
constants, not variables.  Decimal and scientific literals are accepted if
they are finite doubles (``1e400`` is a parse error), and identifiers match
``[a-zA-Z][a-zA-Z0-9_]*``.

Supported functions: sin, cos, tan, exp, ln, sqrt, abs, arcsin, arccos,
arctan, erf, besseli0.  Two more names, ``besseli1`` and ``sign``, exist only
so that derivatives of ``besseli0`` and ``abs`` stay inside the language;
they are accepted when re-parsing printed expressions but are not part of the
documented surface grammar.

Everything here is real-valued and strict: evaluating ``sqrt``, ``ln``,
``arcsin``/``arccos`` or a division outside its domain raises
:class:`DomainError` instead of returning NaN or infinity.  All trees are
immutable and all operations are pure, so expressions can be shared freely
between threads.

There is one evaluator.  A tree is lowered to a straight-line program with
one slot per distinct subtree, each step a numpy operation.
:func:`compile_expr` runs it unchecked over arrays; :func:`evaluate` runs it
at one point with each step's domain rule checked, and :func:`simplify`
folds constants through the same checked step.  So strict values, folded
constants and kernel entries agree bit for bit.

Nodes are frozen, slotted dataclasses with the generated ``==``, ``hash``
and ``repr``.  Their ``__init__`` is written by hand and stores each field
through its slot descriptor, which skips the frozen ``__setattr__`` that
assignment still goes through (and fails on); this halves the cost of
building a node.  ``Const`` stores its value as a Python ``float``.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _specials

__all__ = [
    "Expr",
    "Const",
    "NamedConst",
    "Var",
    "Call",
    "BinOp",
    "ExpressionError",
    "ParseError",
    "UnboundVariableError",
    "DomainError",
    "parse",
    "evaluate",
    "diff",
    "partials",
    "substitute",
    "simplify",
    "combine",
    "free_vars",
    "to_text",
    "compile_expr",
    "PI",
    "E",
]

# -- errors -----------------------------------------------------------------


class ExpressionError(Exception):
    """Base class for all expression-language errors."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundVariableError(ExpressionError):
    def __init__(self, name: str):
        super().__init__(f"variable '{name}' is not bound")
        self.name = name


class DomainError(ExpressionError):
    """A subexpression was evaluated outside its real domain.

    ``kind`` is one of: division-by-zero, sqrt-negative, log-nonpositive,
    arcsin-range, arccos-range, pow-negative-base, overflow.
    """

    def __init__(self, kind: str, subexpr: "Expr", value: float):
        self.kind = kind
        self.subexpr = subexpr
        self.value = value
        super().__init__(
            f"{kind} in '{to_text(subexpr)}' (offending argument {value!r})"
        )


# -- tree -------------------------------------------------------------------


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float

    def __init__(self, value: float):
        _set_const_value(self, float(value))


@dataclass(frozen=True, slots=True)
class NamedConst(Expr):
    name: str  # "pi" | "e"

    def __init__(self, name: str):
        _set_named_name(self, name)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str

    def __init__(self, name: str):
        _set_var_name(self, name)


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    arg: Expr

    def __init__(self, fn: str, arg: Expr):
        _set_call_fn(self, fn)
        _set_call_arg(self, arg)


@dataclass(frozen=True, slots=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr

    def __init__(self, op: str, left: Expr, right: Expr):
        _set_binop_op(self, op)
        _set_binop_left(self, left)
        _set_binop_right(self, right)


# The __init__ methods above write through the slot descriptors, past the
# frozen __setattr__ that refuses every assignment.  The descriptors exist
# only once the decorator has rebuilt each class with slots, so they are
# looked up here.
_set_const_value = Const.__dict__["value"].__set__
_set_named_name = NamedConst.__dict__["name"].__set__
_set_var_name = Var.__dict__["name"].__set__
_set_call_fn = Call.__dict__["fn"].__set__
_set_call_arg = Call.__dict__["arg"].__set__
_set_binop_op = BinOp.__dict__["op"].__set__
_set_binop_left = BinOp.__dict__["left"].__set__
_set_binop_right = BinOp.__dict__["right"].__set__

PI = NamedConst("pi")
E = NamedConst("e")

_NAMED_VALUES = {"pi": np.pi, "e": np.e}

# -- parser -----------------------------------------------------------------

# One group per token kind.  Every character that starts no token is caught
# by the last group, so findall skips only whitespace.
_TOKEN_RE = re.compile(
    r"""
    ([-+*/^()])                             # operator or parenthesis
  | ((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)  # number
  | ([a-zA-Z][a-zA-Z0-9_]*)                 # name
  | (\S)                                    # a character no token starts with
    """,
    re.VERBOSE,
)
_END = ("", "", "", "")


class _Unexpected(Exception):
    """``(message, left)``: a syntax error at the token that was next when
    ``left`` tokens were unread."""


def parse(text: str) -> Expr:
    """Parse an expression string into a tree.

    Raises :class:`ParseError` with the offending position on syntax errors,
    unknown function names, literals too large for a double and nesting
    deeper than the interpreter's recursion limit lets the parser descend
    (each level of calls or parentheses takes three frames, each unary
    minus or ``^`` one).  A character that starts no token is reported
    first, wherever it is.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    rest = tokens[::-1]  # the unread tokens, the next one last
    try:
        expr = _parse_sum(rest)
        if len(rest) > 1:
            value = "".join(rest[-1])  # the one group that matched
            raise _Unexpected(f"unexpected trailing input {value!r}", len(rest))
        return expr
    except RecursionError:
        message, left = "expression nests too deeply", len(rest)
    except _Unexpected as exc:
        message, left = exc.args
    # positions are needed only here, so only here is the text lexed again
    matches = list(_TOKEN_RE.finditer(text))
    for m in matches:
        if m.group(4):
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
    index = len(tokens) - left  # the end token matches nothing
    position = matches[index].start() if index < len(matches) else len(text)
    raise ParseError(message, position)


def _parse_sum(rest: list) -> Expr:
    """Operands joined by ``+ - * /``, left associative, ``*`` and ``/``
    first, up to the first token that continues neither."""
    total = term = None
    add = mul = ""
    while True:
        operand = _parse_unary(rest)
        term = BinOp(mul, term, operand) if mul else operand
        op = rest[-1][0]
        if op == "*" or op == "/":
            mul = rest.pop()[0]
            continue
        total = BinOp(add, total, term) if add else term
        if op == "+" or op == "-":
            add, mul = rest.pop()[0], ""
            continue
        return total


def _parse_unary(rest: list) -> Expr:
    """A unary minus and its operand, or an atom with an optional ``^``."""
    op, number, name, _ = token = rest.pop()
    if op == "-":
        return BinOp("-", Const(0.0), _parse_unary(rest))
    if number:
        value = float(number)
        if value > sys.float_info.max:
            message = f"number {number!r} is too large for a double"
            raise _Unexpected(message, len(rest) + 1)
        node = Const(value)
    elif name:
        if rest[-1][0] == "(":
            if name not in _ALL_FUNCTIONS:
                raise _Unexpected(f"unknown function '{name}'", len(rest) + 1)
            rest.pop()
            node = Call(name, _parse_group(rest))
        elif name in _NAMED_VALUES:
            node = NamedConst(name)
        elif name in _ALL_FUNCTIONS:
            message = f"function '{name}' used without arguments"
            raise _Unexpected(message, len(rest) + 1)
        else:
            node = Var(name)
    elif op == "(":
        node = _parse_group(rest)
    elif token is _END:
        raise _Unexpected("unexpected end of input", len(rest) + 1)
    else:
        raise _Unexpected("expected a number, name or '('", len(rest) + 1)
    if rest[-1][0] == "^":
        rest.pop()
        # right associative, and the exponent may carry a sign
        return BinOp("^", node, _parse_unary(rest))
    return node


def _parse_group(rest: list) -> Expr:
    """The inside of a call or parentheses, and the closing ``)``."""
    inner = _parse_sum(rest)
    if rest[-1][0] != ")":
        raise _Unexpected("expected ')'", len(rest))
    rest.pop()
    return inner


# -- evaluation: one lowered program ---------------------------------------------

Bindings = Mapping[str, float]


def _pow_rule(a, b):
    if a < 0.0 and not float(b).is_integer():
        return "pow-negative-base", a
    if a == 0.0 and b < 0.0:
        return "division-by-zero", a
    return None


def _power(a, b):
    """``a^b``, with a constant exponent of 2, 3 or 4 as products: np.power
    costs up to 30x as much on negative bases.  Only the program's
    constants are Python floats (variables arrive as numpy arrays or
    scalars), so a variable exponent always goes through np.power."""
    if type(b) is float:
        if b == 2.0:
            return a * a
        if b == 3.0:
            return a * a * a
        if b == 4.0:
            a = a * a
            return a * a
    return np.power(a, b)


def _range_rule(kind: str):
    return lambda x: not -1.0 <= x <= 1.0 and (kind, x)


# Every operator's numpy operation and its domain rule.  A rule maps the
# arguments at one point to (kind, offending argument), or to a false value
# inside the domain; a non-finite result is an overflow whatever the rule.
# Division is np.divide, not operator.truediv: a kernel step over two Python
# floats (constants) must give inf, not raise ZeroDivisionError.
_OPS: dict[str, tuple[Callable, Callable | None]] = {
    "+": (operator.add, None),
    "-": (operator.sub, None),
    "*": (operator.mul, None),
    "/": (np.divide, lambda a, b: b == 0.0 and ("division-by-zero", b)),
    "^": (_power, _pow_rule),
    "sin": (np.sin, None),
    "cos": (np.cos, None),
    "tan": (np.tan, None),
    "exp": (np.exp, None),
    "ln": (np.log, lambda x: x <= 0.0 and ("log-nonpositive", x)),
    "sqrt": (np.sqrt, lambda x: x < 0.0 and ("sqrt-negative", x)),
    "abs": (np.abs, None),
    "arcsin": (np.arcsin, _range_rule("arcsin-range")),
    "arccos": (np.arccos, _range_rule("arccos-range")),
    "arctan": (np.arctan, None),
    "sign": (np.sign, None),
    "erf": (_specials.erf_array, None),
    "besseli0": (_specials.besseli0_array, None),
    "besseli1": (_specials.besseli1_array, None),
}
# The parser accepts every function here: the grammar's, and those that only
# differentiation produces (besseli1, sign), so that printed trees parse.
_ALL_FUNCTIONS = frozenset(name for name in _OPS if name.isalnum())
# Functions available in the surface grammar.
FUNCTIONS = tuple(n for n in _OPS if n.isalnum() and n not in ("sign", "besseli1"))


def _checked(node: Call | BinOp, args: tuple) -> float:
    """Apply ``node``'s operator to its argument values at one point.

    Raises :class:`DomainError` when a domain rule fails or the result is
    not finite.  Callers hold ``np.errstate(all="ignore")``.
    """
    fn, rule = _OPS[node.fn if isinstance(node, Call) else node.op]
    fault = rule is not None and rule(*args)
    if fault:
        raise DomainError(fault[0], node, float(fault[1]))
    r = fn(*args)
    if not abs(r) <= sys.float_info.max:  # inf or NaN
        # a function reports its argument, an operator its result
        raise DomainError("overflow", node, float(args[0] if len(args) == 1 else r))
    return r


class _Program(NamedTuple):
    """Straight-line code with one slot per distinct subtree.

    Slots hold the inputs, then constants and step results in order of first
    appearance; ``init`` is the part after the inputs (the constants' values,
    None where a step writes).  Step ``(fn, i, j, k)`` stores ``fn(slot i)``,
    or ``fn(slot i, slot j)`` when ``j >= 0``, in slot k; ``nodes`` holds the
    subtree each step computes.
    """

    init: tuple
    steps: tuple[tuple[Callable, int, int, int], ...]
    nodes: tuple[Call | BinOp, ...]
    result: int


def _lower(expr: Expr, variables: Sequence[str]) -> _Program:
    """Lower ``expr`` to a program whose inputs are ``variables``.

    Subtrees are hash-consed on (operator, argument slots), so lowering is
    linear in the tree size.  Constants are keyed by their bits, which keeps
    ``0.0`` and ``-0.0`` apart.
    """
    n_inputs = len(variables)
    slots: dict[tuple, int] = {("var", name): i for i, name in enumerate(variables)}
    init: list = []
    steps: list[tuple[Callable, int, int, int]] = []
    nodes: list[Call | BinOp] = []

    def visit(node: Expr) -> int:
        if isinstance(node, Var):
            try:
                return slots[("var", node.name)]
            except KeyError:
                raise UnboundVariableError(node.name) from None
        if isinstance(node, (Const, NamedConst)):
            value = node.value if isinstance(node, Const) else _NAMED_VALUES[node.name]
            key: tuple = ("const", value.hex())
        elif isinstance(node, Call):
            key = (node.fn, visit(node.arg), -1)
        elif isinstance(node, BinOp):
            key = (node.op, visit(node.left), visit(node.right))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = n_inputs + len(init)
            if key[0] == "const":
                init.append(value)
            else:
                init.append(None)
                steps.append((_OPS[key[0]][0], key[1], key[2], slot))
                nodes.append(node)
        return slot

    try:
        result = visit(expr)
    finally:
        del visit  # the closure refers to itself through its cell
    return _Program(tuple(init), tuple(steps), tuple(nodes), result)


def evaluate(expr: Expr, bindings: Bindings) -> float:
    """Evaluate with all free variables bound; strict about domains.

    Runs the program :func:`compile_expr` runs, with every step checked:
    the value is the compiled kernel's bit for bit.  Variables are bound
    as numpy floats, as the kernel takes its arguments as arrays.  Bindings
    of variables that do not occur are ignored.  Out-of-domain arguments
    (including division by zero and overflow) raise :class:`DomainError`;
    an unbound variable raises :class:`UnboundVariableError`.  The result
    is finite whenever the bindings are.
    """
    program = _lower(expr, tuple(bindings))
    slots = [np.float64(v) for v in bindings.values()]
    slots.extend(program.init)
    with np.errstate(all="ignore"):
        for (_, i, j, k), node in zip(program.steps, program.nodes):
            args = (slots[i],) if j < 0 else (slots[i], slots[j])
            slots[k] = _checked(node, args)
    return float(slots[program.result])


# -- differentiation ---------------------------------------------------------


def diff(expr: Expr, variable: str) -> Expr:
    """Exact symbolic partial derivative with respect to ``variable``.

    The textbook derivative (sum, product, quotient, power and chain rules)
    built through the rewrite rules of :func:`simplify`, over operands that
    have been through them once: the result is already at simplify's fixed
    point, node for node the tree ``simplify`` makes of the raw textbook
    derivative.  Conventions: d|u|/du is ``sign(u)`` with ``sign(0) = 0``,
    and d besseli0(u)/du = besseli1(u).
    """
    with np.errstate(all="ignore"):
        return _partials(expr, {variable: (_ONE,)}, {})[0]


def partials(expr: Expr, variables: Sequence[str]) -> tuple[Expr, ...]:
    """``diff(expr, x)`` for each of the distinct ``variables``, in one walk.

    Every partial is built by the rules :func:`diff` applies, and the
    operands they share (each rewritten subtree, each call's outer
    derivative) are built once for all of them.  A repeated variable raises
    ``ValueError``.
    """
    units = {x: tuple(_ONE if y == x else _ZERO for y in variables) for x in variables}
    if len(units) != len(variables):
        raise ValueError(f"partials by repeated variables: {tuple(variables)}")
    with np.errstate(all="ignore"):
        return _partials(expr, units, {})


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _partials(expr: Expr, units: dict[str, tuple], memo: _PassMemo) -> tuple:
    """The derivatives of ``expr`` by each variable of ``units``, which maps
    a variable to its own derivatives (1 in its place, 0 elsewhere).  The
    operands copied from ``expr`` go through one rewrite pass, sharing
    ``memo``.  The rules run in plain loops: a comprehension would add a
    frame below the deepest recursion and lower the nesting limit."""
    if isinstance(expr, Var):
        return units.get(expr.name) or (_ZERO,) * len(units)
    if isinstance(expr, (Const, NamedConst)):
        return (_ZERO,) * len(units)
    binop, out = _rewrite_binop, []
    if isinstance(expr, Call):
        outer = _function_derivative(expr.fn, _simplify_pass(expr.arg, memo))
        for du in _partials(expr.arg, units, memo):
            out.append(binop("*", outer, du))
        return tuple(out)
    if not isinstance(expr, BinOp):
        raise TypeError(f"not an expression node: {expr!r}")
    op, u, v = expr.op, expr.left, expr.right
    if op == "^" and isinstance(v, Const):
        # power rule: n u^(n-1) u'
        outer = binop("*", v, binop("^", _simplify_pass(u, memo), Const(v.value - 1.0)))
        for du in _partials(u, units, memo):
            out.append(binop("*", outer, du))
        return tuple(out)
    pairs = zip(_partials(u, units, memo), _partials(v, units, memo))
    if op in "+-":
        for du, dv in pairs:
            out.append(binop(op, du, dv))
        return tuple(out)
    su, sv = _simplify_pass(u, memo), _simplify_pass(v, memo)
    if op == "*":
        for du, dv in pairs:
            out.append(binop("+", binop("*", du, sv), binop("*", su, dv)))
    elif op == "/":
        square = binop("^", sv, Const(2.0))
        for du, dv in pairs:
            numerator = binop("-", binop("*", du, sv), binop("*", su, dv))
            out.append(binop("/", numerator, square))
    else:
        # general power: u^v (v' ln u + v u'/u)
        power, log = _simplify_pass(expr, memo), _rewrite_call("ln", su)
        for du, dv in pairs:
            quotient = binop("*", sv, binop("/", du, su))
            out.append(binop("*", power, binop("+", binop("*", dv, log), quotient)))
    return tuple(out)


def _function_derivative(fn: str, u: Expr) -> Expr:
    """d fn(u)/du, built through the rewrite rules over a rewritten ``u``."""
    binop, call = _rewrite_binop, _rewrite_call
    if fn == "sin":
        return call("cos", u)
    if fn == "cos":
        return binop("-", Const(0.0), call("sin", u))
    if fn == "tan":
        return binop("/", Const(1.0), binop("^", call("cos", u), Const(2.0)))
    if fn == "exp":
        return call("exp", u)
    if fn == "ln":
        return binop("/", Const(1.0), u)
    if fn == "sqrt":
        return binop("/", Const(1.0), binop("*", Const(2.0), call("sqrt", u)))
    if fn == "abs":
        return call("sign", u)
    if fn == "sign":
        return Const(0.0)  # derivative almost everywhere
    if fn in ("arcsin", "arccos"):
        root = call("sqrt", binop("-", Const(1.0), binop("^", u, Const(2.0))))
        d = binop("/", Const(1.0), root)
        return d if fn == "arcsin" else binop("-", Const(0.0), d)
    if fn == "arctan":
        square = binop("^", u, Const(2.0))
        return binop("/", Const(1.0), binop("+", Const(1.0), square))
    if fn == "erf":
        # (2/sqrt(pi)) e^(-u^2)
        coeff = binop("/", Const(2.0), call("sqrt", PI))
        gauss = call("exp", binop("-", Const(0.0), binop("^", u, Const(2.0))))
        return binop("*", coeff, gauss)
    if fn == "besseli0":
        return call("besseli1", u)
    if fn == "besseli1":
        # I1'(u) = I0(u) - I1(u)/u; evaluating this at u = 0 raises a
        # division error even though the limit (1/2) exists.
        return binop("-", call("besseli0", u), binop("/", call("besseli1", u), u))
    raise TypeError(f"unknown function {fn!r}")


# -- substitution, free variables, printing ----------------------------------


def substitute(expr: Expr, variable: str, replacement: Expr) -> Expr:
    """Replace every occurrence of ``variable`` by ``replacement``.

    The language has no binders, so substitution is capture-free by
    construction.
    """
    if isinstance(expr, Var):
        return replacement if expr.name == variable else expr
    if isinstance(expr, (Const, NamedConst)):
        return expr
    if isinstance(expr, Call):
        arg = substitute(expr.arg, variable, replacement)
        return expr if arg is expr.arg else Call(expr.fn, arg)
    if isinstance(expr, BinOp):
        left = substitute(expr.left, variable, replacement)
        right = substitute(expr.right, variable, replacement)
        if left is expr.left and right is expr.right:
            return expr
        return BinOp(expr.op, left, right)
    raise TypeError(f"not an expression node: {expr!r}")


def free_vars(expr: Expr) -> frozenset[str]:
    """Exactly the variable identifiers occurring in the tree."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Call):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(out)


# Printing precedence levels; parenthesisation keeps round-trips value-exact.
_PREC_ADD = 1
_PREC_MUL = 3
_PREC_NEG = 4
_PREC_POW = 5
_PREC_ATOM = 10


def _format_const(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _prec(expr: Expr) -> int:
    if isinstance(expr, Const):
        return _PREC_NEG if expr.value < 0 else _PREC_ATOM
    if isinstance(expr, (NamedConst, Var, Call)):
        return _PREC_ATOM
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            if expr.op == "-" and expr.left == Const(0.0):
                return _PREC_NEG
            return _PREC_ADD
        if expr.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    raise TypeError(f"not an expression node: {expr!r}")


def to_text(expr: Expr) -> str:
    """Render to the surface grammar, preserving association exactly.

    Right operands of equal precedence are parenthesised (``a + (b - c)``,
    ``a*(b/c)``), so re-parsing reproduces the original evaluation order and
    the round-trip is exact to the last bit, not merely value-close.
    """
    if isinstance(expr, Const):
        v = expr.value
        if v < 0:
            return "-" + _format_const(-v)
        return _format_const(v)
    if isinstance(expr, NamedConst):
        return expr.name
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.fn}({to_text(expr.arg)})"
    if isinstance(expr, BinOp):
        op = expr.op
        if op == "-" and expr.left == Const(0.0):
            child = to_text(expr.right)
            if _prec(expr.right) < _PREC_NEG:
                child = f"({child})"
            return "-" + child
        mine = _prec(expr)
        lt = to_text(expr.left)
        rt = to_text(expr.right)
        if op == "^":
            # left operand of ^ must be atomic; right side accepts unary level
            if _prec(expr.left) < _PREC_ATOM:
                lt = f"({lt})"
            if _prec(expr.right) < _PREC_NEG:
                rt = f"({rt})"
            return f"{lt}{op}{rt}"
        if _prec(expr.left) < mine:
            lt = f"({lt})"
        # +,-,*,/ parse left associative: an equal-precedence right child
        # would re-associate, so it keeps its parentheses
        if _prec(expr.right) <= mine:
            rt = f"({rt})"
        return f"{lt} {op} {rt}" if op in "+-" else f"{lt}{op}{rt}"
    raise TypeError(f"not an expression node: {expr!r}")


# -- simplification ----------------------------------------------------------

_MAX_DISTRIBUTED_POWER = 64


def combine(op: str, *operands: Expr) -> Expr:
    """``simplify`` of ``operands`` joined left to right by ``op``
    (``a op b op c``), for operands that are already simplified: the rules
    run at the joints only, as they do where :func:`partials` builds.
    """
    out, *rest = operands
    with np.errstate(all="ignore"):
        for operand in rest:
            out = _rewrite_binop(op, out, operand)
    return out


def simplify(expr: Expr) -> Expr:
    """Apply a fixed, terminating rewrite set; value-equal on the common domain.

    The rules, applied in one bottom-up pass:

    * constant folding of operators and function calls with constant,
      in-domain arguments, by the checked step :func:`evaluate` runs
      (``pi``/``e`` stay symbolic);
    * ``x*0 -> 0``, ``x*1 -> x``, ``x+0 -> x``, ``x-0 -> x``, ``x/1 -> x``,
      ``x^1 -> x``, ``x^0 -> 1`` (and mirrored variants);
    * ``cos(arccos(u)) -> u`` and ``sin(arccos(u)) -> sqrt(1 - u^2)``;
    * ``sqrt(u)^(2k) -> u^k`` for integer k >= 1;
    * ``(a*b)^n -> a^n * b^n`` and ``(a/b)^n -> a^n / b^n`` for integer
      ``2 <= n <= 64`` when the base contains a ``sqrt``, so that even powers
      of radicals can rationalise.  The base is the rewritten one: where an
      inner rule removed its ``sqrt``, the power stays whole
      (``(x*sqrt(sqrt(y))^4)^2 -> (x*y)^2``).

    Each node a rule makes is itself built through the rules, over operands
    that have been through them, so the one pass reaches the fixed point: a
    second pass would change nothing, and a simplified tree comes back as
    the same object.  Rewrites may extend the domain (e.g.
    ``cos(arccos(u)) -> u`` is defined for all ``u``); on points where the
    input is defined the value is preserved exactly up to floating-point
    evaluation order.
    """
    with np.errstate(all="ignore"):
        return _simplify_pass(expr, {})


# A pass maps each node to the same result whenever it meets it, so a memo
# serves the whole pass: id(node) -> (node, result).  Holding the node keeps
# its id from being reused while the memo lives.
_PassMemo = dict[int, tuple[Expr, Expr]]


def _simplify_pass(expr: Expr, memo: _PassMemo) -> Expr:
    """One bottom-up pass of the rules; ``expr`` itself when none fires at
    or below it.  Nodes are built only where a child changed or a rule
    fired, and a subtree met before is not walked again."""
    if isinstance(expr, (Const, NamedConst, Var)):
        return expr
    hit = memo.get(id(expr))
    if hit is not None:
        return hit[1]
    if isinstance(expr, Call):
        arg = _simplify_pass(expr.arg, memo)
        out = _rewrite_call(expr.fn, arg, expr if arg is expr.arg else None)
    elif isinstance(expr, BinOp):
        left = _simplify_pass(expr.left, memo)
        right = _simplify_pass(expr.right, memo)
        same = left is expr.left and right is expr.right
        out = _rewrite_binop(expr.op, left, right, expr if same else None)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    memo[id(expr)] = (expr, out)
    return out


def _contains_sqrt(expr: Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            if node.fn == "sqrt":
                return True
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
    return False


def _rewrite_call(fn: str, arg: Expr, node: Call | None = None) -> Expr:
    """``fn(arg)`` after the call rules.  ``node``, if given, is that call;
    it is returned as is when no rule fires."""
    if isinstance(arg, Const):
        try:
            return Const(_checked(node or Call(fn, arg), (arg.value,)))
        except DomainError:
            pass  # out of domain: keep symbolic, evaluation will report it
    elif isinstance(arg, Call) and arg.fn == "arccos":
        if fn == "cos":
            return arg.arg
        if fn == "sin":
            square = _rewrite_binop("^", arg.arg, Const(2.0))
            return _rewrite_call("sqrt", _rewrite_binop("-", Const(1.0), square))
    return node or Call(fn, arg)


def _rewrite_binop(
    op: str, left: Expr, right: Expr, node: BinOp | None = None
) -> Expr:
    """``left op right`` after the operator rules.  ``node``, if given, is
    that operation; it is returned as is when no rule fires."""
    lv = left.value if isinstance(left, Const) else None
    rv = right.value if isinstance(right, Const) else None
    if lv is not None and rv is not None:
        node = node or BinOp(op, left, right)
        try:
            return Const(_checked(node, (lv, rv)))
        except DomainError:
            return node  # undefined constant (e.g. 1/0): leave for evaluation
    # a missing value (None) equals neither 0 nor 1
    if op == "*":
        if lv == 0.0 or rv == 0.0:
            return Const(0.0)
        if lv == 1.0:
            return right
        if rv == 1.0:
            return left
    elif op == "+":
        if lv == 0.0:
            return right
        if rv == 0.0:
            return left
    elif op == "-":
        if rv == 0.0:
            return left
    elif op == "/":
        if rv == 1.0:
            return left
    elif op == "^":
        return _rewrite_pow(left, right, rv, node)
    return node or BinOp(op, left, right)


def _rewrite_pow(
    base: Expr, exponent: Expr, n: float | None, node: BinOp | None
) -> Expr:
    """``base ^ exponent`` after the power rules; ``n`` is the exponent's value."""
    if n == 1.0:
        return base
    if n == 0.0:
        return Const(1.0)
    if n is not None and n >= 2.0 and n.is_integer():
        n = int(n)
        # sqrt(u)^(2k) -> u^k
        if isinstance(base, Call) and base.fn == "sqrt" and n % 2 == 0:
            return _rewrite_binop("^", base.arg, Const(float(n // 2)))
        # distribute integer powers over * and / to expose radicals; down
        # the left operands in a loop, so that a long product costs no depth
        spine = []
        while (
            isinstance(base, BinOp)
            and base.op in "*/"
            and n <= _MAX_DISTRIBUTED_POWER
            and _contains_sqrt(base)
        ):
            spine.append(base)
            base = base.left
        if spine:
            e = Const(float(n))
            out = _rewrite_binop("^", base, e)
            for joint in reversed(spine):
                out = _rewrite_binop(joint.op, out, _rewrite_binop("^", joint.right, e))
            return out
    return node or BinOp("^", base, exponent)


# -- compiled kernels ---------------------------------------------------------------


def compile_expr(
    expr: Expr, variables: Sequence[str]
) -> Callable[..., np.ndarray]:
    """Compile to a numpy-broadcasting callable ``f(*arrays) -> ndarray``.

    Arguments are taken as arrays (a float as a 0-d array), so that only
    the program's constants are Python floats, as in :func:`evaluate`.  The
    callable runs the lowered program without domain checks:
    out-of-domain points yield NaN/inf entries under suppressed
    floating-point warnings, and the caller decides how to police them (see
    :func:`locate_domain_error`).  Unknown free variables raise immediately
    at compile time.
    """
    init, steps, _, result = _lower(expr, variables)

    def compiled(*args: np.ndarray) -> np.ndarray:
        slots = [*map(np.asarray, args), *init]
        with np.errstate(all="ignore"):
            for fn, i, j, k in steps:
                slots[k] = fn(slots[i]) if j < 0 else fn(slots[i], slots[j])
        return np.asarray(slots[result], dtype=float)

    return compiled


def locate_domain_error(
    expr: Expr,
    variables: Sequence[str],
    point: Iterable[float],
) -> None:
    """Evaluate strictly at one point and raise its error, with every
    coordinate of the point appended to the message.

    Used by vectorised callers after spotting a non-finite kernel entry:
    the strict run executes the kernel's program, so it raises there too.
    """
    bindings = dict(zip(variables, point))
    try:
        evaluate(expr, bindings)
    except ExpressionError as exc:
        where = ", ".join(f"{name}={value!r}" for name, value in bindings.items())
        exc.args = (f"{exc} at {where}",)
        raise
