"""Parsing of property expressions from text.

The CLI (``python -m repro check``) and configuration files need to accept
properties written as plain strings, e.g.::

    hour != 13
    onehot(gnt0, gnt1, gnt2)
    (req0 & req1) == 0
    delayed(minute == 59, 1) >> (minute == 0)

The grammar is Python's own expression grammar (parsed with :mod:`ast`,
never evaluated), mapped onto the property AST of
:mod:`repro.properties.spec`:

* identifiers become :class:`~repro.properties.spec.Signal`;
* integer literals become constants;
* ``== != < <= > >= + - * & | ^ ~`` map to the matching operators;
* ``and`` / ``or`` / ``not`` map to :class:`And` / :class:`Or` / :class:`Not`;
* ``>>`` is logical implication;
* the function forms ``onehot(...)``, ``atmostone(...)``,
  ``delayed(expr, cycles)`` and ``implies(a, b)`` are also available.

:func:`parsed_expression` is the cached front door every check goes
through: a re-check of the same text reuses the tree it parsed first.
"""

from __future__ import annotations

import ast
import functools
from typing import Union

from repro.properties.spec import (
    And,
    AtMostOneHot,
    BinOp,
    Const,
    Delayed,
    Expression,
    Implies,
    Not,
    OneHot,
    Or,
    Signal,
)


class PropertyParseError(ValueError):
    """Raised when a property string cannot be parsed."""


#: Binary AST operator types mapped to the property-spec operator symbol.
_BIN_OPERATORS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
}

_COMPARE_OPERATORS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


def parse_expression(text: str) -> Expression:
    """Parse a property expression string into an expression tree."""
    if not text or not text.strip():
        raise PropertyParseError("empty property expression")
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise PropertyParseError("invalid property expression %r: %s" % (text, exc)) from exc
    return _convert(tree.body)


#: How many distinct texts :func:`parsed_expression` keeps parsed.
PARSE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parsed_expression(text: str) -> Expression:
    """:func:`parse_expression` of ``text``, parsed once per process.

    Every caller gets the same tree for the same text, so facts memoised on
    the tree's identity (a monitor's memo key, an assumption's digest) are
    derived once too.  Expressions are never mutated after construction,
    which is what makes sharing one safe.  A text that does not parse
    raises every time: the cache keeps results, never errors.
    """
    return parse_expression(text)


def _operand(node: ast.AST) -> Union[Expression, int]:
    """Convert a node that may be a plain integer operand."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise PropertyParseError("only integer constants are allowed, got %r" % (node.value,))
        return node.value
    return _convert(node)


def _convert(node: ast.AST) -> Expression:
    if isinstance(node, ast.Name):
        return Signal(node.id)

    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, int):
            raise PropertyParseError("only integer constants are allowed, got %r" % (node.value,))
        return Const(node.value)

    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, (ast.Invert, ast.Not)):
            return Not(_convert(node.operand))
        raise PropertyParseError("unsupported unary operator %r" % (node.op,))

    if isinstance(node, ast.BoolOp):
        terms = [_convert(value) for value in node.values]
        return And(*terms) if isinstance(node.op, ast.And) else Or(*terms)

    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.RShift):
            return Implies(_convert(node.left), _convert(node.right))
        symbol = _BIN_OPERATORS.get(type(node.op))
        if symbol is None:
            raise PropertyParseError("unsupported operator %r" % (node.op,))
        left = _convert(node.left)
        right = _operand(node.right)
        return _apply_binop(left, symbol, right)

    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or len(node.comparators) != 1:
            raise PropertyParseError("chained comparisons are not supported")
        symbol = _COMPARE_OPERATORS.get(type(node.ops[0]))
        if symbol is None:
            raise PropertyParseError("unsupported comparison %r" % (node.ops[0],))
        left = _convert(node.left)
        right = _operand(node.comparators[0])
        return _apply_binop(left, symbol, right)

    if isinstance(node, ast.Call):
        return _convert_call(node)

    raise PropertyParseError("unsupported syntax %r" % (ast.dump(node),))


def _apply_binop(left: Expression, symbol: str, right: Union[Expression, int]) -> Expression:
    builders = {
        "==": lambda: left == right,
        "!=": lambda: left != right,
        "<": lambda: left < right,
        "<=": lambda: left <= right,
        ">": lambda: left > right,
        ">=": lambda: left >= right,
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "&": lambda: left & right,
        "|": lambda: left | right,
        "^": lambda: left ^ right,
    }
    return builders[symbol]()


def _convert_call(node: ast.Call) -> Expression:
    if not isinstance(node.func, ast.Name):
        raise PropertyParseError("only simple function calls are supported")
    name = node.func.id.lower()
    arguments = [_convert(argument) for argument in node.args]

    if name == "onehot":
        return OneHot(*arguments)
    if name in ("atmostone", "atmostonehot"):
        return AtMostOneHot(*arguments)
    if name == "implies":
        if len(arguments) != 2:
            raise PropertyParseError("implies() takes exactly two arguments")
        return Implies(arguments[0], arguments[1])
    if name == "delayed":
        if (
            len(node.args) not in (2, 3)
            or not all(isinstance(arg, ast.Constant) for arg in node.args[1:])
        ):
            raise PropertyParseError(
                "delayed(expr, cycles[, initial]) needs constant cycle/initial counts"
            )
        initial = int(node.args[2].value) if len(node.args) == 3 else 0
        return Delayed(arguments[0], cycles=int(node.args[1].value), initial=initial)
    raise PropertyParseError("unknown property function %r" % (name,))


# ----------------------------------------------------------------------
# Rendering (the inverse of :func:`parse_expression`)
# ----------------------------------------------------------------------
def format_expression(expr: Expression) -> str:
    """Render an expression tree as text that :func:`parse_expression` accepts.

    This is what makes programmatically built properties *serialisable*: the
    :class:`~repro.api.CheckRequest` schema carries properties as expression
    strings, and this renderer turns an in-memory tree back into one.  The
    round trip is structure-exact --
    ``property_search_digest(parse_expression(format_expression(e)))``
    equals the digest of ``e`` -- because every composite is parenthesised
    and n-ary operators are kept flat.
    """
    if isinstance(expr, Signal):
        if not expr.name.isidentifier():
            raise PropertyParseError(
                "signal name %r is not renderable as an identifier" % (expr.name,)
            )
        return expr.name
    if isinstance(expr, Const):
        if expr.width is not None:
            raise PropertyParseError(
                "explicit-width constants have no textual form (Const(%d, width=%d))"
                % (expr.value, expr.width)
            )
        return str(expr.value)
    if isinstance(expr, Not):
        return "(~%s)" % format_expression(expr.expr)
    if isinstance(expr, And):
        return "(%s)" % " and ".join(format_expression(t) for t in expr.terms)
    if isinstance(expr, Or):
        return "(%s)" % " or ".join(format_expression(t) for t in expr.terms)
    if isinstance(expr, Implies):
        return "implies(%s, %s)" % (
            format_expression(expr.antecedent),
            format_expression(expr.consequent),
        )
    if isinstance(expr, OneHot):
        return "onehot(%s)" % ", ".join(format_expression(t) for t in expr.terms)
    if isinstance(expr, AtMostOneHot):
        return "atmostone(%s)" % ", ".join(format_expression(t) for t in expr.terms)
    if isinstance(expr, Delayed):
        if expr.initial:
            return "delayed(%s, %d, %d)" % (
                format_expression(expr.expr), expr.cycles, expr.initial,
            )
        return "delayed(%s, %d)" % (format_expression(expr.expr), expr.cycles)
    if isinstance(expr, BinOp):
        return "(%s %s %s)" % (
            format_expression(expr.lhs), expr.op, format_expression(expr.rhs),
        )
    raise PropertyParseError(
        "cannot render expression node %s" % (type(expr).__name__,)
    )
