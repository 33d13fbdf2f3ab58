"""Property expressions and the assertion / witness property classes.

An expression tree references circuit signals by name and combines them with
comparison, arithmetic and Boolean operators, plus a ``Delayed`` operator
giving access to a signal's value a fixed number of cycles earlier (used for
transition properties such as "after 11:59 the clock shows 12:00").

Two property kinds cover the paper's experiments:

* :class:`Assertion` -- a safety property: the expression must hold in every
  reachable cycle.  The checker searches for a *counter-example*.
* :class:`Witness` -- a reachability goal: the checker searches for an input
  sequence making the expression true in some cycle (the paper's "witness
  sequence" for p1, p4, p6, p8).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.records import Record

_T = TypeVar("_T")

#: Operators allowed in :class:`BinOp`.
BINARY_OPERATORS = (
    "==", "!=", "<", "<=", ">", ">=",
    "&", "|", "^",
    "+", "-", "*",
)


class Expression:
    """Base class of the property expression AST."""

    # Convenience operator overloading so properties read naturally.
    def __eq__(self, other: object):  # type: ignore[override]
        return BinOp("==", self, _wrap(other))

    def __ne__(self, other: object):  # type: ignore[override]
        return BinOp("!=", self, _wrap(other))

    def __lt__(self, other):
        return BinOp("<", self, _wrap(other))

    def __le__(self, other):
        return BinOp("<=", self, _wrap(other))

    def __gt__(self, other):
        return BinOp(">", self, _wrap(other))

    def __ge__(self, other):
        return BinOp(">=", self, _wrap(other))

    def __and__(self, other):
        return And(self, _wrap(other))

    def __or__(self, other):
        return Or(self, _wrap(other))

    def __xor__(self, other):
        return BinOp("^", self, _wrap(other))

    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __invert__(self):
        return Not(self)

    def implies(self, other):
        """Logical implication ``self -> other``."""
        return Implies(self, _wrap(other))

    def __hash__(self):  # expressions are used as dict keys in tests
        return id(self)

    # ------------------------------------------------------------------
    def children(self) -> Sequence["Expression"]:
        """Sub-expressions (overridden by composite nodes)."""
        return ()

    def signals(self) -> List[str]:
        """Names of all signals referenced by this expression."""
        found: List[str] = []
        stack: List[Expression] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Signal):
                if node.name not in found:
                    found.append(node.name)
            if isinstance(node, Delayed):
                stack.append(node.expr)
            stack.extend(node.children())
        return found


def _wrap(value) -> "Expression":
    if isinstance(value, Expression):
        return value
    if isinstance(value, int):
        return Const(value)
    raise TypeError("cannot use %r in a property expression" % (value,))


class Signal(Expression):
    """A reference to a circuit net by name."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return "Signal(%r)" % (self.name,)


class Const(Expression):
    """An integer constant; the width is inferred from its context."""

    def __init__(self, value: int, width: Optional[int] = None):
        self.value = value
        self.width = width

    def __repr__(self) -> str:
        return "Const(%d)" % (self.value,)


class BinOp(Expression):
    """A binary operator over two sub-expressions."""

    def __init__(self, op: str, lhs: Expression, rhs: Expression):
        if op not in BINARY_OPERATORS:
            raise ValueError("unsupported property operator %r" % (op,))
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> Sequence[Expression]:
        return (self.lhs, self.rhs)

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.lhs, self.op, self.rhs)


class Not(Expression):
    """Logical negation of a 1-bit expression."""

    def __init__(self, expr: Expression):
        self.expr = expr

    def children(self) -> Sequence[Expression]:
        return (self.expr,)

    def __repr__(self) -> str:
        return "Not(%r)" % (self.expr,)


class And(Expression):
    """Logical conjunction of 1-bit expressions."""

    def __init__(self, *terms: Expression):
        if len(terms) < 2:
            raise ValueError("And needs at least two terms")
        self.terms = [_wrap(t) for t in terms]

    def children(self) -> Sequence[Expression]:
        return tuple(self.terms)

    def __repr__(self) -> str:
        return "And(%s)" % (", ".join(repr(t) for t in self.terms),)


class Or(Expression):
    """Logical disjunction of 1-bit expressions."""

    def __init__(self, *terms: Expression):
        if len(terms) < 2:
            raise ValueError("Or needs at least two terms")
        self.terms = [_wrap(t) for t in terms]

    def children(self) -> Sequence[Expression]:
        return tuple(self.terms)

    def __repr__(self) -> str:
        return "Or(%s)" % (", ".join(repr(t) for t in self.terms),)


class Implies(Expression):
    """Logical implication ``antecedent -> consequent``."""

    def __init__(self, antecedent: Expression, consequent: Expression):
        self.antecedent = _wrap(antecedent)
        self.consequent = _wrap(consequent)

    def children(self) -> Sequence[Expression]:
        return (self.antecedent, self.consequent)

    def __repr__(self) -> str:
        return "Implies(%r, %r)" % (self.antecedent, self.consequent)


class Delayed(Expression):
    """The value of an expression ``cycles`` clock cycles earlier.

    Compiled into monitor registers; at cycles earlier than ``cycles`` the
    value is ``initial`` (default 0), so transition properties should be
    written to be vacuous in those cycles (e.g. guard with the delayed
    expression itself).
    """

    def __init__(self, expr: Expression, cycles: int = 1, initial: int = 0):
        if cycles < 1:
            raise ValueError("Delayed requires cycles >= 1")
        self.expr = _wrap(expr)
        self.cycles = cycles
        self.initial = initial

    def children(self) -> Sequence[Expression]:
        return (self.expr,)

    def __repr__(self) -> str:
        return "Delayed(%r, %d)" % (self.expr, self.cycles)


class OneHot(Expression):
    """Exactly one of the listed 1-bit expressions is 1."""

    def __init__(self, *terms: Expression):
        if len(terms) < 2:
            raise ValueError("OneHot needs at least two terms")
        self.terms = [_wrap(t) for t in terms]

    def children(self) -> Sequence[Expression]:
        return tuple(self.terms)

    def __repr__(self) -> str:
        return "OneHot(%d terms)" % (len(self.terms),)


class AtMostOneHot(Expression):
    """At most one of the listed 1-bit expressions is 1."""

    def __init__(self, *terms: Expression):
        if len(terms) < 2:
            raise ValueError("AtMostOneHot needs at least two terms")
        self.terms = [_wrap(t) for t in terms]

    def children(self) -> Sequence[Expression]:
        return tuple(self.terms)

    def __repr__(self) -> str:
        return "AtMostOneHot(%d terms)" % (len(self.terms),)


# ----------------------------------------------------------------------
# Facts derived from an expression, once per process
# ----------------------------------------------------------------------
#: How many expression objects each :func:`expression_memo` remembers.
EXPRESSION_MEMO_SIZE = 256


class ExpressionMemo(Generic[_T]):
    """A bounded, process-wide memo of one value derived from an expression.

    Keyed by object identity: an expression is never mutated after
    construction, so a value derived from it once stays true.  Each entry
    holds its expression, so no other object can take over its ``id``
    while the entry lives; the least recently used entry goes first.
    A derivation that raises is not remembered.
    """

    def __init__(self, derive: Callable[[Expression], _T], size: int):
        self._derive = derive
        self._size = size
        self._entries: "OrderedDict[int, Tuple[Expression, _T]]" = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, expr: Expression) -> _T:
        key = id(expr)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is expr:
                self._entries.move_to_end(key)
                return entry[1]
        value = self._derive(expr)
        with self._lock:
            self._entries[key] = (expr, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self._size:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)


def expression_memo(derive: Callable[[Expression], _T]) -> ExpressionMemo[_T]:
    """Decorate ``derive(expr)`` into an :class:`ExpressionMemo` of it."""
    return ExpressionMemo(derive, EXPRESSION_MEMO_SIZE)


# ----------------------------------------------------------------------
# Property kinds
# ----------------------------------------------------------------------
class Property(Record):
    """Base property: a named expression over circuit signals."""

    name: str
    expr: Expression
    description: str = ""

    def __init__(self, name: str, expr: Expression, description: str = ""):
        self.name = name
        self.expr = expr
        self.description = description

    @property
    def is_assertion(self) -> bool:
        return isinstance(self, Assertion)


class Assertion(Property):
    """A safety assertion: the expression must hold in every cycle."""


class Witness(Property):
    """A reachability goal: find a cycle where the expression holds."""
