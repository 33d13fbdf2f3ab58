"""Abstract syntax tree of the supported Verilog subset.

The nodes are plain slotted classes: a parse builds them once and nothing
compares them by value.  ``repr`` spells a node as a dataclass would,
because parse and elaboration errors print the node they reject.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.records import fields_repr


class _Node:
    """Base of every node: slot storage and a field-by-field ``repr``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return fields_repr(self, self.__slots__)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class HdlExpression(_Node):
    """Base class of HDL expressions."""

    __slots__ = ()


class Identifier(HdlExpression):
    """A reference to a declared net or register."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Number(HdlExpression):
    """A numeric literal, optionally with an explicit width."""

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: Optional[int] = None):
        self.value = value
        self.width = width


class UnaryOp(HdlExpression):
    """Unary operator: ``~``, ``!``, ``-``, ``&`` (reduction), ``|``, ``^``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: HdlExpression):
        self.op = op
        self.operand = operand


class BinaryOp(HdlExpression):
    """Binary operator over two sub-expressions."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: HdlExpression, rhs: HdlExpression):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class TernaryOp(HdlExpression):
    """Conditional selection ``condition ? when_true : when_false``."""

    __slots__ = ("condition", "when_true", "when_false")

    def __init__(self, condition: HdlExpression, when_true: HdlExpression,
                 when_false: HdlExpression):
        self.condition = condition
        self.when_true = when_true
        self.when_false = when_false


class Concat(HdlExpression):
    """Concatenation ``{a, b, c}`` (most significant part first)."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[HdlExpression]):
        self.parts = parts


class BitSelect(HdlExpression):
    """Single-bit select ``name[index]`` (constant index only)."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index


class PartSelect(HdlExpression):
    """Part select ``name[msb:lsb]`` (constant bounds only)."""

    __slots__ = ("name", "msb", "lsb")

    def __init__(self, name: str, msb: int, lsb: int):
        self.name = name
        self.msb = msb
        self.lsb = lsb


# ----------------------------------------------------------------------
# Statements and declarations
# ----------------------------------------------------------------------
class HdlStatement(_Node):
    """Base class of procedural statements."""

    __slots__ = ()


class NonBlockingAssign(HdlStatement):
    """``target <= expression;`` inside a clocked process."""

    __slots__ = ("target", "expr")

    def __init__(self, target: str, expr: HdlExpression):
        self.target = target
        self.expr = expr


class IfStmt(HdlStatement):
    """``if (condition) ... else ...``."""

    __slots__ = ("condition", "then_body", "else_body")

    def __init__(self, condition: HdlExpression, then_body: List[HdlStatement],
                 else_body: Optional[List[HdlStatement]] = None):
        self.condition = condition
        self.then_body = then_body
        self.else_body = [] if else_body is None else else_body


class CaseStmt(HdlStatement):
    """``case (selector) value: ...; default: ...; endcase``."""

    __slots__ = ("selector", "items", "default")

    def __init__(self, selector: HdlExpression,
                 items: List[Tuple[List[HdlExpression], List[HdlStatement]]],
                 default: Optional[List[HdlStatement]] = None):
        self.selector = selector
        self.items = items
        self.default = [] if default is None else default


class AssignStmt(_Node):
    """Continuous assignment ``assign target = expression;``."""

    __slots__ = ("target", "expr")

    def __init__(self, target: Union[str, PartSelect, BitSelect], expr: HdlExpression):
        self.target = target
        self.expr = expr


class AlwaysBlock(_Node):
    """A clocked process ``always @(posedge clock) ...``."""

    __slots__ = ("clock", "edge", "body", "reset", "reset_edge")

    def __init__(self, clock: str, edge: str, body: List[HdlStatement],
                 reset: Optional[str] = None, reset_edge: Optional[str] = None):
        self.clock = clock
        self.edge = edge
        self.body = body
        self.reset = reset
        self.reset_edge = reset_edge


class PortDecl(_Node):
    """A module port with direction and width."""

    __slots__ = ("direction", "name", "width")

    def __init__(self, direction: str, name: str, width: int):
        self.direction = direction
        self.name = name
        self.width = width


class NetDecl(_Node):
    """An internal ``wire`` or ``reg`` declaration."""

    __slots__ = ("kind", "name", "width")

    def __init__(self, kind: str, name: str, width: int):
        self.kind = kind
        self.name = name
        self.width = width


class ParameterDecl(_Node):
    """A ``parameter``/``localparam`` constant."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int):
        self.name = name
        self.value = value


class ModuleDecl(_Node):
    """One Verilog module."""

    __slots__ = ("name", "ports", "nets", "parameters", "assigns", "always_blocks",
                 "source_lines")

    def __init__(
        self,
        name: str,
        ports: Optional[List[PortDecl]] = None,
        nets: Optional[List[NetDecl]] = None,
        parameters: Optional[List[ParameterDecl]] = None,
        assigns: Optional[List[AssignStmt]] = None,
        always_blocks: Optional[List[AlwaysBlock]] = None,
        source_lines: int = 0,
    ):
        self.name = name
        self.ports = [] if ports is None else ports
        self.nets = [] if nets is None else nets
        self.parameters = [] if parameters is None else parameters
        self.assigns = [] if assigns is None else assigns
        self.always_blocks = [] if always_blocks is None else always_blocks
        self.source_lines = source_lines

    def port(self, name: str) -> PortDecl:
        """Look up a port by name."""
        for port in self.ports:
            if port.name == name:
                return port
        raise KeyError("no port named %r in module %r" % (name, self.name))
