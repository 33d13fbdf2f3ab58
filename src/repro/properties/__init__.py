"""Assertion / witness properties and environmental constraints.

Properties are written as expressions over named circuit signals
(:mod:`repro.properties.spec`).  The converter compiles an expression into a
1-bit *monitor* net inside the circuit and translates the (inverted) property
into value requirements at specific time frames
(:mod:`repro.properties.convert`), exactly as the paper's
property-to-constraint converter does.  Environmental setup -- one-hot input
constraints, pinned values, initialization sequences -- lives in
:mod:`repro.properties.environment`.
"""

from repro.properties.spec import (
    Expression,
    Signal,
    Const,
    BinOp,
    Not,
    And,
    Or,
    Implies,
    Delayed,
    OneHot,
    AtMostOneHot,
    Assertion,
    Witness,
    Property,
)
from repro.properties.convert import PropertyCompiler, CompiledProperty
from repro.properties.environment import Environment, InitializationSequence
from repro.properties.parse import (
    PropertyParseError,
    format_expression,
    parse_expression,
    parsed_expression,
)

__all__ = [
    "Expression",
    "Signal",
    "Const",
    "BinOp",
    "Not",
    "And",
    "Or",
    "Implies",
    "Delayed",
    "OneHot",
    "AtMostOneHot",
    "Assertion",
    "Witness",
    "Property",
    "PropertyCompiler",
    "CompiledProperty",
    "Environment",
    "InitializationSequence",
    "PropertyParseError",
    "format_expression",
    "parse_expression",
    "parsed_expression",
]
