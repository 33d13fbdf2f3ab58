"""Dispatch from netlist primitives to their implication rules.

:func:`build_rule` inspects a gate and returns a :class:`GateSemantics`
object bundling

* the pin list (nets) in the canonical order expected by the rule,
* ``imply(cubes)`` -- forward+backward implication over all pins,
* ``forward(input_cubes)`` -- three-valued forward simulation of the outputs
  only, used for the paper's *unjustified gate* test (a gate is justified
  when its forward simulation value covers the required output value).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.bitvector import BV3
from repro.implication import rules_arith, rules_bool, rules_compare, rules_mux
from repro.netlist.arith import Adder, Multiplier, ShiftLeft, ShiftRight, Subtractor
from repro.netlist.compare import Comparator
from repro.netlist.gates import (
    AndGate,
    BufGate,
    ConcatGate,
    ConstGate,
    Gate,
    NandGate,
    NorGate,
    NotGate,
    OrGate,
    ReduceAnd,
    ReduceOr,
    ReduceXor,
    SliceGate,
    XnorGate,
    XorGate,
    ZeroExtendGate,
)
from repro.netlist.mux import Mux
from repro.netlist.nets import Net
from repro.netlist.tristate import BusResolver, TristateBuffer


class GateSemantics:
    """Implication semantics of one combinational primitive."""

    __slots__ = ("gate", "pins", "num_outputs", "imply")

    def __init__(self, gate: Gate, pins: List[Net], num_outputs: int,
                 imply: Callable[[Sequence[BV3]], List[BV3]]):
        self.gate = gate
        self.pins = pins
        self.num_outputs = num_outputs
        self.imply = imply

    def forward(self, input_cubes: Sequence[BV3]) -> List[BV3]:
        """Three-valued forward simulation: outputs implied from inputs only."""
        num_inputs = len(self.pins) - self.num_outputs
        cubes = list(input_cubes) + [
            BV3.unknown(net.width) for net in self.pins[num_inputs:]
        ]
        refined = self.imply(cubes)
        return refined[num_inputs:]


_SIMPLE_BITWISE = {
    AndGate: rules_bool.imply_and,
    OrGate: rules_bool.imply_or,
    XorGate: rules_bool.imply_xor,
    NandGate: rules_bool.imply_nand,
    NorGate: rules_bool.imply_nor,
    XnorGate: rules_bool.imply_xnor,
    NotGate: rules_bool.imply_not,
    BufGate: rules_bool.imply_buf,
    ReduceAnd: rules_bool.imply_reduce_and,
    ReduceOr: rules_bool.imply_reduce_or,
    ReduceXor: rules_bool.imply_reduce_xor,
    ZeroExtendGate: rules_bool.imply_zext,
}


def build_rule(gate: Gate) -> GateSemantics:
    """Build the :class:`GateSemantics` for a combinational gate."""
    gate_type = type(gate)

    if gate_type in _SIMPLE_BITWISE:
        rule = _SIMPLE_BITWISE[gate_type]
        pins = list(gate.inputs) + [gate.output]
        return GateSemantics(gate, pins, 1, rule)

    if isinstance(gate, ConstGate):
        value = gate.value
        return GateSemantics(
            gate, [gate.output], 1, lambda cubes: rules_bool.imply_const(value, cubes)
        )

    if isinstance(gate, SliceGate):
        msb, lsb = gate.msb, gate.lsb
        pins = [gate.inputs[0], gate.output]
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_bool.imply_slice(msb, lsb, cubes)
        )

    if isinstance(gate, ConcatGate):
        widths = [net.width for net in gate.inputs]
        pins = list(gate.inputs) + [gate.output]
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_bool.imply_concat(widths, cubes)
        )

    if isinstance(gate, Adder):
        has_cin = gate.carry_in is not None
        has_cout = gate.carry_out is not None
        pins = [gate.a, gate.b]
        if has_cin:
            pins.append(gate.carry_in)
        pins.append(gate.output)
        num_outputs = 1
        if has_cout:
            pins.append(gate.carry_out)
            num_outputs = 2
        return GateSemantics(
            gate,
            pins,
            num_outputs,
            lambda cubes: rules_arith.imply_adder(has_cin, has_cout, cubes),
        )

    if isinstance(gate, Subtractor):
        pins = [gate.a, gate.b, gate.output]
        return GateSemantics(gate, pins, 1, rules_arith.imply_subtractor)

    if isinstance(gate, Multiplier):
        pins = [gate.a, gate.b, gate.output]
        return GateSemantics(gate, pins, 1, rules_arith.imply_multiplier)

    if isinstance(gate, (ShiftLeft, ShiftRight)):
        kind = "shl" if isinstance(gate, ShiftLeft) else "shr"
        if gate.amount is None:
            amount = gate.constant
            pins = [gate.a, gate.output]
            return GateSemantics(
                gate, pins, 1, lambda cubes: rules_arith.imply_shift_const(kind, amount, cubes)
            )
        pins = [gate.a, gate.amount, gate.output]
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_arith.imply_shift_var(kind, cubes)
        )

    if isinstance(gate, Comparator):
        op = gate.op
        pins = [gate.a, gate.b, gate.output]
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_compare.imply_comparator(op, cubes)
        )

    if isinstance(gate, Mux):
        num_data = len(gate.data)
        pins = [gate.select] + list(gate.data) + [gate.output]
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_mux.imply_mux(num_data, cubes)
        )

    if isinstance(gate, TristateBuffer):
        pins = [gate.data, gate.enable, gate.output]
        return GateSemantics(gate, pins, 1, rules_mux.imply_tristate)

    if isinstance(gate, BusResolver):
        num_drivers = len(gate.drivers)
        pins: List[Net] = []
        for data, enable in gate.drivers:
            pins.extend([data, enable])
        pins.append(gate.output)
        return GateSemantics(
            gate, pins, 1, lambda cubes: rules_mux.imply_bus(num_drivers, cubes)
        )

    raise TypeError("no implication rule for gate type %s" % (gate_type.__name__,))


def forward_simulate(gate: Gate, input_cubes: Sequence[BV3]) -> List[BV3]:
    """Convenience wrapper: three-valued forward simulation of one gate."""
    return build_rule(gate).forward(input_cubes)
