"""Levelization of a netlist into a flat, bit-parallel evaluation plan.

The interpreted simulator pays, per vector and per gate, a dict lookup for
every operand plus an ``isinstance``/virtual-dispatch step.  This pass hoists
all of that to compile time: every net gets an integer *slot*, every gate
becomes one :class:`PlanOp` record (opcode string + slot indices + static
parameters) in topological order, and flip-flops become :class:`FFPlan`
records for the state-update phase.  The executor
(:class:`~repro.sim.bitparallel.BitParallelSim`) walks the flat op list with
no per-step name resolution or type dispatch at all.

Opcodes and their ``params`` payloads:

========== =========================================================
``and or xor nand nor xnor``  n-ary bitwise; ``ins`` are operand slots
``not buf``                   unary bitwise
``redand redor redxor``       reductions; ``params=(input_width,)``
``const``                     ``params=(value,)``
``slice``                     ``params=(msb, lsb)``
``concat``                    ``params=(width_0, ..., width_n-1)``
``zext``                      ``params=(input_width,)``
``add``                       ``ins=(a, b[, cin])``; ``params=(has_cin, cout_slot)``
``sub``                       ``ins=(a, b)``
``mul``                       word fallback; ``params=(a_width, b_width)``
``shl_const shr_const``       ``params=(shift, input_width)``
``shl_var shr_var``           word fallback; ``params=(a_width, amt_width)``
``cmp``                       ``params=(op,)`` with op in ``== != < <= > >=``
``mux``                       ``ins=(select, d0, ..., dn-1)``; ``params=(select_width,)``
``bus``                       ``ins=(d0, e0, d1, e1, ...)``
========== =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.netlist.arith import Adder, Multiplier, ShiftLeft, ShiftRight, Subtractor
from repro.netlist.circuit import Circuit
from repro.netlist.compare import Comparator
from repro.netlist.gates import (
    AndGate,
    BufGate,
    ConcatGate,
    ConstGate,
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


@dataclass(frozen=True)
class PlanOp:
    """One levelized evaluation step (see the module docstring for payloads)."""

    opcode: str
    out: int
    width: int
    ins: Tuple[int, ...]
    params: Tuple = ()


@dataclass(frozen=True)
class FFPlan:
    """One register in the state-update phase of a cycle."""

    q: int
    d: int
    width: int
    enable: int  # slot or -1
    reset: int  # slot or -1
    set_: int  # slot or -1
    reset_value: int
    init_value: int  # unknown power-on (None) normalises to 0, as the oracle does


@dataclass
class CompiledCircuit:
    """A levelized, slot-indexed evaluation plan for one circuit."""

    name: str
    num_slots: int
    widths: List[int]
    slot_of_name: Dict[str, int]
    inputs: List[Tuple[str, int, int]]  # (name, slot, width)
    ops: List[PlanOp]
    ffs: List[FFPlan]

    def slot(self, net_or_name) -> int:
        """Slot index of a net (by object or name)."""
        name = net_or_name.name if isinstance(net_or_name, Net) else net_or_name
        return self.slot_of_name[name]


_BITWISE_OPCODES = [
    (AndGate, "and"),
    (OrGate, "or"),
    (XorGate, "xor"),
    (NandGate, "nand"),
    (NorGate, "nor"),
    (XnorGate, "xnor"),
]


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Levelize ``circuit`` into a :class:`CompiledCircuit` evaluation plan.

    Raises ``ValueError`` (via the topological sort) on combinational cycles.
    The plan snapshots the circuit at compile time; recompile after adding
    gates (e.g. after compiling a new property monitor into the netlist).
    """
    slots: Dict[Net, int] = {net: index for index, net in enumerate(circuit.nets)}
    widths = [net.width for net in circuit.nets]
    ops: List[PlanOp] = []

    for gate in circuit.topological_order():
        ops.append(_compile_gate(gate, slots))

    ffs: List[FFPlan] = []
    for ff in circuit.flip_flops:
        ffs.append(
            FFPlan(
                q=slots[ff.q],
                d=slots[ff.d],
                width=ff.q.width,
                enable=slots[ff.enable] if ff.enable is not None else -1,
                reset=slots[ff.reset] if ff.reset is not None else -1,
                set_=slots[ff.set] if ff.set is not None else -1,
                reset_value=ff.reset_value,
                init_value=ff.init_value if ff.init_value is not None else 0,
            )
        )

    return CompiledCircuit(
        name=circuit.name,
        num_slots=len(circuit.nets),
        widths=widths,
        slot_of_name={net.name: index for net, index in slots.items()},
        inputs=[(net.name, slots[net], net.width) for net in circuit.inputs],
        ops=ops,
        ffs=ffs,
    )


def _compile_gate(gate, slots: Dict[Net, int]) -> PlanOp:
    """Compile-time dispatch: one gate to one PlanOp record."""
    out = slots[gate.output]
    width = gate.output.width
    ins = tuple(slots[net] for net in gate.inputs)

    for gate_class, opcode in _BITWISE_OPCODES:
        if type(gate) is gate_class:
            return PlanOp(opcode, out, width, ins)
    if isinstance(gate, NotGate):
        return PlanOp("not", out, width, ins)
    if isinstance(gate, (BufGate, TristateBuffer, ZeroExtendGate)):
        # A tri-state buffer's concrete output is its data input (resolution
        # happens in the bus op); zext just pads zero lanes above the input.
        if isinstance(gate, ZeroExtendGate):
            return PlanOp("zext", out, width, ins[:1], (gate.inputs[0].width,))
        return PlanOp("buf", out, width, ins[:1])
    if isinstance(gate, ReduceAnd):
        return PlanOp("redand", out, width, ins, (gate.inputs[0].width,))
    if isinstance(gate, ReduceOr):
        return PlanOp("redor", out, width, ins, (gate.inputs[0].width,))
    if isinstance(gate, ReduceXor):
        return PlanOp("redxor", out, width, ins, (gate.inputs[0].width,))
    if isinstance(gate, ConstGate):
        return PlanOp("const", out, width, (), (gate.value,))
    if isinstance(gate, SliceGate):
        return PlanOp("slice", out, width, ins, (gate.msb, gate.lsb))
    if isinstance(gate, ConcatGate):
        return PlanOp("concat", out, width, ins, tuple(n.width for n in gate.inputs))
    if isinstance(gate, Adder):
        has_cin = gate.carry_in is not None
        cout = slots[gate.carry_out] if gate.carry_out is not None else -1
        operand_slots = (slots[gate.a], slots[gate.b]) + (
            (slots[gate.carry_in],) if has_cin else ()
        )
        return PlanOp("add", out, width, operand_slots, (has_cin, cout))
    if isinstance(gate, Subtractor):
        return PlanOp("sub", out, width, (slots[gate.a], slots[gate.b]))
    if isinstance(gate, Multiplier):
        return PlanOp(
            "mul", out, width, (slots[gate.a], slots[gate.b]),
            (gate.a.width, gate.b.width),
        )
    if isinstance(gate, (ShiftLeft, ShiftRight)):
        left = isinstance(gate, ShiftLeft)
        if gate.amount is None:
            return PlanOp(
                "shl_const" if left else "shr_const",
                out, width, (slots[gate.a],), (gate.constant, gate.a.width),
            )
        return PlanOp(
            "shl_var" if left else "shr_var",
            out, width, (slots[gate.a], slots[gate.amount]),
            (gate.a.width, gate.amount.width),
        )
    if isinstance(gate, Comparator):
        return PlanOp("cmp", out, width, (slots[gate.a], slots[gate.b]), (gate.op,))
    if isinstance(gate, Mux):
        return PlanOp(
            "mux", out, width,
            (slots[gate.select],) + tuple(slots[d] for d in gate.data),
            (gate.select.width,),
        )
    if isinstance(gate, BusResolver):
        driver_slots: List[int] = []
        for data, enable in gate.drivers:
            driver_slots.append(slots[data])
            driver_slots.append(slots[enable])
        return PlanOp("bus", out, width, tuple(driver_slots))
    raise NotImplementedError(
        "cannot compile gate %r of type %s" % (gate.name, type(gate).__name__)
    )
