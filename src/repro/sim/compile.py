"""Compilation of a netlist into one straight-line, bit-parallel step function.

:func:`compile_circuit` runs the shared word-to-bit lowering
(:class:`~repro.netlist.lowering.BitAlgebra`, the one the SAT and BDD
baselines use) once over a circuit, with *lane expressions* as its bits: a
bit is ``"0"`` (no lane set), ``"F"`` (every lane set) or a local name of
generated Python.  Each primitive folds constants, repeats and
``mux(s, x, x)``, and otherwise emits one assignment.  The result is the
source of one function::

    def step(F, ins, state):
        (i0, i1, ...) = ins      # input bit-lanes, in circuit input order
        (s0, s1, ...) = state    # register bit-lanes, in flip-flop order
        t7 = i0 & s1
        ...
        return (next-state lanes), (every net's lanes)

so a simulated cycle runs with no dispatch and no per-gate call at all.  The
source holds only synthetic names (``i3``, ``s7``, ``t42``), ``F``, ``0``
and operators, never a net name or other design text.
"""

from __future__ import annotations

import re
import weakref
from typing import Dict, List, Sequence, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.lowering import BitAlgebra
from repro.netlist.nets import Net

#: a local name of the generated source.
_LOCAL = re.compile(r"[ist]\d+")
#: longest operand chain in one emitted expression (the Python compiler
#: recurses once per operand).
_MAX_OPERANDS = 256

#: circuit -> its program, rebuilt when gates were added since.
_PROGRAMS: "weakref.WeakKeyDictionary[Circuit, LaneProgram]" = weakref.WeakKeyDictionary()


class _LaneAlgebra(BitAlgebra):
    """:class:`BitAlgebra` over lane expressions; emits one line per new bit."""

    def __init__(self) -> None:
        #: ``(name, expression)`` assignments in emission order.
        self.lines: List[Tuple[str, str]] = []
        self._names: Dict[str, str] = {}
        self._inverse: Dict[str, str] = {"0": "F", "F": "0"}

    def _emit(self, expression: str) -> str:
        name = self._names.get(expression)
        if name is None:
            name = "t%d" % len(self.lines)
            self._names[expression] = name
            self.lines.append((name, expression))
        return name

    def constant(self, value: bool) -> str:
        return "F" if value else "0"

    def and_gate(self, inputs: Sequence[str]) -> str:
        return self._chain(" & ", inputs, absorbing="0", identity="F")

    def or_gate(self, inputs: Sequence[str]) -> str:
        return self._chain(" | ", inputs, absorbing="F", identity="0")

    def xor_gate(self, a: str, b: str) -> str:
        if a == b:
            return "0"
        if self._inverse.get(a) == b:
            return "F"
        if a in ("0", "F"):
            a, b = b, a
        if b == "0":
            return a
        if b == "F":
            return self.not_gate(a)
        return self._emit("%s ^ %s" % tuple(sorted((a, b))))

    def not_gate(self, a: str) -> str:
        inverse = self._inverse.get(a)
        if inverse is None:
            inverse = self._emit("%s ^ F" % a)
            self._inverse[a] = inverse
            self._inverse[inverse] = a
        return inverse

    def mux_gate(self, select: str, when_zero: str, when_one: str) -> str:
        if select == "0" or when_zero == when_one:
            return when_zero
        if select == "F":
            return when_one
        if when_zero == "0":
            return self.and_gate([select, when_one])
        if when_one == "0":
            return self.and_gate([self.not_gate(select), when_zero])
        if when_one == "F":
            return self.or_gate([select, when_zero])
        if when_zero == "F":
            return self.or_gate([self.not_gate(select), when_one])
        return self._emit(
            "%s ^ (%s & (%s ^ %s))" % (when_zero, select, when_zero, when_one)
        )

    def _chain(self, operator: str, inputs: Sequence[str], absorbing: str, identity: str) -> str:
        operands = sorted(set(inputs) - {identity})
        if absorbing in operands or any(self._inverse.get(x) in operands for x in operands):
            return absorbing
        if not operands:
            return identity
        while len(operands) > _MAX_OPERANDS:
            operands = [
                self._emit(operator.join(operands[i:i + _MAX_OPERANDS]))
                for i in range(0, len(operands), _MAX_OPERANDS)
            ]
        if len(operands) == 1:
            return operands[0]
        return self._emit(operator.join(operands))


def _tuple(expressions: Sequence[str]) -> str:
    return "(" + "".join(expression + ", " for expression in expressions) + ")"


class LaneProgram:
    """One circuit's clock cycle as a generated ``step(F, ins, state)``.

    ``ins`` and ``state`` are flat bit-lane lists (``inputs`` and
    ``registers`` give their layout); ``step`` returns the next state in the
    same layout and a tuple of lanes from which ``slots`` picks every net's
    bits.  The program snapshots the circuit: :func:`compile_circuit`
    rebuilds it once gates were added.
    """

    def __init__(self, circuit: Circuit):
        self.gate_count = len(circuit.gates)
        #: ``(name, width)`` per input, in circuit order.
        self.inputs: List[Tuple[str, int]] = [(net.name, net.width) for net in circuit.inputs]
        #: ``(q name, width, power-on value)`` per register; unknown is 0.
        self.registers: List[Tuple[str, int, int]] = [
            (ff.q.name, ff.q.width, ff.init_value if ff.init_value is not None else 0)
            for ff in circuit.flip_flops
        ]
        algebra = _LaneAlgebra()
        bits: Dict[Net, List[str]] = {}
        ins = _locals(bits, "i", circuit.inputs)
        state = _locals(bits, "s", [ff.q for ff in circuit.flip_flops])
        for gate in circuit.topological_order():
            algebra.lower_gate(gate, bits)
        next_state = [bit for ff in circuit.flip_flops for bit in algebra.next_state(ff, bits)]

        position: Dict[str, int] = {}
        #: net name -> positions of its bits in ``step``'s second result.
        self.slots: Dict[str, Tuple[int, ...]] = {
            net.name: tuple(position.setdefault(bit, len(position)) for bit in net_bits)
            for net, net_bits in bits.items()
        }
        live = set(next_state) | set(position)
        body = []
        for name, expression in reversed(algebra.lines):
            if name in live:
                body.append("    %s = %s\n" % (name, expression))
                live.update(_LOCAL.findall(expression))
        self.source = "".join(
            ["def step(F, ins, state):\n",
             "    %s = ins\n" % _tuple(ins),
             "    %s = state\n" % _tuple(state)]
            + body[::-1]
            + ["    return %s, %s\n" % (_tuple(next_state), _tuple(list(position)))]
        )
        namespace: Dict[str, object] = {}
        exec(compile(self.source, "<lane program>", "exec"), namespace)
        self.step = namespace["step"]


def _locals(bits: Dict[Net, List[str]], prefix: str, nets: Sequence[Net]) -> List[str]:
    """Name every bit of ``nets`` ``<prefix><n>``, counting on across nets."""
    names: List[str] = []
    for net in nets:
        bits[net] = ["%s%d" % (prefix, len(names) + b) for b in range(net.width)]
        names.extend(bits[net])
    return names


def compile_circuit(circuit: Circuit) -> LaneProgram:
    """The circuit's :class:`LaneProgram`, built once per circuit.

    The program is rebuilt when gates were added since (e.g. after a new
    property monitor is compiled into the netlist).  Raises ``ValueError``
    (via the topological sort) on combinational cycles.
    """
    program = _PROGRAMS.get(circuit)
    if program is None or program.gate_count != len(circuit.gates):
        program = LaneProgram(circuit)
        _PROGRAMS[circuit] = program
    return program
