"""Word-to-bit lowering shared by every bit-level engine.

The SAT bit-blaster, the BDD checker and the bit-parallel simulator all turn
every word-level gate into one Boolean function per output bit: over Tseitin
literals, over BDD nodes, and over lane expressions of generated Python
(:mod:`repro.sim`).  :class:`BitAlgebra` writes that lowering once.  A
subclass supplies six primitives over its own kind of bit (``constant``,
``and_gate``, ``or_gate``, ``xor_gate``, ``not_gate`` and ``mux_gate``); the
word helpers, :meth:`BitAlgebra.lower_gate` and :meth:`BitAlgebra.next_state`
are built from those alone.  Words are bit lists, least significant first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.netlist.arith import Adder, Multiplier, ShiftLeft, ShiftRight, Subtractor
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
from repro.netlist.seq import DFF
from repro.netlist.tristate import BusResolver, TristateBuffer

#: a bit is whatever the subclass computes with: a CNF literal, a BDD node
#: or a lane expression.
Bits = List


class BitAlgebra:
    """Gate semantics at bit level, over the six primitives of a subclass."""

    # ------------------------------------------------------------------
    # Primitives (supplied by a subclass)
    # ------------------------------------------------------------------
    def constant(self, value: bool) -> int:
        raise NotImplementedError

    def and_gate(self, inputs: Sequence[int]) -> int:
        raise NotImplementedError

    def or_gate(self, inputs: Sequence[int]) -> int:
        raise NotImplementedError

    def xor_gate(self, a: int, b: int) -> int:
        raise NotImplementedError

    def not_gate(self, a: int) -> int:
        raise NotImplementedError

    def mux_gate(self, select: int, when_zero: int, when_one: int) -> int:
        """``select ? when_one : when_zero``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def equal_gate(self, a: int, b: int) -> int:
        """``a == b``."""
        return self.not_gate(self.xor_gate(a, b))

    def full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """Returns ``(sum, carry_out)`` bits of a full adder."""
        axb = self.xor_gate(a, b)
        total = self.xor_gate(axb, carry_in)
        carry = self.or_gate(
            [self.and_gate([a, b]), self.and_gate([axb, carry_in])]
        )
        return total, carry

    # ------------------------------------------------------------------
    # Word-level helpers
    # ------------------------------------------------------------------
    def word_and(self, a: Sequence[int], b: Sequence[int]) -> Bits:
        return [self.and_gate([x, y]) for x, y in zip(a, b)]

    def word_or(self, a: Sequence[int], b: Sequence[int]) -> Bits:
        return [self.or_gate([x, y]) for x, y in zip(a, b)]

    def word_xor(self, a: Sequence[int], b: Sequence[int]) -> Bits:
        return [self.xor_gate(x, y) for x, y in zip(a, b)]

    def word_not(self, a: Sequence[int]) -> Bits:
        return [self.not_gate(x) for x in a]

    def word_constant(self, value: int, width: int) -> Bits:
        return [self.constant(bool((value >> i) & 1)) for i in range(width)]

    def word_add(self, a: Sequence[int], b: Sequence[int], carry_in: Optional[int] = None) -> Tuple[Bits, int]:
        """Ripple-carry addition; returns (sum bits, carry out)."""
        carry = carry_in if carry_in is not None else self.constant(False)
        out: Bits = []
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out, carry

    def word_sub(self, a: Sequence[int], b: Sequence[int]) -> Bits:
        """``a - b`` as ``a + ~b + 1``."""
        result, _ = self.word_add(a, self.word_not(b), carry_in=self.constant(True))
        return result

    def word_mul(self, a: Sequence[int], b: Sequence[int], out_width: int) -> Bits:
        """Shift-and-add multiplication truncated to ``out_width`` bits."""
        accumulator = self.word_constant(0, out_width)
        for shift, control in enumerate(b):
            if shift >= out_width:
                break
            shifted = self.word_constant(0, shift) + list(a)
            shifted = shifted[:out_width]
            while len(shifted) < out_width:
                shifted.append(self.constant(False))
            gated = [self.and_gate([bit, control]) for bit in shifted]
            accumulator, _ = self.word_add(accumulator, gated)
        return accumulator

    def word_equal(self, a: Sequence[int], b: Sequence[int]) -> int:
        bits = [self.equal_gate(x, y) for x, y in zip(a, b)]
        return self.and_gate(bits) if len(bits) > 1 else bits[0]

    def word_less_than(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Unsigned ``a < b`` via subtraction borrow."""
        # a < b  <=>  carry out of (a + ~b + 1) is 0.
        _, carry = self.word_add(a, self.word_not(b), carry_in=self.constant(True))
        return self.not_gate(carry)

    def word_mux(self, select: int, when_zero: Sequence[int], when_one: Sequence[int]) -> Bits:
        return [self.mux_gate(select, z, o) for z, o in zip(when_zero, when_one)]

    # ------------------------------------------------------------------
    # Gates and registers
    # ------------------------------------------------------------------
    def lower_gate(self, gate, bits: Dict[Net, Bits]) -> None:
        """Set ``bits[net]`` for every net ``gate`` drives, in one frame.

        ``bits`` maps each net already lowered in the frame to its bits.
        Registers drive nothing within a frame: see :meth:`next_state`.
        """
        if isinstance(gate, DFF):
            return
        ins = [bits[net] for net in gate.inputs]
        if isinstance(gate, ConstGate):
            out = self.word_constant(gate.value, gate.output.width)
        elif isinstance(gate, (BufGate, TristateBuffer)):
            out = list(ins[0])
        elif isinstance(gate, NotGate):
            out = self.word_not(ins[0])
        elif isinstance(gate, (AndGate, NandGate)):
            out = self._fold(self.word_and, ins, isinstance(gate, NandGate))
        elif isinstance(gate, (OrGate, NorGate)):
            out = self._fold(self.word_or, ins, isinstance(gate, NorGate))
        elif isinstance(gate, (XorGate, XnorGate)):
            out = self._fold(self.word_xor, ins, isinstance(gate, XnorGate))
        elif isinstance(gate, ReduceAnd):
            out = [self.and_gate(ins[0])]
        elif isinstance(gate, ReduceOr):
            out = [self.or_gate(ins[0])]
        elif isinstance(gate, ReduceXor):
            parity = ins[0][0]
            for bit in ins[0][1:]:
                parity = self.xor_gate(parity, bit)
            out = [parity]
        elif isinstance(gate, SliceGate):
            out = list(ins[0][gate.lsb : gate.msb + 1])
        elif isinstance(gate, ConcatGate):
            out = []
            for operand in reversed(ins):  # least significant part last in inputs
                out.extend(operand)
        elif isinstance(gate, ZeroExtendGate):
            out = list(ins[0]) + [self.constant(False)] * (gate.output.width - len(ins[0]))
        elif isinstance(gate, Adder):
            carry_in = bits[gate.carry_in][0] if gate.carry_in is not None else None
            out, carry = self.word_add(bits[gate.a], bits[gate.b], carry_in)
            if gate.carry_out is not None:
                bits[gate.carry_out] = [carry]
        elif isinstance(gate, Subtractor):
            out = self.word_sub(bits[gate.a], bits[gate.b])
        elif isinstance(gate, Multiplier):
            out = self.word_mul(bits[gate.a], bits[gate.b], gate.output.width)
        elif isinstance(gate, (ShiftLeft, ShiftRight)):
            out = self._shift(gate, bits)
        elif isinstance(gate, Comparator):
            out = [self._compare(gate.op, bits[gate.a], bits[gate.b])]
        elif isinstance(gate, Mux):
            out = self._mux_tree(bits[gate.select], [bits[net] for net in gate.data])
        elif isinstance(gate, BusResolver):
            out = self.word_constant(0, gate.output.width)
            for data, enable in gate.drivers:
                enable_bit = bits[enable][0]
                out = self.word_or(out, [self.and_gate([bit, enable_bit]) for bit in bits[data]])
        else:
            raise TypeError("no bit-level lowering for %s" % (type(gate).__name__,))
        bits[gate.output] = out

    def next_state(self, ff: DFF, bits: Dict[Net, Bits]) -> Bits:
        """The bits ``ff`` holds in the next frame, from this frame's ``bits``."""
        value = list(bits[ff.d])
        if ff.enable is not None:
            value = self.word_mux(bits[ff.enable][0], bits[ff.q], value)
        if ff.set is not None:
            value = self.word_mux(
                bits[ff.set][0], value, self.word_constant(ff.q.mask(), ff.q.width)
            )
        if ff.reset is not None:
            value = self.word_mux(
                bits[ff.reset][0], value, self.word_constant(ff.reset_value, ff.q.width)
            )
        return value

    # ------------------------------------------------------------------
    def _fold(
        self, word_op: Callable[[Sequence[int], Sequence[int]], Bits],
        operands: List[Bits], invert: bool,
    ) -> Bits:
        result = operands[0]
        for operand in operands[1:]:
            result = word_op(result, operand)
        return self.word_not(result) if invert else result

    def _shift(self, gate, bits: Dict[Net, Bits]) -> Bits:
        a = bits[gate.a]
        width = gate.output.width
        left = isinstance(gate, ShiftLeft)
        if gate.amount is None:
            amount = gate.constant
            out = []
            for i in range(width):
                src = i - amount if left else i + amount
                out.append(a[src] if 0 <= src < len(a) else self.constant(False))
            return out
        # Variable shift: a barrel of muxes, one stage per amount bit.  A
        # stage that shifts by ``width`` or more selects all zeros.
        current = list(a)
        for stage, control in enumerate(bits[gate.amount]):
            shift = 1 << stage
            shifted = []
            for i in range(width):
                src = i - shift if left else i + shift
                shifted.append(current[src] if 0 <= src < width else self.constant(False))
            current = self.word_mux(control, current, shifted)
        return current

    def _compare(self, op: str, a: Bits, b: Bits) -> int:
        if op == "==":
            return self.word_equal(a, b)
        if op == "!=":
            return self.not_gate(self.word_equal(a, b))
        if op == "<":
            return self.word_less_than(a, b)
        if op == ">=":
            return self.not_gate(self.word_less_than(a, b))
        if op == ">":
            return self.word_less_than(b, a)
        return self.not_gate(self.word_less_than(b, a))  # "<="

    def _mux_tree(self, select_bits: Bits, data: List[Bits]) -> Bits:
        # Binary selection tree over the select bits, clamping out-of-range
        # selects onto the last input (matching Mux.evaluate).
        level = list(data)
        while len(level) < 1 << len(select_bits):
            level.append(data[-1])
        for control in select_bits:
            level = [
                self.word_mux(control, level[i], level[i + 1] if i + 1 < len(level) else level[i])
                for i in range(0, len(level), 2)
            ]
        return level[0]
