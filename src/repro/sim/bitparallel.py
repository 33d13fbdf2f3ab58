"""Bit-parallel execution of a compiled evaluation plan.

:class:`BitParallelSim` simulates K input vectors at once.  Every net of
width W is represented as W Python-int *lanes*; bit ``k`` of lane ``b`` is
bit ``b`` of vector ``k``'s value.  One bitwise gate visit then evaluates all
K vectors with a handful of big-int operations, so the per-gate interpreter
overhead (the dominant cost of the reference simulator) is amortised K ways.

Word-level structure maps onto lanes as follows:

* bitwise logic, reductions, slice/concat/zext, tri-state buses and mux
  select decoding are pure lane operations;
* adders, subtractors and comparators use K-wide ripple carry/borrow chains
  (O(width) lane operations for all K vectors);
* multipliers and variable-amount shifters fall back to per-lane word
  packing: the operand lanes are transposed into K machine words, evaluated
  per vector, and the results transposed back (these gates are rare in the
  benchmark zoo, so the transpose cost is negligible in practice).

Registers update in a separate phase with the same reset > set > enable
priority as the interpreted oracle; unknown power-on values normalise to 0
exactly as :class:`~repro.simulation.simulator.Simulator` does, so lane
outputs are bit-for-bit comparable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.sim.compile import CompiledCircuit, FFPlan, PlanOp, compile_circuit

Lanes = List[int]


# ----------------------------------------------------------------------
# Lane transposition helpers
# ----------------------------------------------------------------------
def pack_words(words: Sequence[int], width: int) -> Lanes:
    """Transpose per-vector words into ``width`` bit-lanes (LSB lane first)."""
    lanes = [0] * width
    mask = (1 << width) - 1
    for index, word in enumerate(words):
        word &= mask
        bit = 1 << index
        while word:
            low = word & -word
            lanes[low.bit_length() - 1] |= bit
            word ^= low
    return lanes


def unpack_words(lanes: Sequence[int], count: int) -> List[int]:
    """Transpose bit-lanes back into ``count`` per-vector words."""
    words = [0] * count
    for position, lane in enumerate(lanes):
        bit = 1 << position
        while lane:
            low = lane & -lane
            index = low.bit_length() - 1
            if index >= count:
                break
            words[index] |= bit
            lane ^= low
    return words


# ----------------------------------------------------------------------
# K-wide arithmetic primitives over lanes
# ----------------------------------------------------------------------
def _ripple_add(a: Lanes, b: Lanes, carry: int):
    """K-wide ``a + b + carry``; returns (sum lanes, carry-out lane)."""
    out = []
    for la, lb in zip(a, b):
        axb = la ^ lb
        out.append(axb ^ carry)
        carry = (la & lb) | (carry & axb)
    return out, carry


def _ge_lane(a: Lanes, b: Lanes, full: int) -> int:
    """K-wide unsigned ``a >= b`` (the carry out of ``a + ~b + 1``)."""
    carry = full
    for la, lb in zip(a, b):
        nb = lb ^ full
        carry = (la & nb) | (carry & (la ^ nb))
    return carry


def _eq_lane(a: Lanes, b: Lanes, full: int) -> int:
    """K-wide ``a == b``."""
    result = full
    for la, lb in zip(a, b):
        result &= (la ^ lb) ^ full
    return result


def _const_indicator(select: Lanes, value: int, full: int) -> int:
    """K-wide ``select == value`` for a compile-time constant value."""
    result = full
    for position, lane in enumerate(select):
        result &= lane if (value >> position) & 1 else lane ^ full
    return result


class BitParallelSim:
    """Evaluates a compiled plan over K simultaneous input vectors.

    Parameters
    ----------
    plan:
        A :class:`CompiledCircuit` (or a :class:`Circuit`, compiled on the
        fly for convenience).
    lanes:
        K, the number of vectors evaluated per :meth:`step`.
    initial_state:
        Optional mapping from register output net (or name) to a scalar
        power-on value, broadcast across all K lanes; registers not
        mentioned use their ``init_value`` (0 when unknown), matching the
        interpreted oracle.
    """

    def __init__(
        self,
        plan: Union[CompiledCircuit, Circuit],
        lanes: int = 64,
        initial_state: Optional[Mapping[Union[Net, str], int]] = None,
    ):
        if isinstance(plan, Circuit):
            plan = compile_circuit(plan)
        if lanes < 1:
            raise ValueError("lanes must be >= 1, got %d" % (lanes,))
        self.plan = plan
        self.lanes = lanes
        self.full = (1 << lanes) - 1
        self._kernel: List[Callable] = [self._compile_op(op) for op in plan.ops]
        self.values: List[Optional[Lanes]] = [None] * plan.num_slots
        name_of_slot = {slot: name for name, slot in plan.slot_of_name.items()}
        #: register output-net names, parallel to plan.ffs (reset hot path).
        self._ff_names: List[str] = [name_of_slot[ff.q] for ff in plan.ffs]
        self.state: List[Lanes] = []
        self.reset(initial_state)

    # ------------------------------------------------------------------
    def reset(self, initial_state: Optional[Mapping[Union[Net, str], int]] = None) -> None:
        """Re-broadcast the power-on state across all lanes."""
        overrides: Dict[str, int] = {}
        if initial_state:
            for key, value in initial_state.items():
                overrides[key.name if isinstance(key, Net) else key] = value
        self.state = []
        for ff, name in zip(self.plan.ffs, self._ff_names):
            value = overrides.get(name, ff.init_value)
            self.state.append(self._broadcast(value, ff.width))

    def _broadcast(self, value: int, width: int) -> Lanes:
        full = self.full
        return [full if (value >> b) & 1 else 0 for b in range(width)]

    # ------------------------------------------------------------------
    def step(self, input_lanes: Mapping[str, Sequence[int]]) -> None:
        """Evaluate one clock cycle for all K vectors and update registers.

        ``input_lanes`` maps input net names to their bit-lanes (LSB lane
        first; build them with :func:`pack_words`).  Missing inputs default
        to 0 in every lane, like the interpreted oracle.
        """
        values = self.values
        full = self.full
        for name, slot, width in self.plan.inputs:
            provided = input_lanes.get(name)
            if provided is None:
                values[slot] = [0] * width
            else:
                lanes = [lane & full for lane in provided[:width]]
                if len(lanes) < width:
                    lanes.extend([0] * (width - len(lanes)))
                values[slot] = lanes
        for ff, current in zip(self.plan.ffs, self.state):
            values[ff.q] = current
        for op in self._kernel:
            op(values)
        self.state = [
            self._next_state(ff, current, values)
            for ff, current in zip(self.plan.ffs, self.state)
        ]

    def _next_state(self, ff: FFPlan, current: Lanes, values) -> Lanes:
        full = self.full
        nxt = values[ff.d]
        if ff.enable >= 0:
            enable = values[ff.enable][0]
            disabled = enable ^ full
            nxt = [(enable & n) | (disabled & c) for n, c in zip(nxt, current)]
        if ff.set_ >= 0:
            set_lane = values[ff.set_][0]
            nxt = [n | set_lane for n in nxt]
        if ff.reset >= 0:
            reset = values[ff.reset][0]
            keep = reset ^ full
            value = ff.reset_value
            nxt = [
                ((reset if (value >> b) & 1 else 0) | (keep & n))
                for b, n in enumerate(nxt)
            ]
        return nxt

    # ------------------------------------------------------------------
    def peek(self, net_or_name: Union[Net, str]) -> Lanes:
        """Lanes of a net after the last :meth:`step`."""
        lanes = self.values[self.plan.slot(net_or_name)]
        if lanes is None:
            raise KeyError("net %r has no value; step() first" % (net_or_name,))
        return lanes

    def sample(self, net_or_name: Union[Net, str], lane: int) -> int:
        """Scalar value of one net in one lane after the last :meth:`step`."""
        value = 0
        for position, bits in enumerate(self.peek(net_or_name)):
            if (bits >> lane) & 1:
                value |= 1 << position
        return value

    # ------------------------------------------------------------------
    # Per-opcode kernel compilation (closures capture slots and constants,
    # so the execution loop does zero name resolution or type dispatch).
    # ------------------------------------------------------------------
    def _compile_op(self, op: PlanOp) -> Callable:
        full = self.full
        lanes = self.lanes
        out = op.out
        ins = op.ins
        opcode = op.opcode
        width = op.width

        if opcode in ("and", "or", "xor", "nand", "nor", "xnor"):
            return self._compile_bitwise(op)
        if opcode == "not":
            a = ins[0]

            def op_not(v):
                v[out] = [lane ^ full for lane in v[a]]

            return op_not
        if opcode == "buf":
            a = ins[0]

            def op_buf(v):
                v[out] = v[a]

            return op_buf
        if opcode == "zext":
            a = ins[0]
            pad = [0] * (width - op.params[0])

            def op_zext(v):
                v[out] = v[a] + pad

            return op_zext
        if opcode == "redand":
            a = ins[0]

            def op_redand(v):
                result = full
                for lane in v[a]:
                    result &= lane
                v[out] = [result]

            return op_redand
        if opcode == "redor":
            a = ins[0]

            def op_redor(v):
                result = 0
                for lane in v[a]:
                    result |= lane
                v[out] = [result]

            return op_redor
        if opcode == "redxor":
            a = ins[0]

            def op_redxor(v):
                result = 0
                for lane in v[a]:
                    result ^= lane
                v[out] = [result]

            return op_redxor
        if opcode == "const":
            constant = self._broadcast(op.params[0], width)

            def op_const(v):
                v[out] = constant

            return op_const
        if opcode == "slice":
            a = ins[0]
            msb, lsb = op.params

            def op_slice(v):
                v[out] = v[a][lsb:msb + 1]

            return op_slice
        if opcode == "concat":
            # inputs[0] is the most significant part; lanes are LSB-first.
            reversed_ins = tuple(reversed(ins))

            def op_concat(v):
                result = []
                for slot in reversed_ins:
                    result.extend(v[slot])
                v[out] = result

            return op_concat
        if opcode == "add":
            a, b = ins[0], ins[1]
            has_cin, cout = op.params
            cin = ins[2] if has_cin else -1

            def op_add(v):
                carry = v[cin][0] if cin >= 0 else 0
                total, carry = _ripple_add(v[a], v[b], carry)
                v[out] = total
                if cout >= 0:
                    v[cout] = [carry]

            return op_add
        if opcode == "sub":
            a, b = ins

            def op_sub(v):
                inverted = [lane ^ full for lane in v[b]]
                v[out], _ = _ripple_add(v[a], inverted, full)

            return op_sub
        if opcode == "mul":
            a, b = ins
            out_mask = (1 << width) - 1

            def op_mul(v):
                lhs = unpack_words(v[a], lanes)
                rhs = unpack_words(v[b], lanes)
                v[out] = pack_words(
                    [(x * y) & out_mask for x, y in zip(lhs, rhs)], width
                )

            return op_mul
        if opcode in ("shl_const", "shr_const"):
            a = ins[0]
            shift, in_width = op.params
            left = opcode == "shl_const"

            def op_shift_const(v):
                source = v[a]
                if left:
                    # out bit b is input bit b - shift (0 when shift >= width).
                    v[out] = [
                        source[b - shift] if shift <= b < in_width + shift else 0
                        for b in range(width)
                    ] if shift < width else [0] * width
                else:
                    v[out] = [
                        source[b + shift] if b + shift < in_width else 0
                        for b in range(width)
                    ] if shift < in_width else [0] * width

            return op_shift_const
        if opcode in ("shl_var", "shr_var"):
            a, amount = ins
            in_width = op.params[0]
            out_mask = (1 << width) - 1
            left = opcode == "shl_var"

            def op_shift_var(v):
                operands = unpack_words(v[a], lanes)
                amounts = unpack_words(v[amount], lanes)
                words = []
                for value, shift in zip(operands, amounts):
                    if left:
                        words.append(0 if shift >= width else (value << shift) & out_mask)
                    else:
                        words.append(0 if shift >= in_width else (value >> shift) & out_mask)
                v[out] = pack_words(words, width)

            return op_shift_var
        if opcode == "cmp":
            a, b = ins
            operator = op.params[0]

            def op_cmp(v):
                la, lb = v[a], v[b]
                if operator == "==":
                    result = _eq_lane(la, lb, full)
                elif operator == "!=":
                    result = _eq_lane(la, lb, full) ^ full
                elif operator == ">=":
                    result = _ge_lane(la, lb, full)
                elif operator == "<":
                    result = _ge_lane(la, lb, full) ^ full
                elif operator == "<=":
                    result = _ge_lane(lb, la, full)
                else:  # ">"
                    result = _ge_lane(lb, la, full) ^ full
                v[out] = [result]

            return op_cmp
        if opcode == "mux":
            select = ins[0]
            data = ins[1:]
            count = len(data)

            def op_mux(v):
                sel = v[select]
                indicators = [
                    _const_indicator(sel, index, full) for index in range(count - 1)
                ]
                # Any select value beyond the explicit indicators clamps to
                # the last data input (incomplete-case semantics).
                rest = full
                for indicator in indicators:
                    rest &= indicator ^ full
                indicators.append(rest)
                result = []
                for b in range(width):
                    lane = 0
                    for indicator, slot in zip(indicators, data):
                        lane |= indicator & v[slot][b]
                    result.append(lane)
                v[out] = result

            return op_mux
        if opcode == "bus":
            pairs = tuple(zip(ins[0::2], ins[1::2]))

            def op_bus(v):
                result = [0] * width
                for data_slot, enable_slot in pairs:
                    enable = v[enable_slot][0]
                    if enable:
                        data = v[data_slot]
                        for b in range(width):
                            result[b] |= enable & data[b]
                v[out] = result

            return op_bus
        raise NotImplementedError("opcode %r" % (opcode,))

    def _compile_bitwise(self, op: PlanOp) -> Callable:
        full = self.full
        out = op.out
        ins = op.ins
        invert = op.opcode in ("nand", "nor", "xnor")
        base = {"and": "and", "nand": "and", "or": "or", "nor": "or",
                "xor": "xor", "xnor": "xor"}[op.opcode]

        if len(ins) == 1:
            a = ins[0]
            if invert:
                def op_unary_inv(v):
                    v[out] = [lane ^ full for lane in v[a]]
                return op_unary_inv

            def op_unary(v):
                v[out] = v[a]
            return op_unary

        if len(ins) == 2 and not invert:
            a, b = ins
            if base == "and":
                def op_and2(v):
                    v[out] = [x & y for x, y in zip(v[a], v[b])]
                return op_and2
            if base == "or":
                def op_or2(v):
                    v[out] = [x | y for x, y in zip(v[a], v[b])]
                return op_or2

            def op_xor2(v):
                v[out] = [x ^ y for x, y in zip(v[a], v[b])]
            return op_xor2

        rest = ins[1:]
        first = ins[0]

        def op_nary(v):
            acc = list(v[first])
            for slot in rest:
                operand = v[slot]
                if base == "and":
                    acc = [x & y for x, y in zip(acc, operand)]
                elif base == "or":
                    acc = [x | y for x, y in zip(acc, operand)]
                else:
                    acc = [x ^ y for x, y in zip(acc, operand)]
            if invert:
                acc = [lane ^ full for lane in acc]
            v[out] = acc

        return op_nary
