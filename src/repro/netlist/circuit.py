"""The circuit container and its builder API.

A :class:`Circuit` owns the nets and gates of one flattened design.  It
offers a fluent builder API (``circuit.add(a, b)``, ``circuit.eq(x, 3)``,
``circuit.dff(d, reset=rst)`` ...) that is used by the HDL elaborator, the
benchmark design generators and directly by library users.

The container also provides the structural services the rest of the engine
needs: topological ordering of the combinational logic (for simulation and
levelized implication), design statistics (for Table 1), and validation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.netlist.nets import Net, NetKind
from repro.netlist.seq import DFF
from repro.netlist.tristate import BusResolver, TristateBuffer

#: Operands accepted by the builder: an existing net or a Python int
#: (which is materialised as a constant of the required width).
Operand = Union[Net, int]


class CircuitStats:
    """Design statistics in the shape of the paper's Table 1."""

    __slots__ = ("name", "lines", "gates", "flip_flops", "inputs", "outputs")

    def __init__(self, name: str, lines: int, gates: int, flip_flops: int,
                 inputs: int, outputs: int):
        self.name = name
        self.lines = lines
        self.gates = gates
        self.flip_flops = flip_flops
        self.inputs = inputs
        self.outputs = outputs

    def as_row(self) -> Tuple[str, int, int, int, int, int]:
        return (self.name, self.lines, self.gates, self.flip_flops, self.inputs, self.outputs)


class Circuit:
    """A flattened word-level RTL netlist.

    Parameters
    ----------
    name:
        Design name (used in statistics and reports).
    source_lines:
        Number of HDL source lines the design was elaborated from; purely
        informational (Table 1 column ``#lines``).
    """

    def __init__(self, name: str, source_lines: int = 0):
        self.name = name
        self.source_lines = source_lines
        self.nets: List[Net] = []
        self.gates: List[Gate] = []
        self.inputs: List[Net] = []
        self.outputs: List[Net] = []
        self.flip_flops: List[DFF] = []
        self._nets_by_name: Dict[str, Net] = {}
        self._name_counters: Dict[str, int] = {}
        self._topo_cache: Optional[List[Gate]] = None

    # ------------------------------------------------------------------
    # Net management
    # ------------------------------------------------------------------
    def new_net(self, name: Optional[str] = None, width: int = 1, kind: NetKind = NetKind.AUTO) -> Net:
        """Create a new net; a unique name is generated when none is given."""
        if name is None:
            name = self._unique_name("n")
        elif name in self._nets_by_name:
            raise ValueError("net name %r already exists in circuit %r" % (name, self.name))
        net = Net(name, width, kind, uid=len(self.nets))
        self.nets.append(net)
        self._nets_by_name[name] = net
        self._topo_cache = None
        return net

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        try:
            return self._nets_by_name[name]
        except KeyError:
            raise KeyError("no net named %r in circuit %r" % (name, self.name)) from None

    def has_net(self, name: str) -> bool:
        """True when a net with this name exists."""
        return name in self._nets_by_name

    def input(self, name: str, width: int = 1, kind: NetKind = NetKind.AUTO) -> Net:
        """Declare a primary input."""
        net = self.new_net(name, width, kind)
        net.is_input = True
        self.inputs.append(net)
        return net

    def output(self, net: Net, name: Optional[str] = None) -> Net:
        """Mark ``net`` as a primary output (optionally via a named buffer)."""
        if name is not None and name != net.name:
            buffered = self.new_net(name, net.width, net.kind)
            self._register(BufGate(self._unique_name("buf"), [net], buffered))
            net = buffered
        net.is_output = True
        if net not in self.outputs:
            self.outputs.append(net)
        return net

    # ------------------------------------------------------------------
    # Builder helpers
    # ------------------------------------------------------------------
    def _unique_name(self, prefix: str) -> str:
        while True:
            count = self._name_counters.get(prefix, 0)
            self._name_counters[prefix] = count + 1
            candidate = "%s_%d" % (prefix, count)
            if candidate not in self._nets_by_name:
                return candidate

    def _register(self, gate: Gate) -> Gate:
        gate.uid = len(self.gates)
        self.gates.append(gate)
        if isinstance(gate, DFF):
            self.flip_flops.append(gate)
        self._topo_cache = None
        return gate

    def _coerce(self, operand: Operand, width: int) -> Net:
        """Turn an int operand into a constant net of the given width."""
        if isinstance(operand, Net):
            return operand
        return self.const(operand, width)

    def _operand_width(self, operands: Sequence[Operand]) -> int:
        for operand in operands:
            if isinstance(operand, Net):
                return operand.width
        raise ValueError("at least one operand must be a net to infer the width")

    # ------------------------------------------------------------------
    # Constants and structure
    # ------------------------------------------------------------------
    def const(self, value: int, width: int, name: Optional[str] = None) -> Net:
        """A constant driver of the given value and width."""
        net = self.new_net(name or self._unique_name("const"), width)
        self._register(ConstGate(self._unique_name("constg"), net, value))
        return net

    def slice(self, a: Net, msb: int, lsb: int, name: Optional[str] = None) -> Net:
        """Extract bits ``[msb:lsb]`` of ``a``."""
        out = self.new_net(name, msb - lsb + 1)
        self._register(SliceGate(self._unique_name("slice"), [a], out, msb, lsb))
        return out

    def bit(self, a: Net, index: int, name: Optional[str] = None) -> Net:
        """Extract a single bit of ``a``."""
        return self.slice(a, index, index, name)

    def concat(self, *parts: Net, name: Optional[str] = None) -> Net:
        """Concatenate nets; the first argument is the most significant part."""
        width = sum(p.width for p in parts)
        out = self.new_net(name, width)
        self._register(ConcatGate(self._unique_name("concat"), list(parts), out))
        return out

    def zext(self, a: Net, width: int, name: Optional[str] = None) -> Net:
        """Zero-extend ``a`` to ``width`` bits."""
        if width == a.width:
            return a
        out = self.new_net(name, width)
        self._register(ZeroExtendGate(self._unique_name("zext"), [a], out))
        return out

    # ------------------------------------------------------------------
    # Bit-wise logic
    # ------------------------------------------------------------------
    def _bitwise(self, cls, operands: Sequence[Operand], name: Optional[str]) -> Net:
        width = self._operand_width(operands)
        nets = [self._coerce(op, width) for op in operands]
        out = self.new_net(name, width)
        self._register(cls(self._unique_name(cls.kind), nets, out))
        return out

    def and_(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise AND of the operands."""
        return self._bitwise(AndGate, operands, name)

    def or_(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise OR of the operands."""
        return self._bitwise(OrGate, operands, name)

    def xor(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise XOR of the operands."""
        return self._bitwise(XorGate, operands, name)

    def nand(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise NAND of the operands."""
        return self._bitwise(NandGate, operands, name)

    def nor(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise NOR of the operands."""
        return self._bitwise(NorGate, operands, name)

    def xnor(self, *operands: Operand, name: Optional[str] = None) -> Net:
        """Bit-wise XNOR of the operands."""
        return self._bitwise(XnorGate, operands, name)

    def not_(self, a: Net, name: Optional[str] = None) -> Net:
        """Bit-wise inversion."""
        return self._bitwise(NotGate, [a], name)

    def buf(self, a: Net, name: Optional[str] = None) -> Net:
        """A buffer (useful to rename or isolate a net)."""
        return self._bitwise(BufGate, [a], name)

    def reduce_and(self, a: Net, name: Optional[str] = None) -> Net:
        """1-bit AND reduction of all bits of ``a``."""
        out = self.new_net(name, 1)
        self._register(ReduceAnd(self._unique_name("redand"), [a], out))
        return out

    def reduce_or(self, a: Net, name: Optional[str] = None) -> Net:
        """1-bit OR reduction of all bits of ``a``."""
        out = self.new_net(name, 1)
        self._register(ReduceOr(self._unique_name("redor"), [a], out))
        return out

    def reduce_xor(self, a: Net, name: Optional[str] = None) -> Net:
        """1-bit XOR (parity) reduction of all bits of ``a``."""
        out = self.new_net(name, 1)
        self._register(ReduceXor(self._unique_name("redxor"), [a], out))
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(
        self,
        a: Operand,
        b: Operand,
        carry_in: Optional[Net] = None,
        with_carry_out: bool = False,
        name: Optional[str] = None,
    ) -> Union[Net, Tuple[Net, Net]]:
        """``a + b`` (mod 2**width).  With ``with_carry_out`` returns
        ``(sum, carry_out)``."""
        width = self._operand_width([a, b])
        a_net = self._coerce(a, width)
        b_net = self._coerce(b, width)
        out = self.new_net(name, width)
        cout = self.new_net(None, 1) if with_carry_out else None
        self._register(Adder(self._unique_name("add"), a_net, b_net, out, carry_in, cout))
        if with_carry_out:
            return out, cout
        return out

    def sub(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """``a - b`` (mod 2**width)."""
        width = self._operand_width([a, b])
        out = self.new_net(name, width)
        self._register(
            Subtractor(self._unique_name("sub"), self._coerce(a, width), self._coerce(b, width), out)
        )
        return out

    def mul(self, a: Operand, b: Operand, out_width: Optional[int] = None, name: Optional[str] = None) -> Net:
        """``a * b`` truncated to ``out_width`` bits (default: operand width)."""
        width = self._operand_width([a, b])
        out = self.new_net(name, out_width if out_width is not None else width)
        self._register(
            Multiplier(self._unique_name("mul"), self._coerce(a, width), self._coerce(b, width), out)
        )
        return out

    def shl(self, a: Net, amount: Union[Net, int], name: Optional[str] = None) -> Net:
        """Logical left shift by a net or constant amount."""
        out = self.new_net(name, a.width)
        if isinstance(amount, Net):
            self._register(ShiftLeft(self._unique_name("shl"), a, out, amount=amount))
        else:
            self._register(ShiftLeft(self._unique_name("shl"), a, out, constant=amount))
        return out

    def shr(self, a: Net, amount: Union[Net, int], name: Optional[str] = None) -> Net:
        """Logical right shift by a net or constant amount."""
        out = self.new_net(name, a.width)
        if isinstance(amount, Net):
            self._register(ShiftRight(self._unique_name("shr"), a, out, amount=amount))
        else:
            self._register(ShiftRight(self._unique_name("shr"), a, out, constant=amount))
        return out

    # ------------------------------------------------------------------
    # Comparators
    # ------------------------------------------------------------------
    def _compare(self, op: str, a: Operand, b: Operand, name: Optional[str]) -> Net:
        if isinstance(a, Net) and a is b:
            return self.const(1 if op in ("==", "<=", ">=") else 0, 1, name)
        width = self._operand_width([a, b])
        out = self.new_net(name, 1, NetKind.CONTROL)
        self._register(
            Comparator(self._unique_name("cmp"), op, self._coerce(a, width), self._coerce(b, width), out)
        )
        return out

    def eq(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit ``a == b``."""
        return self._compare("==", a, b, name)

    def ne(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit ``a != b``."""
        return self._compare("!=", a, b, name)

    def lt(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit unsigned ``a < b``."""
        return self._compare("<", a, b, name)

    def le(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit unsigned ``a <= b``."""
        return self._compare("<=", a, b, name)

    def gt(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit unsigned ``a > b``."""
        return self._compare(">", a, b, name)

    def ge(self, a: Operand, b: Operand, name: Optional[str] = None) -> Net:
        """1-bit unsigned ``a >= b``."""
        return self._compare(">=", a, b, name)

    # ------------------------------------------------------------------
    # Multiplexors, registers, buses
    # ------------------------------------------------------------------
    def mux(self, select: Net, *data: Operand, name: Optional[str] = None) -> Net:
        """N-way multiplexor ``data[select]``."""
        width = self._operand_width(list(data))
        nets = [self._coerce(d, width) for d in data]
        out = self.new_net(name, width)
        self._register(Mux(self._unique_name("mux"), select, nets, out))
        return out

    def dff(
        self,
        d: Net,
        enable: Optional[Net] = None,
        reset: Optional[Net] = None,
        set_: Optional[Net] = None,
        reset_value: int = 0,
        init_value: Optional[int] = 0,
        name: Optional[str] = None,
        kind: NetKind = NetKind.AUTO,
    ) -> Net:
        """A word register; returns its output (``q``) net."""
        q = self.new_net(name, d.width, kind)
        self._register(
            DFF(
                self._unique_name("dff"),
                d,
                q,
                enable=enable,
                reset=reset,
                set_=set_,
                reset_value=reset_value,
                init_value=init_value,
            )
        )
        return q

    def state(self, name: str, width: int, kind: NetKind = NetKind.AUTO) -> Net:
        """Declare a register output net whose input logic is connected later.

        Sequential feedback (a register whose next value depends on its own
        output) is built in two phases: declare the output with :meth:`state`,
        build the next-value logic from it, then close the loop with
        :meth:`dff_into`.
        """
        return self.new_net(name, width, kind)

    def dff_into(
        self,
        q: Net,
        d: Net,
        enable: Optional[Net] = None,
        reset: Optional[Net] = None,
        set_: Optional[Net] = None,
        reset_value: int = 0,
        init_value: Optional[int] = 0,
    ) -> DFF:
        """Create the register driving a previously declared :meth:`state` net."""
        ff = DFF(
            self._unique_name("dff"),
            d,
            q,
            enable=enable,
            reset=reset,
            set_=set_,
            reset_value=reset_value,
            init_value=init_value,
        )
        self._register(ff)
        return ff

    def tribuf(self, data: Net, enable: Net, name: Optional[str] = None) -> Net:
        """A tri-state driver; combine drivers with :meth:`bus`."""
        out = self.new_net(name, data.width)
        self._register(TristateBuffer(self._unique_name("tribuf"), data, enable, out))
        return out

    def bus(self, drivers: Sequence[Tuple[Net, Net]], name: Optional[str] = None) -> Net:
        """Resolve ``(data, enable)`` tri-state drivers into a shared bus."""
        width = drivers[0][0].width
        out = self.new_net(name, width)
        self._register(BusResolver(self._unique_name("bus"), drivers, out))
        return out

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def combinational_gates(self) -> List[Gate]:
        """All gates except flip-flops."""
        return [g for g in self.gates if not g.is_sequential()]

    def topological_order(self) -> List[Gate]:
        """Combinational gates in topological (input-to-output) order.

        Flip-flop outputs and primary inputs are treated as sources.  Raises
        ``ValueError`` when a combinational cycle exists.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        comb = self.combinational_gates()
        # Map each net to the combinational gate driving it (if any).
        in_degree: Dict[Gate, int] = {}
        dependents: Dict[Gate, List[Gate]] = {g: [] for g in comb}
        for gate in comb:
            count = 0
            for net in gate.inputs:
                driver = net.driver
                if driver is not None and not driver.is_sequential():
                    dependents[driver].append(gate)
                    count += 1
            in_degree[gate] = count
        ready = deque(g for g in comb if in_degree[g] == 0)
        order: List[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for succ in dependents[gate]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(comb):
            raise ValueError("circuit %r contains a combinational cycle" % (self.name,))
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Check structural sanity: every non-input net must have a driver."""
        for net in self.nets:
            if net.is_input:
                continue
            if net.driver is None and net.readers:
                raise ValueError("net %s is read but never driven" % (net,))
        self.topological_order()

    def stats(self) -> CircuitStats:
        """Design statistics in the shape of the paper's Table 1."""
        gate_total = sum(g.gate_count() for g in self.gates)
        ff_total = sum(ff.flip_flop_count() for ff in self.flip_flops)
        return CircuitStats(
            name=self.name,
            lines=self.source_lines,
            gates=gate_total,
            flip_flops=ff_total,
            inputs=sum(net.width for net in self.inputs),
            outputs=sum(net.width for net in self.outputs),
        )

    def __repr__(self) -> str:
        return "Circuit(%r, %d nets, %d gates, %d FFs)" % (
            self.name,
            len(self.nets),
            len(self.gates),
            len(self.flip_flops),
        )
