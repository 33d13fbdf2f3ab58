"""Bit-blasting of word-level circuits into CNF (the bit-level baseline)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.baselines.cnf import TseitinEncoder
from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.properties.convert import CheckScope


class CircuitBitBlaster:
    """Unrolls a circuit over time frames and encodes it into CNF.

    Net bits are mapped to CNF literals per ``(net, frame)``; registers link
    consecutive frames.  Gates and registers encode through the shared
    lowering (:class:`~repro.baselines.lowering.BitAlgebra`), which covers
    every primitive the netlist package offers, so any design accepted by the
    word-level checker can also be checked by the SAT baseline.  ``scope``
    (a property check's :func:`~repro.properties.convert.check_scope`)
    limits the encoding to what that check sees; without it every gate and
    register of the circuit is encoded.
    """

    def __init__(
        self,
        circuit: Circuit,
        num_frames: int,
        initial_state: Optional[Mapping[str, int]] = None,
        scope: Optional[CheckScope] = None,
    ):
        self.circuit = circuit
        self.scope = scope if scope is not None else CheckScope.whole(circuit)
        self.num_frames = num_frames
        self.initial_state = dict(initial_state or {})
        self.encoder = TseitinEncoder()
        self.formula = self.encoder.formula
        #: per frame, each net's CNF literals (LSB first).
        self._frames: List[Dict[Net, List[int]]] = []
        self._encode()

    # ------------------------------------------------------------------
    def bits(self, net: Net, frame: int) -> List[int]:
        """CNF literals (LSB first) of a net in a frame."""
        return self._frames[frame][net]

    def constrain_value(self, net: Net, frame: int, value: int) -> None:
        """Force a net to a constant value in one frame."""
        for index, literal in enumerate(self.bits(net, frame)):
            desired = (value >> index) & 1
            self.formula.add_unit(literal if desired else -literal)

    def constrain_bit(self, net: Net, frame: int, value: int) -> None:
        """Force a 1-bit net to a constant in one frame."""
        self.constrain_value(net, frame, value & 1)

    def model_value(self, solver, net: Net, frame: int) -> int:
        """Read a net's value out of a SAT model."""
        value = 0
        for index, literal in enumerate(self.bits(net, frame)):
            bit = solver.value(abs(literal))
            if bit is None:
                bit = False
            if literal < 0:
                bit = not bit
            if bit:
                value |= 1 << index
        return value

    # ------------------------------------------------------------------
    def _encode(self) -> None:
        # Allocate literals for every frame's free nets (inputs and register
        # outputs); derived nets get literals as their drivers are lowered.
        flip_flops = self.scope.flip_flops
        for _ in range(self.num_frames):
            bits = {net: self.formula.new_variables(net.width) for net in self.circuit.inputs}
            for ff in flip_flops:
                bits[ff.q] = self.formula.new_variables(ff.q.width)
            self._frames.append(bits)

        # Initial state constraints at frame 0.
        for ff in flip_flops:
            value = self.initial_state.get(ff.q.name, ff.init_value)
            if value is not None:
                self.constrain_value(ff.q, 0, value)

        # Combinational logic per frame, then the register transition relation.
        order = self.scope.topological_order()
        for bits in self._frames:
            for gate in order:
                self.encoder.lower_gate(gate, bits)
        for current, following in zip(self._frames, self._frames[1:]):
            for ff in flip_flops:
                self.encoder.word_assert_equal(
                    following[ff.q], self.encoder.next_state(ff, current)
                )
