"""Bit-parallel execution of a circuit's compiled lane program.

:class:`BitParallelSim` simulates K input vectors at once.  Every net of
width W is represented as W Python-int *lanes*; bit ``k`` of lane ``b`` is
bit ``b`` of vector ``k``'s value.  One bitwise operation then evaluates all
K vectors, so the per-gate interpreter overhead (the dominant cost of the
reference simulator) is amortised K ways.

A cycle is one call of the circuit's :class:`~repro.sim.compile.LaneProgram`:
straight-line code generated from the shared word-to-bit lowering, so every
gate (adders, comparators, multipliers and variable shifts included) and the
register update (reset > set > enable, as in the interpreted oracle) are
plain lane operations.  Unknown power-on values normalise to 0 exactly as
:class:`~repro.simulation.simulator.Simulator` does, so lane outputs are
bit-for-bit comparable.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.sim.compile import LaneProgram, compile_circuit

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


class BitParallelSim:
    """Runs a circuit's lane program over K simultaneous input vectors.

    Parameters
    ----------
    plan:
        A :class:`~repro.sim.compile.LaneProgram` (or a :class:`Circuit`,
        compiled on the fly for convenience).
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
        plan: Union[LaneProgram, Circuit],
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
        self._nets: Optional[tuple] = None
        self._state: Lanes = []
        self.reset(initial_state)

    # ------------------------------------------------------------------
    def reset(self, initial_state: Optional[Mapping[Union[Net, str], int]] = None) -> None:
        """Re-broadcast the power-on state across all lanes."""
        overrides: Dict[str, int] = {}
        if initial_state:
            for key, value in initial_state.items():
                overrides[key.name if isinstance(key, Net) else key] = value
        full = self.full
        self._state = [
            full if (overrides.get(name, init_value) >> b) & 1 else 0
            for name, width, init_value in self.plan.registers
            for b in range(width)
        ]

    # ------------------------------------------------------------------
    def step(self, input_lanes: Mapping[str, Sequence[int]]) -> None:
        """Evaluate one clock cycle for all K vectors and update registers.

        ``input_lanes`` maps input net names to their bit-lanes (LSB lane
        first; build them with :func:`pack_words`).  Missing inputs default
        to 0 in every lane, like the interpreted oracle.
        """
        ins: Lanes = []
        for name, width in self.plan.inputs:
            provided = input_lanes.get(name, ())
            if len(provided) != width:
                provided = list(provided[:width]) + [0] * (width - len(provided))
            ins += provided
        # Every lane operation is bitwise, so bits past lane K never reach
        # lanes below it: :meth:`peek` masks them off instead of each input.
        self._state, self._nets = self.plan.step(self.full, ins, self._state)

    # ------------------------------------------------------------------
    def peek(self, net_or_name: Union[Net, str]) -> Lanes:
        """Lanes of a net after the last :meth:`step`."""
        name = net_or_name.name if isinstance(net_or_name, Net) else net_or_name
        slots = self.plan.slots[name]
        if self._nets is None:
            raise KeyError("net %r has no value; step() first" % (net_or_name,))
        nets, full = self._nets, self.full
        return [nets[slot] & full for slot in slots]

    def sample(self, net_or_name: Union[Net, str], lane: int) -> int:
        """Scalar value of one net in one lane after the last :meth:`step`."""
        value = 0
        for position, bits in enumerate(self.peek(net_or_name)):
            if (bits >> lane) & 1:
                value |= 1 << position
        return value
