"""A two-valued, cycle-accurate simulator for word-level netlists.

The simulator evaluates the combinational gates in topological order once per
cycle and then updates every register with its ``next_value``.  Registers
with ``init_value=None`` power up to 0 unless an explicit initial state is
supplied -- the checker never relies on that default, it is only a
convenience for test benches.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.netlist.arith import Adder
from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.netlist.seq import DFF


class SimulationTrace:
    """Recorded net values, one dict per simulated cycle."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: Optional[List[Dict[str, int]]] = None):
        self.cycles = [] if cycles is None else cycles

    def value(self, cycle: int, net_name: str) -> int:
        """Value of ``net_name`` during ``cycle`` (0-based)."""
        return self.cycles[cycle][net_name]

    def __len__(self) -> int:
        return len(self.cycles)


class Simulator:
    """Cycle-accurate simulator for a :class:`~repro.netlist.circuit.Circuit`.

    Parameters
    ----------
    circuit:
        The design to simulate.
    initial_state:
        Optional mapping from register output net (or its name) to the
        power-on value; registers not mentioned use their ``init_value``
        (or 0 when that is ``None``).
    """

    def __init__(
        self,
        circuit: Circuit,
        initial_state: Optional[Mapping[Union[Net, str], int]] = None,
    ):
        self.circuit = circuit
        self._order = circuit.topological_order()
        self.state: Dict[DFF, int] = {}
        for ff in circuit.flip_flops:
            value = ff.init_value if ff.init_value is not None else 0
            self.state[ff] = value & ff.q.mask()
        if initial_state:
            self.load_state(initial_state)
        self.values: Dict[Net, int] = {}

    # ------------------------------------------------------------------
    def load_state(self, state: Mapping[Union[Net, str], int]) -> None:
        """Overwrite selected register values."""
        by_net = {ff.q: ff for ff in self.circuit.flip_flops}
        by_name = {ff.q.name: ff for ff in self.circuit.flip_flops}
        for key, value in state.items():
            ff = by_net.get(key) if isinstance(key, Net) else by_name.get(key)
            if ff is None:
                raise KeyError("no register with output %r" % (key,))
            self.state[ff] = value & ff.q.mask()

    def register_values(self) -> Dict[str, int]:
        """Current register values keyed by output net name."""
        return {ff.q.name: value for ff, value in self.state.items()}

    # ------------------------------------------------------------------
    def evaluate_combinational(self, input_values: Mapping[Union[Net, str], int]) -> Dict[Net, int]:
        """Evaluate all combinational logic for the given input values.

        Register outputs take their current state values.  Returns the full
        net-to-value map for this cycle (also cached in ``self.values``).
        """
        values: Dict[Net, int] = {}
        for net in self.circuit.inputs:
            if net in input_values:
                values[net] = int(input_values[net]) & net.mask()
            elif net.name in input_values:
                values[net] = int(input_values[net.name]) & net.mask()
            else:
                values[net] = 0
        for ff in self.circuit.flip_flops:
            values[ff.q] = self.state[ff]
        for gate in self._order:
            values[gate.output] = gate.evaluate(values) & gate.output.mask()
            if isinstance(gate, Adder) and gate.carry_out is not None:
                values[gate.carry_out] = gate.evaluate_carry_out(values)
        self.values = values
        return values

    def step(self, input_values: Mapping[Union[Net, str], int]) -> Dict[str, int]:
        """Simulate one clock cycle; returns net values by name."""
        values = self.evaluate_combinational(input_values)
        next_state: Dict[DFF, int] = {}
        for ff in self.circuit.flip_flops:
            next_state[ff] = ff.next_value(values, self.state[ff])
        self.state = next_state
        return {net.name: value for net, value in values.items()}

    def run(self, input_sequence: Sequence[Mapping[Union[Net, str], int]]) -> SimulationTrace:
        """Simulate a sequence of cycles and record the trace."""
        trace = SimulationTrace()
        for input_values in input_sequence:
            trace.cycles.append(self.step(input_values))
        return trace
