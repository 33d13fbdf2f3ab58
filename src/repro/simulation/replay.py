"""Trace replay: the one place every engine's trace is simulated and validated.

Whatever found a trace -- the ATPG justifier, a SAT model, a random lane --
the reported :class:`~repro.checker.result.Counterexample` is built here by
stepping the reference :class:`~repro.simulation.simulator.Simulator`
cycle by cycle.  A trace is *validated* only if the property monitor takes
its goal value at the target frame and the lowered environment (see
:meth:`repro.properties.convert.PropertyCompiler.compile_environment`) holds
in every frame up to it: each pin keeps its value and each constraint net is
1.  The reported initial state holds the registers of the check's
:func:`~repro.properties.convert.check_scope`, so a trace does not list
registers of other properties compiled into the same circuit.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.simulation.simulator import Simulator


def replay_trace(
    circuit: Circuit,
    initial_state: Optional[Mapping[str, int]],
    inputs: Sequence[Mapping[str, int]],
    target_frame: int,
    monitor_name: str,
    goal_value: int,
    environment,
):
    """Simulate ``inputs`` from ``initial_state`` and validate the trace.

    ``environment`` is the lowered environment the engine enforced.  The
    returned counterexample records every register of the check's scope at
    frame 0, so replaying it again needs no power-on defaults.
    """
    # Imported here: the checker and properties packages import this module.
    from repro.checker.result import Counterexample
    from repro.properties.convert import check_scope

    simulator = Simulator(circuit, initial_state=initial_state)
    registers = simulator.register_values()
    scope = check_scope(circuit, circuit.net(monitor_name), environment)
    start = {ff.q.name: registers[ff.q.name] for ff in scope.flip_flops}
    trace = [simulator.step(vector) for vector in inputs]
    validated = (
        0 <= target_frame < len(trace)
        and trace[target_frame][monitor_name] == goal_value
        and all(
            all(values[name] == value for name, value in environment.pins.items())
            and all(values[net.name] == 1 for net in environment.constraints)
            for values in trace[: target_frame + 1]
        )
    )
    return Counterexample(
        initial_state=start,
        inputs=[dict(vector) for vector in inputs],
        trace=trace,
        target_frame=target_frame,
        monitor_name=monitor_name,
        validated=validated,
    )
