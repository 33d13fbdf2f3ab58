"""Counterexample / witness trace compaction by loop removal.

The checker already keeps generated sequences short by targeting the
earliest frame that can violate the property, but sequences obtained from
other sources (random simulation, user test benches, deeper-than-necessary
bounds) often wander through the same state more than once.  Any cycle
through a repeated register state can be cut out without changing the
trace's endpoint behaviour; the result is re-simulated and re-checked before
being accepted (through :func:`~repro.simulation.replay.replay_trace`, like
every engine's trace), so compaction can never produce an invalid trace.

This is the practical use of the execution-loop detection named in the
paper's future work (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.statehash import StateHasher, find_first_loop
from repro.checker.result import Counterexample
from repro.netlist.circuit import Circuit
from repro.properties.convert import PropertyCompiler
from repro.simulation.replay import replay_trace


@dataclass
class CompactionResult:
    """The outcome of compacting one trace."""

    original_length: int
    compacted_length: int
    loops_removed: int
    counterexample: Counterexample

    @property
    def shortened(self) -> bool:
        """True when at least one loop was removed."""
        return self.compacted_length < self.original_length


def compact_trace(
    circuit: Circuit,
    counterexample: Counterexample,
    max_iterations: int = 64,
) -> CompactionResult:
    """Remove state loops from a trace while preserving its final behaviour.

    The input trace must target its *last* frame (which is how the checker
    and the random-simulation baseline construct traces).  Returns the
    original trace unchanged when no loop can be removed.
    """
    goal_value = counterexample.trace[counterexample.target_frame][
        counterexample.monitor_name
    ]
    registers = [ff.q.name for ff in circuit.flip_flops]
    unconstrained = PropertyCompiler(circuit).compile_environment()
    best = counterexample
    loops_removed = 0

    for _ in range(max_iterations):
        # Register states *before* each frame, read off the replayed trace.
        states = [{name: values[name] for name in registers} for values in best.trace]
        loop = find_first_loop(states, StateHasher())
        if loop is None:
            break
        # Cut the input vectors that drive the loop [start, end).
        inputs = best.inputs[: loop.start] + best.inputs[loop.end :]
        if not inputs:
            break
        candidate = replay_trace(
            circuit, counterexample.initial_state, inputs, len(inputs) - 1,
            counterexample.monitor_name, goal_value, unconstrained,
        )
        if not candidate.validated:
            # The loop interacts with the goal (e.g. the monitor depends on a
            # Delayed register outside the hashed state); keep the trace.
            break
        best = candidate
        loops_removed += 1

    return CompactionResult(
        original_length=counterexample.length,
        compacted_length=best.length,
        loops_removed=loops_removed,
        counterexample=best,
    )
