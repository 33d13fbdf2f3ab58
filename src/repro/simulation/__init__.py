"""Cycle-accurate word-level simulation.

Used to build and validate the counterexamples / witness sequences every
engine reports (each trace is replayed through :func:`replay_trace`), to
drive initialization sequences, and by the test-bench style examples.
"""

from repro.simulation.simulator import Simulator, SimulationTrace
from repro.simulation.replay import replay_trace
from repro.simulation.vcd import VcdWriter, trace_to_vcd

__all__ = ["Simulator", "SimulationTrace", "VcdWriter", "replay_trace", "trace_to_vcd"]
