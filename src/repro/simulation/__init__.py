"""Cycle-accurate word-level simulation.

Used to build and validate the counterexamples / witness sequences every
engine reports (each trace is replayed through :func:`replay_trace`), to
drive initialization sequences, and by the test-bench style examples.

:class:`VcdWriter` and :func:`trace_to_vcd` resolve lazily: the VCD writer
loads on first use (``repro check --vcd``), not on the checking path.
"""

from repro.simulation.simulator import Simulator, SimulationTrace
from repro.simulation.replay import replay_trace


def __getattr__(name: str):
    if name in ("VcdWriter", "trace_to_vcd"):
        from repro.simulation import vcd

        return getattr(vcd, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = ["Simulator", "SimulationTrace", "VcdWriter", "replay_trace", "trace_to_vcd"]
