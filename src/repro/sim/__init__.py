"""Compiled, bit-parallel simulation kernel.

This package is the throughput engine behind every mass-sampling workload:
:func:`compile_circuit` runs the shared word-to-bit lowering
(:class:`~repro.netlist.lowering.BitAlgebra`) once over a
:class:`~repro.netlist.circuit.Circuit` and generates one straight-line step
function over K-wide Python-int lanes, and :class:`BitParallelSim` runs it
to evaluate K input vectors simultaneously.  The interpreted
:class:`~repro.simulation.simulator.Simulator` remains the reference oracle;
the cross-check tests assert exact lane-for-lane agreement.
"""

from repro.sim.compile import LaneProgram, compile_circuit
from repro.sim.bitparallel import (
    BitParallelSim,
    pack_words,
    unpack_words,
)
from repro.sim.sampler import RandomLaneSampler

__all__ = [
    "BitParallelSim",
    "LaneProgram",
    "RandomLaneSampler",
    "compile_circuit",
    "pack_words",
    "unpack_words",
]
