"""Structural RTL analyses that feed the ATPG with high-level information.

The paper's concluding discussion (Section 6) points out that more high-level
information can be mined from the RTL description and used to speed up the
search: local finite state machines, counters, shift registers, and the
internal don't-care conditions recorded during quick synthesis.  This package
implements the structural analyses on top of the word-level netlist:

* :mod:`repro.analysis.structure` -- control/datapath partition and primitive
  histogram reports (the "circuit model" of Section 1);
* :mod:`repro.analysis.fsm` -- local finite-state-machine extraction with
  reachability over the extracted state transition graph, whose unreachable
  states FSM guidance asserts in every time frame;
* :mod:`repro.analysis.recognize` -- counter and shift-register recognition.
"""

from repro.analysis.structure import (
    GateHistogram,
    PartitionReport,
    StructureReport,
    analyze_structure,
)
from repro.analysis.fsm import (
    LocalFsm,
    extract_local_fsm,
    extract_local_fsms,
    unreachable_state_cubes,
)
from repro.analysis.recognize import (
    CounterInfo,
    ShiftRegisterInfo,
    RecognitionReport,
    recognize_counters,
    recognize_shift_registers,
    recognize_modules,
)

__all__ = [
    "GateHistogram",
    "PartitionReport",
    "StructureReport",
    "analyze_structure",
    "LocalFsm",
    "extract_local_fsm",
    "extract_local_fsms",
    "unreachable_state_cubes",
    "CounterInfo",
    "ShiftRegisterInfo",
    "RecognitionReport",
    "recognize_counters",
    "recognize_shift_registers",
    "recognize_modules",
]
