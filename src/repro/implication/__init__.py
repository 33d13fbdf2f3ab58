"""Word-level logic implication (Section 3.1 of the paper).

Every signal value is a three-valued cube (:class:`repro.bitvector.BV3`).
Implication is performed forward *and* backward on every primitive type, and
-- the paper's key point -- implications are translated across the boundary
between Boolean control logic and the arithmetic datapath (ranges for
comparators, ripple-carry cells for adders, cube unions for multiplexors).

The engine is event driven: whenever a net's cube is refined, every node
touching that net is re-evaluated until a fixpoint is reached or a conflict
is detected.  The assignment store keeps a trail per decision level so that
backtracking restores the *previous partially-implied* cube of each signal,
not the fully unknown value (word-level signals can be implied many times).
"""

from repro.implication.assignment import Assignment, ImplicationConflict
from repro.implication.compiled import CompiledAssignment, CompiledEngine
from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.implication.rules import build_rule, forward_simulate

__all__ = [
    "Assignment",
    "CompiledAssignment",
    "CompiledEngine",
    "ImplicationConflict",
    "ImplicationEngine",
    "ImplicationNode",
    "build_rule",
    "forward_simulate",
]
