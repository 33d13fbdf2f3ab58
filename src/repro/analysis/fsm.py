"""Local finite-state-machine extraction.

Section 6 of the paper observes that RTL designs usually contain many small,
local finite state machines whose transition relations are easy to extract,
and that storing those local state transition graphs lets the ATPG avoid
entering illegal (locally unreachable) states.

:func:`extract_local_fsm` derives the local state transition graph of one
register with the same word-level implication machinery the checker uses:

1. the circuit is unrolled over two frames with *all* registers left unknown
   (``free_initial_state=True``), so a transition is constrained only by the
   target register's own value and whatever implication derives from it;
2. for every current state value the implied cube of the register's
   next-frame output over-approximates the successor set;
3. each candidate successor is then confirmed (or discarded) by asserting it
   and checking for an implication conflict.

Because the inputs and the other registers stay unconstrained, the extracted
transition relation is an *over-approximation* of the real one.  Reachability
over an over-approximation is itself an over-approximation, so any state that
is unreachable in the extracted graph is guaranteed unreachable in the real
design.  :func:`unreachable_state_cubes` merges them into prime cubes, which
the checker asserts in every time frame (``--fsm-guidance``) as constraint
nodes that conflict on the cube and imply its last open bit's complement
(:func:`implying_cube_rule`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3, BV3Conflict
from repro.implication.assignment import ImplicationConflict
from repro.netlist.circuit import Circuit
from repro.netlist.seq import DFF


@dataclass
class LocalFsm:
    """The extracted local state transition graph of one register.

    ``transitions`` maps each explored state value to the list of possible
    successor values (an over-approximation of the real successor set).
    """

    register_name: str
    width: int
    initial_state: Optional[int]
    transitions: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of representable state encodings (``2**width``)."""
        return 1 << self.width

    def successors(self, state: int) -> List[int]:
        """Possible successor values of ``state`` (empty when unexplored)."""
        return self.transitions.get(state, [])

    def reachable_states(self, from_state: Optional[int] = None) -> Set[int]:
        """States reachable from ``from_state`` (default: the initial state).

        Returns the empty set when no start state is known.
        """
        start = from_state if from_state is not None else self.initial_state
        if start is None:
            return set()
        seen: Set[int] = {start}
        frontier = deque([start])
        while frontier:
            state = frontier.popleft()
            for successor in self.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    def unreachable_states(self, from_state: Optional[int] = None) -> Set[int]:
        """State encodings not reachable from the initial state.

        Because the transition relation is an over-approximation, every state
        reported here is *guaranteed* unreachable in the real design.
        """
        reachable = self.reachable_states(from_state)
        if not reachable:
            return set()
        return {state for state in range(self.num_states) if state not in reachable}

    def format(self) -> str:
        """Human-readable transition listing."""
        lines = [
            "local FSM %s (%d bits, %d explored states, initial=%s)"
            % (
                self.register_name,
                self.width,
                len(self.transitions),
                self.initial_state,
            )
        ]
        for state in sorted(self.transitions):
            successors = ", ".join(str(s) for s in self.transitions[state])
            lines.append("  %d -> {%s}" % (state, successors))
        unreachable = self.unreachable_states()
        if unreachable:
            lines.append("  unreachable: %s" % sorted(unreachable))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def extract_local_fsm(
    circuit: Circuit,
    register: DFF,
    max_states: int = 64,
    model: Optional[UnrolledModel] = None,
) -> LocalFsm:
    """Extract the local state transition graph of one register.

    Parameters
    ----------
    circuit:
        The design containing ``register``.
    register:
        The register whose local FSM is extracted.
    max_states:
        Upper bound on the number of state encodings explored (``2**width``
        must not exceed it).
    model:
        The two-frame, free-initial-state model of ``circuit`` to enumerate
        on (built when omitted).  Every state is asserted on a level of its
        own and popped again, so the model's base stays untouched and one
        model serves every register (:func:`extract_local_fsms`).
    """
    width = register.q.width
    num_states = 1 << width
    if num_states > max_states:
        raise ValueError(
            "register %s has %d states, exceeding max_states=%d"
            % (register.q.name, num_states, max_states)
        )

    fsm = LocalFsm(
        register_name=register.q.name,
        width=width,
        initial_state=register.init_value,
    )
    if model is None:
        model = UnrolledModel(circuit, 2, free_initial_state=True)
    engine = model.engine
    current_key = model.key(register.q, 0)
    next_key = model.key(register.q, 1)

    for state in range(num_states):
        engine.push_level()
        try:
            engine.assign(current_key, BV3.from_int(width, state))
        except ImplicationConflict:
            engine.pop_level()
            fsm.transitions[state] = []
            continue
        next_cube = engine.assignment.get(next_key)
        # Confirm each successor in the implied cube by asserting it.
        confirmed = []
        for value in range(num_states):
            if not next_cube.contains_int(value):
                continue
            engine.push_level()
            try:
                engine.assign(next_key, BV3.from_int(width, value))
                confirmed.append(value)
            except ImplicationConflict:
                pass
            finally:
                engine.pop_level()
        fsm.transitions[state] = confirmed
        engine.pop_level()
    return fsm


def extract_local_fsms(
    circuit: Circuit,
    max_width: int = 4,
    max_states: int = 64,
) -> List[LocalFsm]:
    """Extract local FSMs for every register narrow enough to enumerate.

    Registers wider than ``max_width`` bits are skipped: they are datapath
    registers whose constraints belong to the arithmetic solver, not to
    explicit state enumeration.
    """
    fsms: List[LocalFsm] = []
    model = None
    for register in circuit.flip_flops:
        if register.q.width > max_width:
            continue
        if (1 << register.q.width) > max_states:
            continue
        if model is None:
            model = UnrolledModel(circuit, 2, free_initial_state=True)
        fsms.append(
            extract_local_fsm(circuit, register, max_states=max_states, model=model)
        )
    return fsms


def unreachable_state_cubes(
    fsms: Sequence[LocalFsm],
    initial_state: Optional[Mapping[str, int]] = None,
) -> Tuple[Tuple[str, BV3], ...]:
    """``(register name, cube)`` for each prime cube of each register's
    locally unreachable states.

    Reachability is computed from the value each register actually starts
    from: its entry in ``initial_state`` when the check overrides the
    power-on values, the register's ``init_value`` otherwise, so the cubes
    stay sound under an explicit or derived initial state.  A prime cube
    holds unreachable states only and frees no further bit without losing
    that property.
    """
    overrides = initial_state or {}
    cubes = []
    for fsm in fsms:
        start = overrides.get(fsm.register_name, fsm.initial_state)
        if start is None:
            continue
        states = fsm.unreachable_states(from_state=start)
        everything = range(fsm.num_states)

        def inside(known: int, value: int) -> bool:
            return all(state in states for state in everything if state & known == value)

        for known in everything:
            for value in everything:
                if value & ~known or not inside(known, value):
                    continue
                bits = [1 << bit for bit in range(fsm.width) if known >> bit & 1]
                if not any(inside(known ^ bit, value & ~bit) for bit in bits):
                    cubes.append((fsm.register_name, BV3(fsm.width, value, known)))
    return tuple(cubes)


def implying_cube_rule(cube: BV3):
    """The constraint rule of one unreachable-state cube on a register key.

    The rule raises once the register's value lies inside ``cube``.  When
    only one of the cube's known bits is still open and the others agree, it
    sets that bit to its complement (unit propagation).
    """
    cube_known = cube.known
    cube_value = cube.value

    def rule(cubes: List[BV3]) -> List[BV3]:
        current = cubes[0]
        open_bits = cube_known & ~current.known
        if (current.value ^ cube_value) & cube_known & current.known or (
            open_bits & (open_bits - 1)
        ):
            return cubes  # outside the cube, or two or more bits still open
        if not open_bits:
            raise BV3Conflict("FSM-unreachable state")
        complement = open_bits & ~cube_value
        return [BV3(current.width, current.value | complement, current.known | open_bits)]

    return rule
