"""Selection of decision candidates (the paper's "cut of critical control signals").

The justification process traverses backward, breadth first, from the
unjustified gates and stops at candidate decision points: control primary
inputs, flip-flop (frame-0) outputs, comparator outputs and multi-fanout
internal control signals.  When the cut grows too large only the candidates
with the highest fanout are kept, as in the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Set

from repro.atpg.probability import (
    legal_assignment_bias,
    legal_one_probabilities,
    legal_one_probabilities_compiled,
)
from repro.atpg.timeframe import UnrolledModel, VarKey
from repro.bitvector import BV3
from repro.implication.engine import ImplicationNode


@dataclass
class DecisionCandidate:
    """A 1-bit decision point with its ranking information."""

    key: VarKey
    bias: float
    bias_value: int
    probability_one: float
    fanout: int

    def preferred_first_value(self, prove_mode: bool) -> int:
        """First value to try.

        In prove mode (counterexample likely absent) the *complement* of the
        bias value is tried first so conflicts appear early and the decision
        space is trimmed; in witness mode the bias value itself is tried
        first (paper Section 3.2).
        """
        if prove_mode:
            return 1 - self.bias_value
        return self.bias_value

    def cube(self, value: int) -> BV3:
        """The cube assigned when this candidate is decided to ``value``."""
        return BV3.from_int(1, value)


def find_decision_candidates(
    model: UnrolledModel,
    unjustified: Sequence[ImplicationNode],
    limit: int = 64,
    prove_mode: bool = True,
    use_bias: bool = True,
) -> List[DecisionCandidate]:
    """Backward BFS from the unjustified gates to a cut of decision points.

    Returns candidates sorted by decreasing legal assignment bias (or by
    fanout when ``use_bias`` is off, the ablation configuration).  Keys the
    backward rules cannot reach get the uninformative probability 0.5.
    """
    engine = model.engine
    if model.compiled:
        cut = _compiled_cut(model, engine, unjustified)
    else:
        cut = _interpreted_cut(model, engine, unjustified)

    if not cut:
        return []

    # Rank by fanout when trimming an oversized cut (paper Section 3.2).
    fanouts = {key: model.net_of(key).fanout() for key in cut}
    if len(cut) > limit:
        cut = sorted(cut, key=lambda key: -fanouts[key])[:limit]

    if model.compiled:
        probabilities = legal_one_probabilities_compiled(
            engine, unjustified, model.driver_slot
        )
    else:
        probabilities = legal_one_probabilities(engine, unjustified, model.driver_node)
    candidates: List[DecisionCandidate] = []
    for key in cut:
        p1 = probabilities.get(key, 0.5)
        bias, value = legal_assignment_bias(p1)
        candidates.append(
            DecisionCandidate(
                key=key,
                bias=bias,
                bias_value=value,
                probability_one=p1,
                fanout=fanouts[key],
            )
        )

    if use_bias:
        candidates.sort(key=lambda c: (-c.bias, -c.fanout))
    else:
        candidates.sort(key=lambda c: -c.fanout)
    return candidates


def _interpreted_cut(
    model: UnrolledModel,
    engine,
    unjustified: Sequence[ImplicationNode],
) -> List[VarKey]:
    """Backward BFS over keys (the interpreted oracle path)."""
    visited: Set[Hashable] = set()
    cut: List[VarKey] = []
    queue = deque()

    for node in unjustified:
        for key in node.input_keys:
            if key not in visited:
                visited.add(key)
                queue.append(key)

    while queue:
        key = queue.popleft()
        cube = engine.assignment.get(key)
        undecided = (
            engine.assignment.width(key) == 1 and cube.bit(0) is None
        )
        if undecided and model.is_decision_point(key):
            cut.append(key)
            continue
        driver = model.driver_node.get(key)
        if driver is None:
            # A free key (primary input / initial state).  Wide free keys are
            # datapath variables left to the arithmetic solver; undecided
            # 1-bit free keys are decision points even without special roles.
            if undecided:
                cut.append(key)
            continue
        for upstream_key in driver.input_keys:
            if upstream_key not in visited:
                visited.add(upstream_key)
                queue.append(upstream_key)
    return cut


def _compiled_cut(
    model: UnrolledModel,
    engine,
    unjustified: Sequence[ImplicationNode],
) -> List[VarKey]:
    """The same backward BFS on slot indices (compiled kernel fast path).

    Visits the identical frontier in the identical order -- node pin order
    is preserved by the lowering -- so the returned cut (translated back to
    keys) matches :func:`_interpreted_cut` exactly.
    """
    assignment = engine.assignment
    known = assignment._known
    widths = assignment._slot_widths
    key_of = assignment._key_of
    driver_slot = model.driver_slot
    num_drivers = len(driver_slot)
    visited: Set[int] = set()
    cut_slots: List[int] = []
    queue = deque()

    for node in unjustified:
        for slot in node.in_slots:
            if slot not in visited:
                visited.add(slot)
                queue.append(slot)

    while queue:
        slot = queue.popleft()
        undecided = widths[slot] == 1 and not (known[slot] & 1)
        if undecided and model.is_decision_point_slot(slot):
            cut_slots.append(slot)
            continue
        driver = driver_slot[slot] if slot < num_drivers else None
        if driver is None:
            if undecided:
                cut_slots.append(slot)
            continue
        for upstream in driver.in_slots:
            if upstream not in visited:
                visited.add(upstream)
                queue.append(upstream)
    return [key_of[slot] for slot in cut_slots]
