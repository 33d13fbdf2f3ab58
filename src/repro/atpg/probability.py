"""Legal-1 / legal-0 probabilities and the legal assignment bias.

These implement Definitions 1-2 and Rules 3-5 of the paper.  The legal-1
probability of a signal is the probability of it being assigned 1 among the
assignments that satisfy the (unjustified) output requirement of the gate it
feeds; the legal assignment bias ``max(p1, p0) / min(p1, p0)`` ranks decision
candidates so that the most constrained candidate is decided first.

The probabilities are derived from the rules alone.  Word-level primitives
(comparators, arithmetic, muxes, registers) contribute the flat 0.5 default,
and keys the backward walk never reaches are ranked at 0.5 too (see
:func:`repro.atpg.decisions.find_decision_candidates`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.netlist.gates import AndGate, NandGate, NorGate, NotGate, OrGate
from repro.netlist.mux import Mux
from repro.netlist.seq import DFF


def legal_one_probabilities(
    engine: ImplicationEngine,
    unjustified: Sequence[ImplicationNode],
    driver_node: Dict[Hashable, ImplicationNode],
    max_depth: int = 64,
) -> Dict[Hashable, float]:
    """Backward-propagate legal-1 probabilities from unjustified gates.

    Returns a mapping from 1-bit keys to their legal-1 probability.  Keys fed
    by several unjustified cones receive the average over their fanout
    branches (Rule 5), which we realise by averaging every probability
    contribution a key receives.
    """
    contributions: Dict[Hashable, List[float]] = {}
    queue = deque()

    for node in unjustified:
        for key in node.output_keys:
            required = engine.assignment.get(key)
            if required.width != 1 or required.bit(0) is None:
                continue
            # Rule 3: a required constant fixes the probability to 0 or 1.
            probability = 1.0 if required.bit(0) == 1 else 0.0
            queue.append((node, key, probability, 0))

    while queue:
        node, output_key, output_p1, depth = queue.popleft()
        if depth > max_depth:
            continue
        gate = node.tag[0] if isinstance(node.tag, tuple) else None
        input_p1 = _input_probability(gate, node, engine, output_p1)
        if input_p1 is None:
            continue
        for key in node.input_keys:
            if engine.assignment.width(key) != 1:
                continue
            current = engine.assignment.get(key)
            if current.bit(0) is not None:
                continue  # already decided; nothing to bias
            contributions.setdefault(key, []).append(input_p1)
            upstream = driver_node.get(key)
            if upstream is not None and upstream is not node:
                queue.append((upstream, key, input_p1, depth + 1))

    return {
        key: sum(values) / len(values) for key, values in contributions.items()
    }


def _input_probability(
    gate, node: ImplicationNode, engine: ImplicationEngine, p1: float
) -> Optional[float]:
    """Rule 4: the legal-1 probability of the unknown inputs of one gate."""
    unknown = 0
    for key in node.input_keys:
        if engine.assignment.width(key) == 1 and engine.assignment.get(key).bit(0) is None:
            unknown += 1
    if unknown == 0:
        return None
    return _gate_input_probability(gate, unknown, p1)


def _gate_input_probability(gate, n: int, p1: float) -> float:
    """The Rule 4 formula proper, shared verbatim by the interpreted walk
    and the compiled slot walk so both produce bit-identical floats."""
    p0 = 1.0 - p1
    if isinstance(gate, NotGate):
        return p0
    if isinstance(gate, (AndGate, NandGate)):
        if isinstance(gate, NandGate):
            p1, p0 = p0, p1
        # AND output 1 forces all inputs to 1; output 0 leaves 2^n - 1 legal
        # assignments of which 2^(n-1) - 1 set a given input to 1.
        ratio = ((1 << (n - 1)) - 1) / ((1 << n) - 1) if n >= 1 else 0.0
        return p1 * 1.0 + p0 * ratio
    if isinstance(gate, (OrGate, NorGate)):
        if isinstance(gate, NorGate):
            p1, p0 = p0, p1
        ratio = (1 << (n - 1)) / ((1 << n) - 1) if n >= 1 else 0.0
        return p1 * ratio + p0 * 0.0
    if isinstance(gate, (Mux, DFF)):
        return 0.5
    # Default for comparators, arithmetic and other word-level primitives.
    return 0.5


def legal_one_probabilities_compiled(
    engine: "ImplicationEngine",
    unjustified: Sequence[ImplicationNode],
    driver_slot: Sequence[Optional[ImplicationNode]],
    max_depth: int = 64,
) -> Dict[Hashable, float]:
    """Slot-indexed :func:`legal_one_probabilities` for the compiled kernel.

    Same BFS in the same order over the same nodes -- contributions are
    appended in an identical sequence and averaged with the identical
    ``sum(values) / len(values)`` expression, so the resulting floats (and
    therefore every downstream decision ranking) match the interpreted walk
    bit for bit.
    """
    assignment = engine.assignment
    known = assignment._known
    value = assignment._value
    widths = assignment._slot_widths
    key_of = assignment._key_of
    num_drivers = len(driver_slot)
    contributions: Dict[int, List[float]] = {}
    queue = deque()

    for node in unjustified:
        for slot in node.out_slots:
            if widths[slot] != 1 or not (known[slot] & 1):
                continue
            # Rule 3: a required constant fixes the probability to 0 or 1.
            probability = 1.0 if (value[slot] & 1) else 0.0
            queue.append((node, probability, 0))

    while queue:
        node, output_p1, depth = queue.popleft()
        if depth > max_depth:
            continue
        gate = node.tag[0] if isinstance(node.tag, tuple) else None
        unknown = 0
        for slot in node.in_slots:
            if widths[slot] == 1 and not (known[slot] & 1):
                unknown += 1
        if unknown == 0:
            continue
        input_p1 = _gate_input_probability(gate, unknown, output_p1)
        for slot in node.in_slots:
            if widths[slot] != 1 or (known[slot] & 1):
                continue  # wide, or already decided; nothing to bias
            contributions.setdefault(slot, []).append(input_p1)
            upstream = driver_slot[slot] if slot < num_drivers else None
            if upstream is not None and upstream is not node:
                queue.append((upstream, input_p1, depth + 1))

    return {
        key_of[slot]: sum(values) / len(values)
        for slot, values in contributions.items()
    }


def legal_assignment_bias(p1: float) -> Tuple[float, int]:
    """Definition 2: the bias value and the biased assignment.

    Returns ``(bias, value)`` where ``value`` is the more likely legal
    assignment (1 when ``p1 >= 0.5``).  The bias is always >= 1; a larger
    bias means the candidate is more strongly constrained toward ``value``.
    """
    epsilon = 1e-9
    if p1 >= 0.5:
        return (p1 / max(1.0 - p1, epsilon), 1)
    return ((1.0 - p1) / max(p1, epsilon), 0)
