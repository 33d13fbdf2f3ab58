"""Tests for the word-level ATPG: unrolling, probabilities, decisions, search."""

import pytest

from repro.atpg import (
    Justifier,
    JustifyOutcome,
    UnrolledModel,
    find_decision_candidates,
    legal_assignment_bias,
    legal_one_probabilities,
)
from repro.atpg import justify as justify_module
from repro.atpg.justify import JustifierLimits
from repro.bitvector import BV3
from repro.implication.assignment import ImplicationConflict
from repro.netlist import Circuit


def build_counter(limit=9):
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", 4)
    at_max = circuit.eq(cnt, limit)
    nxt = circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, 4))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit, cnt, en


# ----------------------------------------------------------------------
# Time-frame expansion
# ----------------------------------------------------------------------
def test_unrolled_model_structure():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 3)
    assert model.num_frames == 3
    # Initial state is applied at frame 0 and propagated forward when inputs allow.
    assert model.value(cnt, 0).to_int() == 0
    # Register nodes connect consecutive frames.
    assert len(model.register_nodes) == 2
    # Inputs are free keys in every frame.
    free = model.free_keys()
    assert (en, 0) in free and (en, 2) in free


def test_unrolled_model_initial_state_override():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 2, initial_state={"cnt": 5})
    assert model.value(cnt, 0).to_int() == 5
    with pytest.raises(KeyError):
        UnrolledModel(circuit, 2, initial_state={"bogus": 1})


def test_unrolled_model_requires_at_least_one_frame():
    circuit, _, _ = build_counter()
    with pytest.raises(ValueError):
        UnrolledModel(circuit, 0)


def test_assign_and_propagate_across_frames():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 3)
    model.assign(en, 0, BV3.from_int(1, 1))
    model.assign(en, 1, BV3.from_int(1, 1))
    model.propagate()
    assert model.value(cnt, 1).to_int() == 1
    assert model.value(cnt, 2).to_int() == 2


def test_input_assignment_extraction():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 2)
    model.assign(en, 0, BV3.from_int(1, 1))
    frames = model.input_assignment()
    assert frames[0]["en"] == 1
    assert frames[1]["en"] == 0  # unknown bits filled with zero
    assert model.initial_state_assignment()["cnt"] == 0


# ----------------------------------------------------------------------
# Probabilities and bias (Definitions 1-2, Rules 3-5)
# ----------------------------------------------------------------------
def test_legal_assignment_bias():
    bias, value = legal_assignment_bias(1.0)
    assert value == 1 and bias > 100
    bias, value = legal_assignment_bias(0.25)
    assert value == 0 and bias == pytest.approx(3.0)
    bias, value = legal_assignment_bias(0.5)
    assert bias == pytest.approx(1.0)


def test_and_gate_probability_rule():
    """2-input AND with required output 0: each input's legal-1 probability is 1/3."""
    circuit = Circuit("p")
    a = circuit.input("a", 1)
    b = circuit.input("b", 1)
    out = circuit.and_(a, b, name="out")

    model = UnrolledModel(circuit, 1)
    model.assign(out, 0, BV3.from_int(1, 0), propagate=False)
    unjustified = model.engine.unjustified_nodes()
    probabilities = legal_one_probabilities(model.engine, unjustified, model.driver_node)
    assert probabilities[(a, 0)] == pytest.approx(1.0 / 3.0)
    assert probabilities[(b, 0)] == pytest.approx(1.0 / 3.0)


def test_or_gate_probability_rule():
    """2-input OR with required output 1: each input's legal-1 probability is 2/3."""
    circuit = Circuit("p")
    a = circuit.input("a", 1)
    b = circuit.input("b", 1)
    out = circuit.or_(a, b, name="out")
    model = UnrolledModel(circuit, 1)
    model.assign(out, 0, BV3.from_int(1, 1), propagate=False)
    probabilities = legal_one_probabilities(
        model.engine, model.engine.unjustified_nodes(), model.driver_node
    )
    assert probabilities[(a, 0)] == pytest.approx(2.0 / 3.0)


# ----------------------------------------------------------------------
# Decision candidates
# ----------------------------------------------------------------------
def test_decision_candidates_are_control_points():
    # Reaching cnt == 2 within 4 frames leaves the enable sequence
    # under-determined (any 2-of-3 pattern works), so implication alone cannot
    # finish and the justifier must pick control decision points.
    circuit, cnt, en = build_counter()
    target = circuit.eq(cnt, 2, name="target")
    model = UnrolledModel(circuit, 4)
    model.assign(target, 3, BV3.from_int(1, 1))
    unjustified = model.engine.unjustified_nodes()
    assert unjustified, "the target requirement should not be justified yet"
    candidates = find_decision_candidates(model, unjustified, prove_mode=False)
    assert candidates, "expected at least one decision candidate"
    candidate_nets = {model.net_of(c.key) for c in candidates}
    assert en in candidate_nets  # the enable input drives the counter's future
    for candidate in candidates:
        assert model.net_of(candidate.key).width == 1


def test_implication_alone_resolves_tight_reachability():
    # With exactly as many frames as increments the enable values are forced,
    # so word-level implication decides everything and no decision is needed.
    circuit, cnt, en = build_counter()
    target = circuit.eq(cnt, 2, name="target")
    model = UnrolledModel(circuit, 3)
    model.assign(target, 2, BV3.from_int(1, 1))
    assert model.value(cnt, 2).to_int() == 2
    assert model.value(en, 0).to_int() == 1
    assert model.value(en, 1).to_int() == 1
    assert not model.engine.unjustified_nodes()


def test_decision_candidates_respect_limit():
    circuit = Circuit("wide")
    inputs = [circuit.input("i%d" % i, 1) for i in range(12)]
    out = circuit.or_(*inputs, name="out")
    model = UnrolledModel(circuit, 1)
    model.assign(out, 0, BV3.from_int(1, 1), propagate=False)
    candidates = find_decision_candidates(
        model, model.engine.unjustified_nodes(), limit=4
    )
    assert len(candidates) <= 4


def test_prove_mode_prefers_complement_of_bias():
    circuit = Circuit("p")
    a = circuit.input("a", 1)
    b = circuit.input("b", 1)
    out = circuit.and_(a, b, name="out")
    model = UnrolledModel(circuit, 1)
    model.assign(out, 0, BV3.from_int(1, 1), propagate=False)
    candidates = find_decision_candidates(model, model.engine.unjustified_nodes())
    candidate = candidates[0]
    assert candidate.bias_value == 1
    assert candidate.preferred_first_value(prove_mode=True) == 0
    assert candidate.preferred_first_value(prove_mode=False) == 1


# ----------------------------------------------------------------------
# Justification search
# ----------------------------------------------------------------------
def test_justifier_finds_witness_for_reachable_value():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 4)
    model.assign(cnt, 3, BV3.from_int(4, 3))
    justifier = Justifier(model, prove_mode=False)
    result = justifier.run()
    assert result.outcome is JustifyOutcome.SUCCESS
    # The discovered input sequence must actually reach the value.
    frames = model.input_assignment()
    assert all(vector["en"] in (0, 1) for vector in frames)


def test_justifier_proves_unreachable_value():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 3)
    # cnt cannot reach 12 in two steps from 0.  Word-level implication may
    # already detect the contradiction while asserting the requirement; if it
    # does not, the justifier search must conclude FAIL.
    try:
        model.assign(cnt, 2, BV3.from_int(4, 12))
    except ImplicationConflict:
        return
    result = Justifier(model, prove_mode=True).run()
    assert result.outcome is JustifyOutcome.FAIL


def test_justifier_conflicting_requirement_fails_immediately():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 1)
    try:
        model.assign(cnt, 0, BV3.from_int(4, 7))
        conflict_during_assign = False
    except ImplicationConflict:
        conflict_during_assign = True
    if not conflict_during_assign:
        result = Justifier(model).run()
        assert result.outcome is JustifyOutcome.FAIL


def test_justifier_abort_on_tiny_limits():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 6)
    model.assign(cnt, 5, BV3.from_int(4, 5))
    limits = JustifierLimits(max_decisions=1, max_backtracks=0)
    result = Justifier(model, prove_mode=False, limits=limits).run()
    assert result.outcome in (JustifyOutcome.ABORT, JustifyOutcome.SUCCESS)


def test_justifier_statistics_populated():
    circuit, cnt, en = build_counter()
    model = UnrolledModel(circuit, 4)
    model.assign(cnt, 3, BV3.from_int(4, 2))
    result = Justifier(model, prove_mode=False).run()
    assert result.succeeded
    assert result.implications > 0


# ----------------------------------------------------------------------
# Datapath leaves: solver once, then branching on input-word bits
# ----------------------------------------------------------------------
def _leaf_model(width, build_bad):
    """One frame whose only requirement is ``bad == 1`` on word inputs."""
    circuit = Circuit("leaf")
    x = circuit.input("x", width)
    y = circuit.input("y", width)
    bad = build_bad(circuit, x, y)
    circuit.output(bad)
    model = UnrolledModel(circuit, 1)
    model.assign(bad, 0, BV3.from_int(1, 1))
    return circuit, model


def test_datapath_leaf_branches_to_a_solution():
    """``(y < 7) & (y > 0)`` has no control decision and no arithmetic for
    the solver; the leaf branches on the bits of ``y`` and finds a value
    that min/max completion (0 or 255) never could."""
    circuit, model = _leaf_model(
        8, lambda c, x, y: c.and_(c.lt(y, 7), c.gt(y, 0))
    )
    result = Justifier(model).run()
    assert result.outcome is JustifyOutcome.SUCCESS
    assert result.decisions > 0 and result.unproven_leaves == 0
    assert 0 < model.value(circuit.net("y"), 0).min_value() < 7


def test_leaf_branch_takes_the_msb_of_a_free_word():
    circuit, model = _leaf_model(
        8, lambda c, x, y: c.and_(c.lt(y, 7), c.gt(y, 0))
    )
    candidate = Justifier(model)._bit_candidate()
    assert candidate.key == model.key(circuit.net("y"), 0)
    # y < 7 already implies the top bits are 0; the branch takes the most
    # significant bit still unknown.
    known = model.value(circuit.net("y"), 0).known
    assert known and candidate.bit == (0xFF & ~known).bit_length() - 1
    assert candidate.cube(1).bit(candidate.bit) == 1
    assert candidate.cube(1).num_known() == 1


def test_leaf_contradiction_is_proved_by_branching():
    """``(x > y) & (y >= x)`` at 4 bits: both branches of every bit fail,
    so the FAIL is a proof (no unproven leaf)."""
    _circuit, model = _leaf_model(
        4, lambda c, x, y: c.and_(c.gt(x, y), c.ge(y, x))
    )
    result = Justifier(model).run()
    assert result.outcome is JustifyOutcome.FAIL
    assert result.unproven_leaves == 0


def test_failed_datapath_leaf_restores_decision_levels(monkeypatch):
    """A leaf that exhausts its branching budget must roll back every
    level it opened -- a dangling level would make the enclosing
    decision's backtrack undo the wrong refinements -- and count itself as
    unproven, which turns the search's FAIL into ABORT."""
    monkeypatch.setattr(justify_module, "LEAF_BACKTRACK_BUDGET", 2)
    circuit, model = _leaf_model(
        8, lambda c, x, y: c.and_(c.gt(x, y), c.ge(y, x))
    )
    justifier = Justifier(model)
    before = model.engine.assignment.decision_level
    outcome, facts = justifier._datapath_leaf(0)
    assert outcome is JustifyOutcome.FAIL and facts is None
    assert justifier.unproven_leaves == 1
    assert model.engine.assignment.decision_level == before
    assert model.value(circuit.net("x"), 0).is_fully_unknown()
    assert model.value(circuit.net("y"), 0).is_fully_unknown()
    result = Justifier(model).run()
    assert result.outcome is JustifyOutcome.ABORT
    assert result.unproven_leaves == 1
