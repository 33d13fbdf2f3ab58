"""Tests for local FSM extraction and FSM-guided pruning."""

import pytest

from repro import api
from repro.analysis import extract_local_fsm, extract_local_fsms, unreachable_state_cubes
from repro.atpg import Justifier, UnrolledModel
from repro.bitvector import BV3
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.checker.incremental import UnrolledModelCache
from repro.hdl import compile_verilog
from repro.netlist import Circuit
from repro.properties import Assertion, Signal, Witness, parse_expression


def build_wrapping_counter(limit=5, width=3):
    """A counter that wraps to zero after ``limit``; values above ``limit``
    are unreachable from the initial state."""
    circuit = Circuit("wrap_counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", width)
    at_max = circuit.eq(cnt, limit)
    nxt = circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, width))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit


def build_one_hot_ring(num_stages=4):
    """A one-hot rotating token: only one-hot encodings are reachable."""
    circuit = Circuit("ring")
    advance = circuit.input("advance", 1)
    token = circuit.state("token", num_stages)
    rotated = circuit.concat(
        circuit.slice(token, num_stages - 2, 0), circuit.bit(token, num_stages - 1)
    )
    circuit.dff_into(token, circuit.mux(advance, token, rotated), init_value=1)
    circuit.output(token)
    return circuit


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def test_counter_fsm_transitions_and_unreachable_states():
    circuit = build_wrapping_counter()
    fsm = extract_local_fsm(circuit, circuit.flip_flops[0])
    assert fsm.register_name == "cnt"
    assert fsm.width == 3
    assert fsm.initial_state == 0
    # Counting and holding are both possible from every reachable state.
    assert set(fsm.successors(0)) == {0, 1}
    assert set(fsm.successors(5)) == {5, 0}
    # 6 and 7 can never be entered.
    assert fsm.unreachable_states() == {6, 7}


def test_one_hot_ring_unreachable_states_are_non_one_hot():
    circuit = build_one_hot_ring()
    fsm = extract_local_fsm(circuit, circuit.flip_flops[0])
    reachable = fsm.reachable_states()
    assert reachable == {1, 2, 4, 8}
    assert all(bin(state).count("1") == 1 for state in reachable)
    assert 0 in fsm.unreachable_states()
    assert 3 in fsm.unreachable_states()


def test_reachability_from_alternate_start_state():
    circuit = build_wrapping_counter()
    fsm = extract_local_fsm(circuit, circuit.flip_flops[0])
    # Starting inside the unreachable region the counter counts up to wrap at
    # the modulus, so everything becomes reachable.
    assert 7 in fsm.reachable_states(from_state=6)
    # Starting at 2 the counter still wraps through 0 and revisits 1; only the
    # dead region above the wrap limit stays unreachable.
    assert fsm.unreachable_states(from_state=2) == {6, 7}


def test_unknown_initial_state_gives_empty_reachability():
    circuit = Circuit("unknown_start")
    inp = circuit.input("inp", 2)
    state = circuit.state("state", 2)
    circuit.dff_into(state, inp, init_value=None)
    circuit.output(state)
    fsm = extract_local_fsm(circuit, circuit.flip_flops[0])
    assert fsm.initial_state is None
    assert fsm.reachable_states() == set()
    assert fsm.unreachable_states() == set()


def test_extract_local_fsms_skips_wide_registers():
    circuit = build_wrapping_counter(width=3)
    wide_input = circuit.input("wide_in", 8)
    circuit.dff(wide_input, name="wide_reg")
    fsms = extract_local_fsms(circuit, max_width=4)
    names = {fsm.register_name for fsm in fsms}
    assert "cnt" in names
    assert "wide_reg" not in names


def test_extract_rejects_oversized_register():
    circuit = Circuit("big")
    data = circuit.input("data", 10)
    circuit.dff(data, name="big_reg")
    with pytest.raises(ValueError):
        extract_local_fsm(circuit, circuit.flip_flops[0], max_states=64)


def test_format_mentions_unreachable_states():
    circuit = build_wrapping_counter()
    fsm = extract_local_fsm(circuit, circuit.flip_flops[0])
    text = fsm.format()
    assert "local FSM cnt" in text
    assert "unreachable" in text


# ----------------------------------------------------------------------
# Unreachable state cubes and checker integration
# ----------------------------------------------------------------------
def cnt_cube(value):
    return (("cnt", BV3.from_int(3, value)),)


def test_seed_estg_records_structural_facts():
    """The counter's dead states above the wrap limit become one state cube
    each; FSM guidance hands these cubes to the justifier."""
    fsms = extract_local_fsms(build_wrapping_counter())
    assert unreachable_state_cubes(fsms) == (cnt_cube(6), cnt_cube(7))


def test_seed_estg_starts_from_the_given_initial_state():
    """Started at 7 the counter wraps through 0..5 and only 6 is never
    occupied; started at 6 every state is reachable."""
    fsms = extract_local_fsms(build_wrapping_counter())
    assert unreachable_state_cubes(fsms, {"cnt": 7}) == (cnt_cube(6),)
    assert unreachable_state_cubes(fsms, {"cnt": 6}) == ()


def test_justifier_prunes_structurally_illegal_states():
    """With the initial state left free the model alone admits cnt == 7 (hold
    the dead state), but the FSM cubes know the real design can never
    occupy it and prune the branch."""
    circuit = build_wrapping_counter()
    illegal_states = unreachable_state_cubes(extract_local_fsms(circuit))
    cnt = circuit.net("cnt")

    unguided = UnrolledModel(circuit, 3, free_initial_state=True)
    unguided.assign(cnt, 2, BV3.from_int(3, 7))
    assert Justifier(unguided, prove_mode=False).run().succeeded

    guided = UnrolledModel(circuit, 3, free_initial_state=True)
    guided.assign(cnt, 2, BV3.from_int(3, 7))
    result = Justifier(guided, prove_mode=False, illegal_states=illegal_states).run()
    assert not result.succeeded


def test_checker_verdicts_unchanged_with_fsm_guidance():
    circuit = build_wrapping_counter()
    prop_holds = Assertion("never_seven", Signal("cnt") != 7)
    prop_witness = Witness("reach_four", Signal("cnt") == 4)

    plain = AssertionChecker(circuit, options=CheckerOptions(max_frames=8))
    guided = AssertionChecker(
        circuit, options=CheckerOptions(max_frames=8, use_local_fsm_guidance=True)
    )
    assert plain.check(prop_holds).status is CheckStatus.HOLDS
    assert guided.check(prop_holds).status is CheckStatus.HOLDS
    assert plain.check(prop_witness).status is CheckStatus.WITNESS_FOUND
    assert guided.check(prop_witness).status is CheckStatus.WITNESS_FOUND
    assert cnt_cube(7) in guided.illegal_states
    assert plain.illegal_states == ()


#: Every state of this counter is reachable (``clr`` resets, ``en`` counts),
#: so FSM guidance has nothing to prune and must not change the verdict.
CLEARABLE_COUNTER = """
module top(input clk, input en, input clr, output [2:0] cnt);
  reg [2:0] cnt;
  always @(posedge clk) if (clr) cnt <= 0; else if (en) cnt <= cnt + 1;
endmodule
"""


def test_fsm_guidance_keeps_the_clearable_counter_violation():
    circuit = compile_verilog(CLEARABLE_COUNTER)
    prop = Assertion("p", parse_expression("cnt != 5"))
    results = {}
    for guidance in (False, True):
        results[guidance] = AssertionChecker(
            circuit,
            options=CheckerOptions(max_frames=6, use_local_fsm_guidance=guidance),
            model_cache=UnrolledModelCache(),
        ).check(prop)
    guided, plain = results[True], results[False]
    assert guided.status is plain.status is CheckStatus.FAILS
    # ``validated``: the trace replayed through repro.simulation.
    assert guided.counterexample.validated
    assert guided.counterexample == plain.counterexample


def test_fsm_guided_atpg_agrees_with_sat_on_the_clearable_counter():
    report = api.check(api.CheckRequest(
        circuit=api.CircuitRef.source(CLEARABLE_COUNTER),
        properties=(api.PropertySpec.assertion("p", "cnt != 5"),),
        max_frames=6,
        fsm_guidance=True,
        engines=("atpg", "sat"),
        compare=True,
    ))
    assert report.disagreements == ()
    assert report.results[0].status == CheckStatus.FAILS.value
