"""Tests for local FSM extraction and FSM guidance."""

from pathlib import Path

import pytest

from repro import api
from repro.analysis import extract_local_fsm, extract_local_fsms, unreachable_state_cubes
from repro.analysis.fsm import implying_cube_rule
from repro.bitvector import BV3Conflict
from repro.bitvector.bv3 import bv
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
def cnt_cube(text):
    return ("cnt", bv(text))


DECADE_COUNTER = (Path(__file__).parent / "designs" / "decade_counter.v").read_text()


def test_seed_estg_records_structural_facts():
    """The counter's dead states 6 and 7 merge into one prime cube."""
    fsms = extract_local_fsms(build_wrapping_counter())
    assert unreachable_state_cubes(fsms) == (cnt_cube("11x"),)


def test_seed_estg_starts_from_the_given_initial_state():
    """Started at 7 the counter wraps through 0..5 and only 6 is never
    occupied; started at 6 every state is reachable."""
    fsms = extract_local_fsms(build_wrapping_counter())
    assert unreachable_state_cubes(fsms, {"cnt": 7}) == (cnt_cube("110"),)
    assert unreachable_state_cubes(fsms, {"cnt": 6}) == ()


def test_unreachable_states_merge_into_all_their_prime_cubes():
    """Every cube is maximal and holds unreachable states only: the decade
    counter's 10..15 give ``11xx`` and ``1x1x`` (``101x`` lies inside
    ``1x1x``), and the one-hot ring's dead encodings give one cube per pair
    of set bits plus all-zero."""
    decade = extract_local_fsms(compile_verilog(DECADE_COUNTER))
    assert unreachable_state_cubes(decade) == (
        ("count", bv("1x1x")), ("count", bv("11xx")),
    )
    ring = extract_local_fsms(build_one_hot_ring())
    cubes = {cube for _, cube in unreachable_state_cubes(ring)}
    assert cubes == {
        bv(text) for text in
        ("0000", "11xx", "1x1x", "1xx1", "x11x", "x1x1", "xx11")
    }


def test_unreachable_cube_rule_conflicts_implies_or_passes():
    """Inside the cube the rule conflicts; with one cube bit left open and
    the others agreeing it sets that bit to the complement; otherwise it
    changes nothing."""
    rule = implying_cube_rule(bv("11x"))
    for inside in ("110", "111", "11x"):
        with pytest.raises(BV3Conflict):
            rule([bv(inside)])
    assert rule([bv("1xx")]) == [bv("10x")]
    assert rule([bv("x1x")]) == [bv("01x")]
    for untouched in ("0xx", "x0x", "xxx", "xx1", "101"):
        assert rule([bv(untouched)]) == [bv(untouched)]


def test_justifier_prunes_structurally_illegal_states():
    """Guidance asserts the dead states as constraint nodes next to the
    environment pins, so the witness ``cnt == 7`` conflicts at the
    requirement fixpoint of every bound, where the unguided search has to
    decide its way to the same answer."""
    circuit = build_wrapping_counter()
    prop = Witness("seven", Signal("cnt") == 7)
    results = {
        guidance: AssertionChecker(
            circuit,
            options=CheckerOptions(max_frames=6, use_local_fsm_guidance=guidance),
            model_cache=UnrolledModelCache(),
        ).check(prop)
        for guidance in (False, True)
    }
    assert results[False].status is results[True].status is CheckStatus.WITNESS_NOT_FOUND
    assert results[False].statistics.decisions > 0
    assert results[True].statistics.decisions == 0


def test_checker_verdicts_unchanged_with_fsm_guidance():
    circuit = build_wrapping_counter()
    prop_holds = Assertion("never_seven", Signal("cnt") != 7)
    prop_witness = Witness("reach_four", Signal("cnt") == 4)
    # ``cnt >= 4`` leaves ``1xx``: the cube ``11x`` must narrow it to
    # ``10x``, not rule it out.
    prop_upper = Witness("reach_upper", Signal("cnt") >= 4)

    plain = AssertionChecker(circuit, options=CheckerOptions(max_frames=8))
    guided = AssertionChecker(
        circuit, options=CheckerOptions(max_frames=8, use_local_fsm_guidance=True)
    )
    assert plain.check(prop_holds).status is CheckStatus.HOLDS
    assert guided.check(prop_holds).status is CheckStatus.HOLDS
    assert plain.check(prop_witness).status is CheckStatus.WITNESS_FOUND
    assert guided.check(prop_witness).status is CheckStatus.WITNESS_FOUND
    assert plain.check(prop_upper).status is CheckStatus.WITNESS_FOUND
    assert guided.check(prop_upper).status is CheckStatus.WITNESS_FOUND
    assert guided.illegal_states == (cnt_cube("11x"),)
    assert plain.illegal_states == ()


@pytest.mark.parametrize("learning", [True, False])
def test_fsm_guidance_decides_the_decade_counter_bound(learning):
    """``count <= 9`` fails only in ``1xxx``; the cubes ``11xx`` and
    ``1x1x`` imply ``100x``, which the comparator refutes, so no bound
    needs more than a handful of decisions (378 unguided)."""
    circuit = compile_verilog(DECADE_COUNTER)
    prop = Assertion("ok", parse_expression("count <= 9"))
    result = AssertionChecker(
        circuit,
        options=CheckerOptions(learning=learning, use_local_fsm_guidance=True),
        model_cache=UnrolledModelCache(),
    ).check(prop)
    assert result.status is CheckStatus.HOLDS
    assert result.statistics.decisions <= 8


def test_guided_check_leaves_the_shared_model_base_clean():
    """The FSM nodes sit above the per-bound savepoint: after a guided
    check the cached model is back at its base, with the node count it had
    before, and an unguided check on it searches exactly like a fresh
    one."""
    circuit = compile_verilog(DECADE_COUNTER)
    prop = Assertion("ok", parse_expression("count <= 9"))

    def checker(guidance, cache):
        return AssertionChecker(
            circuit,
            options=CheckerOptions(learning=False, use_local_fsm_guidance=guidance),
            model_cache=cache,
        )

    fresh = checker(False, UnrolledModelCache()).check(prop)
    shared = UnrolledModelCache()
    plain = checker(False, shared)
    plain.check(prop)
    model, _ = shared.acquire(circuit, plain.lowered)
    nodes_before = len(model.engine.nodes)
    guided = checker(True, shared).check(prop)
    assert guided.statistics.models_reused == 1
    assert guided.statistics.decisions <= 8
    assert model.is_clean
    assert len(model.engine.nodes) == nodes_before
    again = plain.check(prop)
    assert again.status is fresh.status is CheckStatus.HOLDS
    assert again.statistics.decisions == fresh.statistics.decisions == 378


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
