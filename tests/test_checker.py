"""Integration tests for the assertion checker (Fig. 1 flow)."""

import os
import tracemalloc

import pytest

import repro
from repro import (
    Assertion,
    AssertionChecker,
    CheckerOptions,
    CheckStatus,
    Circuit,
    Delayed,
    Environment,
    Implies,
    Signal,
    Simulator,
    Witness,
)
from repro import api
from repro.atpg.justify import JustifierLimits
from repro.baselines.bdd_checker import BddSymbolicChecker
from repro.baselines.random_sim import RandomSimulationChecker
from repro.baselines.sat_checker import SATBoundedChecker
from repro.checker import ResourceMeter
from repro.properties.spec import And


def build_counter(limit=9):
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", 4)
    at_max = circuit.eq(cnt, limit)
    nxt = circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, 4))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit


def build_alu():
    circuit = Circuit("alu")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    op = circuit.input("op", 1)
    total = circuit.mux(op, circuit.add(a, b), circuit.sub(a, b), name="result")
    circuit.output(total)
    return circuit


# ----------------------------------------------------------------------
# Combinational checks
# ----------------------------------------------------------------------
def test_combinational_witness_and_validation():
    checker = AssertionChecker(build_alu())
    result = checker.check(Witness("make_nine", Signal("result") == 9))
    assert result.status is CheckStatus.WITNESS_FOUND
    assert result.counterexample is not None
    assert result.counterexample.validated
    # Re-simulate to double check the reported trace.
    circuit = checker.circuit
    simulator = Simulator(circuit, initial_state=result.counterexample.initial_state)
    out = simulator.step(result.counterexample.inputs[0])
    assert out["result"] == 9


def test_combinational_assertion_failure_found():
    checker = AssertionChecker(build_alu())
    result = checker.check(Assertion("never_15", Signal("result") != 15))
    assert result.status is CheckStatus.FAILS
    assert result.counterexample.validated


def _doubler():
    circuit = Circuit("c")
    a = circuit.input("a", 4)
    doubled = circuit.output(circuit.add(a, a), name="doubled")
    circuit.bit(doubled, 0, name="doubled_lsb")
    return circuit


def test_combinational_assertion_holds():
    """``a + a`` is even: its least significant bit is always 0."""
    checker = AssertionChecker(_doubler())
    result = checker.check(Assertion("even", Signal("doubled_lsb") == 0))
    assert result.status is CheckStatus.HOLDS


def test_logical_and_with_one_is_not_a_parity_test():
    """``doubled & 1`` is a *logical* And, so the property says
    ``doubled == 0``, which a = 1 refutes.  This spelling used to answer
    ``holds`` because the datapath leaf was closed by min/max guessing."""
    prop = Assertion("even", (Signal("doubled") & 1) == 0)
    result = AssertionChecker(_doubler()).check(prop)
    assert result.status is CheckStatus.FAILS
    assert result.counterexample.validated
    assert result.counterexample.inputs[0]["a"] % 8 != 0
    sat = SATBoundedChecker(_doubler(), max_frames=1).check(prop)
    assert sat.status is CheckStatus.FAILS


# ----------------------------------------------------------------------
# Sequential checks
# ----------------------------------------------------------------------
def test_sequential_assertion_holds_within_bound():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=6))
    result = checker.check(Assertion("bounded", Signal("cnt") <= 9))
    assert result.status is CheckStatus.HOLDS
    assert result.statistics.wall_seconds > 0
    assert result.frames_explored == 6


def test_sequential_counterexample_with_minimal_depth():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=8))
    result = checker.check(Assertion("never_three", Signal("cnt") != 3))
    assert result.status is CheckStatus.FAILS
    # cnt = 3 is first reachable after three enabled increments (frame 3).
    assert result.counterexample.target_frame == 3
    assert result.counterexample.validated
    assert all(vector["en"] == 1 for vector in result.counterexample.inputs[:3])


def test_sequential_witness_search():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=8))
    result = checker.check(Witness("reach_five", Signal("cnt") == 5))
    assert result.status is CheckStatus.WITNESS_FOUND
    assert result.counterexample.length == 6


def test_witness_not_found_within_bound():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=3))
    result = checker.check(Witness("reach_nine", Signal("cnt") == 9))
    assert result.status is CheckStatus.WITNESS_NOT_FOUND


def test_transition_property_with_delayed():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=5))
    prop = Assertion(
        "wraps_to_zero",
        Implies(Delayed(And(Signal("cnt") == 9, Signal("en") == 1)), Signal("cnt") == 0),
    )
    result = checker.check(prop)
    assert result.status is CheckStatus.HOLDS


# ----------------------------------------------------------------------
# Environments and initial states
# ----------------------------------------------------------------------
def test_pinned_environment_blocks_counterexample():
    # With en pinned to 0 the counter can never move, so cnt != 3 holds.
    environment = Environment().pin("en", 0)
    checker = AssertionChecker(
        build_counter(), environment=environment, options=CheckerOptions(max_frames=6)
    )
    result = checker.check(Assertion("never_three", Signal("cnt") != 3))
    assert result.status is CheckStatus.HOLDS


def test_explicit_initial_state():
    checker = AssertionChecker(
        build_counter(), initial_state={"cnt": 8}, options=CheckerOptions(max_frames=4)
    )
    result = checker.check(Witness("reach_nine", Signal("cnt") == 9))
    assert result.status is CheckStatus.WITNESS_FOUND
    assert result.counterexample.length <= 3


def test_initialization_sequence_derives_state():
    environment = Environment().initialize_with([{"en": 1}, {"en": 1}])
    checker = AssertionChecker(
        build_counter(), environment=environment, options=CheckerOptions(max_frames=3)
    )
    result = checker.check(Witness("reach_three", Signal("cnt") == 3))
    # Starting from cnt = 2 (after the init sequence) only one more step is needed.
    assert result.status is CheckStatus.WITNESS_FOUND
    assert result.counterexample.initial_state["cnt"] == 2


def test_one_hot_environment_enforced_in_search():
    circuit = Circuit("onehot")
    r0 = circuit.input("r0", 1)
    r1 = circuit.input("r1", 1)
    both = circuit.and_(r0, r1, name="both")
    circuit.output(both)
    environment = Environment().one_hot(["r0", "r1"])
    checker = AssertionChecker(circuit, environment=environment)
    result = checker.check(Assertion("never_both", Signal("both") == 0))
    assert result.status is CheckStatus.HOLDS


# ----------------------------------------------------------------------
# Limits and statistics
# ----------------------------------------------------------------------
def test_abort_on_tiny_limits():
    options = CheckerOptions(
        max_frames=6, limits=JustifierLimits(max_decisions=1, max_backtracks=0)
    )
    checker = AssertionChecker(build_counter(), options=options)
    result = checker.check(Assertion("bounded", Signal("cnt") <= 9))
    assert result.status in (CheckStatus.ABORTED, CheckStatus.HOLDS)


def test_statistics_are_collected():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=5))
    result = checker.check(Assertion("never_three", Signal("cnt") != 3))
    stats = result.statistics
    assert stats.justify_runs >= 1
    assert stats.implications > 0
    assert stats.peak_memory_mb >= 0.0
    assert repr(result)


def test_counterexample_summary_readable():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=6))
    result = checker.check(Witness("reach_two", Signal("cnt") == 2))
    summary = result.counterexample.summary()
    assert "frame" in summary
    assert result.counterexample.value(0, "cnt") == 0


def test_max_frames_override_in_check_call():
    checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=2))
    result = checker.check(Witness("reach_five", Signal("cnt") == 5), max_frames=8)
    assert result.status is CheckStatus.WITNESS_FOUND


# ----------------------------------------------------------------------
# Memory measurement: read tracemalloc only when the caller traces
# ----------------------------------------------------------------------
_MB = 1024 * 1024

#: every engine's check, called the way a default user calls it.
DEFAULT_CHECKS = {
    "api": lambda circuit, prop: api.check(api.build_request(circuit, prop, max_frames=3)),
    "atpg": lambda circuit, prop: AssertionChecker(
        circuit, options=CheckerOptions(max_frames=3)
    ).check(prop),
    "sat": lambda circuit, prop: SATBoundedChecker(circuit, max_frames=3).check(prop),
    "bdd": lambda circuit, prop: BddSymbolicChecker(circuit).check(prop),
    "random": lambda circuit, prop: RandomSimulationChecker(circuit).check(prop),
}


@pytest.fixture
def untraced():
    if tracemalloc.is_tracing():
        pytest.skip("the interpreter already traces the heap")


@pytest.mark.parametrize("engine", sorted(DEFAULT_CHECKS))
def test_default_check_leaves_the_heap_untraced(untraced, engine):
    DEFAULT_CHECKS[engine](build_counter(), Assertion("bounded", Signal("cnt") <= 9))
    assert not tracemalloc.is_tracing()


def test_check_under_caller_tracing_reports_megabytes(untraced):
    tracemalloc.start()
    try:
        checker = AssertionChecker(build_counter(), options=CheckerOptions(max_frames=3))
        result = checker.check(Assertion("bounded", Signal("cnt") <= 9))
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert result.statistics.peak_memory_mb > 0.0


def test_meter_reports_only_the_growth_inside_it(untraced):
    tracemalloc.start()
    try:
        ballast = bytearray(5 * _MB)
        with ResourceMeter() as meter:
            grown = bytearray(_MB)
        del ballast, grown
    finally:
        tracemalloc.stop()
    assert 0.9 < meter.peak_memory_mb < 2.0


def test_untraced_meter_reports_zero(untraced):
    with ResourceMeter() as meter:
        bytearray(_MB)
    assert meter.peak_memory_mb == 0.0
    assert meter.elapsed_seconds > 0.0


def test_checker_never_starts_heap_tracing():
    package = os.path.dirname(repro.__file__)
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    assert "tracemalloc.start" not in handle.read(), name
