"""Tests for the property expression layer, compiler and environments."""

import pytest

from repro.netlist import Circuit
from repro.properties import (
    And,
    Assertion,
    AtMostOneHot,
    Delayed,
    Environment,
    Implies,
    Not,
    OneHot,
    Or,
    Signal,
    Witness,
)
from repro.properties.convert import PropertyCompiler
from repro.properties.spec import BinOp
from repro.simulation import Simulator


def build_simple_circuit():
    circuit = Circuit("demo")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    circuit.output(circuit.add(a, b), name="total")
    return circuit


# ----------------------------------------------------------------------
# Expression construction
# ----------------------------------------------------------------------
def test_operator_overloading_builds_ast():
    expr = (Signal("a") + 1) == Signal("b")
    assert isinstance(expr, BinOp)
    assert expr.op == "=="
    assert sorted(expr.signals()) == ["a", "b"]


def test_boolean_combinators():
    expr = And(Signal("x") == 1, Or(Signal("y") == 0, Not(Signal("z") == 2)))
    assert sorted(expr.signals()) == ["x", "y", "z"]
    implication = Signal("p").implies(Signal("q"))
    assert isinstance(implication, Implies)


def test_expression_validation():
    with pytest.raises(ValueError):
        And(Signal("a"))
    with pytest.raises(ValueError):
        Or(Signal("a"))
    with pytest.raises(ValueError):
        OneHot(Signal("a"))
    with pytest.raises(ValueError):
        Delayed(Signal("a"), cycles=0)
    with pytest.raises(TypeError):
        Signal("a") == 1.5
    with pytest.raises(ValueError):
        BinOp("**", Signal("a"), Signal("b"))


def test_delayed_tracks_depth_through_signals():
    expr = Delayed(Signal("x") == 3, cycles=2)
    assert expr.signals() == ["x"]


# ----------------------------------------------------------------------
# Property compilation to monitor logic
# ----------------------------------------------------------------------
def test_compile_assertion_monitor_semantics():
    circuit = build_simple_circuit()
    compiler = PropertyCompiler(circuit)
    compiled = compiler.compile(Assertion("sum_small", Signal("total") <= 10))
    assert compiled.goal_value == 0  # counterexample requires the monitor low
    assert compiled.warmup_frames == 0
    simulator = Simulator(circuit)
    out = simulator.step({"a": 3, "b": 4})
    assert out[compiled.monitor.name] == 1
    # 9 + 3 = 12 > 10 violates the property.  (9 + 9 would *not*: the 4-bit
    # sum wraps to 2, exactly the modulation effect the paper cares about.)
    out = simulator.step({"a": 9, "b": 3})
    assert out[compiled.monitor.name] == 0


def test_compile_witness_goal_value():
    circuit = build_simple_circuit()
    compiled = PropertyCompiler(circuit).compile(Witness("hit", Signal("total") == 7))
    assert compiled.goal_value == 1


def test_compile_arithmetic_and_logic_operators():
    circuit = build_simple_circuit()
    compiler = PropertyCompiler(circuit)
    expr = And(
        (Signal("a") + Signal("b")) == Signal("total"),
        (Signal("a") & Signal("b")) <= 15,
        ((Signal("a") ^ Signal("b")) | Signal("a")) >= 0,
        (Signal("a") - Signal("b")) != 1,
        (Signal("a") * Signal("b")) >= 0,
    )
    monitor = compiler.compile_condition(expr)
    simulator = Simulator(circuit)
    # a - b = 2 satisfies the "!= 1" conjunct; every other conjunct holds too.
    out = simulator.step({"a": 6, "b": 4})
    assert out[monitor.name] == 1
    # a - b = 1 violates the "!= 1" conjunct, so the conjunction is false.
    out = simulator.step({"a": 6, "b": 5})
    assert out[monitor.name] == 0


def test_compile_onehot_and_atmostone():
    circuit = Circuit("flags")
    flags = [circuit.input("f%d" % i, 1) for i in range(3)]
    compiler = PropertyCompiler(circuit)
    onehot = compiler.compile_condition(OneHot(*[Signal(f.name) for f in flags]))
    atmost = compiler.compile_condition(AtMostOneHot(*[Signal(f.name) for f in flags]))
    simulator = Simulator(circuit)
    out = simulator.step({"f0": 1, "f1": 0, "f2": 0})
    assert out[onehot.name] == 1 and out[atmost.name] == 1
    out = simulator.step({"f0": 1, "f1": 1, "f2": 0})
    assert out[onehot.name] == 0 and out[atmost.name] == 0
    out = simulator.step({"f0": 0, "f1": 0, "f2": 0})
    assert out[onehot.name] == 0 and out[atmost.name] == 1


def test_compile_delayed_builds_monitor_register():
    circuit = build_simple_circuit()
    compiler = PropertyCompiler(circuit)
    compiled = compiler.compile(
        Assertion("stable", Implies(Delayed(Signal("total") == 5), Signal("total") == 5))
    )
    assert compiled.warmup_frames == 1
    # The Delayed register shows up as an extra flip-flop.
    assert any(ff.q.name.startswith("monitor_delay") for ff in circuit.flip_flops)


def test_compile_width_mismatch_is_zero_extended():
    circuit = Circuit("w")
    small = circuit.input("small", 2)
    big = circuit.input("big", 6)
    monitor = PropertyCompiler(circuit).compile_condition(Signal("small") == Signal("big"))
    simulator = Simulator(circuit)
    assert simulator.step({"small": 3, "big": 3})[monitor.name] == 1
    assert simulator.step({"small": 3, "big": 35})[monitor.name] == 0


def test_compile_unknown_signal_raises():
    circuit = build_simple_circuit()
    with pytest.raises(KeyError):
        PropertyCompiler(circuit).compile(Assertion("bad", Signal("nope") == 1))


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------
def test_environment_pin_and_one_hot():
    environment = Environment()
    environment.pin("mode", 2).one_hot(["r0", "r1", "r2"])
    assert not environment.is_empty()
    assert environment.pinned == {"mode": 2}
    assert environment.one_hot_groups == [["r0", "r1", "r2"]]
    with pytest.raises(ValueError):
        environment.one_hot(["only_one"])


def test_environment_initialization_sequence():
    circuit = Circuit("init")
    load = circuit.input("load", 1)
    value = circuit.input("value", 4)
    reg = circuit.state("reg", 4)
    circuit.dff_into(reg, value, enable=load, init_value=0)
    circuit.output(reg)

    environment = Environment().initialize_with(
        [{"load": 1, "value": 9}, {"load": 0, "value": 0}]
    )
    state = environment.initialization.derive_initial_state(circuit)
    assert state["reg"] == 9

