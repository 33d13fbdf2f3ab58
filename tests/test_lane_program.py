"""The lane program of :mod:`repro.sim` is built once per circuit.

:func:`~repro.sim.compile_circuit` memoises the generated step function on
the circuit and rebuilds it only after gates were added, so a repeat random
check on an unchanged circuit generates nothing.  The generated source is
made of synthetic names only, never design text.
"""

import re

import pytest

from repro.netlist import Circuit
from repro.properties import Assertion, Signal
from repro.properties.convert import PropertyCompiler
from repro.sim import BitParallelSim, compile_circuit


def build_counter():
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", 3)
    nxt = circuit.mux(circuit.eq(cnt, 5), circuit.add(cnt, 1), circuit.const(0, 3))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit


def test_unchanged_circuit_keeps_its_program():
    circuit = build_counter()
    program = compile_circuit(circuit)
    assert compile_circuit(circuit) is program
    assert BitParallelSim(circuit).plan is program


def test_new_monitor_rebuilds_the_program():
    circuit = build_counter()
    program = compile_circuit(circuit)
    monitor = PropertyCompiler(circuit).compile(Assertion("p", Signal("cnt") != 2)).monitor
    rebuilt = compile_circuit(circuit)
    assert rebuilt is not program
    assert compile_circuit(circuit) is rebuilt
    sim = BitParallelSim(rebuilt, lanes=4)
    sim.step({"en": [0b1111]})
    assert sim.peek(monitor) == [0b1111]
    with pytest.raises(KeyError):
        BitParallelSim(program, lanes=4).peek(monitor)


def test_source_holds_no_design_text():
    circuit = build_counter()
    PropertyCompiler(circuit).compile(Assertion("p", Signal("cnt") != 2))
    tokens = set(re.findall(r"\w+", compile_circuit(circuit).source))
    assert all(re.fullmatch(r"[ist]\d+|F|0|def|step|ins|state|return", t) for t in tokens)


def test_very_wide_reductions_compile():
    """Operand chains are split: a 3000-operand expression would exceed the
    Python compiler's recursion limit."""
    circuit = Circuit("wide")
    a = circuit.input("a", 3000)
    circuit.output(circuit.reduce_and(a), name="all")
    circuit.output(circuit.reduce_or(a), name="any")
    sim = BitParallelSim(circuit, lanes=2)
    sim.step({"a": [0b11] * 2999 + [0b01]})
    assert sim.peek("all") == [0b01]
    assert sim.peek("any") == [0b11]
