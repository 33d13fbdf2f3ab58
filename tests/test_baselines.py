"""Tests for the bit-level SAT baseline and the rational-solver baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BddSymbolicChecker,
    CircuitBitBlaster,
    CNFFormula,
    DPLLSolver,
    RationalLinearSolver,
    SATBoundedChecker,
    SATResult,
    TseitinEncoder,
)
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.result import CheckStatus
from repro.modsolver.linear import ModularLinearSystem
from repro.netlist import Circuit
from repro.properties import Assertion, Environment, Signal, Witness
from repro.properties.parse import parse_expression
from repro.simulation import Simulator


# ----------------------------------------------------------------------
# CNF / DPLL
# ----------------------------------------------------------------------
def test_cnf_formula_basics():
    formula = CNFFormula()
    a, b = formula.new_variables(2)
    formula.add_clause(a, b)
    formula.add_unit(-a)
    assert len(formula) == 2
    assert formula.memory_estimate_bytes() > 0
    with pytest.raises(ValueError):
        formula.add_clause()
    with pytest.raises(ValueError):
        formula.add_clause(0)


def test_dpll_simple_sat_and_unsat():
    formula = CNFFormula()
    a, b = formula.new_variables(2)
    formula.add_clause(a, b)
    formula.add_clause(-a, b)
    solver = DPLLSolver(formula)
    assert solver.solve() is SATResult.SAT
    assert solver.value(b) is True

    unsat = CNFFormula()
    x = unsat.new_variable()
    unsat.add_clause(x)
    unsat.add_clause(-x)
    assert DPLLSolver(unsat).solve() is SATResult.UNSAT


def test_dpll_assumptions():
    formula = CNFFormula()
    a = formula.new_variable()
    b = formula.new_variable()
    formula.add_clause(-a, b)
    solver = DPLLSolver(formula)
    assert solver.solve(assumptions=[a, -b]) is SATResult.UNSAT
    assert solver.solve(assumptions=[a]) is SATResult.SAT


def test_tseitin_gate_encodings_are_functionally_correct():
    """Exhaustively check AND/OR/XOR/MUX encodings against Python semantics."""
    for inputs in range(4):
        x_val = bool(inputs & 1)
        y_val = bool(inputs & 2)
        encoder = TseitinEncoder()
        formula = encoder.formula
        x, y = formula.new_variables(2)
        gates = {
            "and": (encoder.and_gate([x, y]), x_val and y_val),
            "or": (encoder.or_gate([x, y]), x_val or y_val),
            "xor": (encoder.xor_gate(x, y), x_val ^ y_val),
            "eq": (encoder.equal_gate(x, y), x_val == y_val),
            "mux": (encoder.mux_gate(x, y, encoder.constant(True)), True if x_val else y_val),
        }
        assumptions = [x if x_val else -x, y if y_val else -y]
        solver = DPLLSolver(formula)
        assert solver.solve(assumptions) is SATResult.SAT
        for name, (literal, expected) in gates.items():
            model_value = solver.value(abs(literal))
            if literal < 0:
                model_value = not model_value
            assert model_value == expected, name


def test_word_add_and_compare_encodings():
    encoder = TseitinEncoder()
    formula = encoder.formula
    a_bits = formula.new_variables(4)
    b_bits = formula.new_variables(4)
    total, carry = encoder.word_add(a_bits, b_bits)
    less = encoder.word_less_than(a_bits, b_bits)
    assumptions = []
    for i, bit in enumerate(a_bits):
        assumptions.append(bit if (9 >> i) & 1 else -bit)
    for i, bit in enumerate(b_bits):
        assumptions.append(bit if (12 >> i) & 1 else -bit)
    solver = DPLLSolver(formula)
    assert solver.solve(assumptions) is SATResult.SAT
    value = 0
    for i, literal in enumerate(total):
        bit = solver.value(abs(literal))
        if literal < 0:
            bit = not bit
        value |= (1 if bit else 0) << i
    assert value == (9 + 12) & 15
    less_value = solver.value(abs(less))
    if less < 0:
        less_value = not less_value
    assert less_value is True  # 9 < 12


# ----------------------------------------------------------------------
# Bit-blasting equivalence against the simulator
# ----------------------------------------------------------------------
def build_mixed_circuit():
    circuit = Circuit("mixed")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    sel = circuit.input("sel", 1)
    total = circuit.add(a, b)
    difference = circuit.sub(a, b)
    result = circuit.mux(sel, total, difference, name="result")
    circuit.output(result)
    circuit.output(circuit.gt(a, b), name="a_bigger")
    circuit.output(circuit.and_(a, b), name="both")
    return circuit


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 1))
def test_bitblast_matches_simulator(a_val, b_val, sel_val):
    circuit = build_mixed_circuit()
    blaster = CircuitBitBlaster(circuit, num_frames=1)
    for name, value in (("a", a_val), ("b", b_val), ("sel", sel_val)):
        blaster.constrain_value(circuit.net(name), 0, value)
    solver = DPLLSolver(blaster.formula)
    assert solver.solve() is SATResult.SAT

    simulator = Simulator(circuit)
    expected = simulator.step({"a": a_val, "b": b_val, "sel": sel_val})
    for name in ("result", "a_bigger", "both"):
        assert blaster.model_value(solver, circuit.net(name), 0) == expected[name]


def test_bitblast_sequential_register_linking():
    circuit = Circuit("seq")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", 3)
    circuit.dff_into(cnt, circuit.mux(en, cnt, circuit.add(cnt, 1)), init_value=0)
    circuit.output(cnt)
    blaster = CircuitBitBlaster(circuit, num_frames=3)
    for frame in range(3):
        blaster.constrain_value(en, frame, 1)
    solver = DPLLSolver(blaster.formula)
    assert solver.solve() is SATResult.SAT
    assert blaster.model_value(solver, cnt, 0) == 0
    assert blaster.model_value(solver, cnt, 1) == 1
    assert blaster.model_value(solver, cnt, 2) == 2


# ----------------------------------------------------------------------
# SAT bounded checker agrees with the word-level checker
# ----------------------------------------------------------------------
def build_counter():
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    cnt = circuit.state("cnt", 4)
    at_max = circuit.eq(cnt, 9)
    nxt = circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, 4))
    circuit.dff_into(cnt, circuit.mux(en, cnt, nxt), init_value=0)
    circuit.output(cnt)
    return circuit


@pytest.mark.parametrize(
    "prop, expected, frames",
    [
        (Assertion("never_three", Signal("cnt") != 3), CheckStatus.FAILS, 5),
        (Witness("reach_two", Signal("cnt") == 2), CheckStatus.WITNESS_FOUND, 5),
        (Assertion("bounded", Signal("cnt") <= 9), CheckStatus.HOLDS, 3),
    ],
)
def test_sat_checker_verdicts(prop, expected, frames):
    checker = SATBoundedChecker(build_counter(), max_frames=frames)
    result = checker.check(prop)
    assert result.status is expected
    assert result.clauses > 0


def test_sat_and_word_level_agree_on_alu():
    circuit = Circuit("alu")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    circuit.output(circuit.add(a, b), name="sum")
    prop = Witness("target", Signal("sum") == 11)

    word_result = AssertionChecker(circuit, options=CheckerOptions(max_frames=1)).check(prop)
    sat_result = SATBoundedChecker(circuit, max_frames=1).check(prop)
    assert word_result.status is CheckStatus.WITNESS_FOUND
    assert sat_result.status is CheckStatus.WITNESS_FOUND
    a_val, b_val = sat_result.trace_inputs[0]["a"], sat_result.trace_inputs[0]["b"]
    assert (a_val + b_val) & 15 == 11


def test_sat_checker_respects_environment():
    circuit = Circuit("pair")
    r0 = circuit.input("r0", 1)
    r1 = circuit.input("r1", 1)
    circuit.output(circuit.and_(r0, r1), name="both")
    environment = Environment().one_hot(["r0", "r1"])
    checker = SATBoundedChecker(circuit, environment=environment, max_frames=1)
    result = checker.check(Assertion("never_both", Signal("both") == 0))
    assert result.status is CheckStatus.HOLDS


def test_variable_shift_uses_every_amount_bit():
    """An amount of 16..31 shifts an 8-bit word to zero: the top amount bit
    selects zeros instead of being dropped from the barrel."""
    circuit = Circuit("wide_shift")
    a = circuit.input("a", 8)
    amt = circuit.input("amt", 5)
    circuit.output(circuit.shl(a, amt), name="y")
    prop = Assertion("ok", parse_expression("(amt < 8) | (y == 0)"))
    sat = SATBoundedChecker(circuit, max_frames=1).check(prop)
    bdd = BddSymbolicChecker(circuit).check(prop)
    assert sat.status is CheckStatus.HOLDS
    assert bdd.status is CheckStatus.HOLDS


# ----------------------------------------------------------------------
# Rational solver false negatives
# ----------------------------------------------------------------------
def test_rational_solver_finds_plain_integer_solution():
    solver = RationalLinearSolver(width=4)
    solution = solver.solve_matrix([[1, 1], [1, -1]], [10, 2])
    assert solution == [6, 4]


def test_rational_solver_misses_wraparound_solution():
    """The paper's Section 4 example: only the modular solver finds (3, 2)."""
    rows, rhs = [[1, 1], [2, 7]], [5, 4]
    rational = RationalLinearSolver(width=3).solve_matrix(rows, rhs)
    assert rational is None  # the unique rational solution is non-integral
    modular = ModularLinearSystem.from_matrix(rows, rhs, width=3).solve()
    assert modular is not None  # ... but a bit-vector solution exists


def test_rational_solver_rejects_out_of_range_values():
    solver = RationalLinearSolver(width=3)
    assert solver.solve_matrix([[1]], [200]) is None


def test_rational_solver_inconsistent_system():
    solver = RationalLinearSolver(width=4)
    assert solver.solve_matrix([[1, 1], [1, 1]], [3, 4]) is None


def test_rational_solver_width_validation():
    with pytest.raises(ValueError):
        RationalLinearSolver(0)
