"""Tests for datapath constraint extraction into the arithmetic solver."""


from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3
from repro.bitvector.bv3 import bv
from repro.modsolver.extract import ArithmeticProblem, DatapathConstraintExtractor
from repro.modsolver.linear import ModularLinearSystem
from repro.modsolver.result import Infeasible, Solution, Unknown
from repro.netlist import Circuit


def test_extract_adder_constraint_and_solve():
    circuit = Circuit("adders")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    total = circuit.add(a, b, name="total")
    circuit.output(total)

    model = UnrolledModel(circuit, 1)
    model.assign(total, 0, BV3.from_int(4, 11))
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    assert not problem.is_empty()
    assert 4 in problem.linear_by_width
    result = problem.solve()
    assert isinstance(result, Solution)
    solution = result.assignment
    assert (solution[(a, 0)] + solution[(b, 0)]) % 16 == 11


def test_extract_respects_known_operands():
    circuit = Circuit("adders")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    total = circuit.add(a, b, name="total")

    model = UnrolledModel(circuit, 1)
    model.assign(total, 0, BV3.from_int(4, 5), propagate=False)
    model.assign(a, 0, BV3.from_int(4, 2), propagate=False)
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    result = problem.solve()
    if isinstance(result, Solution) and (b, 0) in result.assignment:
        assert result.assignment[(b, 0)] == 3


def test_extract_subtractor_and_constant_multiplier():
    circuit = Circuit("linear")
    a = circuit.input("a", 4)
    scaled = circuit.mul(a, 3, name="scaled")
    diff = circuit.sub(scaled, a, name="diff")
    circuit.output(diff)

    model = UnrolledModel(circuit, 1)
    model.assign(diff, 0, BV3.from_int(4, 6))
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    result = problem.solve()
    assert isinstance(result, Solution)
    value = result.assignment.get((a, 0))
    if value is not None:
        assert ((3 * value) - value) % 16 == 6


def test_extract_nonlinear_multiplier():
    circuit = Circuit("mul")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    product = circuit.mul(a, b, name="product")
    circuit.output(product)

    model = UnrolledModel(circuit, 1)
    model.assign(product, 0, BV3.from_int(4, 12), propagate=False)
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    assert problem.nonlinear
    result = problem.solve()
    assert isinstance(result, Solution)
    a_val = result.assignment.get((a, 0), 0)
    b_val = result.assignment.get((b, 0), 0)
    assert (a_val * b_val) % 16 == 12


def test_extract_shift_constraints():
    circuit = Circuit("shifts")
    a = circuit.input("a", 4)
    shifted = circuit.shl(a, 1, name="shifted")
    circuit.output(shifted)

    model = UnrolledModel(circuit, 1)
    model.assign(shifted, 0, BV3.from_int(4, 6), propagate=False)
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    result = problem.solve()
    assert isinstance(result, Solution)
    value = result.assignment.get((a, 0))
    if value is not None:
        assert (value << 1) % 16 == 6


def test_empty_extraction():
    circuit = Circuit("empty")
    a = circuit.input("a", 4)
    circuit.output(circuit.and_(a, 3))
    model = UnrolledModel(circuit, 1)
    problem = DatapathConstraintExtractor(model.engine).extract([])
    assert problem.is_empty()
    assert problem.variables() == []
    assert problem.solve() == Solution({})


# ----------------------------------------------------------------------
# Typed results: certificates, budget exhaustion and partial cubes
# ----------------------------------------------------------------------
def test_extracted_infeasibility_carries_engine_keys():
    """The p15 shape: three adders whose implied outputs are mutually
    contradictory.  The certificate core must name the keys whose implied
    values produced the clash, so conflict analysis can walk their trails."""
    circuit = Circuit("cross")
    x = circuit.input("x", 8)
    y = circuit.input("y", 8)
    shifted = circuit.add(y, 4, name="shifted")          # w = y + 4
    direct = circuit.add(x, y, name="direct")            # d = x + y
    cross = circuit.add(x, shifted, name="cross")        # e = x + w = d + 4

    model = UnrolledModel(circuit, 1)
    model.assign(direct, 0, BV3.from_int(8, 7), propagate=False)
    model.assign(cross, 0, BV3.from_int(8, 9), propagate=False)  # gap 2 != 4
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    result = problem.solve()
    assert isinstance(result, Infeasible)
    assert not result
    assert {(direct, 0), (cross, 0)} <= set(result.core)


def test_budget_exhausted_problem_answers_unknown():
    """A non-linear group that cannot finish within budget=1 must answer
    Unknown -- the result the justifier treats as prune-only."""
    circuit = Circuit("mul")
    a = circuit.input("a", 4)
    b = circuit.input("b", 4)
    product = circuit.mul(a, b, name="product")
    total = circuit.add(a, b, name="total")
    circuit.output(product)

    model = UnrolledModel(circuit, 1)
    model.assign(product, 0, BV3.from_int(4, 6), propagate=False)
    model.assign(total, 0, BV3.from_int(4, 0), propagate=False)
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    assert problem.nonlinear
    result = problem.solve(budget=1)
    assert isinstance(result, Unknown)


def test_partial_cube_retry_failure_is_unknown():
    """A solution that breaks a partially implied cube is Unknown, not a
    certificate: the justifier branches on the cube's unknown bits."""
    problem = ArithmeticProblem()
    system = ModularLinearSystem(4)
    system.add_constraint({"x": 2}, 12)   # x in {6, 14}
    problem.linear_by_width[4] = system
    problem.cubes["x"] = bv("10xx")       # x in {8..11}: neither fits
    result = problem.solve()
    assert isinstance(result, Unknown)


def test_extraction_folds_word_level_buffer_aliases():
    """HDL elaboration routes `assign` results through word-level buffers;
    the extractor must fold the alias equality or the system degenerates
    into a satisfiable relaxation (and certificates never happen)."""
    circuit = Circuit("alias")
    x = circuit.input("x", 8)
    y = circuit.input("y", 8)
    raw = circuit.add(y, 4, name="raw")                  # n = y + 4
    shifted = circuit.buf(raw, name="shifted")           # shifted = n
    direct = circuit.add(x, y, name="direct")            # d = x + y
    cross = circuit.add(x, shifted, name="cross")        # e = x + shifted

    model = UnrolledModel(circuit, 1)
    model.assign(direct, 0, BV3.from_int(8, 7), propagate=False)
    model.assign(cross, 0, BV3.from_int(8, 9), propagate=False)  # gap 2 != 4
    unjustified = model.engine.unjustified_nodes()
    problem = DatapathConstraintExtractor(model.engine).extract(unjustified)
    result = problem.solve()
    assert isinstance(result, Infeasible)
    assert {(direct, 0), (cross, 0)} <= set(result.core)
