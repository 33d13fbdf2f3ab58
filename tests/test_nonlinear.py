"""Tests for non-linear constraint handling (multipliers, shifters)."""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.modsolver.linear import ModularLinearSystem
from repro.modsolver.nonlinear import (
    NonlinearConstraint,
    NonlinearSolver,
    enumerate_factor_pairs,
)
from repro.modsolver.result import Infeasible, Solution, Unknown


def test_paper_multiplier_example_has_both_factors():
    """Section 4: c = 12, a = 4 admits b = 3 *and* b = 7 modulo 16."""
    pairs = list(enumerate_factor_pairs(12, 4, limit=512))
    assert (4, 3) in pairs
    assert (4, 7) in pairs
    for a, b in pairs:
        assert (a * b) % 16 == 12


def test_factor_pairs_zero_product():
    pairs = list(enumerate_factor_pairs(0, 3, limit=64))
    for a, b in pairs:
        assert (a * b) % 8 == 0
    assert (0, 0) in pairs or any(a == 0 for a, _ in pairs)


def test_nonlinear_constraint_satisfaction():
    constraint = NonlinearConstraint("mul", "a", "b", "c", 4)
    assert constraint.is_satisfied({"a": 4, "b": 7, "c": 12})
    assert not constraint.is_satisfied({"a": 4, "b": 5, "c": 12})
    shift = NonlinearConstraint("shl", "a", 2, "c", 4)
    assert shift.is_satisfied({"a": 3, "c": 12})
    assert shift.variables() == ["a", "c"]
    with pytest.raises(ValueError):
        NonlinearConstraint("pow", "a", "b", "c", 4).is_satisfied({"a": 1, "b": 1, "c": 1})


def test_solver_multiplier_with_side_constraint():
    """The false-negative scenario: only the wrapped factor satisfies the
    extra linear constraint, so a modular solver must find b = 7."""
    linear = ModularLinearSystem(4)
    linear.add_constraint({"b": 1}, 7)  # side constraint forces b = 7
    constraint = NonlinearConstraint("mul", "a", "b", 12, 4)
    solver = NonlinearSolver()
    result = solver.solve(linear, [constraint], fixed={"a": 4})
    assert isinstance(result, Solution)
    solution = result.assignment
    assert solution["b"] == 7
    assert (solution["a"] * solution["b"]) % 16 == 12


def test_solver_pure_linear_passthrough():
    linear = ModularLinearSystem(4)
    linear.add_constraint({"x": 3}, 9)
    result = NonlinearSolver().solve(linear, [])
    assert isinstance(result, Solution)
    assert (3 * result.assignment["x"]) % 16 == 9


def test_solver_infeasible_nonlinear():
    linear = ModularLinearSystem(3)
    linear.add_constraint({"b": 1}, 5)
    # a * b = 1 requires b odd; with b = 5 fixed, a must be 5 (5*5=25=1 mod 8),
    # but the extra constraint pins a to an incompatible value.
    linear.add_constraint({"a": 1}, 2)
    constraint = NonlinearConstraint("mul", "a", "b", 1, 3, tags=frozenset({"mul"}))
    result = NonlinearSolver().solve(linear, [constraint])
    # b = 5 is implied by its unit row, so the congruence enumeration for a
    # is complete and every branch closes with a linear clash on a's pin:
    # a certified refutation.
    assert isinstance(result, Infeasible)
    assert "mul" in result.core


def test_solver_shift_constraint():
    constraint = NonlinearConstraint("shl", "a", "s", "c", 4)
    linear = ModularLinearSystem(4)
    linear.add_constraint({"c": 1}, 8)
    linear.add_constraint({"a": 1}, 1)
    result = NonlinearSolver().solve(linear, [constraint])
    assert isinstance(result, Solution)
    solution = result.assignment
    assert (solution["a"] << solution["s"]) % 16 == 8


def test_solver_both_operands_unknown():
    constraint = NonlinearConstraint("mul", "a", "b", 6, 4)
    result = NonlinearSolver().solve(ModularLinearSystem(4), [constraint])
    assert isinstance(result, Solution)
    solution = result.assignment
    assert (solution["a"] * solution["b"]) % 16 == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_factor_pairs_are_always_valid(width, data):
    modulus = 1 << width
    product = data.draw(st.integers(0, modulus - 1))
    for a, b in enumerate_factor_pairs(product, width, limit=64):
        assert 0 <= a < modulus and 0 <= b < modulus
        assert (a * b) % modulus == product


# ----------------------------------------------------------------------
# Typed results: budget exhaustion vs proved infeasibility
# ----------------------------------------------------------------------
def test_budget_exhaustion_is_unknown_not_infeasible():
    """A solver with budget=1 gives up after the first factor candidate;
    the result must be Unknown (prune-only), never a certificate."""
    linear = ModularLinearSystem(4)
    # a * b = 6 with a + b = 0 is genuinely infeasible (-a**2 = 6 has no
    # root mod 16) but only factor sampling can explore it.
    linear.add_constraint({"a": 1, "b": 1}, 0)
    constraint = NonlinearConstraint("mul", "a", "b", 6, 4)
    result = NonlinearSolver(budget=1).solve(linear, [constraint])
    assert isinstance(result, Unknown)
    assert result.reason == "budget"


def test_incomplete_enumeration_never_certifies():
    """Factor-pair sampling is bounded, so an exhausted enumeration must
    answer Unknown even when every explored branch was refuted."""
    linear = ModularLinearSystem(4)
    linear.add_constraint({"a": 1, "b": 1}, 0)
    constraint = NonlinearConstraint("mul", "a", "b", 6, 4)
    result = NonlinearSolver().solve(linear, [constraint])
    assert isinstance(result, Unknown)


def test_implied_unit_pins_enable_certification():
    """Values forced by unit linear rows count as known operands: with both
    operands pinned the single-candidate plan is complete and a product
    mismatch is a certified refutation carrying the pins' provenance."""
    linear = ModularLinearSystem(4)
    linear.add_constraint({"a": 1}, 9, tags=("pin_a",))
    linear.add_constraint({"b": 1}, 9, tags=("pin_b",))
    constraint = NonlinearConstraint("mul", "a", "b", 6, 4, tags=frozenset({"gate"}))
    result = NonlinearSolver().solve(linear, [constraint])
    assert isinstance(result, Infeasible)  # 9 * 9 = 1 != 6 (mod 16)
    assert {"pin_a", "pin_b", "gate"} <= set(result.core)


def test_unsolvable_congruence_is_certified():
    """a pinned even with an odd product: Theorem 1.2 refutes outright and
    the core carries the pins' provenance."""
    linear = ModularLinearSystem(4)
    constraint = NonlinearConstraint("mul", "a", "b", 7, 4, tags=frozenset({"gate"}))
    result = NonlinearSolver().solve(
        linear, [constraint], fixed={"a": 2}, fixed_tags={"a": frozenset({"key_a"})}
    )
    assert isinstance(result, Infeasible)
    assert "gate" in result.core and "key_a" in result.core


def test_operand_in_no_linear_row_is_still_assigned():
    """A multiplier operand that appears in no linear row must still be a
    variable of the system: pinning only its partner used to leave it out
    of the solution and crash the constraint check with a KeyError."""
    linear = ModularLinearSystem(4)
    linear.add_constraint({"p": 1, "s": 1}, 3)
    constraint = NonlinearConstraint("mul", "x", "y", "p", 4)
    result = NonlinearSolver().solve(linear, [constraint])
    if isinstance(result, Solution):
        assert constraint.is_satisfied(result.assignment)
        assert (result.assignment["p"] + result.assignment["s"]) % 16 == 3


MUL_LT_CONST = os.path.join(os.path.dirname(__file__), "designs", "mul_lt_const.v")


def test_multiplier_compare_design_agrees_with_sat():
    """``bad = (x * y) < 4`` fails in one cycle (x = y = 0).  ATPG used to
    crash in the non-linear solver on it; now it agrees with SAT."""
    request = api.CheckRequest(
        circuit=api.CircuitRef.verilog(MUL_LT_CONST),
        properties=(api.PropertySpec.assertion("nobad", "bad == 0"),),
        engines=("atpg", "sat"), compare=True, max_frames=1,
    )
    verdict = api.check(request).results[0]
    assert verdict.disagreement == ()
    assert {engine["engine"]: engine["status"] for engine in verdict.engines} == {
        "atpg": "fails", "sat": "fails",
    }
    single = api.check(dataclasses.replace(request, engines=("atpg",), compare=False))
    trace = single.results[0].trace
    assert trace["validated"]
    inputs = trace["inputs"][0]
    assert (inputs["x"] * inputs["y"]) % 16 < 4
