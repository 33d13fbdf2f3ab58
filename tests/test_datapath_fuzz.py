"""Datapath leaves are closed exactly: ATPG against SAT on small words.

Two fixed-seed generators build one-frame designs over two input words of
3 to 5 bits and assert ``bad == 0``:

* 2-4 comparator terms ANDed together, each comparing a word with a
  constant, with the other word or with ``x + y``;
* a single ``+ - * << >> ^ & |`` whose result is compared with a constant.

The word-level ATPG must agree with the SAT bounded checker on every case,
and never answer ``aborted``: at these widths every datapath leaf fits the
justifier's branching budget.  The committed designs under ``designs/``
are the regressions that motivated exact leaves.
"""

import os
import random

import pytest

from repro import api
from repro.baselines import SATBoundedChecker
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.checker.incremental import UnrolledModelCache
from repro.netlist import Circuit
from repro.netlist.gates import ConstGate
from repro.properties import Assertion, Signal

DESIGNS = os.path.join(os.path.dirname(__file__), "designs")

COMPARATORS = ("lt", "le", "gt", "ge", "eq", "ne")
OPERATORS = ("add", "sub", "mul", "shl", "shr", "xor", "and_", "or_")

NO_BAD = Assertion("nobad", Signal("bad") == 0)


def comparator_design(rng: random.Random, width: int) -> Circuit:
    circuit = Circuit("comparators")
    x = circuit.input("x", width)
    y = circuit.input("y", width)
    total = circuit.add(x, y, name="total")
    terms = []
    for _ in range(rng.randint(2, 4)):
        lhs = rng.choice((x, y))
        rhs = rng.choice((rng.randrange(1 << width), y if lhs is x else x, total))
        terms.append(getattr(circuit, rng.choice(COMPARATORS))(lhs, rhs))
    circuit.output(circuit.and_(*terms), name="bad")
    return circuit


def operator_design(rng: random.Random, width: int) -> Circuit:
    circuit = Circuit("operator")
    x = circuit.input("x", width)
    y = circuit.input("y", width)
    result = getattr(circuit, rng.choice(OPERATORS))(x, y)
    compare = getattr(circuit, rng.choice(COMPARATORS))
    circuit.output(compare(result, rng.randrange(1 << width)), name="bad")
    return circuit


def _fuzz(generator, seed: int, cases: int) -> None:
    rng = random.Random(seed)
    for case in range(cases):
        width = rng.randint(3, 5)
        design_seed = rng.getrandbits(32)

        def build():
            return generator(random.Random(design_seed), width)

        atpg = AssertionChecker(
            build(), options=CheckerOptions(max_frames=1),
            model_cache=UnrolledModelCache(),
        ).check(NO_BAD)
        sat = SATBoundedChecker(build(), max_frames=1).check(NO_BAD)
        where = "seed %d case %d (width %d)" % (seed, case, width)
        assert atpg.status is not CheckStatus.ABORTED, where
        assert atpg.statistics.unproven_leaves == 0, where
        assert atpg.status is sat.status, where
        if atpg.status is CheckStatus.FAILS:
            assert atpg.counterexample.validated, where


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_comparator_terms_agree_with_sat(seed):
    _fuzz(comparator_design, seed, 180)


@pytest.mark.parametrize("seed", [4, 5])
def test_single_operator_compare_agrees_with_sat(seed):
    _fuzz(operator_design, seed, 180)


@pytest.mark.parametrize(
    "design, expected",
    [("y_range.v", "fails"), ("sum_gt_const.v", "fails"), ("self_ne.v", "holds")],
)
def test_fixture_designs_agree_with_sat(design, expected):
    """``(y < 7) & (y > 0)`` used to answer ``holds`` (the min/max
    completion tried only y = 0 and y = 15)."""
    request = api.CheckRequest(
        circuit=api.CircuitRef.verilog(os.path.join(DESIGNS, design)),
        properties=(api.PropertySpec.assertion("nobad", "bad == 0"),),
        engines=("atpg", "sat"), compare=True, max_frames=1,
    )
    verdict = api.check(request).results[0]
    assert verdict.disagreement == ()
    assert {engine["engine"]: engine["status"] for engine in verdict.engines} == {
        "atpg": expected, "sat": expected,
    }


@pytest.mark.parametrize(
    "op, value", [("eq", 1), ("le", 1), ("ge", 1), ("ne", 0), ("lt", 0), ("gt", 0)]
)
def test_reflexive_comparator_folds_to_a_constant(op, value):
    circuit = Circuit("reflexive")
    x = circuit.input("x", 16)
    out = getattr(circuit, op)(x, x, name="out")
    assert out.name == "out"
    assert isinstance(out.driver, ConstGate)
    assert out.driver.value == value
