"""A check sees only the design and its own property.

Several properties and environments may be compiled into one circuit: the
jobs of a batch group, a daemon worker's resident design.
:func:`~repro.properties.convert.check_scope` is what one check of them
sees: the design plus the cone of its own monitor and environment nets.
The BDD checker and the SAT bit-blaster lower only that scope, and a
replayed trace reports only its registers.  So every engine answers the
same on a fresh circuit and on one where another property and another
environment were compiled first.

Each engine runs at the limits ``tests/test_bitlevel_goldens.py`` uses.
The ATPG engine shares one unrolled model across everything compiled into
the circuit, so its propagation counters (implications and the two rule
cache hit rates) also count the other property's logic.  Its search,
verdict and trace must not move.
"""

import pytest

from repro.baselines import BddSymbolicChecker, RandomSimulationChecker, SATBoundedChecker
from repro.checker import AssertionChecker
from repro.checker.report import counterexample_to_dict, result_to_dict
from repro.circuits.properties import all_case_ids, build_case, extended_case_ids
from repro.properties import Assertion, Delayed, Environment, Not, PropertyCompiler
from repro.properties.convert import CheckScope, check_scope
from repro.properties.parse import parsed_expression

CASES = all_case_ids() + extended_case_ids()
#: cases whose bounded SAT run takes seconds even at 3 frames.
SAT_SLOW = ("p2", "p9", "p15")
SAT_FRAMES = 3
SAT_DECISIONS = 1000
BDD_NODE_LIMIT = 40_000
#: what a result may differ in: timing, memory, and the shared ATPG
#: model's propagation counters.
UNPINNED = (
    "wall_seconds", "peak_memory_mb", "compile_time_ms",
    "implications", "rule_cache_hit_rate", "justified_cache_hit_rate",
)


def _pinned(payload):
    return {name: value for name, value in payload.items() if name not in UNPINNED}


def _trace(counterexample):
    return None if counterexample is None else counterexample_to_dict(counterexample)


def _atpg(case):
    result = AssertionChecker(
        case.circuit, environment=case.environment, initial_state=case.initial_state
    ).check(case.prop, max_frames=case.max_frames)
    return _pinned(result_to_dict(result))


def _bdd(case):
    result = BddSymbolicChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        node_limit=BDD_NODE_LIMIT,
    ).check(case.prop)
    return _pinned(vars(result))


def _sat(case):
    result = SATBoundedChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        max_frames=min(case.max_frames, SAT_FRAMES),
        max_decisions=SAT_DECISIONS,
    ).check(case.prop)
    payload = _pinned(vars(result))
    payload["counterexample"] = _trace(result.counterexample)
    return payload


def _random(case):
    result = RandomSimulationChecker(
        case.circuit, environment=case.environment, initial_state=case.initial_state
    ).check(case.prop)
    return {
        "status": result.status,
        "frames_explored": result.frames_explored,
        "trace": _trace(result.counterexample),
    }


ENGINES = {"atpg": _atpg, "bdd": _bdd, "sat": _sat, "random": _random}


def _crowded(case_id):
    """The case, with another property and environment compiled in first."""
    case = build_case(case_id)
    other = Environment().assume(Not(case.prop.expr))
    compiler = PropertyCompiler(case.circuit)
    compiler.compile_environment(other)
    compiler.compile(Assertion("other", Delayed(case.prop.expr, 2)))
    return case


@pytest.mark.parametrize(
    "engine, case_id",
    [
        (engine, case_id)
        for engine in ENGINES
        for case_id in CASES
        if not (engine == "sat" and case_id in SAT_SLOW)
    ],
)
def test_result_does_not_depend_on_what_else_was_compiled(engine, case_id):
    run = ENGINES[engine]
    assert run(_crowded(case_id)) == run(build_case(case_id))


@pytest.mark.parametrize("case_id", CASES)
def test_a_check_alone_in_its_circuit_sees_all_of_it(case_id):
    case = build_case(case_id)
    compiler = PropertyCompiler(case.circuit)
    lowered = compiler.compile_environment(case.environment, case.initial_state)
    scope = check_scope(case.circuit, compiler.compile(case.prop).monitor, lowered)
    whole = CheckScope.whole(case.circuit)
    assert scope.topological_order() == case.circuit.topological_order()
    assert scope.flip_flops == whole.flip_flops == case.circuit.flip_flops



def _compiled_names(case):
    compiler = PropertyCompiler(case.circuit)
    lowered = compiler.compile_environment(case.environment, case.initial_state)
    return [net.name for net in lowered.constraints], compiler.compile(case.prop).monitor.name


def test_generated_names_do_not_depend_on_what_was_compiled_first():
    """A name another compiler already took is disambiguated on its own;
    no later name moves."""
    assert _compiled_names(build_case("p7")) == (["assume_1", "assume_2"], "monitor_p7_4")
    case = build_case("p7")
    PropertyCompiler(case.circuit).compile_environment(
        Environment().assume(parsed_expression("tick == 1"))
    )
    assert _compiled_names(case) == (["assume_1_1", "assume_2"], "monitor_p7_4")
