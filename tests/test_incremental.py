"""Incremental time-frame expansion: equivalence with fresh unrolling.

The checker reuses one unrolled implication network across bounds and
properties.  These tests pin the core soundness contract: for every circuit
in the zoo plus fuzzed netlists, ``extend_to`` / goal retraction must
produce *bit-identical* verdicts, counterexamples and implication fixpoints
to a freshly built :class:`UnrolledModel` at every bound (the fresh-unroll
oracle lives in ``tests/fresh_unroll.py``).  They also cover the supporting
machinery: assignment savepoints, retractable node groups, the FIFO rule
cache and the shared model cache.
"""

import typing

import pytest

from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.checker.incremental import UnrolledModelCache, shared_model_cache
from repro.circuits import all_case_ids, build_case, build_token_ring
from repro.hdl import compile_verilog
from repro.implication.assignment import Assignment
from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.netlist.circuit import Circuit
from repro.properties import (
    Assertion,
    Delayed,
    Environment,
    OneHot,
    Signal,
    Witness,
    parse_expression,
)
from repro.properties.environment import environment_identity

from fresh_unroll import fresh_check
from test_bitparallel import build_random_circuit


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _check_pair(circuit_fresh, circuit_inc, prop, environment=None,
                initial_state=None, bound=4):
    """Run the same property through the fresh and incremental paths.

    Cross-bound learning is pinned off: these tests assert the *unrolling*
    contract (bit-identical searches), while learning deliberately prunes
    decisions (its own verdict/counterexample equivalence is covered by
    tests/test_learning.py).
    """
    fresh = fresh_check(
        circuit_fresh, prop, environment=environment,
        initial_state=initial_state, max_frames=bound,
    )
    incremental = AssertionChecker(
        circuit_inc,
        environment=environment,
        initial_state=initial_state,
        options=CheckerOptions(max_frames=bound, learning=False),
        model_cache=UnrolledModelCache(),
    ).check(prop)
    return fresh, incremental


def assert_results_identical(fresh, incremental):
    assert incremental.status is fresh.status
    assert incremental.frames_explored == fresh.frames_explored
    cex_f, cex_i = fresh.counterexample, incremental.counterexample
    assert (cex_f is None) == (cex_i is None)
    if cex_f is not None:
        assert cex_i.initial_state == cex_f.initial_state
        assert cex_i.inputs == cex_f.inputs
        assert cex_i.trace == cex_f.trace
        assert cex_i.target_frame == cex_f.target_frame
        assert cex_i.validated == cex_f.validated


def _view_snapshot(model):
    """The model's fixpoint restricted to its active view."""
    return {
        key: value
        for key, value in model.engine.assignment.snapshot().items()
        if key[1] < model.num_frames
    }


# ----------------------------------------------------------------------
# Tentpole: extend_to produces bit-identical implication fixpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids())
def test_extend_to_matches_fresh_fixpoint_zoo(case_id):
    case = build_case(case_id)
    incremental = UnrolledModel(case.circuit, 1, initial_state=case.initial_state)
    for bound in range(1, 6):
        incremental.extend_to(bound)
        fresh = UnrolledModel(case.circuit, bound, initial_state=case.initial_state)
        assert _view_snapshot(incremental) == fresh.engine.assignment.snapshot()


@pytest.mark.parametrize("seed", range(6))
def test_extend_to_matches_fresh_fixpoint_fuzz(seed):
    circuit = build_random_circuit(seed)
    incremental = UnrolledModel(circuit, 1)
    for bound in range(1, 5):
        incremental.extend_to(bound)
        fresh = UnrolledModel(circuit, bound)
        assert _view_snapshot(incremental) == fresh.engine.assignment.snapshot()


def test_extend_to_shrinks_and_regrows_view():
    ports = build_token_ring()
    model = UnrolledModel(ports.circuit, 6)
    deep = _view_snapshot(model)
    model.extend_to(2)
    assert model.num_frames == 2 and model.built_frames == 6
    assert _view_snapshot(model) == UnrolledModel(ports.circuit, 2).engine.assignment.snapshot()
    model.extend_to(6)
    assert _view_snapshot(model) == deep
    # Shrinking is free: no frame is ever rebuilt.
    assert model.frames_constructed == 6


# ----------------------------------------------------------------------
# Tentpole: the checker paths agree on verdicts and counterexamples
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids())
def test_checker_matches_fresh_on_zoo(case_id):
    case_f, case_i = build_case(case_id), build_case(case_id)
    fresh, incremental = _check_pair(
        case_f.circuit, case_i.circuit, case_f.prop,
        environment=case_f.environment, initial_state=case_f.initial_state,
        bound=case_f.max_frames,
    )
    assert fresh.status is case_f.expected_status
    assert_results_identical(fresh, incremental)
    # The searches must be literally the same, not merely equi-decisive.
    assert incremental.statistics.decisions == fresh.statistics.decisions
    assert incremental.statistics.backtracks == fresh.statistics.backtracks


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["assertion", "witness"])
def test_checker_matches_fresh_on_fuzzed_circuits(seed, kind):
    # Two independent builds of the same seed are identical netlists; each
    # checker compiles its monitor into its own copy.
    circuit_fresh = build_random_circuit(seed)
    circuit_inc = build_random_circuit(seed)
    target = circuit_fresh.outputs[0]
    expr = Signal(target.name) == (1 if kind == "witness" else 0)
    prop = (
        Assertion("fz%d" % seed, expr)
        if kind == "assertion"
        else Witness("fz%d" % seed, expr)
    )
    fresh, incremental = _check_pair(circuit_fresh, circuit_inc, prop, bound=3)
    assert_results_identical(fresh, incremental)


# ----------------------------------------------------------------------
# Model reuse across properties (the per-circuit cache)
# ----------------------------------------------------------------------
def test_multiple_properties_share_one_model():
    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    props = [
        Assertion("one_hot", OneHot(*grants)),
        Witness("last_grant", Signal(ports.grants[-1].name) == 1),
        # A Delayed property compiles new monitor *registers* into the
        # circuit, exercising flip-flop absorption in sync_with_circuit.
        Assertion("grant_stable", Delayed(grants[0], 1) | ~Delayed(grants[0], 1)),
    ]
    cache = UnrolledModelCache()
    shared = AssertionChecker(
        ports.circuit,
        options=CheckerOptions(max_frames=5),
        model_cache=cache,
    )
    for index, prop in enumerate(props):
        fresh_ports = build_token_ring()
        expected = fresh_check(
            fresh_ports.circuit, _rebind(prop, fresh_ports), max_frames=5
        )
        result = shared.check(prop)
        assert_results_identical(expected, result)
        if index == 0:
            assert result.statistics.models_reused == 0
            assert result.statistics.frames_built > 0
        else:
            # Second and later properties reuse the cached skeleton: zero
            # frame constructions, only monitor sync.
            assert result.statistics.models_reused == 1
            assert result.statistics.frames_built == 0
    assert cache.stats()["entries"] == 1


def _rebind(prop, ports):
    """The same property expression works on any token ring instance (the
    net names are identical across builds)."""
    return prop


def test_bounds_can_shrink_between_properties():
    """A deep check followed by a shallow one must not leak future-frame
    constraints into the shallow verdict."""
    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    cache = UnrolledModelCache()
    shared = AssertionChecker(
        ports.circuit,
        options=CheckerOptions(max_frames=8),
        model_cache=cache,
    )
    deep = shared.check(Witness("deep", Signal(ports.grants[-1].name) == 1))
    shallow = shared.check(Assertion("shallow", OneHot(*grants)), max_frames=2)

    control = build_token_ring()
    fresh = fresh_check(
        control.circuit,
        Assertion("shallow", OneHot(*[Signal(n.name) for n in control.grants])),
        max_frames=2,
    )
    assert_results_identical(fresh, shallow)
    assert deep.status.value == "witness_found"


def test_checker_reuses_across_checker_instances():
    """Two checkers on the same circuit object share the process cache."""
    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    cache = UnrolledModelCache()
    first = AssertionChecker(
        ports.circuit, options=CheckerOptions(max_frames=4), model_cache=cache
    ).check(Assertion("one_hot", OneHot(*grants)))
    second = AssertionChecker(
        ports.circuit, options=CheckerOptions(max_frames=4), model_cache=cache
    ).check(Assertion("one_hot_again", OneHot(*grants)))
    assert first.statistics.models_reused == 0
    assert second.statistics.models_reused == 1
    assert second.status is first.status


def test_shared_cache_is_a_singleton():
    assert shared_model_cache() is shared_model_cache()


def test_model_cache_lru_eviction_and_dirty_recovery():
    cache = UnrolledModelCache(max_entries=2)
    circuits = [build_token_ring().circuit for _ in range(3)]
    for circuit in circuits:
        cache.acquire(circuit)
    assert len(cache) == 2  # the first circuit was evicted

    model, reused = cache.acquire(circuits[-1])
    assert reused
    # A crashed check leaves decisions open; the cache must rebuild.
    model.engine.push_level()
    model.engine.assign(model.key(circuits[-1].inputs[0], 0), BV3.from_int(1, 1))
    recovered, reused = cache.acquire(circuits[-1])
    assert not reused and recovered is not model
    assert recovered.at_base_level and recovered.is_clean

    # Goal pollution *at* the base level (no decision level open) must be
    # detected too: the trail is past the recorded base savepoint.
    recovered.engine.assign(
        recovered.key(circuits[-1].inputs[0], 0), BV3.from_int(1, 1)
    )
    assert recovered.at_base_level and not recovered.is_clean
    rebuilt, reused = cache.acquire(circuits[-1])
    assert not reused and rebuilt is not recovered

    cache.evict(circuits[-1])
    assert len(cache) == 1


def test_crashed_check_does_not_poison_the_cache(monkeypatch):
    """An exception escaping the search must not leak that property's goal
    into the cached model used by the next check (see _retract_goals)."""
    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    cache = UnrolledModelCache()
    checker = AssertionChecker(
        ports.circuit,
        options=CheckerOptions(max_frames=4),
        model_cache=cache,
    )
    from repro.atpg.justify import Justifier

    def explode(self):
        raise RuntimeError("simulated mid-search crash")

    monkeypatch.setattr(Justifier, "run", explode)
    with pytest.raises(RuntimeError):
        checker.check(Witness("crash", Signal(ports.grants[0].name) == 1))
    monkeypatch.undo()

    result = checker.check(Assertion("after_crash", OneHot(*grants)))
    control = build_token_ring()
    expected = fresh_check(
        control.circuit,
        Assertion("after_crash", OneHot(*[Signal(n.name) for n in control.grants])),
        max_frames=4,
    )
    assert_results_identical(expected, result)


def test_batch_kb_path_toggle_covers_engine_instances(tmp_path):
    """A request's knowledge-base path reaches every ATPG engine a batch
    runs; an explicitly configured engine keeps its own path."""
    from repro import api
    from repro.portfolio import BatchJob, BatchOptions, BatchRunner, EngineBudget
    from repro.portfolio.engines import AtpgEngine

    request = api.CheckRequest(
        circuit=api.CircuitRef.case("p1"), engines=("atpg", "bdd"),
        kb_path="batch.sqlite",
    )
    configured = BatchOptions.from_request(request).engines
    assert configured[0].options.kb_path == "batch.sqlite"  # name rewritten
    assert configured[1] == "bdd"
    default = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
    assert BatchOptions.from_request(default).engines[0].options.kb_path is None

    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    job = BatchJob("onehot", ports.circuit, Assertion("one_hot", OneHot(*grants)))
    pinned = tmp_path / "pinned.sqlite"
    # ``run_all``: a race may cancel the ATPG worker before it flushes.
    BatchRunner(
        BatchOptions(
            engines=(AtpgEngine(CheckerOptions(kb_path=str(pinned))), "bdd"),
            budget=EngineBudget(max_frames=3),
            run_all=True,
        )
    ).run([job])
    assert pinned.exists()                             # explicit choice wins


#: ``r`` latches ``x & y``; ``onehot(x, y)`` keeps it at 0, ``onehot(x, z)``
#: does not.  ``repr`` prints both assumptions as ``OneHot(2 terms)``.
ALIAS_VERILOG = """\
module top(input clk, input x, input y, input z, output r);
  reg r;
  always @(posedge clk) r <= r | (x & y);
endmodule
"""


def _alias_check(circuit, assumption, cache, kb_path=None):
    environment = Environment().assume(parse_expression(assumption))
    return AssertionChecker(
        circuit, environment=environment, initial_state={"r": 0},
        options=CheckerOptions(max_frames=4, kb_path=kb_path),
        model_cache=cache,
    ).check(Assertion("p", parse_expression("r == 0")))


def test_aliasing_one_hot_assumptions_do_not_share_a_model():
    """Facts learned under onehot(x, y) must not reach an onehot(x, z)
    check on the same circuit: the warm check answers like a cold one."""
    cold = _alias_check(compile_verilog(ALIAS_VERILOG), "onehot(x, z)",
                        UnrolledModelCache())
    circuit = compile_verilog(ALIAS_VERILOG)
    cache = UnrolledModelCache()
    first = _alias_check(circuit, "onehot(x, y)", cache)
    warm = _alias_check(circuit, "onehot(x, z)", cache)
    assert first.status is CheckStatus.HOLDS
    assert cold.status is warm.status is CheckStatus.FAILS
    assert warm.statistics.models_reused == 0
    assert warm.statistics.targets_skipped == 0
    assert warm.counterexample.inputs == cold.counterexample.inputs
    assert len(cache) == 2


def test_aliasing_one_hot_assumptions_do_not_share_kb_facts(tmp_path):
    """The warm A-then-B run flushes B's facts under B's own key, so a
    fresh reader of the store still answers B like a cold check."""
    kb_path = str(tmp_path / "alias.sqlite")
    circuit = compile_verilog(ALIAS_VERILOG)
    cache = UnrolledModelCache()
    _alias_check(circuit, "onehot(x, y)", cache, kb_path)
    _alias_check(circuit, "onehot(x, z)", cache, kb_path)
    fresh = _alias_check(compile_verilog(ALIAS_VERILOG), "onehot(x, z)",
                         UnrolledModelCache(), kb_path)
    cold = _alias_check(compile_verilog(ALIAS_VERILOG), "onehot(x, z)",
                        UnrolledModelCache())
    assert fresh.status is cold.status is CheckStatus.FAILS
    assert fresh.counterexample.inputs == cold.counterexample.inputs


def test_environment_identity_distinguishes_constraints():
    empty = Environment()
    pinned = Environment().pin("x", 1)
    assert environment_identity(None, None) != environment_identity(pinned, None)
    assert environment_identity(empty, None) != environment_identity(pinned, None)
    assert environment_identity(Environment().pin("x", 1), None) == (
        environment_identity(pinned, None)
    )
    assert environment_identity(empty, None) != environment_identity(empty, {"r": 0})


def test_equal_environments_share_one_cached_model():
    ports = build_token_ring()
    first_input = ports.circuit.inputs[0].name
    cache = UnrolledModelCache()

    def models_reused(environment):
        return AssertionChecker(
            ports.circuit, environment=environment,
            options=CheckerOptions(max_frames=2),
            model_cache=cache,
        ).check(Witness("w", Signal(ports.grants[0].name) == 1)).statistics.models_reused

    assert models_reused(None) == 0
    assert models_reused(Environment()) == 1          # None lowers as empty
    assert models_reused(Environment().pin(first_input, 0)) == 0
    assert models_reused(Environment().pin(first_input, 0)) == 1
    assert models_reused(Environment().pin(first_input, 1)) == 0


# ----------------------------------------------------------------------
# Savepoints and retractable node groups
# ----------------------------------------------------------------------
def test_assignment_savepoint_below_open_levels():
    assignment = Assignment()
    assignment.register("a", 4)
    assignment.register("b", 4)
    assignment.assign("a", BV3.from_int(4, 3))
    assignment.push_level()
    assignment.assign("b", BV3.from_int(4, 9))
    save = assignment.savepoint()  # taken below levels opened later
    assignment.push_level()
    assignment.assign("a", BV3.from_int(4, 3))  # no-op refinement
    assignment.assign("b", BV3.from_int(4, 9))
    assignment.push_level()
    assignment.assign("a", BV3.from_int(4, 3))
    assert assignment.decision_level == 3
    assignment.rollback_to(save)
    assert assignment.decision_level == 1
    assert assignment.get("a") == BV3.from_int(4, 3)
    assert assignment.get("b") == BV3.from_int(4, 9)
    # The level opened before the savepoint still pops normally.
    assignment.pop_level()
    assert assignment.decision_level == 0
    assert not assignment.is_assigned("b")


def test_assignment_rejects_stale_savepoint():
    assignment = Assignment()
    assignment.push_level()
    save = assignment.savepoint()
    assignment.pop_level()
    with pytest.raises(RuntimeError):
        assignment.rollback_to(save)


def test_assignment_has_slots():
    assignment = Assignment()
    assert not hasattr(assignment, "__dict__")
    with pytest.raises(AttributeError):
        assignment.arbitrary_attribute = 1


def _identity_node(name, key):
    return ImplicationNode(name, [key, key + "_out"], lambda cubes: list(cubes))


def test_engine_savepoint_retires_nodes():
    engine = ImplicationEngine()
    keep = _identity_node("keep", "x")
    engine.add_node(keep, widths=[1, 1])
    save = engine.savepoint()
    goal = _identity_node("goal", "x")
    engine.add_node(goal, widths=[1, 1])
    assert engine.watchers("x") == [keep, goal]
    engine.assign("x", BV3.from_int(1, 1))
    assert engine.is_justified(goal) is not None  # populate memo caches
    engine.rollback_to(save)
    assert engine.nodes == [keep]
    assert engine.watchers("x") == [keep]
    assert id(goal) not in engine._justified_cache
    assert id(goal) not in engine._rule_cache
    assert not engine.assignment.is_assigned("x")


def test_pop_level_retires_nodes_added_inside_the_level():
    engine = ImplicationEngine()
    base = _identity_node("base", "x")
    engine.add_node(base, widths=[1, 1])
    engine.push_level()
    scoped = _identity_node("scoped", "x")
    engine.add_node(scoped, widths=[1, 1])
    engine.assign("x", BV3.from_int(1, 0))
    engine.pop_level()
    assert engine.nodes == [base]
    assert engine.watchers("x") == [base]
    assert not engine.assignment.is_assigned("x")


def test_rule_cache_fifo_eviction_keeps_hot_entries():
    engine = ImplicationEngine()
    engine._rule_cache_limit = 4
    calls = []

    def rule(cubes):
        calls.append(tuple(cubes))
        return list(cubes)

    node = ImplicationNode("n", ["a", "b"], rule)
    engine.add_node(node, widths=[4, 4])
    # Six distinct cube combinations roll through a limit-4 cache FIFO.
    for value in range(6):
        engine.assignment._values.pop("a", None)
        engine.assignment.assign("a", BV3.from_int(4, value))
        engine.enqueue([node])
        engine.propagate()
    assert engine.rule_cache_evictions == 2
    cache = engine._rule_cache[id(node)]
    assert len(cache) == 4
    # The most recent combinations survived (FIFO dropped the oldest two).
    recent = {key[0] for key in cache}
    assert BV3.from_int(4, 5) in recent and BV3.from_int(4, 4) in recent
    # Re-evaluating a cached combination is a hit, not a rule call.
    before = len(calls)
    engine.enqueue([node])
    engine.propagate()
    assert len(calls) == before
    assert engine.rule_cache_hits > 0


def test_cache_hit_rates_reported_in_statistics():
    case = build_case("p3")
    result = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames),
        model_cache=UnrolledModelCache(),
    ).check(case.prop)
    stats = result.statistics
    assert stats.rule_cache_hits + stats.rule_cache_misses > 0
    assert 0.0 <= stats.rule_cache_hit_rate <= 1.0
    assert 0.0 <= stats.justified_cache_hit_rate <= 1.0
    assert stats.frames_built == result.frames_explored


# ----------------------------------------------------------------------
# sync_with_circuit
# ----------------------------------------------------------------------
def test_sync_with_circuit_absorbs_new_gates_in_every_frame():
    circuit = Circuit("sync")
    a = circuit.input("a", 4)
    reg = circuit.dff(a, name="reg")
    model = UnrolledModel(circuit, 3)
    nodes_before = len(model.engine.nodes)

    late = circuit.eq(reg, 5, name="late_monitor")
    assert model.sync_with_circuit()
    assert not model.sync_with_circuit()  # idempotent
    # One constant node and one comparator node per built frame.
    assert len(model.engine.nodes) == nodes_before + 2 * 3
    fresh = UnrolledModel(circuit, 3)
    assert _view_snapshot(model) == fresh.engine.assignment.snapshot()
    assert model.value(late, 0) == fresh.value(late, 0)


def test_sync_with_circuit_absorbs_new_registers():
    circuit = Circuit("sync_ff")
    a = circuit.input("a", 1)
    circuit.output(circuit.not_(a, name="na"))
    model = UnrolledModel(circuit, 3)
    delayed = circuit.dff(a, init_value=1, name="delayed")
    assert model.sync_with_circuit()
    fresh = UnrolledModel(circuit, 3)
    assert _view_snapshot(model) == fresh.engine.assignment.snapshot()
    assert model.value(delayed, 0) == BV3.from_int(1, 1)


def test_extend_requires_base_level():
    ports = build_token_ring()
    model = UnrolledModel(ports.circuit, 2)
    model.engine.push_level()
    with pytest.raises(RuntimeError):
        model.extend_to(4)
    model.engine.pop_level()
    model.extend_to(4)
    assert model.num_frames == 4


# ----------------------------------------------------------------------
# Satellite: the Tuple annotation regression (typing imports)
# ----------------------------------------------------------------------
def test_engine_module_annotations_resolve():
    import repro.implication.engine as engine_module

    for name in ("ImplicationEngine", "ImplicationNode"):
        cls = getattr(engine_module, name)
        for attr in vars(cls).values():
            if callable(attr) and getattr(attr, "__annotations__", None):
                typing.get_type_hints(attr, vars(engine_module))
