"""Cross-bound search learning: equivalence, pruning and plumbing.

The learning path (``CheckerOptions.learning``) persists conflict-lifted
illegal cubes and proven-FAIL target frames on the cached unrolled model.
These tests pin its soundness contract -- identical verdicts and identical
counterexamples to the non-learning search at *every* bound, on the zoo and
on fuzzed netlists -- plus the supporting machinery: the dirty-set
unjustified frontier, conflict analysis, cube re-basing, the proven-FAIL
memo, batch grouping by circuit and the new statistics counters.
"""

import pytest

from repro.atpg.estg import ExtendedStateTransitionGraph, LearnedCube
from repro.atpg.justify import Justifier
from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3
from repro.bitvector.bv3 import bv
from repro.checker import AssertionChecker, CheckerOptions, CheckStatus
from repro.checker.incremental import UnrolledModelCache
from repro.checker.report import statistics_to_dict
from repro.circuits import all_case_ids, build_case, build_token_ring, extended_case_ids
from repro.implication.assignment import ImplicationConflict, RootCause
from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.properties import And, Assertion, OneHot, Signal, Witness

from test_bitparallel import build_random_circuit


def _sweep(circuit, prop, bounds, learning, environment=None, initial_state=None):
    """Check ``prop`` at every bound with one checker (the sweep shape)."""
    checker = AssertionChecker(
        circuit,
        environment=environment,
        initial_state=initial_state,
        options=CheckerOptions(
            max_frames=max(bounds), learning=learning,
        ),
        model_cache=UnrolledModelCache(),
    )
    return [checker.check(prop, max_frames=bound) for bound in bounds]


def _assert_equivalent(with_learning, without_learning):
    for on, off in zip(with_learning, without_learning):
        assert on.status is off.status
        assert on.frames_explored == off.frames_explored
        cex_on, cex_off = on.counterexample, off.counterexample
        assert (cex_on is None) == (cex_off is None)
        if cex_on is not None:
            assert cex_on.initial_state == cex_off.initial_state
            assert cex_on.inputs == cex_off.inputs
            assert cex_on.target_frame == cex_off.target_frame


# ----------------------------------------------------------------------
# Tentpole: verdict/counterexample equivalence at every bound
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids() + extended_case_ids())
def test_learning_equivalent_on_zoo_sweeps(case_id):
    case_on, case_off = build_case(case_id), build_case(case_id)
    bounds = list(range(1, case_on.max_frames + 2))
    on = _sweep(case_on.circuit, case_on.prop, bounds, True,
                environment=case_on.environment, initial_state=case_on.initial_state)
    off = _sweep(case_off.circuit, case_off.prop, bounds, False,
                 environment=case_off.environment, initial_state=case_off.initial_state)
    _assert_equivalent(on, off)
    assert on[-1].status is case_on.expected_status


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["assertion", "witness"])
def test_learning_equivalent_on_fuzzed_circuits(seed, kind):
    circuit_on = build_random_circuit(seed)
    circuit_off = build_random_circuit(seed)
    target = circuit_on.outputs[0]
    expr = Signal(target.name) == (1 if kind == "witness" else 0)
    prop = (
        Assertion("fz%d" % seed, expr)
        if kind == "assertion"
        else Witness("fz%d" % seed, expr)
    )
    bounds = [1, 2, 3]
    on = _sweep(circuit_on, prop, bounds, True)
    off = _sweep(circuit_off, prop, bounds, False)
    _assert_equivalent(on, off)


def test_learning_prunes_and_memoises_on_sweeps():
    """The learning sweep must actually learn: repeat targets are skipped
    and search effort shrinks (p14 is the cube-heaviest zoo case)."""
    case = build_case("p14")
    bounds = list(range(1, case.max_frames + 2))
    results = _sweep(case.circuit, case.prop, bounds, True,
                     environment=case.environment, initial_state=case.initial_state)
    skipped = sum(result.statistics.targets_skipped for result in results)
    learned = sum(result.statistics.cubes_learned for result in results)
    hits = sum(result.statistics.cube_hits for result in results)
    # Every repeat target after its first FAIL is served from the memo.
    assert skipped == sum(range(1, len(bounds)))
    assert learned > 0 and hits > 0
    off = _sweep(build_case("p14").circuit, case.prop, bounds, False,
                 environment=case.environment, initial_state=case.initial_state)
    assert sum(r.statistics.decisions for r in results) < sum(
        r.statistics.decisions for r in off
    )


def test_learning_shared_across_checker_instances():
    """Facts ride the cached model: a second checker on the same circuit
    object starts from the first one's proven targets."""
    case = build_case("p2")
    cache = UnrolledModelCache()
    options = CheckerOptions(max_frames=case.max_frames)
    first = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state, options=options, model_cache=cache,
    ).check(case.prop)
    second = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state, options=options, model_cache=cache,
    ).check(case.prop)
    assert second.status is first.status
    assert second.statistics.targets_skipped == first.frames_explored
    assert second.statistics.decisions == 0


def test_deep_witness_found_after_assertion_checks_share_the_model():
    """Regression: goal-dependent cubes with init-tainted cones must never
    be re-used at another target frame.  A bounded counter is the sharpest
    probe: assertions checked first leave learned state on the model, and
    the witness needs the *deepest* target frame -- any cube leaking across
    targets or properties kills it."""
    from repro.netlist import Circuit

    def build_counter():
        circuit = Circuit("counter")
        enable = circuit.input("en", 1)
        count = circuit.state("cnt", 4)
        at_limit = circuit.eq(count, 9, name="at_limit")
        incremented = circuit.add(count, 1, name="incremented")
        next_when_counting = circuit.mux(at_limit, incremented, circuit.const(0, 4))
        next_count = circuit.mux(enable, count, next_when_counting, name="next_count")
        circuit.dff_into(count, next_count, init_value=0)
        circuit.output(count)
        return circuit

    def run(learning):
        checker = AssertionChecker(
            build_counter(),
            options=CheckerOptions(max_frames=8, learning=learning),
            model_cache=UnrolledModelCache(),
        )
        return [
            checker.check(Assertion("bounded", Signal("cnt") <= 9)),
            checker.check(Assertion("never_five", Signal("cnt") != 5)),
            checker.check(Witness("reach_seven", Signal("cnt") == 7)),
        ]

    _assert_equivalent(run(True), run(False))


def _memo_pair(case_id, first_options, second_options, second_prop=None):
    """Check a zoo case with two checkers sharing one model cache."""
    case = build_case(case_id)
    cache = UnrolledModelCache()
    results = []
    for options, prop in ((first_options, case.prop),
                          (second_options, second_prop or case.prop)):
        checker = AssertionChecker(
            case.circuit, environment=case.environment,
            initial_state=case.initial_state,
            options=CheckerOptions(max_frames=case.max_frames, **options),
            model_cache=cache,
        )
        results.append(checker.check(prop))
    model, _ = cache.acquire(case.circuit, checker.lowered)
    return results, model


def test_fail_memo_transfers_across_use_bias():
    """Every FAIL is a proof, so the decision order that reached it does
    not matter: a checker without the bias ordering reuses the memos."""
    (first, second), _model = _memo_pair("p2", {"use_bias": True}, {"use_bias": False})
    assert second.status is first.status
    assert second.statistics.targets_skipped == first.frames_explored
    assert second.statistics.decisions == 0


@pytest.mark.parametrize("guided_first", [True, False])
def test_fail_memo_transfers_across_fsm_guidance(guided_first):
    """FSM guidance prunes only FSM-unreachable states, so its FAILs are
    theorems too: memos are written under guidance and flow both ways."""
    guided = {"use_local_fsm_guidance": True}
    first_options, second_options = (guided, {}) if guided_first else ({}, guided)
    (first, second), model = _memo_pair("p2", first_options, second_options)
    assert model.estg.proven_fail_targets
    assert second.status is first.status
    assert second.statistics.targets_skipped == first.frames_explored


def test_fail_memo_transfers_across_equivalent_spellings():
    """Memos are keyed by the normalised property digest, like cubes."""
    case = build_case("p9")
    commuted = Assertion("commuted", And(*reversed(case.prop.expr.terms)))
    (first, second), _model = _memo_pair("p9", {}, {}, second_prop=commuted)
    assert first.status is CheckStatus.HOLDS
    assert second.status is CheckStatus.HOLDS
    assert second.statistics.targets_skipped == first.frames_explored


def test_unproven_leaf_aborts_and_writes_no_memo(monkeypatch):
    """A leaf that exhausts its branching budget makes the check
    ``aborted`` (never ``holds``), is reported in the statistics and the
    JSON report, and leaves no proven-FAIL memo behind."""
    from repro.atpg import justify
    from repro.checker.report import result_to_dict
    from repro.netlist import Circuit

    monkeypatch.setattr(justify, "LEAF_BACKTRACK_BUDGET", 2)
    circuit = Circuit("contradiction")
    x = circuit.input("x", 8)
    y = circuit.input("y", 8)
    circuit.output(circuit.and_(circuit.gt(x, y), circuit.ge(y, x)), name="bad")
    cache = UnrolledModelCache()
    checker = AssertionChecker(
        circuit, options=CheckerOptions(max_frames=1), model_cache=cache
    )
    result = checker.check(Assertion("nobad", Signal("bad") == 0))
    assert result.status is CheckStatus.ABORTED
    assert result.statistics.unproven_leaves > 0
    assert result_to_dict(result)["unproven_leaves"] == result.statistics.unproven_leaves
    model, _ = cache.acquire(circuit, checker.lowered)
    assert not model.estg.proven_fail_targets


def test_no_learning_matches_pre_learning_behaviour():
    """--no-learning must leave zero learning state on the cached model."""
    case = build_case("p2")
    cache = UnrolledModelCache()
    checker = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames, learning=False),
        model_cache=cache,
    )
    result = checker.check(case.prop)
    assert result.statistics.targets_skipped == 0
    assert result.statistics.cubes_learned == 0
    model, _reused = cache.acquire(case.circuit, checker.lowered)
    assert not model.estg.proven_fail_targets
    assert not model.estg.learned_cubes


# ----------------------------------------------------------------------
# Dirty-set unjustified frontier
# ----------------------------------------------------------------------
class _CrossCheckingJustifier(Justifier):
    """Asserts the frontier equals a full scan at every query."""

    def _unjustified(self):
        frontier = super()._unjustified()
        full = self.engine.unjustified_nodes(self.model.active_nodes())
        assert frontier == full
        return frontier


@pytest.mark.parametrize("case_id", ["p2", "p3", "p5", "p7"])
def test_frontier_matches_full_scan_throughout_search(case_id, monkeypatch):
    from repro.atpg import justify

    # The checker takes the justifier from its module when a search starts.
    monkeypatch.setattr(justify, "Justifier", _CrossCheckingJustifier)
    case = build_case(case_id)
    result = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames),
        model_cache=UnrolledModelCache(),
    ).check(case.prop)
    assert result.status is case.expected_status


def test_frontier_tracks_assign_backtrack_and_activation():
    from repro.netlist import Circuit

    circuit = Circuit("front")
    a = circuit.input("a", 1)
    reg = circuit.dff(a, name="reg")  # no init value: frame-0 output is free
    # An OR requirement of 1 stays unjustified until a decision picks an
    # input, unlike AND, whose backward implication self-justifies it.
    out = circuit.or_(reg, a, name="out")
    circuit.output(out)
    model = UnrolledModel(circuit, 3)
    engine = model.engine

    def frontier():
        return engine.unjustified_frontier(model.node_order())

    def full():
        return engine.unjustified_nodes(model.active_nodes())

    assert frontier() == full()
    # A requirement makes its driver unjustified; retracting restores.
    save = engine.savepoint()
    engine.assign(model.key(out, 2), BV3.from_int(1, 1))
    assert frontier() == full() and frontier()
    engine.rollback_to(save)
    assert frontier() == full()
    # Backtracking through decision levels keeps the frontier in sync.
    engine.push_level()
    engine.assign(model.key(out, 1), BV3.from_int(1, 1))
    assert frontier() == full()
    engine.pop_level()
    assert frontier() == full()
    # Shrinking and regrowing the active view re-tests toggled nodes.
    engine.assign(model.key(out, 2), BV3.from_int(1, 1))
    before = frontier()
    assert before
    model.extend_to(2)
    assert frontier() == full()
    model.extend_to(3)
    assert frontier() == full() == before


def test_frame_taint_covers_register_boundary_facts():
    """Base facts derived through register crossings are frame-anchored
    even without initial-state values: a const-fed chain gives Q@k=c only
    for k >= chain depth, so cones touching those keys must never produce
    shiftable (re-basable) cubes."""
    from repro.netlist import Circuit

    circuit = Circuit("chain")
    a = circuit.input("a", 1)
    r1 = circuit.dff(circuit.const(1, 1), init_value=None, name="r1")
    r2 = circuit.dff(r1, init_value=None, name="r2")
    circuit.output(circuit.or_(r2, a, name="out"))
    model = UnrolledModel(circuit, 4)
    # Frame-0 outputs are free (untainted); the crossing-derived facts
    # r1@k (k>=1) and r2@k (k>=2) are frame-anchored.
    assert model.value(circuit.net("r1"), 1).is_fully_known()
    assert model.value(circuit.net("r2"), 2).is_fully_known()
    assert (circuit.net("r1"), 0) not in model.init_tainted
    assert (circuit.net("r1"), 1) in model.init_tainted
    assert (circuit.net("r2"), 2) in model.init_tainted
    # Purely combinational constant cones stay shift-invariant.
    const_net = circuit.net("r1").driver.d
    assert (const_net, 2) not in model.init_tainted


# ----------------------------------------------------------------------
# Conflict analysis
# ----------------------------------------------------------------------
def _buf_rule(cubes):
    joined = cubes[0].intersect(cubes[1])
    return [joined, joined]


def _inv_rule(cubes):
    def flip(cube):
        if cube.is_fully_known():
            return BV3.from_int(1, 1 - cube.min_value())
        return BV3.unknown(1)

    a, b = cubes
    return [a.intersect(flip(b)), b.intersect(flip(a))]


def _conflict_engine():
    engine = ImplicationEngine()
    engine.add_node(ImplicationNode("buf", ["a", "c"], _buf_rule), widths=[1, 1])
    engine.add_node(ImplicationNode("inv", ["b", "c"], _inv_rule), widths=[1, 1])
    return engine


def test_analyze_conflict_finds_decision_roots():
    engine = _conflict_engine()
    root_a = RootCause("decision", "a", BV3.from_int(1, 1))
    root_b = RootCause("decision", "b", BV3.from_int(1, 1))
    engine.assign("a", BV3.from_int(1, 1), reason=root_a)
    with pytest.raises(ImplicationConflict) as excinfo:
        engine.assign("b", BV3.from_int(1, 1), reason=root_b)
    analysis = engine.analyze_conflict(excinfo.value, 0)
    assert not analysis.opaque
    assert root_a in analysis.roots
    assert {"a", "b", "c"} <= analysis.cone


def test_analyze_conflict_flags_unattributed_assignments():
    engine = _conflict_engine()
    engine.assign("a", BV3.from_int(1, 1))  # no reason recorded
    with pytest.raises(ImplicationConflict) as excinfo:
        engine.assign("b", BV3.from_int(1, 1), reason=RootCause("decision", "b"))
    assert engine.analyze_conflict(excinfo.value, 0).opaque


def test_analyze_conflict_respects_stop_mark():
    engine = _conflict_engine()
    engine.assign("a", BV3.from_int(1, 1), reason=RootCause("env"))
    mark = engine.assignment.trail_length
    with pytest.raises(ImplicationConflict) as excinfo:
        engine.assign("b", BV3.from_int(1, 1), reason=RootCause("decision", "b"))
    analysis = engine.analyze_conflict(excinfo.value, mark)
    # The env assignment lies below the mark: part of the model, not a root.
    assert all(root.kind != "env" for root in analysis.roots)
    assert not analysis.opaque


# ----------------------------------------------------------------------
# Learned cubes: anchoring, dedup, eviction
# ----------------------------------------------------------------------
class _Net:
    def __init__(self, name):
        self.name = name


def test_learned_cube_anchor_rebases_shiftable_offsets():
    net = _Net("x")
    cube = LearnedCube(
        literals=((net, -1, bv("1")),), shiftable=True,
        min_position=-2, max_position=0,
    )
    assert cube.anchor(1) is None  # the cone would need frame -1
    anchored = cube.anchor(3)
    assert anchored == [(net, 2, bv("1"))]


def test_learned_cube_anchor_checks_absolute_window():
    net = _Net("x")
    cube = LearnedCube(
        literals=((net, 0, bv("1")),), shiftable=False,
        min_position=0, max_position=3,
    )
    assert cube.anchor(2) is None  # cone reaches frame 3, window too small
    assert cube.anchor(3) == [(net, 0, bv("1"))]


def test_record_learned_cube_dedups_and_evicts():
    estg = ExtendedStateTransitionGraph(max_learned_cubes=2)
    nets = [_Net("n%d" % i) for i in range(3)]

    def make(net):
        return LearnedCube(
            literals=((net, 0, bv("1")),), shiftable=True,
            min_position=0, max_position=0,
        )

    assert estg.record_learned_cube(make(nets[0]), lifted=True)
    assert not estg.record_learned_cube(make(nets[0]))  # dedup
    assert estg.record_learned_cube(make(nets[1]))
    assert estg.record_learned_cube(make(nets[2]))  # evicts the oldest
    assert len(estg.learned_cubes) == 2
    assert estg.cubes_learned == 3
    assert estg.cubes_lifted == 1
    stats = estg.stats()
    assert stats["learned_cubes"] == 2 and stats["cubes_lifted"] == 1


def test_touch_keeps_firing_cubes_out_of_eviction():
    """A fire refreshes the cube's LRU slot, so hot cubes survive capacity
    pressure even though their prune blocks re-recording."""
    estg = ExtendedStateTransitionGraph(max_learned_cubes=2)
    nets = [_Net("n%d" % i) for i in range(3)]

    def make(net):
        return LearnedCube(
            literals=((net, 0, bv("1")),), shiftable=True,
            min_position=0, max_position=0,
        )

    hot = make(nets[0])
    estg.record_learned_cube(hot)
    estg.record_learned_cube(make(nets[1]))
    estg.touch(hot)  # the oldest entry fires: moves to the back
    estg.record_learned_cube(make(nets[2]))  # evicts n1, not the hot cube
    assert hot.fingerprint in estg.learned_cubes
    assert len(estg.learned_cubes) == 2
    # Fingerprints come from FNV-1a only (stable across processes); a
    # session-only cube never recorded has none and touch is a no-op.
    session = make(nets[1])
    estg.touch(session)
    assert session.fingerprint is None


# ----------------------------------------------------------------------
# Reporting and CLI plumbing
# ----------------------------------------------------------------------
def test_learning_counters_surface_in_report_json():
    case = build_case("p2")
    result = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames),
        model_cache=UnrolledModelCache(),
    ).check(case.prop)
    payload = statistics_to_dict(result.statistics)
    for key in ("cubes_learned", "cubes_lifted", "cube_hits",
                "solver_cores", "datapath_cubes_learned", "datapath_cube_hits",
                "targets_skipped", "frontier_peak"):
        assert key in payload
    assert payload["frontier_peak"] > 0


def test_cli_exposes_no_learning_flag():
    from repro.cli import build_parser

    argv = ["check", "design.v", "--assert", "x==1", "--no-learning"]
    assert build_parser(argv).parse_args(argv).no_learning
    argv = ["check", "design.v", "--assert", "x==1"]
    assert not build_parser(argv).parse_args(argv).no_learning


def test_batch_learning_toggle_covers_engine_instances():
    """A request's learning toggle reaches every ATPG engine a batch runs;
    an explicitly configured engine keeps its own setting."""
    from repro import api
    from repro.portfolio import BatchJob, BatchOptions, BatchRunner, EngineBudget
    from repro.portfolio.engines import AtpgEngine

    request = api.CheckRequest(
        circuit=api.CircuitRef.case("p1"), engines=("atpg", "bdd"),
        learning=False,
    )
    configured = BatchOptions.from_request(request).engines
    assert configured[0].options.learning is False  # name rewritten
    assert configured[1] == "bdd"
    default = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
    assert BatchOptions.from_request(default).engines[0].options.learning is True

    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    job = BatchJob("onehot", ports.circuit, Assertion("one_hot", OneHot(*grants)))
    pinned = AtpgEngine(CheckerOptions(learning=True))
    for engine, expected in ((configured[0], False), (pinned, True)):
        report = BatchRunner(
            BatchOptions(engines=(engine,), budget=EngineBudget(max_frames=3))
        ).run([job])
        (atpg,) = report.items[0].result.engine_results
        assert atpg.stats["learning"] is expected


# ----------------------------------------------------------------------
# Batch grouping by circuit (satellite)
# ----------------------------------------------------------------------
def _grouping_jobs():
    from repro.portfolio import BatchJob

    ring_a, ring_b = build_token_ring(), build_token_ring()
    jobs = []
    for tag, ports in (("a", ring_a), ("b", ring_b)):
        grants = [Signal(net.name) for net in ports.grants]
        jobs.append(BatchJob("%s_onehot" % tag, ports.circuit,
                             Assertion("one_hot", OneHot(*grants))))
        jobs.append(BatchJob("%s_first" % tag, ports.circuit,
                             Witness("first", grants[0] == 1)))
    # Interleave so grouping actually has to reorder the distribution.
    return [jobs[0], jobs[2], jobs[1], jobs[3]]


def test_group_by_circuit_keeps_submission_order_within_groups():
    from repro.portfolio.batch import BatchRunner

    jobs = _grouping_jobs()
    payloads = [(index, job) for index, job in enumerate(jobs)]
    groups = BatchRunner._group_by_circuit(payloads)
    assert len(groups) == 2
    assert [p[0] for p in groups[0]] == [0, 2]
    assert [p[0] for p in groups[1]] == [1, 3]


def test_group_by_circuit_chunks_single_circuit_batches():
    """A batch dominated by one circuit must still occupy every worker:
    oversized groups are split into pool-sized chunks (order preserved)."""
    from repro.portfolio import BatchJob
    from repro.portfolio.batch import BatchRunner

    ports = build_token_ring()
    grants = [Signal(net.name) for net in ports.grants]
    payloads = [
        (index, BatchJob("j%d" % index, ports.circuit,
                         Witness("w%d" % index, grants[0] == 1)))
        for index in range(10)
    ]
    chunks = BatchRunner._group_by_circuit(payloads, pool_size=4)
    assert len(chunks) == 4  # ceil(10 / ceil(10/4)=3) tasks
    assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]
    assert [p[0] for chunk in chunks for p in chunk] == list(range(10))
    # Small multi-circuit groups stay whole (affinity beats fan-out).
    mixed = _grouping_jobs()
    chunks = BatchRunner._group_by_circuit(
        [(i, job) for i, job in enumerate(mixed)], pool_size=2
    )
    assert [len(chunk) for chunk in chunks] == [2, 2]


def test_grouped_batch_report_ordering_is_deterministic():
    from repro.portfolio import BatchOptions, BatchRunner, EngineBudget

    def run(jobs_count):
        report = BatchRunner(
            BatchOptions(
                engines=("atpg",),
                budget=EngineBudget(max_frames=4),
                jobs=jobs_count,
            )
        ).run(_grouping_jobs())
        return [(item.job_id, item.seed, item.result.status.value)
                for item in report.items]

    inline = run(1)
    workers = run(2)
    assert [row[0] for row in inline] == ["a_onehot", "b_onehot", "a_first", "b_first"]
    assert inline == workers


# ----------------------------------------------------------------------
# Datapath infeasibility certificates
# ----------------------------------------------------------------------
def test_datapath_certificates_learn_and_prune():
    """The p15 sweep bottoms out in the modular solver at every leaf: the
    certificates must produce learned datapath cubes at the first bound and
    prune later bounds through re-based datapath cube hits."""
    case = build_case("p15")
    bounds = list(range(1, case.max_frames + 2))
    results = _sweep(case.circuit, case.prop, bounds, True,
                     environment=case.environment, initial_state=case.initial_state)
    assert all(result.status is case.expected_status for result in results)
    cores = sum(result.statistics.solver_cores for result in results)
    learned = sum(result.statistics.datapath_cubes_learned for result in results)
    hits = sum(result.statistics.datapath_cube_hits for result in results)
    assert cores > 0
    assert learned > 0
    assert hits > 0
    # Later bounds must not redo the certificate work of the first one.
    assert results[-1].statistics.solver_cores == 0
    assert results[-1].statistics.decisions < results[0].statistics.decisions


def _unknowable_mul_circuit():
    """A multiplier coupled to an adder through free operands: genuinely
    infeasible for the sentinel pair, but only factor *sampling* can
    explore it, so every solver verdict is Unknown -- never a proof."""
    from repro.netlist import Circuit

    circuit = Circuit("mulbudget")
    a = circuit.input("a", 8)
    b = circuit.input("b", 8)
    sel = circuit.input("sel", 1)
    off = circuit.mux(sel, circuit.const(0, 8), circuit.const(8, 8), name="off")
    product = circuit.mul(a, b, name="product")
    total = circuit.add(circuit.add(a, b, name="ab"), off, name="total")
    circuit.output(product)
    circuit.output(total)
    return circuit


@pytest.mark.parametrize("arithmetic_budget", [1, 256])
def test_budget_exhausted_solver_results_never_learn(arithmetic_budget):
    """Regression (satellite): a budget-exhausted (Unknown) solver answer
    proves nothing, so it must never become a datapath cube.  budget=1 pins the NonlinearSolver(budget=1) start; the
    default budget exhausts the incomplete factor enumeration instead.  The
    leaves are closed by branching, whose "resolution" cubes are sound:
    the verdicts match the learning-off search at every bound."""
    from repro.atpg.justify import JustifierLimits
    from repro.properties import And, Not

    prop = Assertion(
        "sentinel",
        Not(And(Signal("product") == 6, Signal("total") == 0)),
    )

    def sweep(learning):
        circuit = _unknowable_mul_circuit()
        checker = AssertionChecker(
            circuit,
            options=CheckerOptions(
                max_frames=3,
                learning=learning,
                limits=JustifierLimits(arithmetic_budget=arithmetic_budget),
            ),
            model_cache=UnrolledModelCache(),
        )
        return [checker.check(prop, max_frames=bound) for bound in (1, 2, 3)]

    results = sweep(True)
    _assert_equivalent(results, sweep(False))
    assert all(result.status.value == "holds" for result in results)
    for result in results:
        assert result.statistics.solver_cores == 0
        assert result.statistics.datapath_cubes_learned == 0
        assert result.statistics.unproven_leaves == 0