"""The top-level assertion checking engine (paper Fig. 1 / Fig. 2 outer loop).

For a target frame ``t`` (growing from the property's warm-up depth to the
configured maximum), the engine:

1. unrolls the design over ``t + 1`` time frames (growing one cached model
   frame by frame, see :mod:`repro.checker.incremental`),
2. asserts the environmental constraints in every frame and the inverted
   property goal at frame ``t``,
3. runs the word-level ATPG justifier (with the modular arithmetic solver in
   the loop) to search for an input sequence meeting the goal,
4. on success, extracts and *simulates* the trace to validate it before
   reporting a counterexample / witness,
5. on failure, moves on to the next target frame; when every frame up to the
   bound fails, the assertion holds (bounded) or the witness does not exist
   within the bound.
"""

from __future__ import annotations

from typing import Mapping, Optional, TYPE_CHECKING

from repro.atpg.timeframe import JustifierLimits, JustifyOutcome, UnrolledModel
from repro.bitvector import BV3
from repro.checker.incremental import UnrolledModelCache, shared_model_cache
from repro.checker.result import CheckResult, CheckStatus, Counterexample
from repro.checker.stats import CheckStatistics, ResourceMeter
from repro.implication.assignment import ImplicationConflict, RootCause
from repro.implication.engine import ImplicationNode
from repro.netlist.circuit import Circuit
from repro.properties.convert import CompiledProperty, PropertyCompiler
from repro.properties.environment import Environment
from repro.properties.spec import Assertion, Property
from repro.records import Record, factory
from repro.simulation.replay import replay_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.atpg.justify import LearningContext

#: engine counters (and ESTG counters, with learning on) a check reports as
#: deltas on its shared model; each has a same-named ``CheckStatistics`` field.
_ENGINE_COUNTERS = (
    "rule_cache_hits", "rule_cache_misses",
    "justified_cache_hits", "justified_cache_misses",
)
_LEARNING_COUNTERS = (
    "cubes_learned", "cubes_lifted", "cube_hits",
    "datapath_cubes_learned", "datapath_cube_hits", "kb_hits",
)


class CheckerOptions(Record):
    """Configuration of the assertion checker."""

    #: maximum number of time frames explored (bounded check depth).
    max_frames: int = 8
    #: cross-bound search learning: persist conflict-lifted illegal cubes
    #: and proven-FAIL target frames on the cached model, pruning every
    #: later bound and every property sharing the (circuit, initial state,
    #: environment) cache key.  Sound (prune-only), so verdicts and
    #: counterexamples match the non-learning search; decision counts may
    #: shrink.
    learning: bool = True
    #: path of a persistent knowledge base (:mod:`repro.kb`): learned cubes
    #: and proven-FAIL memos are loaded from it before checking and flushed
    #: back on checker teardown, extending the learning above across
    #: *processes*.  ``None`` keeps learned state process-local.  Effective
    #: only together with ``learning``.
    kb_path: Optional[str] = None
    #: use the legal-assignment-bias decision ordering (ablation switch).
    use_bias: bool = True
    #: extract local FSMs up front and assert their unreachable states in
    #: every frame as implying constraint nodes (the paper's Section 6
    #: extension).  Sound because locally unreachable states can never
    #: occur in any execution from the check's initial state.
    use_local_fsm_guidance: bool = False
    #: resource limits of the branch-and-bound search.
    limits: JustifierLimits = factory(JustifierLimits)

    def __init__(self, max_frames: int = 8, learning: bool = True,
                 kb_path: Optional[str] = None, use_bias: bool = True,
                 use_local_fsm_guidance: bool = False,
                 limits: Optional[JustifierLimits] = None):
        self.max_frames = max_frames
        self.learning = learning
        self.kb_path = kb_path
        self.use_bias = use_bias
        self.use_local_fsm_guidance = use_local_fsm_guidance
        self.limits = JustifierLimits() if limits is None else limits

    @classmethod
    def from_request(cls, request) -> "CheckerOptions":
        """Adapter over the unified :class:`repro.api.CheckRequest`.

        The request is the single authoritative knob list; this class no
        longer duplicates it -- it just maps the shared fields onto the
        checker's switches.  Duck-typed so :mod:`repro.api` stays the only
        module that imports across layers.
        """
        options = cls(
            learning=request.learning,
            kb_path=request.kb_path,
            use_local_fsm_guidance=request.fsm_guidance,
        )
        if request.max_frames is not None:
            options.max_frames = request.max_frames
        return options


class AssertionChecker:
    """Checks assertion / witness properties on a word-level RTL netlist."""

    def __init__(
        self,
        circuit: Circuit,
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        options: Optional[CheckerOptions] = None,
        model_cache: Optional[UnrolledModelCache] = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.environment = environment if environment is not None else Environment()
        self.options = options if options is not None else CheckerOptions()
        #: cache of incremental unrolled models (shared across checker
        #: instances by default; inject a private one for isolation, or one
        #: built with ``compiled=False`` to run on the interpreted oracle).
        self.model_cache = model_cache if model_cache is not None else shared_model_cache()
        self._incremental_model: Optional[UnrolledModel] = None
        self._restore_savepoint = None
        #: persistent knowledge base handle (None when not configured).
        self._kb = None
        if self.options.kb_path and self.options.learning:
            from repro.kb import open_knowledge_base

            self._kb = open_knowledge_base(self.options.kb_path)
        self.compiler = PropertyCompiler(circuit)
        self.lowered = self.compiler.compile_environment(self.environment, initial_state)
        self.initial_state = self.lowered.initial_state
        #: (register name, cube) of each FSM-unreachable state (guidance).
        self.illegal_states = ()
        #: (register net, constraint rule) of each of those cubes.
        self._fsm_rules = ()
        if self.options.use_local_fsm_guidance:
            # The design registers' FSMs are extracted once per circuit;
            # reachability starts from this check's initial state.  The
            # cubes name only design registers, so the facts hold for every
            # property compiled into the circuit later.
            from repro.analysis import fsm

            self.illegal_states = fsm.unreachable_state_cubes(
                fsm.design_fsms(circuit), self.initial_state
            )
            self._fsm_rules = tuple(
                (circuit.net(name), fsm.implying_cube_rule(cube))
                for name, cube in self.illegal_states
            )

    # ------------------------------------------------------------------
    def check(self, prop: Property, max_frames: Optional[int] = None) -> CheckResult:
        """Check one property and return the verdict with statistics."""
        compiled = self.compiler.compile(prop)
        statistics = CheckStatistics()
        bound = max_frames if max_frames is not None else self.options.max_frames
        aborted = False
        trace: Optional[Counterexample] = None

        with ResourceMeter() as meter:
            try:
                model, reused = self.model_cache.acquire(self.circuit, self.lowered)
                self._incremental_model = model
                if reused:
                    statistics.models_reused += 1
                else:
                    # Count the skeleton frame built by the cache miss.
                    statistics.frames_built += model.frames_constructed
                    if model.compiled:
                        statistics.compiled_models += 1
                # Per-check gauges/counters of the shared model.
                model.engine.frontier_peak = 0
                if self._kb is not None:
                    self._kb.attach(model, self.circuit, self.lowered)
                marks = self._counter_marks(model)
                learning_store = model.estg if self.options.learning else None
                prop_fp = self._prop_fingerprint(compiled)
                start_frame = compiled.warmup_frames
                for target_frame in range(start_frame, bound):
                    statistics.frames_explored = target_frame + 1
                    if learning_store is not None and learning_store.is_proven_fail(
                        prop_fp, target_frame
                    ):
                        # Proven FAIL earlier: skip it.  Nothing runs on the
                        # model, so no engine counter moves.
                        statistics.targets_skipped += 1
                        if (prop_fp, target_frame) in learning_store.kb_fail_targets:
                            # The skip is owed to a memo loaded from the KB.
                            learning_store.kb_hits += 1
                        continue
                    try:
                        outcome, search = self._check_target_frame(
                            compiled, target_frame
                        )
                        if search is not None:
                            statistics.accumulate_search(search)
                        if outcome is JustifyOutcome.SUCCESS:
                            trace = self._extract_trace(compiled, model, target_frame)
                            break
                        if outcome is JustifyOutcome.ABORT:
                            aborted = True
                            break
                    finally:
                        # Retract this bound's goals (and the search's decision
                        # stack) so the cached base fixpoint is restored exactly.
                        self._retract_goals()
                self._accumulate_counters(statistics, model, marks)
                if self._kb is not None:
                    # Checker-teardown write-tx: everything this check
                    # learned is on disk before the verdict is returned.
                    flush_hook = getattr(model, "kb_flush_hook", None)
                    if flush_hook is not None:
                        flush_hook()
            except BaseException:
                # An escaping error may have interrupted a structural base
                # mutation (extend/sync); drop this circuit's cached models
                # rather than risk reusing a half-built network.
                self._incremental_model = None
                self.model_cache.evict(self.circuit)
                raise

        statistics.wall_seconds = meter.elapsed_seconds
        statistics.peak_memory_mb = meter.peak_memory_mb

        status, counterexample = CheckStatus.of_search(prop, trace, aborted)
        return CheckResult(
            prop=prop,
            status=status,
            frames_explored=statistics.frames_explored,
            counterexample=counterexample,
            statistics=statistics,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _prop_fingerprint(compiled: CompiledProperty) -> object:
        """A stable identity for learned facts that depend on the goal.

        The key is the *normalized* structural digest of the property
        expression (:func:`~repro.atpg.statehash.property_digest`) plus the
        goal value, computed once when the property is compiled
        (:attr:`CompiledProperty.fingerprint`): any compilation of a
        logically identical expression builds a logically identical monitor,
        so facts keyed this way transfer across ``check()`` calls, checker
        instances, equivalent property spellings and -- via the knowledge
        base -- processes.  Learned cubes and proven-FAIL memos are
        *theorems* (every FAIL is a proof, see :mod:`repro.atpg.justify`),
        so this key carries no search configuration.
        """
        return compiled.fingerprint

    def _check_target_frame(self, compiled: CompiledProperty, target_frame: int):
        """One target frame on the shared incremental model.

        The model is grown (never rebuilt) to ``target_frame + 1`` frames;
        the per-bound environment/goal requirements are asserted on top of an
        engine savepoint that :meth:`_retract_goals` rolls back afterwards,
        restoring the reusable base fixpoint.  With learning enabled, failed
        searches extend the set of target frames proven FAIL on this model
        (which :meth:`check` skips without calling this method).
        """
        model = self._incremental_model
        engine = model.engine
        learning_store = model.estg if self.options.learning else None
        prop_fp = self._prop_fingerprint(compiled)
        model.extend_to(target_frame + 1)
        self._restore_savepoint = engine.savepoint()
        try:
            self._assert_requirements(model, compiled, target_frame)
        except ImplicationConflict:
            if learning_store is not None:
                learning_store.record_proven_fail(prop_fp, target_frame)
            return JustifyOutcome.FAIL, None
        # The search starts here: a check every target of which conflicts
        # at the fixpoint above never loads the justifier.
        from repro.atpg.justify import LearningContext

        learning = None
        if learning_store is not None:
            learning = LearningContext(
                estg=learning_store,
                prop_fp=prop_fp,
                target_frame=target_frame,
                base_trail_mark=self._restore_savepoint[0][0],
            )
        search = self._run_justifier(model, compiled, learning)
        if learning_store is not None and search.outcome is JustifyOutcome.FAIL:
            learning_store.record_proven_fail(prop_fp, target_frame)
        return search.outcome, search

    def _assert_requirements(
        self, model: UnrolledModel, compiled: CompiledProperty, target_frame: int
    ) -> None:
        """Assert environment constraints and FSM nodes (all frames) and the
        goal (target), all above the per-bound savepoint."""
        engine = model.engine
        env_root = RootCause("env")
        fsm_nodes = []
        for frame in range(target_frame + 1):
            for net, rule in self._fsm_rules:
                node = ImplicationNode(
                    "fsm:%s@%d" % (net.name, frame), [model.key(net, frame)],
                    rule, num_outputs=0,
                )
                engine.add_node(node)
                fsm_nodes.append(node)
            for name, value in self.lowered.pins.items():
                net = self.circuit.net(name)
                engine.assign(
                    model.key(net, frame), BV3.from_int(net.width, value),
                    propagate=False, reason=env_root,
                )
            for net in self.lowered.constraints:
                engine.assign(
                    model.key(net, frame), BV3.from_int(1, 1),
                    propagate=False, reason=env_root,
                )
        # The inverted property goal at the target frame.
        engine.assign(
            model.key(compiled.monitor, target_frame),
            BV3.from_int(1, compiled.goal_value),
            propagate=False, reason=RootCause("goal"),
        )
        engine.enqueue(fsm_nodes)
        engine.propagate()

    @staticmethod
    def _counter_marks(model: UnrolledModel):
        """The shared model's cumulative counters, before a check runs."""
        engine, store = model.engine, model.estg
        return (
            [getattr(engine, name) for name in _ENGINE_COUNTERS],
            [getattr(store, name) for name in _LEARNING_COUNTERS],
            model.frames_constructed,
            model.compile_seconds,
        )

    def _accumulate_counters(
        self, statistics: CheckStatistics, model: UnrolledModel, marks
    ) -> None:
        """Fold what one check moved on the shared model into its statistics.

        Called once, after the frame loop: neither a skipped target frame
        nor :meth:`_retract_goals` moves an engine counter, so one delta
        equals the sum of per-frame deltas.
        """
        engine_marks, learning_marks, frames_mark, compile_mark = marks
        engine = model.engine
        for name, mark in zip(_ENGINE_COUNTERS, engine_marks):
            setattr(statistics, name, getattr(statistics, name) + getattr(engine, name) - mark)
        statistics.frames_built += model.frames_constructed - frames_mark
        statistics.compile_time_ms += (model.compile_seconds - compile_mark) * 1000.0
        statistics.frontier_peak = max(statistics.frontier_peak, engine.frontier_peak)
        if not self.options.learning:
            return
        store = model.estg
        for name, mark in zip(_LEARNING_COUNTERS, learning_marks):
            setattr(statistics, name, getattr(statistics, name) + getattr(store, name) - mark)
        # A gauge, not a delta: how many knowledge-base cubes the shared
        # model carries (every check on a warm model reports the full count).
        statistics.kb_cubes_loaded = store.kb_cubes_loaded

    def _run_justifier(
        self, model: UnrolledModel, compiled: CompiledProperty,
        learning: Optional[LearningContext],
    ):
        from repro.atpg.justify import Justifier

        justifier = Justifier(
            model,
            prove_mode=isinstance(compiled.prop, Assertion),
            use_bias=self.options.use_bias,
            limits=self.options.limits,
            learning=learning,
        )
        return justifier.run()

    def _retract_goals(self) -> None:
        """Roll the incremental model back to its pre-goal savepoint.

        Runs in a ``finally`` so even an exception escaping the search
        cannot leave goal assignments inside a cached model.
        """
        if self._restore_savepoint is not None and self._incremental_model is not None:
            self._incremental_model.engine.rollback_to(self._restore_savepoint)
        self._restore_savepoint = None

    # ------------------------------------------------------------------
    def _extract_trace(
        self, compiled: CompiledProperty, model: UnrolledModel, target_frame: int
    ) -> Counterexample:
        return replay_trace(
            self.circuit, model.initial_state_assignment(), model.input_assignment(),
            target_frame, compiled.monitor.name, compiled.goal_value, self.lowered,
        )

