"""Branch-and-bound justification (the paper's Fig. 2 flow).

The justifier works on an :class:`~repro.atpg.timeframe.UnrolledModel` whose
assignment already carries the property requirements.  It repeatedly:

1. finds the unjustified *control* gates (gates whose pins are all control
   signals and whose required output is not yet implied by their inputs),
2. backward-traverses to a cut of candidate decision points,
3. decides the candidate with the highest legal assignment bias
   (complement-of-bias first in prove mode), runs word-level implication, and
   backtracks on conflicts,
4. when no control candidate is left, hands the remaining datapath
   requirements to the modular arithmetic solver once
   (:func:`repro.modsolver.extract.close_leaf`).  Its answers are
   typed: a *proved* infeasible system carries a certificate (the engine
   keys of the clashing source constraints) that is analysed exactly like
   an implication conflict, so datapath refutations feed conflict
   learning; a solution is assigned and kept when it justifies every
   remaining gate.  Otherwise (an ``Unknown``, no node for the solver, or
   a solution that leaves gates unjustified) the leaf is closed by the
   same decision loop,
   branching on single bits of the free input words in the leaf's cone,
   within :data:`LEAF_BACKTRACK_BUDGET` backtracks.  A leaf that exhausts
   the budget is *unproven*: it fails without facts, and a search that
   ends in FAIL with an unproven leaf reports ABORT instead.

The outcome is SUCCESS (every requirement justified -- a counterexample /
witness exists), FAIL (the requirements cannot be satisfied -- the assertion
holds for this unrolling), or ABORT (a resource limit was hit).  A FAIL is
always a proof: every failed branch ends in an implication conflict (an
FSM-unreachable state under ``--fsm-guidance`` is one: its constraint node
conflicts), a solver certificate or two failed sub-branches.

Unjustified gates are tracked through the implication engine's *dirty-set
frontier* (see :meth:`~repro.implication.engine.ImplicationEngine.unjustified_frontier`):
each search step re-tests only the nodes whose keys changed, in the model's
canonical order, so searches stay bit-identical to full scans at O(changed)
cost.

When a :class:`LearningContext` is supplied, the search additionally learns
*sound* illegal cubes for the persistent store riding the model:

* every implication conflict is traced back to its external roots
  (:meth:`~repro.implication.engine.ImplicationEngine.analyze_conflict`);
* when both values of a decision fail with fully analysed (proof) subtrees,
  the branch roots are resolved over the decision, lifting the learned cube
  down to the decisions that actually participated in the conflicts;
* cubes whose implication cone stayed clear of the initial state are stored
  target-relative and re-based when the target frame shifts; cones touching
  initial-state values anchor to absolute frames;
* stored cubes are installed as pure constraint nodes at the start of each
  later search (retracted with the per-bound goals), pruning any branch that
  re-enters a combination already proven contradictory;
* solver answers are not memoised: a leaf that is reached runs the solver
  once, and a certificate is reused only through the ``"datapath"`` cube it
  lifts to and the proven-FAIL memo of the search it closes.

Pruning is conflict-only -- learned nodes never refine values -- so a search
with learning explores a subset of the non-learning search's branches and
reaches the same verdict and the same counterexample.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.atpg.decisions import find_decision_candidates
from repro.atpg.estg import ExtendedStateTransitionGraph, LearnedCube
from repro.atpg.timeframe import JustifierLimits, JustifyOutcome, UnrolledModel, VarKey
from repro.bitvector import BV3, BV3Conflict
from repro.implication.assignment import ImplicationConflict, RootCause
from repro.implication.engine import ImplicationNode
from repro.netlist.compare import Comparator

#: backtracks one datapath leaf may spend branching on input-word bits
#: before it is given up as unproven.
LEAF_BACKTRACK_BUDGET = 4096

#: decision candidates collected per search step (the backward-traversal
#: cut of :func:`~repro.atpg.decisions.find_decision_candidates`).
DECISION_CUT_LIMIT = 64

#: learned cubes wider than this are not recorded (wide cubes re-fire
#: rarely and slow down the constraint scan).
MAX_CUBE_LITERALS = 8


class JustifyResult:
    """Outcome plus search statistics."""

    __slots__ = ("outcome", "decisions", "backtracks", "conflicts", "arithmetic_calls",
                 "implications", "solver_cores", "unproven_leaves")

    def __init__(
        self,
        outcome: JustifyOutcome,
        decisions: int = 0,
        backtracks: int = 0,
        conflicts: int = 0,
        arithmetic_calls: int = 0,
        implications: int = 0,
        solver_cores: int = 0,
        unproven_leaves: int = 0,
    ):
        self.outcome = outcome
        self.decisions = decisions
        self.backtracks = backtracks
        self.conflicts = conflicts
        self.arithmetic_calls = arithmetic_calls
        self.implications = implications
        #: datapath solver calls answered with an infeasibility certificate.
        self.solver_cores = solver_cores
        #: datapath leaves given up after :data:`LEAF_BACKTRACK_BUDGET`
        #: backtracks; a FAIL with any of them is reported as ABORT.
        self.unproven_leaves = unproven_leaves

    @property
    def succeeded(self) -> bool:
        return self.outcome is JustifyOutcome.SUCCESS


class LearningContext:
    """Everything the search needs to consult and grow the learned store.

    ``estg`` is the persistent graph attached to the (cached) unrolled
    model; ``prop_fp`` fingerprints the property being checked (goal value
    included), so goal-dependent facts are only reused for the same
    property; ``base_trail_mark`` bounds conflict analysis at the per-bound
    savepoint, below which lies the shared base fixpoint.
    """

    __slots__ = ("estg", "prop_fp", "target_frame", "base_trail_mark")

    def __init__(self, estg: ExtendedStateTransitionGraph, prop_fp: object,
                 target_frame: int, base_trail_mark: int):
        self.estg = estg
        self.prop_fp = prop_fp
        self.target_frame = target_frame
        self.base_trail_mark = base_trail_mark


class _SubtreeFacts:
    """Conflict antecedents accumulated while a subtree failed.

    Tracks the external roots feeding every conflict in the subtree, the
    frame extent of the implication cones (for re-basing validity),
    whether any cone touched an initial-state-derived value, and whether a
    datapath-solver infeasibility certificate participated (cubes resolved
    from such facts are counted as datapath-derived).
    """

    __slots__ = ("roots", "min_frame", "max_frame", "base", "datapath")

    def __init__(self, roots: Optional[Set[RootCause]] = None, min_frame: int = 0,
                 max_frame: int = 0, base: bool = False, datapath: bool = False):
        self.roots = set() if roots is None else roots
        self.min_frame = min_frame
        self.max_frame = max_frame
        self.base = base
        self.datapath = datapath

    def merge(self, other: "_SubtreeFacts") -> None:
        self.roots |= other.roots
        self.min_frame = min(self.min_frame, other.min_frame)
        self.max_frame = max(self.max_frame, other.max_frame)
        self.base = self.base or other.base
        self.datapath = self.datapath or other.datapath


class _BitCandidate:
    """A leaf decision: one unknown bit of a free input word."""

    __slots__ = ("key", "width", "bit")

    def __init__(self, key: VarKey, width: int, bit: int):
        self.key = key
        self.width = width
        self.bit = bit

    @staticmethod
    def preferred_first_value(prove_mode: bool) -> int:
        return 0

    def cube(self, value: int) -> BV3:
        return BV3(self.width, value << self.bit, 1 << self.bit)


class _UnprovenLeaf(Exception):
    """Unwinds a branched datapath leaf that cannot be closed."""


def _make_packed_cube_rule(required: List[BV3], store: ExtendedStateTransitionGraph,
                           cube: LearnedCube):
    """Build the conflict-only rule of one installed learned cube.

    The rule raises exactly when the current assignment entails every
    literal; it never refines a value, so installed cubes can only remove
    branches that are already contradictory.  The literal cubes are packed
    once, at install time, into a single (known, value) integer pair with
    per-literal bit offsets; each evaluation packs the current cubes the
    same way and decides the whole entailment with two mask operations.
    Per disjoint bit range this is exactly the per-literal ``covers``
    conjunction, on either implication engine.
    """
    offsets: List[int] = []
    req_known = 0
    req_value = 0
    shift = 0
    for literal in required:
        offsets.append(shift)
        req_known |= literal.known << shift
        req_value |= literal.value << shift
        shift += literal.width

    def rule(cubes: List[BV3]) -> List[BV3]:
        known = 0
        value = 0
        for offset, current in zip(offsets, cubes):
            known |= current.known << offset
            value |= current.value << offset
        if req_known & ~known or (req_value ^ value) & req_known:
            return list(cubes)
        store.cube_hits += 1
        if cube.source == "datapath":
            store.datapath_cube_hits += 1
        if cube.from_kb:
            store.kb_hits += 1
        cube.hits += 1
        store.touch(cube)
        store.last_fired = cube
        raise BV3Conflict("learned illegal cube (%s)" % cube.source)

    return rule


class Justifier:
    """Branch-and-bound justification over an unrolled model."""

    def __init__(
        self,
        model: UnrolledModel,
        prove_mode: bool = True,
        use_bias: bool = True,
        limits: Optional[JustifierLimits] = None,
        learning: Optional[LearningContext] = None,
    ):
        self.model = model
        self.engine = model.engine
        self.prove_mode = prove_mode
        self.use_bias = use_bias
        self.limits = limits if limits is not None else JustifierLimits()
        self.learning = learning
        self.decisions = 0
        self.backtracks = 0
        self.conflicts = 0
        self.arithmetic_calls = 0
        self.solver_cores = 0
        self.unproven_leaves = 0
        #: backtrack count on entry to the datapath leaf being branched
        #: (``None`` outside a leaf subtree).
        self._leaf_mark: Optional[int] = None
        #: cubes learned during this search, waiting to be installed as
        #: constraint nodes at the next safe point (between sibling
        #: branches); see :meth:`_flush_pending_cubes`.
        self._pending_cubes: List[Tuple[List[VarKey], List[BV3], LearnedCube]] = []
        #: control/datapath classification per node.  A node's pin widths
        #: never change, so the answer is a per-node constant; the stored
        #: node reference keeps the id stable for the justifier's lifetime
        #: (a retired node's id could otherwise be recycled by a new one).
        self._control_memo: Dict[int, Tuple[ImplicationNode, bool]] = {}

    def _unjustified(self) -> List[ImplicationNode]:
        """Unjustified nodes of the model's *active view*.

        Served by the engine's incrementally maintained dirty-set frontier,
        ordered by the model's canonical node ranking -- the same nodes, in
        the same order, as a full ``unjustified_nodes(active_nodes())``
        scan, at O(changed keys) per step.
        """
        return self.engine.unjustified_frontier(self.model.node_order())

    # ------------------------------------------------------------------
    def run(self) -> JustifyResult:
        """Run the search.  The assignment is left at the solution on SUCCESS
        and restored to its pre-search state otherwise."""
        start_implications = self.engine.implication_count
        if self.learning is not None:
            self._install_learned_cubes()
        try:
            self.engine.propagate()
        except ImplicationConflict:
            self.conflicts += 1
            return self._result(JustifyOutcome.FAIL, start_implications)

        base_level = self.engine.assignment.decision_level
        outcome, _facts = self._search(0)
        if outcome is not JustifyOutcome.SUCCESS:
            while self.engine.assignment.decision_level > base_level:
                self.engine.pop_level()
        if outcome is JustifyOutcome.FAIL and self.unproven_leaves:
            outcome = JustifyOutcome.ABORT
        return self._result(outcome, start_implications)

    def _result(self, outcome: JustifyOutcome, start_implications: int) -> JustifyResult:
        return JustifyResult(
            outcome=outcome,
            decisions=self.decisions,
            backtracks=self.backtracks,
            conflicts=self.conflicts,
            arithmetic_calls=self.arithmetic_calls,
            implications=self.engine.implication_count - start_implications,
            solver_cores=self.solver_cores,
            unproven_leaves=self.unproven_leaves,
        )

    # ------------------------------------------------------------------
    # Learned-cube installation (cross-bound reuse)
    # ------------------------------------------------------------------
    def _anchored_literals(
        self, cube: LearnedCube
    ) -> Optional[Tuple[List[VarKey], List[BV3]]]:
        """Re-base a cube at the current target frame as (keys, cubes).

        Returns ``None`` when the cube does not fit the active window.
        """
        anchored = cube.anchor(self.learning.target_frame)
        if anchored is None:
            return None
        keys: List[VarKey] = []
        required: List[BV3] = []
        for net, frame, value in anchored:
            if frame < 0 or frame >= self.model.num_frames:
                return None
            keys.append(self.model.key(net, frame))
            required.append(value)
        return keys, required

    def _materialize_cube(
        self, keys: List[VarKey], required: List[BV3], cube: LearnedCube
    ) -> ImplicationNode:
        """Build and register the prune-only constraint node of one cube."""
        node = ImplicationNode(
            "learned:%s@%d" % (cube.source, self.learning.target_frame),
            keys,
            _make_packed_cube_rule(required, self.learning.estg, cube),
            num_outputs=0,
            tag=("learned", cube),
        )
        self.engine.add_node(node)
        return node

    def _install_learned_cubes(self) -> None:
        """Materialise applicable learned cubes as constraint nodes.

        The nodes are added above the checker's per-bound savepoint, so goal
        retraction removes them together with the requirements; re-basing
        happens here by anchoring each cube's literal offsets at the current
        target frame.
        """
        context = self.learning
        store = context.estg
        store.last_fired = None
        installed: List[ImplicationNode] = []
        for cube in store.applicable_cubes(context.prop_fp):
            anchored = self._anchored_literals(cube)
            if anchored is None:
                continue
            installed.append(self._materialize_cube(anchored[0], anchored[1], cube))
        if installed:
            self.engine.enqueue(installed)

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _analyze_conflict(
        self, exc: ImplicationConflict, decision_root: Optional[RootCause] = None
    ) -> Optional[_SubtreeFacts]:
        """Trace a conflict to its external roots (None when unanalysable)."""
        context = self.learning
        store = context.estg
        fired = store.last_fired
        store.last_fired = None
        analysis = self.engine.analyze_conflict(exc, context.base_trail_mark)
        if analysis.opaque:
            return None
        roots = set(analysis.roots)
        if decision_root is not None:
            roots.add(decision_root)
        frames = [key[1] for key in analysis.cone]
        init_tainted = self.model.init_tainted
        facts = _SubtreeFacts(
            roots=roots,
            min_frame=min(frames, default=context.target_frame),
            max_frame=max(frames, default=0),
            base=any(key in init_tainted for key in analysis.cone),
        )
        if fired is not None:
            # The conflict came from an installed learned cube: fold the
            # cube's own provenance in, so facts derived from it inherit its
            # property dependence, frame anchoring and datapath origin.
            if fired.prop_fp is not None:
                facts.roots.add(RootCause("goal"))
            if fired.source == "datapath":
                facts.datapath = True
            if fired.shiftable:
                facts.min_frame = min(
                    facts.min_frame, context.target_frame + fired.min_position
                )
            else:
                facts.base = True
                facts.min_frame = min(facts.min_frame, fired.min_position)
                facts.max_frame = max(facts.max_frame, fired.max_position)
        return facts

    def _record_learned_cube(self, facts: _SubtreeFacts, depth: int) -> None:
        """Lift and store the resolved antecedents of a failed subtree."""
        context = self.learning
        decisions = [root for root in facts.roots if root.kind == "decision"]
        if not decisions or len(decisions) > MAX_CUBE_LITERALS:
            return
        merged: Dict[VarKey, BV3] = {}
        try:
            for root in decisions:
                current = merged.get(root.key)
                merged[root.key] = (
                    root.cube if current is None else current.intersect(root.cube)
                )
        except BV3Conflict:
            return  # contradictory literals: the cube is vacuous
        goal_seen = any(root.kind == "goal" for root in facts.roots)
        shiftable = not facts.base
        target = context.target_frame
        ordered = sorted(merged.items(), key=lambda item: (item[0][0].name, item[0][1]))
        if shiftable:
            literals = tuple(
                (net, frame - target, value) for (net, frame), value in ordered
            )
            min_position = min(
                facts.min_frame - target, min(offset for _, offset, _ in literals)
            )
            max_position = max(facts.max_frame - target, 0)
        else:
            literals = tuple((net, frame, value) for (net, frame), value in ordered)
            min_position = min(facts.min_frame, min(frame for _, frame, _ in literals))
            max_position = max(
                facts.max_frame, max(frame for _, frame, _ in literals)
            )
        cube = LearnedCube(
            literals=literals,
            shiftable=shiftable,
            min_position=min_position,
            max_position=max_position,
            prop_fp=context.prop_fp if goal_seen else None,
            source="datapath" if facts.datapath else "resolution",
        )
        if goal_seen and not shiftable:
            # The goal sits at this search's target frame, but an
            # init-tainted cone pins the cube to absolute frames: the fact
            # only holds for this exact (property, target) pair, so it must
            # never enter the persistent store (re-use at another target
            # would move the goal out from under the proof).  It is still a
            # theorem *within this search*, so queue it for the session.
            self._queue_session_cube(cube)
            return
        if context.estg.record_learned_cube(cube, lifted=len(merged) < depth):
            # New persistent cubes also prune the rest of *this* search.
            self._queue_session_cube(cube)

    def _queue_session_cube(self, cube: LearnedCube) -> None:
        """Anchor a freshly learned cube for installation mid-search."""
        anchored = self._anchored_literals(cube)
        if anchored is not None:
            self._pending_cubes.append((anchored[0], anchored[1], cube))

    def _flush_pending_cubes(self) -> None:
        """Install queued cubes as constraint nodes at the current level.

        Called between sibling branches (after the failed branch's level was
        popped), so the nodes land inside the enclosing decision level and
        are retired automatically when the search backtracks past it.  A
        cube learned in one subtree then prunes every later subtree in
        which its literals become entailed -- the within-search half of the
        conflict-learning win.
        """
        if not self._pending_cubes:
            return
        installed = [
            self._materialize_cube(keys, required, cube)
            for keys, required, cube in self._pending_cubes
        ]
        self._pending_cubes.clear()
        self.engine.enqueue(installed)

    # ------------------------------------------------------------------
    def _search(self, depth: int) -> Tuple[JustifyOutcome, Optional[_SubtreeFacts]]:
        limits = self.limits
        if (
            self.decisions > limits.max_decisions
            or depth > limits.max_depth
            or self.backtracks > limits.max_backtracks
        ):
            return JustifyOutcome.ABORT, None
        if (
            self._leaf_mark is not None
            and self.backtracks - self._leaf_mark > LEAF_BACKTRACK_BUDGET
        ):
            raise _UnprovenLeaf()

        unjustified = self._unjustified()
        if not unjustified:
            return JustifyOutcome.SUCCESS, None

        # Decision candidates are the undecided *control* signals in the
        # backward cone of every unjustified gate (control or datapath).  The
        # paper restricts the branch-and-bound to these signals; the datapath
        # is handed to the modular arithmetic solver at the leaves.
        candidates = find_decision_candidates(
            self.model,
            unjustified,
            limit=DECISION_CUT_LIMIT,
            prove_mode=self.prove_mode,
            use_bias=self.use_bias,
        )
        if candidates:
            return self._decide(candidates[0], depth)
        if self._leaf_mark is None:
            return self._datapath_leaf(depth)
        # Inside a branched leaf the solver is not consulted again.
        candidate = self._bit_candidate()
        if candidate is None:
            raise _UnprovenLeaf()
        return self._decide(candidate, depth)

    def _decide(
        self, candidate, depth: int
    ) -> Tuple[JustifyOutcome, Optional[_SubtreeFacts]]:
        """Try both values of one decision; FAIL only when both fail."""
        learning = self.learning
        first = candidate.preferred_first_value(self.prove_mode)
        facts: Optional[_SubtreeFacts] = (
            _SubtreeFacts(min_frame=self.model.num_frames) if learning is not None else None
        )
        own_roots: List[RootCause] = []
        for value in (first, 1 - first):
            self.decisions += 1
            cube = candidate.cube(value)
            root: Optional[RootCause] = None
            if learning is not None:
                learning.estg.last_fired = None
                root = RootCause("decision", candidate.key, cube)
                own_roots.append(root)
            self.engine.push_level()
            try:
                self.engine.assign(candidate.key, cube, reason=root)
            except ImplicationConflict as exc:
                self.conflicts += 1
                if facts is not None:
                    branch = self._analyze_conflict(exc, root)
                    if branch is None:
                        facts = None
                    else:
                        facts.merge(branch)
                self.engine.pop_level()
                self.backtracks += 1
                if learning is not None:
                    self._flush_pending_cubes()
                continue
            outcome, branch = self._search(depth + 1)
            if outcome is JustifyOutcome.SUCCESS:
                return outcome, None
            self.engine.pop_level()
            self.backtracks += 1
            if outcome is JustifyOutcome.ABORT:
                return outcome, None
            if learning is not None:
                self._flush_pending_cubes()
            if facts is not None:
                if branch is None:
                    facts = None
                else:
                    facts.merge(branch)
        if facts is not None:
            # Resolution over this node's decision: both values failed, so
            # the decision itself drops out of the learned antecedents.
            facts.roots.difference_update(own_roots)
            self._record_learned_cube(facts, depth)
        return JustifyOutcome.FAIL, facts

    # ------------------------------------------------------------------
    # Control / datapath split
    # ------------------------------------------------------------------
    def _is_control_node(self, node: ImplicationNode) -> bool:
        cached = self._control_memo.get(id(node))
        if cached is not None:
            return cached[1]
        result = all(
            self.engine.assignment.width(key) == 1 for key in node.input_keys
        )
        self._control_memo[id(node)] = (node, result)
        return result

    # ------------------------------------------------------------------
    # Datapath leaves: modular arithmetic solving, then bit branching
    # ------------------------------------------------------------------
    def _certificate_facts(self, core: Iterable[Hashable]) -> Optional[_SubtreeFacts]:
        """Turn a solver infeasibility core into learnable subtree facts.

        The core's tags are implication-engine keys whose implied values
        clash; seeding conflict analysis with them walks the trail back to
        the external roots (decisions, goal, environment) that produced
        those values -- exactly the treatment of an implication conflict,
        so datapath refutations lift into cubes like control conflicts do.
        """
        if self.learning is None:
            return None
        keys = tuple(core)
        if not keys:
            return None
        # No installed cube fired for this synthetic conflict; clear any
        # stale marker so its provenance is not wrongly inherited.
        self.learning.estg.last_fired = None
        conflict = ImplicationConflict("datapath infeasibility certificate", keys=keys)
        facts = self._analyze_conflict(conflict)
        if facts is not None:
            facts.datapath = True
        return facts

    def _datapath_leaf(
        self, depth: int
    ) -> Tuple[JustifyOutcome, Optional[_SubtreeFacts]]:
        """Close a search leaf that has no control candidate left.

        The modular solver runs once.  An infeasibility certificate fails the
        leaf with learnable facts; a solution that justifies every remaining
        gate is kept.  Anything else is rolled back and the leaf branches on
        input-word bits (see :meth:`_bit_candidate`) within
        :data:`LEAF_BACKTRACK_BUDGET` backtracks.  A leaf that cannot be
        closed is rolled back to its entry and fails without facts, counted
        in ``unproven_leaves``.
        """
        save = self.engine.savepoint()
        datapath = [node for node in self._unjustified() if not self._is_control_node(node)]
        # The solver takes no comparator, so a leaf of comparators alone does
        # not load it: most checks never need it, and it is a large share of
        # the start-up compile.
        if not all(_is_comparator(node) for node in datapath):
            from repro.modsolver.extract import close_leaf
            from repro.modsolver.result import Infeasible, Solution

            result = close_leaf(self.engine, datapath, self.limits.arithmetic_budget)
            if result is not None:
                self.arithmetic_calls += 1
            if isinstance(result, Infeasible):
                self.solver_cores += 1
                return JustifyOutcome.FAIL, self._certificate_facts(result.core)
            if isinstance(result, Solution):
                if self._assign_solution(result.assignment):
                    return JustifyOutcome.SUCCESS, None
                self.engine.rollback_to(save)

        candidate = self._bit_candidate()
        if candidate is not None:
            self._leaf_mark = self.backtracks
            try:
                return self._decide(candidate, depth)
            except _UnprovenLeaf:
                self.engine.rollback_to(save)
            finally:
                self._leaf_mark = None
        self.unproven_leaves += 1
        return JustifyOutcome.FAIL, None

    def _assign_solution(self, assignment: Dict[VarKey, int]) -> bool:
        """Assign a solver solution; True when it justifies every gate."""
        try:
            for key, value in assignment.items():
                cube = BV3.from_int(self.engine.assignment.width(key), value)
                self.engine.assign(
                    key, cube, propagate=False, reason=RootCause("solver", key, cube)
                )
            self.engine.propagate()
        except ImplicationConflict:
            self.conflicts += 1
            return False
        return not self._unjustified()

    def _bit_candidate(self) -> Optional[_BitCandidate]:
        """The next leaf branch: the most significant unknown bit of the
        first undriven key with unknown bits, found by a BFS through
        ``model.driver_node`` from the unjustified datapath nodes (from
        every unjustified node when only control nodes are left)."""
        unjustified = self._unjustified()
        roots = [node for node in unjustified if not self._is_control_node(node)]
        assignment = self.engine.assignment
        driver_node = self.model.driver_node
        queue = deque(key for node in roots or unjustified for key in node.input_keys)
        visited = set(queue)
        while queue:
            key = queue.popleft()
            driver = driver_node.get(key)
            if driver is None:
                cube = assignment.get(key)
                unknown = cube.mask & ~cube.known
                if unknown:
                    return _BitCandidate(key, cube.width, unknown.bit_length() - 1)
                continue
            for upstream in driver.input_keys:
                if upstream not in visited:
                    visited.add(upstream)
                    queue.append(upstream)
        return None


def _is_comparator(node: ImplicationNode) -> bool:
    tag = node.tag
    return isinstance(tag, tuple) and isinstance(tag[0], Comparator)
