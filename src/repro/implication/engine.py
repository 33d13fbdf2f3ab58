"""Event-driven word-level implication engine.

The engine is agnostic of frames and netlists: it operates on
:class:`ImplicationNode` objects, each of which relates a list of variable
*keys* (hashable identifiers, e.g. ``(net, frame)`` tuples) through an
implication rule.  Whenever a key's cube is refined, every node watching that
key is re-evaluated, until a fixpoint is reached or a conflict surfaces.

Three mechanisms make the engine reusable across incremental checking runs:

* **Retractable node groups** -- nodes added while a decision level (or a
  :meth:`ImplicationEngine.savepoint`) is open are *retired* when that level
  is popped / rolled back: they are removed from the node list, their watcher
  entries are unhooked and their memoisation entries dropped, so a retracted
  goal leaves no trace behind.
* **Node activation** -- a node can be deactivated (``node.active = False``)
  without being removed; inactive nodes are skipped by the propagation
  worklist.  The unrolled model uses this to keep time frames beyond the
  current check bound physically present but logically inert.
* **The unjustified frontier** -- the engine incrementally maintains the set
  of nodes whose required output is not implied by their inputs.  Keys
  touched by assignment or backtracking land in a dirty set; a frontier
  query re-tests only the nodes watching dirty keys, so each step of the
  branch-and-bound search costs O(changed keys) instead of O(active nodes).

Conflict analysis: every trail refinement records its *reason* (the deriving
node, or a :class:`~repro.implication.assignment.RootCause` for external
assignments).  :meth:`ImplicationEngine.analyze_conflict` walks the trail
backward from a conflict to the external roots that produced it, which is
what lets the justifier lift learned illegal cubes down to the decisions
that actually participated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bitvector import BV3, BV3Conflict
from repro.implication.assignment import (
    Assignment,
    ImplicationConflict,
    RootCause,
    Savepoint,
)

#: Engine savepoint: (assignment savepoint, node count).
EngineSavepoint = Tuple[Savepoint, int]


class ImplicationNode:
    """One constraint node relating several keys through a gate rule.

    Parameters
    ----------
    name:
        Diagnostic name (usually ``"<gate>@<frame>"``).
    keys:
        Variable keys in the rule's canonical pin order (inputs first).
    rule:
        Callable refining a list of cubes (same order as ``keys``).
    num_outputs:
        How many trailing keys are outputs (used by the justification test).
        Pure constraint nodes (e.g. learned illegal cubes) use 0: they can
        conflict but never carry a requirement of their own.
    """

    __slots__ = (
        "name",
        "keys",
        "rule",
        "num_outputs",
        "tag",
        "active",
        # Populated by the compiled kernel's lowering pass (see
        # repro.implication.compiled); unset on interpreted engines.
        "slots",
        "in_slots",
        "out_slots",
        "index",
    )

    def __init__(
        self,
        name: str,
        keys: Sequence[Hashable],
        rule: Callable[[Sequence[BV3]], List[BV3]],
        num_outputs: int = 1,
        tag: Optional[object] = None,
    ):
        self.name = name
        self.keys = list(keys)
        self.rule = rule
        self.num_outputs = num_outputs
        self.tag = tag
        #: inactive nodes are skipped by propagation (see module docstring).
        self.active = True

    @property
    def input_keys(self) -> List[Hashable]:
        return self.keys[: len(self.keys) - self.num_outputs]

    @property
    def output_keys(self) -> List[Hashable]:
        if self.num_outputs == 0:
            return []
        return self.keys[len(self.keys) - self.num_outputs :]

    def __repr__(self) -> str:
        return "ImplicationNode(%s)" % (self.name,)


@dataclass
class ConflictAnalysis:
    """External antecedents of one implication conflict.

    ``roots`` are the :class:`RootCause` records that fed the conflict (in
    reverse-chronological order, possibly with duplicates); ``cone`` is every
    key the derivation touched; ``opaque`` is set when some contributing
    assignment carried no reason, in which case the analysis is incomplete
    and nothing may be learned from this conflict.
    """

    roots: List[RootCause] = field(default_factory=list)
    cone: Set[Hashable] = field(default_factory=set)
    opaque: bool = False


class ImplicationEngine:
    """Propagates word-level implications to a fixpoint over a node network."""

    def __init__(self, assignment: Optional[Assignment] = None):
        self.assignment = assignment if assignment is not None else Assignment()
        self.assignment.on_restore = self._mark_key_dirty
        self.nodes: List[ImplicationNode] = []
        self._watchers: Dict[Hashable, List[ImplicationNode]] = {}
        self._queue: deque = deque()
        self._queued: Set[int] = set()
        self.implication_count = 0
        self.node_evaluations = 0
        # Memoized justification results keyed by the node's pin cubes; the
        # justification test is pure, so identical cubes give identical
        # results.  This makes the repeated unjustified-gate scans of the
        # branch-and-bound search cheap.
        self._justified_cache: Dict[int, Tuple[Tuple[BV3, ...], bool]] = {}
        self.justified_cache_hits = 0
        self.justified_cache_misses = 0
        # Memoized rule evaluations.  Branch-and-bound revisits many
        # identical pin-cube combinations across backtracked branches; rules
        # are pure functions of their cubes, so their results can be reused.
        # Eviction drops the oldest entry (FIFO: dicts preserve insertion
        # order).  An LRU policy was measured and rejected, see README.md.
        self._rule_cache: Dict[int, Dict[Tuple[BV3, ...], List[BV3]]] = {}
        self._rule_cache_limit = 256
        self.rule_cache_hits = 0
        self.rule_cache_misses = 0
        self.rule_cache_evictions = 0
        # Node count at each open decision level, so popping a level also
        # retires the nodes added while it was open.
        self._level_node_marks: List[int] = []
        # Unjustified-frontier state: keys touched since the last refresh,
        # nodes explicitly marked for re-testing (activation toggles), and
        # the persistent frontier itself (id(node) -> node).
        self._dirty_keys: Set[Hashable] = set()
        self._dirty_nodes: Dict[int, ImplicationNode] = {}
        self._unjustified: Dict[int, ImplicationNode] = {}
        #: high-water mark of the frontier size (reportable statistic).
        self.frontier_peak = 0

    # ------------------------------------------------------------------
    def add_node(self, node: ImplicationNode, widths: Optional[Sequence[int]] = None) -> None:
        """Register a node; optionally declare the widths of its keys."""
        self.nodes.append(node)
        if widths is not None:
            for key, width in zip(node.keys, widths):
                self.assignment.register(key, width)
        for key in node.keys:
            self._watchers.setdefault(key, []).append(node)
        self._dirty_nodes[id(node)] = node

    def watchers(self, key: Hashable) -> List[ImplicationNode]:
        """Nodes that read or drive ``key``."""
        return self._watchers.get(key, [])

    # ------------------------------------------------------------------
    def assign(
        self,
        key: Hashable,
        cube: BV3,
        propagate: bool = True,
        reason: Optional[object] = None,
    ) -> bool:
        """Refine ``key`` with ``cube`` and (optionally) propagate to fixpoint.

        Returns ``True`` when new information was added.  Raises
        :class:`ImplicationConflict` on contradiction.  ``reason`` is stored
        on the trail for conflict analysis (see :meth:`analyze_conflict`).
        """
        changed = self.assignment.assign(key, cube, reason)
        if changed:
            self.implication_count += 1
            self._enqueue_watchers(key)
            if propagate:
                self.propagate()
        return changed

    def _enqueue_watchers(self, key: Hashable) -> None:
        # Watchers are already being visited here, so the frontier's dirty
        # marking rides along (only backtrack restores go through the
        # cheaper key set, where no watcher walk happens anyway).
        dirty = self._dirty_nodes
        for node in self._watchers.get(key, []):
            dirty[id(node)] = node
            if not node.active:
                continue
            marker = id(node)
            if marker not in self._queued:
                self._queued.add(marker)
                self._queue.append(node)

    def _mark_key_dirty(self, key: Hashable) -> None:
        """Record a restored key for the next frontier refresh."""
        self._dirty_keys.add(key)

    def mark_dirty(self, nodes: Iterable[ImplicationNode]) -> None:
        """Schedule nodes for frontier re-testing (activation toggles)."""
        dirty = self._dirty_nodes
        for node in nodes:
            dirty[id(node)] = node

    def enqueue(self, nodes: Iterable[ImplicationNode]) -> None:
        """Schedule specific nodes for (re-)evaluation."""
        dirty = self._dirty_nodes
        for node in nodes:
            dirty[id(node)] = node
            if not node.active:
                continue
            marker = id(node)
            if marker not in self._queued:
                self._queued.add(marker)
                self._queue.append(node)

    def propagate(self) -> None:
        """Run the implication worklist to a fixpoint.

        Raises :class:`ImplicationConflict` when any rule detects a
        contradiction; the queue is cleared in that case so the caller can
        backtrack and restart cleanly.
        """
        try:
            while self._queue:
                node = self._queue.popleft()
                self._queued.discard(id(node))
                if node.active:
                    self._evaluate(node)
        except (ImplicationConflict, BV3Conflict) as exc:
            self._queue.clear()
            self._queued.clear()
            if isinstance(exc, ImplicationConflict):
                raise
            raise ImplicationConflict(str(exc)) from exc

    def _evaluate(self, node: ImplicationNode) -> None:
        self.node_evaluations += 1
        cubes = [self.assignment.get(key) for key in node.keys]
        cache = self._rule_cache.setdefault(id(node), {})
        cache_key = tuple(cubes)
        refined = cache.get(cache_key)
        if refined is None:
            self.rule_cache_misses += 1
            try:
                refined = node.rule(cubes)
            except BV3Conflict as exc:
                raise ImplicationConflict(
                    "%s: %s" % (node.name, exc), keys=tuple(node.keys)
                ) from exc
            if len(cache) >= self._rule_cache_limit:
                # Drop only the oldest entry, not the whole cache.
                del cache[next(iter(cache))]
                self.rule_cache_evictions += 1
            cache[cache_key] = refined
        else:
            self.rule_cache_hits += 1
        try:
            for key, old, new in zip(node.keys, cubes, refined):
                if new is old or new == old:
                    continue
                if self.assignment.assign(key, new, node):
                    self.implication_count += 1
                    self._enqueue_watchers(key)
        except ImplicationConflict as exc:
            if exc.keys is None:
                # Attribute the contradiction to the node that derived the
                # incompatible cube, so conflict analysis can walk all of
                # its antecedents (not just the conflicting key's).
                exc.keys = tuple(node.keys)
            raise

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def analyze_conflict(self, conflict: ImplicationConflict, stop_mark: int) -> ConflictAnalysis:
        """Walk the trail backward from ``conflict`` to its external roots.

        ``stop_mark`` bounds the walk: trail entries below it (the shared
        base-model fixpoint) are treated as part of the model, not as
        antecedents.  The walk visits only entries whose key is already
        known to be in the conflict cone, expanding the cone through each
        deriving node's keys -- the standard implication-graph traversal,
        done directly on the restore trail.

        The conflict need not have been raised by this engine: a synthetic
        :class:`ImplicationConflict` seeded with the key core of an external
        refutation (e.g. a datapath-solver infeasibility certificate) is
        analysed identically, since only :attr:`ImplicationConflict.conflict_keys`
        and the trail are consulted.
        """
        assignment = self.assignment
        relevant: Set[Hashable] = set(conflict.conflict_keys)
        analysis = ConflictAnalysis(cone=relevant, opaque=not relevant)
        for index in range(assignment.trail_length - 1, stop_mark - 1, -1):
            key, _previous, reason = assignment.trail_entry(index)
            if key not in relevant:
                continue
            if reason is None:
                analysis.opaque = True
            elif isinstance(reason, RootCause):
                analysis.roots.append(reason)
            else:  # an ImplicationNode: pull its pins into the cone
                relevant.update(reason.keys)
        return analysis

    # ------------------------------------------------------------------
    # Decision level management (delegates to the assignment store)
    # ------------------------------------------------------------------
    def push_level(self) -> None:
        """Open a decision level (see :class:`Assignment`)."""
        self._level_node_marks.append(len(self.nodes))
        self.assignment.push_level()

    def pop_level(self) -> None:
        """Backtrack one decision level, restoring partially implied cubes.

        Nodes added while the level was open are retired: removed from the
        node list, unhooked from their watcher lists and dropped from the
        memoisation caches, together with any queue entries.
        """
        self._queue.clear()
        self._queued.clear()
        if self._level_node_marks:
            mark = self._level_node_marks.pop()
            if len(self.nodes) > mark:
                self._retire_nodes(mark)
        self.assignment.pop_level()

    # ------------------------------------------------------------------
    # Savepoints (retraction across decision levels and node groups)
    # ------------------------------------------------------------------
    def savepoint(self) -> EngineSavepoint:
        """Capture assignment state and node count for :meth:`rollback_to`."""
        return (self.assignment.savepoint(), len(self.nodes))

    def rollback_to(self, savepoint: EngineSavepoint) -> None:
        """Retract everything after ``savepoint``.

        Closes decision levels opened after the savepoint, restores the
        assignment trail, retires nodes added since, and clears the worklist.
        Safe to call after a conflict (the queue is already clear then).
        """
        assignment_savepoint, node_mark = savepoint
        self._queue.clear()
        self._queued.clear()
        if len(self.nodes) > node_mark:
            self._retire_nodes(node_mark)
        # Level node-marks above the savepoint's depth belong to levels that
        # the assignment rollback closes.
        del self._level_node_marks[assignment_savepoint[1]:]
        self.assignment.rollback_to(assignment_savepoint)

    def _retire_nodes(self, mark: int) -> None:
        """Remove (and unhook) every node added after position ``mark``.

        Retirement is stack-disciplined: retired nodes are exactly the tail
        of the node list, so their watcher entries form a suffix of each
        watcher list and can be popped off the end.
        """
        retired = self.nodes[mark:]
        del self.nodes[mark:]
        retired_ids = {id(node) for node in retired}
        keys: Set[Hashable] = set()
        for node in retired:
            keys.update(node.keys)
        for key in keys:
            watchers = self._watchers.get(key)
            while watchers and id(watchers[-1]) in retired_ids:
                watchers.pop()
            if not watchers:
                self._watchers.pop(key, None)
        # Drop memo and frontier entries: id() values may be reused by
        # future node objects.
        for node_id in retired_ids:
            self._rule_cache.pop(node_id, None)
            self._justified_cache.pop(node_id, None)
            self._dirty_nodes.pop(node_id, None)
            self._unjustified.pop(node_id, None)

    # ------------------------------------------------------------------
    # Justification support
    # ------------------------------------------------------------------
    def forward_outputs(self, node: ImplicationNode) -> List[BV3]:
        """Three-valued forward simulation of a node's outputs."""
        num_inputs = len(node.keys) - node.num_outputs
        cubes = [self.assignment.get(key) for key in node.keys[:num_inputs]]
        cubes += [
            BV3.unknown(self.assignment.width(key)) for key in node.keys[num_inputs:]
        ]
        refined = node.rule(cubes)
        return refined[num_inputs:]

    def is_justified(self, node: ImplicationNode) -> bool:
        """The paper's unjustified-gate test.

        A node is justified when its three-valued forward simulation value
        covers every known bit of the required output value(s); i.e. the
        output requirement already follows from the current input cubes.
        """
        cubes = tuple(self.assignment.get(key) for key in node.keys)
        cached = self._justified_cache.get(id(node))
        if cached is not None and cached[0] == cubes:
            self.justified_cache_hits += 1
            return cached[1]
        self.justified_cache_misses += 1
        result = self._compute_justified(node)
        self._justified_cache[id(node)] = (cubes, result)
        return result

    def _compute_justified(self, node: ImplicationNode) -> bool:
        try:
            forward = self.forward_outputs(node)
        except BV3Conflict:
            return False
        for key, simulated in zip(node.output_keys, forward):
            required = self.assignment.get(key)
            if required.is_fully_unknown():
                continue
            if not required.covers(simulated):
                return False
        return True

    def unjustified_nodes(
        self, nodes: Optional[Iterable[ImplicationNode]] = None
    ) -> List[ImplicationNode]:
        """All nodes whose required output is not yet justified (full scan)."""
        candidates = self.nodes if nodes is None else nodes
        result = []
        for node in candidates:
            has_requirement = any(
                self.assignment.is_assigned(key) for key in node.output_keys
            )
            if has_requirement and not self.is_justified(node):
                result.append(node)
        return result

    # ------------------------------------------------------------------
    # Incremental unjustified frontier
    # ------------------------------------------------------------------
    def _refresh_frontier(self) -> None:
        dirty_nodes = self._dirty_nodes
        if self._dirty_keys:
            watchers = self._watchers
            for key in self._dirty_keys:
                for node in watchers.get(key, ()):
                    dirty_nodes[id(node)] = node
            self._dirty_keys.clear()
        if not dirty_nodes:
            return
        unjustified = self._unjustified
        is_assigned = self.assignment.is_assigned
        for marker, node in dirty_nodes.items():
            if (
                node.active
                and any(is_assigned(key) for key in node.output_keys)
                and not self.is_justified(node)
            ):
                unjustified[marker] = node
            else:
                unjustified.pop(marker, None)
        dirty_nodes.clear()
        if len(unjustified) > self.frontier_peak:
            self.frontier_peak = len(unjustified)

    def unjustified_frontier(
        self, order: Dict[int, int]
    ) -> List[ImplicationNode]:
        """The unjustified nodes, incrementally maintained.

        Only nodes whose keys changed since the last query (assignment,
        backtrack restore, activation toggle, addition) are re-tested; the
        result is returned in the caller's canonical order (``order`` maps
        ``id(node)`` to its rank, e.g. the unrolled model's fresh-build node
        order), making the frontier bit-compatible with a full
        :meth:`unjustified_nodes` scan over the same nodes.
        """
        self._refresh_frontier()
        if not self._unjustified:
            return []
        return sorted(self._unjustified.values(), key=lambda node: order[id(node)])
