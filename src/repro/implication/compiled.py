"""Compiled slot-indexed implication kernel.

This is the check-loop counterpart of :mod:`repro.sim.compile`: the same
network of :class:`~repro.implication.engine.ImplicationNode` objects, but
*lowered once* onto flat slot-indexed arrays instead of dict-of-objects
traversal.  Interning happens while the unrolled model is built (and again
incrementally on ``extend_to()``): every variable key gets a dense integer
*slot*, and from then on the hot loop never hashes a ``(net, frame)`` tuple
or constructs a :class:`~repro.bitvector.BV3` --

* the ternary value store is a pair of parallel Python-int lanes
  (``known[slot]`` / ``value[slot]``), refined with the same two bitwise
  operations :meth:`BV3.intersect` performs, minus the object churn;
* watcher lists live in a list-of-lists indexed by slot;
* per-node rule memos are keyed by the flat int signature of the node's
  lanes, which is bijective with the tuple-of-cubes key the interpreted
  engine uses (the slot widths are fixed), so hit/miss/eviction streams --
  and therefore all reported counters -- are *bit-identical*;
* the restore trail, savepoints and the dirty-set frontier operate on slot
  indices, translating back to keys only on the cold paths (conflict
  analysis, trace extraction, diagnostics).

Rules themselves are still the specialised closures built per gate by
:func:`repro.implication.rules.build_rule`; they only run on memo misses
(a few percent of evaluations on search-heavy sweeps), where cubes are
materialised, the rule is applied, and the refinement is re-encoded as int
pairs for cheap replay on every later hit.

The interpreted :class:`~repro.implication.engine.ImplicationEngine` remains
the soundness oracle: both engines expose the same key-based API, make the
same assignments in the same order, raise the same conflicts and report the
same statistics, which ``tests/test_compiled_justify.py`` pins A/B.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bitvector import BV3, BV3Conflict
from repro.implication.assignment import (
    Assignment,
    ImplicationConflict,
    RootCause,
)
from repro.implication.engine import (
    ConflictAnalysis,
    ImplicationEngine,
    ImplicationNode,
)

__all__ = ["CompiledAssignment", "CompiledEngine"]


class CompiledAssignment(Assignment):
    """Slot-indexed ternary assignment store.

    Keys are interned to dense slots on first sight; the cube of slot ``s``
    is the pair ``(_known[s], _value[s])`` with the :class:`BV3` invariant
    ``value & ~known == 0`` maintained throughout.  The public key-based
    API (``get`` / ``assign`` / ``width`` / ``is_assigned`` / trail
    introspection) behaves exactly like the base class -- including error
    messages -- so every layer written against :class:`Assignment` runs
    unchanged on top of the compiled lanes.

    Trail entries are ``(slot, previous_known, previous_value, reason)``
    with ``previous_known == -1`` marking a first assignment (the base
    class stores ``None``); :meth:`trail_entry` translates back to the
    base-class shape.  ``on_restore`` is invoked with the restored *slot*,
    not the key -- the compiled engine is the only intended subscriber.
    """

    __slots__ = (
        "_slot_of",
        "_key_of",
        "_known",
        "_value",
        "_slot_widths",
        "_unknowns",
        "_live",
    )

    def __init__(self):
        super().__init__()
        #: key -> slot interning table (hashing happens only at the edges).
        self._slot_of: Dict[Hashable, int] = {}
        self._key_of: List[Hashable] = []
        #: parallel ternary lanes: known-bit mask and value bits per slot.
        self._known: List[int] = []
        self._value: List[int] = []
        #: declared width per slot (``None`` until registered / assigned).
        self._slot_widths: List[Optional[int]] = []
        #: shared fully-unknown cube per slot (lazy), so ``get`` on an
        #: unassigned slot allocates once, not per call.
        self._unknowns: List[Optional[BV3]] = []
        #: slots with at least one known bit, in base-class ``_values``
        #: insertion order (dict-as-ordered-set), so ``known_keys`` /
        #: ``snapshot`` / ``len`` stay bit-identical to the oracle.
        self._live: Dict[int, None] = {}

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def slot_of(self, key: Hashable) -> int:
        """The slot interned for ``key`` (interning it if new)."""
        slot = self._slot_of.get(key)
        if slot is None:
            slot = len(self._key_of)
            self._slot_of[key] = slot
            self._key_of.append(key)
            self._known.append(0)
            self._value.append(0)
            self._slot_widths.append(None)
            self._unknowns.append(None)
        return slot

    def key_of(self, slot: int) -> Hashable:
        """The key interned at ``slot``."""
        return self._key_of[slot]

    @property
    def num_slots(self) -> int:
        return len(self._key_of)

    # ------------------------------------------------------------------
    # Base API (key-addressed)
    # ------------------------------------------------------------------
    def register(self, key: Hashable, width: int) -> int:
        slot = self.slot_of(key)
        existing = self._slot_widths[slot]
        if existing is not None and existing != width:
            raise ValueError(
                "key %r re-registered with width %d (was %d)" % (key, width, existing)
            )
        self._slot_widths[slot] = width
        return slot

    def width(self, key: Hashable) -> int:
        slot = self._slot_of.get(key)
        if slot is not None:
            width = self._slot_widths[slot]
            if width is not None:
                return width
        raise KeyError(key)

    def get(self, key: Hashable) -> BV3:
        slot = self._slot_of.get(key)
        if slot is None:
            raise KeyError("key %r was never registered" % (key,))
        return self.get_slot(slot)

    def get_slot(self, slot: int) -> BV3:
        """Materialise the cube of ``slot`` as a :class:`BV3`."""
        known = self._known[slot]
        if known:
            return BV3(self._slot_widths[slot], self._value[slot], known)
        unknown = self._unknowns[slot]
        if unknown is None:
            width = self._slot_widths[slot]
            if width is None:
                raise KeyError(
                    "key %r was never registered" % (self._key_of[slot],)
                )
            unknown = self._unknowns[slot] = BV3.unknown(width)
        return unknown

    def unknown_slot(self, slot: int) -> BV3:
        """The shared fully-unknown cube for ``slot``."""
        unknown = self._unknowns[slot]
        if unknown is None:
            unknown = self._unknowns[slot] = BV3.unknown(self._slot_widths[slot])
        return unknown

    def is_assigned(self, key: Hashable) -> bool:
        slot = self._slot_of.get(key)
        return slot is not None and self._known[slot] != 0

    def known_keys(self):
        key_of = self._key_of
        for slot in self._live:
            yield key_of[slot]

    def snapshot(self) -> Dict[Hashable, BV3]:
        key_of = self._key_of
        return {key_of[slot]: self.get_slot(slot) for slot in self._live}

    def assign(self, key: Hashable, cube: BV3, reason: Optional[object] = None) -> bool:
        return self.assign_slot(
            self.slot_of(key), cube.width, cube.value, cube.known, reason
        )

    # ------------------------------------------------------------------
    # Slot-addressed hot path
    # ------------------------------------------------------------------
    def assign_slot(
        self,
        slot: int,
        width: int,
        value: int,
        known: int,
        reason: Optional[object] = None,
    ) -> bool:
        """Refine ``slot`` with the int-encoded cube ``(known, value)``.

        Same semantics (and error messages) as :meth:`Assignment.assign`,
        expressed as the two bitwise operations :meth:`BV3.intersect`
        performs: conflict iff the cubes disagree on a mutually known bit,
        refinement is the bitwise union of knowledge.
        """
        slot_width = self._slot_widths[slot]
        if slot_width is None:
            self._slot_widths[slot] = width
        elif slot_width != width:
            raise ValueError(
                "cube width %d does not match key %r width %d"
                % (width, self._key_of[slot], slot_width)
            )
        current_known = self._known[slot]
        if current_known == 0:
            if known == 0:
                return False
            self._trail.append((slot, -1, 0, reason))
            self._known[slot] = known
            self._value[slot] = value
            self._live[slot] = None
            return True
        current_value = self._value[slot]
        if (current_value ^ value) & current_known & known:
            key = self._key_of[slot]
            raise ImplicationConflict(
                "conflict on %r: %s vs %s"
                % (
                    key,
                    BV3(self._slot_widths[slot], current_value, current_known),
                    BV3(self._slot_widths[slot], value, known),
                ),
                key=key,
            )
        refined_known = current_known | known
        if refined_known == current_known:
            return False
        self._trail.append((slot, current_known, current_value, reason))
        self._known[slot] = refined_known
        self._value[slot] = current_value | value
        return True

    # ------------------------------------------------------------------
    # Trail introspection (translated back to the base-class shape)
    # ------------------------------------------------------------------
    def trail_entry(self, index: int) -> Tuple[Hashable, Optional[BV3], Optional[object]]:
        slot, previous_known, previous_value, reason = self._trail[index]
        key = self._key_of[slot]
        if previous_known < 0:
            return (key, None, reason)
        return (key, BV3(self._slot_widths[slot], previous_value, previous_known), reason)

    def trail_slot_reason(self, index: int) -> Tuple[int, Optional[object]]:
        """The (slot, reason) of a trail entry, without materialisation."""
        entry = self._trail[index]
        return (entry[0], entry[3])

    def _restore_to(self, mark: int) -> None:
        on_restore = self.on_restore
        trail = self._trail
        known = self._known
        value = self._value
        live = self._live
        while len(trail) > mark:
            slot, previous_known, previous_value, _reason = trail.pop()
            if previous_known < 0:
                known[slot] = 0
                value[slot] = 0
                del live[slot]
            else:
                known[slot] = previous_known
                value[slot] = previous_value
            if on_restore is not None:
                on_restore(slot)

    def __len__(self) -> int:
        return len(self._live)


class CompiledEngine(ImplicationEngine):
    """Implication engine running on :class:`CompiledAssignment` lanes.

    Drop-in replacement for :class:`ImplicationEngine`: identical public
    API, assignment order, conflict attribution and statistics counters;
    the difference is purely mechanical (slot arrays instead of dicts of
    objects on every hot path).  ``node.slots`` / ``node.in_slots`` /
    ``node.out_slots`` / ``node.index`` are populated at :meth:`add_node`
    time -- the lowering pass of the compiled kernel.
    """

    def __init__(self, assignment: Optional[CompiledAssignment] = None):
        if assignment is None:
            assignment = CompiledAssignment()
        super().__init__(assignment)
        #: watcher lists indexed by slot (replaces the key-hashed dict).
        self._slot_watchers: List[List[ImplicationNode]] = []
        #: per-node rule memos / justification memos, indexed by node.index
        #: (replaces the id()-keyed dicts).  ``None`` until first touched.
        self._rule_rows: List[Optional[dict]] = []
        self._justified_rows: List[Optional[tuple]] = []
        #: per-node three-valued forward-simulation memos (input signature ->
        #: int-encoded outputs, or ``False`` for a conflicting simulation).
        #: Purely internal: justification *results* stay in
        #: ``_justified_rows`` with oracle-identical hit/miss counting; this
        #: row only makes recomputing a missed result cheap.
        self._forward_rows: List[Optional[dict]] = []
        #: slots restored since the last frontier refresh.  ``on_restore``
        #: binds straight to ``set.add`` -- one C call per restored trail
        #: entry instead of a Python frame (the set itself is never rebound).
        self._dirty_slots: Set[int] = set()
        assignment.on_restore = self._dirty_slots.add

    # ------------------------------------------------------------------
    def add_node(self, node: ImplicationNode, widths: Optional[Sequence[int]] = None) -> None:
        assignment = self.assignment
        if widths is not None:
            slots = [
                assignment.register(key, width)
                for key, width in zip(node.keys, widths)
            ]
        else:
            slots = [assignment.slot_of(key) for key in node.keys]
        node.slots = tuple(slots)
        num_inputs = len(slots) - node.num_outputs
        node.in_slots = node.slots[:num_inputs]
        node.out_slots = node.slots[num_inputs:]
        index = len(self.nodes)
        node.index = index
        self.nodes.append(node)
        watchers = self._slot_watchers
        while len(watchers) < assignment.num_slots:
            watchers.append([])
        for slot in slots:
            watchers[slot].append(node)
        self._rule_rows.append(None)
        self._justified_rows.append(None)
        self._forward_rows.append(None)
        self._dirty_nodes[index] = node

    def watchers(self, key: Hashable) -> List[ImplicationNode]:
        slot = self.assignment._slot_of.get(key)
        if slot is None or slot >= len(self._slot_watchers):
            return []
        return self._slot_watchers[slot]

    # ------------------------------------------------------------------
    def assign(
        self,
        key: Hashable,
        cube: BV3,
        propagate: bool = True,
        reason: Optional[object] = None,
    ) -> bool:
        assignment = self.assignment
        slot = assignment.slot_of(key)
        changed = assignment.assign_slot(
            slot, cube.width, cube.value, cube.known, reason
        )
        if changed:
            self.implication_count += 1
            self._enqueue_watchers_slot(slot)
            if propagate:
                self.propagate()
        return changed

    def _enqueue_watchers(self, key: Hashable) -> None:
        slot = self.assignment._slot_of.get(key)
        if slot is not None:
            self._enqueue_watchers_slot(slot)

    def _enqueue_watchers_slot(self, slot: int) -> None:
        watchers = self._slot_watchers
        if slot >= len(watchers):
            return
        dirty = self._dirty_nodes
        queued = self._queued
        queue = self._queue
        for node in watchers[slot]:
            index = node.index
            dirty[index] = node
            if node.active and index not in queued:
                queued.add(index)
                queue.append(node)

    def _mark_key_dirty(self, slot: int) -> None:
        # ``on_restore`` hands the compiled assignment's *slot* over.
        self._dirty_slots.add(slot)

    def mark_dirty(self, nodes: Iterable[ImplicationNode]) -> None:
        dirty = self._dirty_nodes
        for node in nodes:
            dirty[node.index] = node

    def enqueue(self, nodes: Iterable[ImplicationNode]) -> None:
        dirty = self._dirty_nodes
        queued = self._queued
        queue = self._queue
        for node in nodes:
            index = node.index
            dirty[index] = node
            if node.active and index not in queued:
                queued.add(index)
                queue.append(node)

    def propagate(self) -> None:
        # The worklist drain is THE hot loop of a check: the evaluation fast
        # path (signature build, memo hit, no-op replay) is inlined here with
        # counters batched in locals, falling back to :meth:`_evaluate` only
        # for entries that actually refine a pin.  Counter semantics are
        # identical to the interpreted engine's; the batching is written
        # back in ``finally`` so conflicts observe exact totals too.
        queue = self._queue
        queued = self._queued
        assignment = self.assignment
        known = assignment._known
        value = assignment._value
        trail = assignment._trail
        live = assignment._live
        rule_rows = self._rule_rows
        watchers = self._slot_watchers
        num_watched = len(watchers)
        dirty = self._dirty_nodes
        evaluations = hits = misses = implications = 0
        try:
            while queue:
                node = queue.popleft()
                queued.discard(node.index)
                if not node.active:
                    continue
                evaluations += 1
                slots = node.slots
                signature = (
                    *map(known.__getitem__, slots),
                    *map(value.__getitem__, slots),
                )
                cache = rule_rows[node.index]
                if cache is None:
                    cache = rule_rows[node.index] = {}
                entry = cache.get(signature)
                if entry is None:
                    misses += 1
                    entry = self._miss_evaluate(node, cache, signature)
                else:
                    hits += 1
                refined = entry[0]
                if entry[1]:
                    continue  # memoised no-op: every pin would be skipped
                num_pins = len(slots)
                for position in range(num_pins):
                    pair = refined[position]
                    new_known = pair[0]
                    # Skip pins unchanged w.r.t. the value *read for the
                    # memo key* (the interpreted engine compares against the
                    # same snapshot); duplicate pins re-read the live lane
                    # below, exactly like a second assign call would.
                    if (
                        new_known == signature[position]
                        and pair[1] == signature[num_pins + position]
                    ):
                        continue
                    slot = slots[position]
                    new_value = pair[1]
                    current_known = known[slot]
                    if current_known == 0:
                        if new_known == 0:
                            continue
                        trail.append((slot, -1, 0, node))
                        known[slot] = new_known
                        value[slot] = new_value
                        live[slot] = None
                    else:
                        current_value = value[slot]
                        if (current_value ^ new_value) & current_known & new_known:
                            slot_width = assignment._slot_widths[slot]
                            key = assignment._key_of[slot]
                            raise ImplicationConflict(
                                "conflict on %r: %s vs %s"
                                % (
                                    key,
                                    BV3(slot_width, current_value, current_known),
                                    BV3(slot_width, new_value, new_known),
                                ),
                                key=key,
                                keys=tuple(node.keys),
                            )
                        refined_known = current_known | new_known
                        if refined_known == current_known:
                            continue
                        trail.append((slot, current_known, current_value, node))
                        known[slot] = refined_known
                        value[slot] = current_value | new_value
                    implications += 1
                    if slot < num_watched:
                        for watcher in watchers[slot]:
                            windex = watcher.index
                            dirty[windex] = watcher
                            if watcher.active and windex not in queued:
                                queued.add(windex)
                                queue.append(watcher)
        except (ImplicationConflict, BV3Conflict) as exc:
            queue.clear()
            queued.clear()
            if isinstance(exc, ImplicationConflict):
                raise
            raise ImplicationConflict(str(exc)) from exc
        finally:
            self.node_evaluations += evaluations
            self.rule_cache_hits += hits
            self.rule_cache_misses += misses
            self.implication_count += implications

    # ------------------------------------------------------------------
    def _evaluate(self, node: ImplicationNode) -> None:
        self.node_evaluations += 1
        assignment = self.assignment
        known = assignment._known
        value = assignment._value
        slots = node.slots
        # Flat int signature of the node's lanes: bijective with the
        # interpreted engine's tuple-of-cubes memo key (widths are fixed),
        # so the hit/miss/eviction stream is identical.
        signature = (*map(known.__getitem__, slots), *map(value.__getitem__, slots))
        index = node.index
        cache = self._rule_rows[index]
        if cache is None:
            cache = self._rule_rows[index] = {}
        entry = cache.get(signature)
        if entry is None:
            self.rule_cache_misses += 1
            entry = self._miss_evaluate(node, cache, signature)
        else:
            self.rule_cache_hits += 1
        refined, noop = entry
        if noop:
            # The memoised refinement equals its own input signature: the
            # interpreted engine would skip every pin, so skip the loop.
            return
        self._apply_refinement(node, signature, refined)

    def _apply_refinement(
        self,
        node: ImplicationNode,
        signature: Tuple[int, ...],
        refined: Tuple[Tuple[int, int], ...],
    ) -> None:
        assignment = self.assignment
        known = assignment._known
        value = assignment._value
        slots = node.slots
        num_pins = len(slots)
        trail = assignment._trail
        live = assignment._live
        # Watcher notification is inlined (the second-hottest call after
        # evaluation itself); ``implication_count`` is batched in a local.
        watchers = self._slot_watchers
        num_watched = len(watchers)
        dirty = self._dirty_nodes
        queued = self._queued
        queue = self._queue
        implications = 0
        try:
            for position in range(num_pins):
                pair = refined[position]
                new_known = pair[0]
                # Skip pins unchanged w.r.t. the value *read for the memo key*
                # (the interpreted engine compares against the same snapshot);
                # duplicate pins re-read the live lane below, exactly like a
                # second Assignment.assign call would.
                if new_known == signature[position] and pair[1] == signature[num_pins + position]:
                    continue
                slot = slots[position]
                new_value = pair[1]
                current_known = known[slot]
                if current_known == 0:
                    if new_known == 0:
                        continue
                    trail.append((slot, -1, 0, node))
                    known[slot] = new_known
                    value[slot] = new_value
                    live[slot] = None
                else:
                    current_value = value[slot]
                    if (current_value ^ new_value) & current_known & new_known:
                        slot_width = assignment._slot_widths[slot]
                        key = assignment._key_of[slot]
                        raise ImplicationConflict(
                            "conflict on %r: %s vs %s"
                            % (
                                key,
                                BV3(slot_width, current_value, current_known),
                                BV3(slot_width, new_value, new_known),
                            ),
                            key=key,
                            keys=tuple(node.keys),
                        )
                    refined_known = current_known | new_known
                    if refined_known == current_known:
                        continue
                    trail.append((slot, current_known, current_value, node))
                    known[slot] = refined_known
                    value[slot] = current_value | new_value
                implications += 1
                if slot < num_watched:
                    for watcher in watchers[slot]:
                        windex = watcher.index
                        dirty[windex] = watcher
                        if watcher.active and windex not in queued:
                            queued.add(windex)
                            queue.append(watcher)
        finally:
            self.implication_count += implications

    def _miss_evaluate(
        self, node: ImplicationNode, cache: dict, signature: Tuple[int, ...]
    ) -> Tuple[Tuple[Tuple[int, int], ...], bool]:
        """Memo miss: materialise cubes, run the rule, re-encode as ints.

        Returns ``(refined pairs, noop)`` where ``noop`` marks evaluations
        whose refinement equals the input signature -- the common fixpoint
        re-visit, which later hits replay without touching any pin.
        """
        assignment = self.assignment
        slot_widths = assignment._slot_widths
        slots = node.slots
        num_pins = len(slots)
        cubes = [
            BV3(slot_widths[slots[i]], signature[num_pins + i], signature[i])
            if signature[i]
            else assignment.unknown_slot(slots[i])
            for i in range(num_pins)
        ]
        try:
            out = node.rule(cubes)
        except BV3Conflict as exc:
            # Conflicting evaluations are never cached (the interpreted
            # engine's exception propagates before the memo store).
            raise ImplicationConflict(
                "%s: %s" % (node.name, exc), keys=tuple(node.keys)
            ) from exc
        refined: List[Tuple[int, int]] = []
        for i in range(num_pins):
            cube = out[i]
            slot = slots[i]
            width = slot_widths[slot]
            if width is None:
                slot_widths[slot] = cube.width
            elif cube.width != width:
                raise ValueError(
                    "cube width %d does not match key %r width %d"
                    % (cube.width, assignment._key_of[slot], width)
                )
            refined.append((cube.known, cube.value))
        noop = True
        for i in range(num_pins):
            pair = refined[i]
            if pair[0] != signature[i] or pair[1] != signature[num_pins + i]:
                noop = False
                break
        result = (tuple(refined), noop)
        if len(cache) >= self._rule_cache_limit:
            del cache[next(iter(cache))]
            self.rule_cache_evictions += 1
        cache[signature] = result
        return result

    # ------------------------------------------------------------------
    # Conflict analysis on raw slot trail entries (no BV3 materialisation)
    # ------------------------------------------------------------------
    def analyze_conflict(self, conflict: ImplicationConflict, stop_mark: int) -> ConflictAnalysis:
        assignment = self.assignment
        slot_of = assignment._slot_of
        key_of = assignment._key_of
        cone: Set[Hashable] = set(conflict.conflict_keys)
        analysis = ConflictAnalysis(cone=cone, opaque=not cone)
        relevant: Set[int] = {slot_of[key] for key in cone if key in slot_of}
        trail = assignment._trail
        roots = analysis.roots
        for index in range(len(trail) - 1, stop_mark - 1, -1):
            entry = trail[index]
            if entry[0] not in relevant:
                continue
            reason = entry[3]
            if reason is None:
                analysis.opaque = True
            elif isinstance(reason, RootCause):
                roots.append(reason)
            else:  # an ImplicationNode: pull its pins into the cone
                for slot in reason.slots:
                    if slot not in relevant:
                        relevant.add(slot)
                        cone.add(key_of[slot])
        return analysis

    # ------------------------------------------------------------------
    def _retire_nodes(self, mark: int) -> None:
        retired = self.nodes[mark:]
        del self.nodes[mark:]
        slot_watchers = self._slot_watchers
        seen: Set[int] = set()
        for node in retired:
            for slot in node.slots:
                if slot in seen:
                    continue
                seen.add(slot)
                watchers = slot_watchers[slot]
                while watchers and watchers[-1].index >= mark:
                    watchers.pop()
        del self._rule_rows[mark:]
        del self._justified_rows[mark:]
        del self._forward_rows[mark:]
        for container in (self._dirty_nodes, self._unjustified):
            stale = [index for index in container if index >= mark]
            for index in stale:
                del container[index]

    # ------------------------------------------------------------------
    # Justification support
    # ------------------------------------------------------------------
    def forward_outputs(self, node: ImplicationNode) -> List[BV3]:
        assignment = self.assignment
        cubes = [assignment.get_slot(slot) for slot in node.in_slots]
        cubes += [assignment.unknown_slot(slot) for slot in node.out_slots]
        refined = node.rule(cubes)
        return refined[len(node.in_slots):]

    def is_justified(self, node: ImplicationNode) -> bool:
        assignment = self.assignment
        known = assignment._known
        value = assignment._value
        slots = node.slots
        signature = (*map(known.__getitem__, slots), *map(value.__getitem__, slots))
        index = node.index
        cached = self._justified_rows[index]
        if cached is not None and cached[0] == signature:
            self.justified_cache_hits += 1
            return cached[1]
        self.justified_cache_misses += 1
        result = self._compute_justified(node)
        self._justified_rows[index] = (signature, result)
        return result

    def _compute_justified(self, node: ImplicationNode) -> bool:
        assignment = self.assignment
        known = assignment._known
        value = assignment._value
        in_slots = node.in_slots
        in_signature = (
            *map(known.__getitem__, in_slots),
            *map(value.__getitem__, in_slots),
        )
        index = node.index
        row = self._forward_rows[index]
        if row is None:
            row = self._forward_rows[index] = {}
        forward = row.get(in_signature)
        if forward is None:
            try:
                simulated = self.forward_outputs(node)
            except BV3Conflict:
                forward = False
            else:
                forward = tuple((cube.known, cube.value) for cube in simulated)
            if len(row) >= self._rule_cache_limit:
                del row[next(iter(row))]
            row[in_signature] = forward
        if forward is False:
            return False
        for slot, (forward_known, forward_value) in zip(node.out_slots, forward):
            required_known = known[slot]
            if required_known == 0:
                continue
            # required.covers(simulated) at the int level.
            if required_known & ~forward_known:
                return False
            if (value[slot] ^ forward_value) & required_known:
                return False
        return True

    # ------------------------------------------------------------------
    # Incremental unjustified frontier
    # ------------------------------------------------------------------
    def _refresh_frontier(self) -> None:
        dirty_nodes = self._dirty_nodes
        if self._dirty_slots:
            slot_watchers = self._slot_watchers
            num_watched = len(slot_watchers)
            for slot in self._dirty_slots:
                if slot < num_watched:
                    for node in slot_watchers[slot]:
                        dirty_nodes[node.index] = node
            self._dirty_slots.clear()
        if not dirty_nodes:
            return
        unjustified = self._unjustified
        known = self.assignment._known
        for marker, node in dirty_nodes.items():
            if node.active:
                has_requirement = False
                for slot in node.out_slots:
                    if known[slot]:
                        has_requirement = True
                        break
                if has_requirement and not self.is_justified(node):
                    unjustified[marker] = node
                    continue
            unjustified.pop(marker, None)
        dirty_nodes.clear()
        if len(unjustified) > self.frontier_peak:
            self.frontier_peak = len(unjustified)

