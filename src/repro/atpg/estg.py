"""Extended State Transition Graph (ESTG) learning.

The paper records, in an extended state transition graph, abstract state
transitions that were found illegal or hard to reach during the search, and
reuses that information in subsequent ATPG runs to prune the decision space.

Every fact our ESTG keeps is a sound theorem about the model:

* *learned cubes* (:class:`LearnedCube`) -- conflict-lifted combinations of
  search decisions (and datapath-solver certificates) proven contradictory
  when a search subtree fails, this reproduction's form of the paper's
  illegal state cubes; learned cubes prune the search as constraint nodes;
* a *proven-FAIL target memo* -- (property, target frame) pairs whose whole
  justification search failed, so re-checking the same target at a deeper
  bound can skip the search entirely.

A datapath-solver infeasibility certificate needs no store of its own: it is
analysed like an implication conflict, so it leaves a ``"datapath"`` cube,
and the search it closes leaves a proven-FAIL memo.  Both replay it.

The graph rides a cached :class:`~repro.atpg.timeframe.UnrolledModel` (see
:mod:`repro.checker.incremental`), so its facts persist across *bounds*,
*properties* and *checker instances*, which is where the cross-bound
speed-up materialises.  With a knowledge base attached (:mod:`repro.kb`) they
also persist across *processes*: cubes and memos are flushed to a sqlite
store on checker teardown and merged back into the graph of any later model
with the same structural fingerprint (see ``docs/knowledge-base.md``).

States proven unreachable by local FSM analysis are not kept here either:
they are design facts, not search results, so under ``--fsm-guidance`` the
checker asserts them in every frame of each bound as constraint nodes of
their own, next to the environment pins (see
:func:`repro.analysis.fsm.unreachable_state_cubes`).  Learned cubes derived
from them are theorems like any other, because the model and the knowledge
base both key on the initial state the FSM reachability starts from.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.atpg.statehash import hash_cube_literals
from repro.bitvector import BV3
from repro.records import Record


#: One learned-cube literal: (net, frame position, required value cube).
#: For shiftable cubes the frame position is an offset relative to the
#: target frame (<= 0); for absolute cubes it is the frame index itself.
CubeLiteral = Tuple[object, int, BV3]


class LearnedCube(Record):
    """A conflict-lifted combination of assignments proven contradictory.

    The cube asserts that the conjunction of its literals (under the model's
    environment, and -- when ``prop_fp`` is set -- the property goal at the
    target frame) cannot be extended to a justification.  ``shiftable``
    cubes index their literals relative to the target frame and are *re-based*
    when the target moves: a fact derived at bound ``k`` whose implication
    cone stayed clear of the initial state holds at every later bound with
    all frames shifted by the bound difference.  Non-shiftable cubes (their
    derivation touched initial-state values) keep absolute frame indices.
    """

    literals: Tuple[CubeLiteral, ...]
    #: literal positions are target-relative offsets (True) or absolute
    #: frame indices (False).
    shiftable: bool
    #: lowest frame touched by the derivation cone, in the same indexing as
    #: the literals; anchoring the cube must keep it >= 0.
    min_position: int
    #: highest frame touched by the derivation cone (same indexing).
    max_position: int
    #: property fingerprint when the goal participated in the derivation;
    #: ``None`` marks a property-independent fact.
    prop_fp: Optional[object] = None
    #: how the cube was derived: "resolution" (subtree conflict resolution)
    #: or "datapath" (a modular-solver infeasibility certificate
    #: participated in the derivation).  Knowledge-base stores may also
    #: carry "state" cubes written by older versions; they load and prune
    #: like any other.
    source: str = "resolution"
    hits: int = 0
    #: store fingerprint, set on recording (None for session-only cubes);
    #: lets a constraint-node fire refresh the cube's LRU position.
    fingerprint: Optional[int] = None
    #: True for cubes installed from the persistent knowledge base rather
    #: than learned in this process; their fires count as ``kb_hits``.
    from_kb: bool = False

    def __init__(self, literals: Tuple[CubeLiteral, ...], shiftable: bool,
                 min_position: int, max_position: int, prop_fp: Optional[object] = None,
                 source: str = "resolution", hits: int = 0,
                 fingerprint: Optional[int] = None, from_kb: bool = False):
        self.literals = literals
        self.shiftable = shiftable
        self.min_position = min_position
        self.max_position = max_position
        self.prop_fp = prop_fp
        self.source = source
        self.hits = hits
        self.fingerprint = fingerprint
        self.from_kb = from_kb

    def anchor(self, target_frame: int) -> Optional[List[Tuple[object, int, BV3]]]:
        """The literals re-based to ``target_frame`` ((net, frame, cube)).

        Returns ``None`` when the cube does not apply at this target (its
        derivation cone would leave the unrolled window).
        """
        if self.shiftable:
            if target_frame + self.min_position < 0:
                return None
            return [
                (net, target_frame + offset, cube) for net, offset, cube in self.literals
            ]
        if self.max_position > target_frame:
            return None
        return [(net, position, cube) for net, position, cube in self.literals]


class ExtendedStateTransitionGraph:
    """Learned cubes and proven-FAIL memos of one unrolled model."""

    def __init__(self, max_learned_cubes: int = 256):
        self.max_learned_cubes = max_learned_cubes
        #: fingerprint -> learned cube, in recency order (LRU eviction).
        self.learned_cubes: "OrderedDict[int, LearnedCube]" = OrderedDict()
        #: (property fingerprint, target frame) pairs whose justification
        #: search was proven to FAIL on this model.
        self.proven_fail_targets: Set[Tuple[object, int]] = set()
        self.cubes_learned = 0
        self.cubes_lifted = 0
        self.cube_hits = 0
        #: cubes whose derivation used a datapath infeasibility certificate,
        #: and the constraint-node fires attributable to them.
        self.datapath_cubes_learned = 0
        self.datapath_cube_hits = 0
        #: cubes merged in from the persistent knowledge base (see
        #: :mod:`repro.kb`) and the constraint-node fires / memo skips
        #: attributable to knowledge-base facts.
        self.kb_cubes_loaded = 0
        self.kb_hits = 0
        #: proven-FAIL memo entries that came from the knowledge base, so
        #: memo skips can be attributed to it.
        self.kb_fail_targets: Set[Tuple[object, int]] = set()
        #: the installed cube that raised the most recent conflict, consumed
        #: by conflict analysis so derived facts inherit its provenance.
        self.last_fired: Optional[LearnedCube] = None

    # ------------------------------------------------------------------
    # Persistent cross-bound learning
    # ------------------------------------------------------------------
    def record_learned_cube(self, cube: LearnedCube, lifted: bool = False) -> bool:
        """Insert a learned cube, deduplicating by literal fingerprint.

        Returns ``True`` when the cube is new.  The store is an LRU bounded
        by ``max_learned_cubes``; re-recording (or hitting -- see
        :meth:`touch`) an existing cube refreshes its position.
        """
        # The shiftability/property scope is folded into the FNV-1a input
        # (not via built-in hash(), which is per-process randomized), so
        # fingerprints stay stable across processes like hash_cube_literals
        # promises.
        fingerprint = hash_cube_literals(
            [(self._literal_name(net), position, value)
             for net, position, value in cube.literals]
            + [("\x00scope=%r/%r" % (cube.shiftable, cube.prop_fp), 0, "")]
        )
        existing = self.learned_cubes.get(fingerprint)
        if existing is not None:
            self.learned_cubes.move_to_end(fingerprint)
            return False
        cube.fingerprint = fingerprint
        self.learned_cubes[fingerprint] = cube
        self.cubes_learned += 1
        if cube.source == "datapath":
            self.datapath_cubes_learned += 1
        if lifted:
            self.cubes_lifted += 1
        while len(self.learned_cubes) > self.max_learned_cubes:
            self.learned_cubes.popitem(last=False)
        return True

    def touch(self, cube: LearnedCube) -> None:
        """Refresh a stored cube's LRU position (called when it fires).

        A firing cube prunes exactly the re-derivation that would re-record
        it, so without this the hottest cubes would be the first evicted at
        capacity.
        """
        if cube.fingerprint is not None and cube.fingerprint in self.learned_cubes:
            self.learned_cubes.move_to_end(cube.fingerprint)

    def adopt_kb_cube(self, cube: LearnedCube, fingerprint: int) -> bool:
        """Install a cube loaded from the persistent knowledge base.

        Unlike :meth:`record_learned_cube` this neither counts as learning
        nor recomputes the fingerprint (the store saved the one computed at
        recording time, so re-derived cubes deduplicate against loaded
        ones).  Merge semantics: an already-present cube keeps its identity
        but takes the maximum of the two hit counters.  Returns ``True``
        when the cube was newly installed, ``False`` on merge or when the
        store is at capacity (the load never evicts live cubes).
        """
        existing = self.learned_cubes.get(fingerprint)
        if existing is not None:
            existing.hits = max(existing.hits, cube.hits)
            return False
        if len(self.learned_cubes) >= self.max_learned_cubes:
            return False
        cube.fingerprint = fingerprint
        cube.from_kb = True
        self.learned_cubes[fingerprint] = cube
        self.kb_cubes_loaded += 1
        return True

    def adopt_kb_fail(self, prop_fp: object, target_frame: int) -> bool:
        """Install a proven-FAIL memo entry loaded from the knowledge base.

        Returns ``True`` when the pair was new; loaded pairs are also
        remembered in :attr:`kb_fail_targets` so memo skips they cause are
        attributed to the knowledge base (``kb_hits``).
        """
        pair = (prop_fp, target_frame)
        self.kb_fail_targets.add(pair)
        if pair in self.proven_fail_targets:
            return False
        self.proven_fail_targets.add(pair)
        return True

    @staticmethod
    def _literal_name(net: object) -> str:
        name = getattr(net, "name", None)
        return name if name is not None else repr(net)

    def applicable_cubes(self, prop_fp: object) -> Iterator[LearnedCube]:
        """Learned cubes usable for a search of property ``prop_fp``.

        Property-independent cubes apply everywhere; property-tagged cubes
        only to the same property.  Anchoring to a target frame (and the
        window check) is the caller's job via :meth:`LearnedCube.anchor`.
        """
        for cube in self.learned_cubes.values():
            if cube.prop_fp is None or cube.prop_fp == prop_fp:
                yield cube

    def record_proven_fail(self, prop_fp: object, target_frame: int) -> None:
        """Memoise a justification search that FAILed (no abort)."""
        self.proven_fail_targets.add((prop_fp, target_frame))

    def is_proven_fail(self, prop_fp: object, target_frame: int) -> bool:
        """True when this (property, target) search is already proven FAIL."""
        return (prop_fp, target_frame) in self.proven_fail_targets

    def stats(self) -> Dict[str, int]:
        """Counters for reporting and the ablation bench."""
        return {
            "learned_cubes": len(self.learned_cubes),
            "cubes_learned": self.cubes_learned,
            "cubes_lifted": self.cubes_lifted,
            "cube_hits": self.cube_hits,
            "datapath_cubes_learned": self.datapath_cubes_learned,
            "datapath_cube_hits": self.datapath_cube_hits,
            "proven_fail_targets": len(self.proven_fail_targets),
            "kb_cubes_loaded": self.kb_cubes_loaded,
            "kb_hits": self.kb_hits,
        }

    def __repr__(self) -> str:
        return "ExtendedStateTransitionGraph(%d learned cubes, %d proven-FAIL targets)" % (
            len(self.learned_cubes),
            len(self.proven_fail_targets),
        )
