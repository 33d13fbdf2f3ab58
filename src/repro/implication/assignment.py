"""Three-valued assignment store with decision levels and a restore trail.

Unlike bit-level ATPG, where a backtracked signal simply returns to ``x``, a
word-level signal may have been refined several times before the decision
being undone; the store therefore records, per decision level, the previous
cube of every signal it changes and restores those cubes on backtrack
(Section 3.1, last paragraph).

Every trail entry also carries the *reason* of the refinement: the
implication node that derived it, or a :class:`RootCause` describing an
external assignment (a search decision, an environment constraint, the
property goal, an initial-state value...).  Walking the trail backward from
a conflict therefore recovers the set of external facts that produced it --
the basis of the conflict lifting in :mod:`repro.atpg.justify`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.bitvector import BV3, BV3Conflict

#: Opaque savepoint handle: (trail length, number of open decision levels).
Savepoint = Tuple[int, int]


class RootCause:
    """External (non-implied) cause of an assignment.

    ``kind`` classifies the origin so conflict analysis can decide whether a
    learned fact is reusable:

    * ``"decision"`` -- a branch-and-bound decision (becomes a cube literal);
    * ``"env"`` -- an environment constraint (asserted in every frame of
      every check sharing the model, so it never needs to be recorded);
    * ``"goal"`` -- the property goal at the target frame (facts depending
      on it are only reusable for the same property, re-based to the new
      target);
    * ``"base"`` -- part of the base model (initial state values);
    * ``"solver"`` -- a datapath solver solution assigned at a search
      leaf.  It is kept only when it justifies every gate, and rolled back
      before the leaf branches otherwise, so no conflict analysis ever
      meets it.  A proved :class:`~repro.modsolver.result.Infeasible`
      answer assigns nothing: the certificate is seeded from the clashing
      keys directly and analysed like any implication conflict.
    """

    __slots__ = ("kind", "key", "cube")

    def __init__(self, kind: str, key: Optional[Hashable] = None, cube: Optional[BV3] = None):
        self.kind = kind
        self.key = key
        self.cube = cube

    def __repr__(self) -> str:
        return "RootCause(%s, %r)" % (self.kind, self.key)


class ImplicationConflict(Exception):
    """Raised when an implication contradicts the current assignment.

    Also constructed *synthetically* (never raised) by the justifier to
    seed conflict analysis with the key core of a datapath-solver
    infeasibility certificate -- the analysis only consumes
    :attr:`conflict_keys`, so a refutation found outside the implication
    engine is traced exactly like one found inside it.
    """

    def __init__(
        self,
        message: str,
        key: Optional[Hashable] = None,
        keys: Optional[Tuple[Hashable, ...]] = None,
    ):
        super().__init__(message)
        self.key = key
        #: keys of the node whose rule detected the contradiction (seeds of
        #: the antecedent walk); falls back to ``(key,)`` when the conflict
        #: surfaced in a direct cube intersection.
        self.keys = keys

    @property
    def conflict_keys(self) -> Tuple[Hashable, ...]:
        """Keys seeding the backward antecedent walk."""
        if self.keys is not None:
            return tuple(self.keys)
        if self.key is not None:
            return (self.key,)
        return ()


class Assignment:
    """Maps variable keys to three-valued cubes, with chronological backtracking.

    A *key* is any hashable object; the unrolled model uses ``(net, frame)``
    tuples.  The width of a key is fixed the first time it is assigned or
    registered via :meth:`register`.

    Besides plain chronological decision levels, the store supports
    :meth:`savepoint` / :meth:`rollback_to`: a savepoint may be taken while
    levels are already open, and rolling back to it also closes every level
    opened after it.  The incremental checker uses this to retract a whole
    per-bound goal (including the search's decision stack) in one step.

    ``on_restore`` (when set) is invoked with every key whose cube is
    restored by :meth:`pop_level` / :meth:`rollback_to`; the implication
    engine uses it to keep the unjustified-node frontier in sync with
    backtracking at O(changed keys) cost.
    """

    __slots__ = ("_values", "_widths", "_trail", "_level_marks", "on_restore")

    def __init__(self):
        self._values: Dict[Hashable, BV3] = {}
        self._widths: Dict[Hashable, int] = {}
        # Each trail entry is (key, previous cube or None when first
        # assigned, reason or None).
        self._trail: List[Tuple[Hashable, Optional[BV3], Optional[object]]] = []
        self._level_marks: List[int] = []
        #: optional callback invoked with each restored key on backtrack.
        self.on_restore: Optional[Callable[[Hashable], None]] = None

    # ------------------------------------------------------------------
    def register(self, key: Hashable, width: int) -> None:
        """Declare a key's width without assigning it a value."""
        existing = self._widths.get(key)
        if existing is not None and existing != width:
            raise ValueError("key %r re-registered with width %d (was %d)" % (key, width, existing))
        self._widths[key] = width

    def width(self, key: Hashable) -> int:
        """Width of a registered key."""
        return self._widths[key]

    def get(self, key: Hashable) -> BV3:
        """Current cube of ``key`` (fully unknown if never assigned)."""
        value = self._values.get(key)
        if value is not None:
            return value
        width = self._widths.get(key)
        if width is None:
            raise KeyError("key %r was never registered" % (key,))
        return BV3.unknown(width)

    def is_assigned(self, key: Hashable) -> bool:
        """True when at least one bit of ``key`` is known."""
        value = self._values.get(key)
        return value is not None and not value.is_fully_unknown()

    def known_keys(self) -> Iterator[Hashable]:
        """Keys with at least one known bit."""
        for key, value in self._values.items():
            if not value.is_fully_unknown():
                yield key

    def snapshot(self) -> Dict[Hashable, BV3]:
        """A copy of all current (partially) known values."""
        return dict(self._values)

    # ------------------------------------------------------------------
    def assign(self, key: Hashable, cube: BV3, reason: Optional[object] = None) -> bool:
        """Refine ``key`` with ``cube`` (cube intersection).

        Returns ``True`` when new information was added, ``False`` when the
        cube was already implied.  Raises :class:`ImplicationConflict` when
        the refinement contradicts the current value.  ``reason`` (an
        implication node or a :class:`RootCause`) is recorded on the trail
        for conflict analysis.
        """
        width = self._widths.get(key)
        if width is None:
            self._widths[key] = cube.width
        elif width != cube.width:
            raise ValueError(
                "cube width %d does not match key %r width %d" % (cube.width, key, width)
            )
        current = self._values.get(key)
        if current is None:
            if cube.is_fully_unknown():
                return False
            self._trail.append((key, None, reason))
            self._values[key] = cube
            return True
        try:
            refined = current.intersect(cube)
        except BV3Conflict as exc:
            raise ImplicationConflict(
                "conflict on %r: %s vs %s" % (key, current, cube), key=key
            ) from exc
        if refined == current:
            return False
        self._trail.append((key, current, reason))
        self._values[key] = refined
        return True

    # ------------------------------------------------------------------
    # Conflict analysis support
    # ------------------------------------------------------------------
    @property
    def trail_length(self) -> int:
        """Current trail position (usable as a walk boundary)."""
        return len(self._trail)

    def trail_entry(self, index: int) -> Tuple[Hashable, Optional[BV3], Optional[object]]:
        """The (key, previous cube, reason) record at trail position ``index``."""
        return self._trail[index]

    # ------------------------------------------------------------------
    # Decision levels
    # ------------------------------------------------------------------
    @property
    def decision_level(self) -> int:
        """Current decision depth (0 = no decisions made)."""
        return len(self._level_marks)

    def push_level(self) -> None:
        """Open a new decision level."""
        self._level_marks.append(len(self._trail))

    def pop_level(self) -> None:
        """Undo every refinement made since the last :meth:`push_level`.

        Signals return to their *previous partially implied* cubes, not to
        fully unknown.
        """
        if not self._level_marks:
            raise RuntimeError("pop_level called with no open decision level")
        self._restore_to(self._level_marks.pop())

    def pop_all_levels(self) -> None:
        """Return to decision level 0."""
        while self._level_marks:
            self.pop_level()

    def _restore_to(self, mark: int) -> None:
        on_restore = self.on_restore
        while len(self._trail) > mark:
            key, previous, _reason = self._trail.pop()
            if previous is None:
                del self._values[key]
            else:
                self._values[key] = previous
            if on_restore is not None:
                on_restore(key)

    # ------------------------------------------------------------------
    # Savepoints (retraction across decision levels)
    # ------------------------------------------------------------------
    def savepoint(self) -> Savepoint:
        """Capture the current trail position and decision depth.

        Unlike :meth:`push_level`, a savepoint can be taken *below*
        already-open decision levels and rolled back to while further levels
        are open: :meth:`rollback_to` closes every level opened after the
        savepoint before restoring the trail.
        """
        return (len(self._trail), len(self._level_marks))

    def rollback_to(self, savepoint: Savepoint) -> None:
        """Undo every refinement (and close every level) after ``savepoint``."""
        trail_mark, level_depth = savepoint
        if trail_mark > len(self._trail) or level_depth > len(self._level_marks):
            raise RuntimeError(
                "stale savepoint %r (trail=%d, levels=%d)"
                % (savepoint, len(self._trail), len(self._level_marks))
            )
        del self._level_marks[level_depth:]
        self._restore_to(trail_mark)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return "Assignment(%d assigned, level=%d)" % (len(self._values), self.decision_level)
