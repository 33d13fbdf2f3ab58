"""Typed results for the modular datapath solver stack.

Historically every layer of the solver (linear system, non-linear
enumeration, extracted arithmetic problem) answered with ``Optional[...]``,
which conflated two very different ``None``\\ s:

* the system is **proved infeasible** -- a theorem about the constraints,
  safe to learn from; and
* the **search budget ran out** -- says nothing about the constraints, so
  nothing may be learned and the caller may only prune *this* branch.

The distinction is load-bearing for the conflict-learning layer riding the
ATPG search: learning from a budget-exhausted "no" would install unsound
cubes.  The three result types below make the distinction explicit:

* :class:`Solution` -- a satisfying assignment was found;
* :class:`Infeasible` -- the constraints are contradictory; ``core`` carries
  the *infeasibility certificate*: the provenance tags of a (minimal-ish)
  set of source constraints that already clash.  When the solver runs
  inside the justifier those tags are implication-engine keys, and seeding
  conflict analysis with them lifts the certificate down to the search
  decisions that produced the clashing values;
* :class:`Unknown` -- the solver gave up (budget exhausted, incomplete
  enumeration, heuristic closure).  Callers must treat this as "prune
  locally, learn nothing".

``Infeasible`` and ``Unknown`` are falsy and ``Solution`` (and the linear
solver's :class:`~repro.modsolver.linear.ModularSolutionSet`) truthy, so
``if result:`` reads as "was a solution found".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional

from repro.records import Record, factory


class Solution(Record, frozen=True):
    """A satisfying assignment for the queried constraint system."""

    assignment: Dict[Hashable, int] = factory(dict)

    def __init__(self, assignment: Optional[Dict[Hashable, int]] = None):
        object.__setattr__(self, "assignment", {} if assignment is None else assignment)

    def __bool__(self) -> bool:
        return True


class Infeasible(Record, frozen=True):
    """The system is proved unsatisfiable.

    ``core`` is the union of the provenance tags of the source constraints
    participating in the refutation.  It is *minimal-ish*: the linear solver
    reports exactly the constraints with a non-zero multiplier in the row
    combination that produced the unsolvable congruence, which cannot drop
    any necessary member (dropping one changes the combination), though it
    is not guaranteed to be a globally minimal unsatisfiable subset.
    """

    core: FrozenSet[Hashable] = frozenset()

    def __init__(self, core: FrozenSet[Hashable] = frozenset()):
        object.__setattr__(self, "core", core)

    def __bool__(self) -> bool:
        return False


class Unknown(Record, frozen=True):
    """No verdict: the solver's budget or enumeration gave out.

    Never a proof of anything -- callers may prune the current branch only
    and must not record learned facts from it.
    """

    reason: str = "budget"

    def __init__(self, reason: str = "budget"):
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return False
