"""Interval abstraction and cube/range translation (paper Fig. 4, Rules 1-2).

Comparator implication in the paper works on the ``[min, max]`` range of each
input cube: the range is computed by setting all ``x`` bits to 0 (minimum) and
to 1 (maximum), tightened against the comparator semantics, and then mapped
*back* to the three-valued cube using two rules:

* **Rule 1** -- only bits currently ``x`` can receive new implications.
* **Rule 2** -- more significant bits must be implied before less significant
  ones, because only the most significant ``x`` bit splits the cube's value
  set into two *disjoint* sub-ranges.

:func:`range_to_cube` implements exactly that MSB-first fixing procedure.
"""

from __future__ import annotations

from typing import Tuple

from repro.bitvector.bv3 import BV3, BV3Conflict
from repro.records import Record


class ValueRange(Record, frozen=True):
    """A closed unsigned integer interval ``[lo, hi]`` of a ``width``-bit value.

    An empty range is represented with ``lo > hi``.
    """

    width: int
    lo: int
    hi: int

    def __init__(self, width: int, lo: int, hi: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # ------------------------------------------------------------------
    @classmethod
    def full(cls, width: int) -> "ValueRange":
        """The full range ``[0, 2**width - 1]``."""
        return cls(width, 0, (1 << width) - 1)

    @classmethod
    def empty(cls, width: int) -> "ValueRange":
        """An empty range."""
        return cls(width, 1, 0)

    @classmethod
    def point(cls, width: int, value: int) -> "ValueRange":
        """The singleton range ``[value, value]``."""
        value &= (1 << width) - 1
        return cls(width, value, value)

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when the range contains no value."""
        return self.lo > self.hi

    def is_point(self) -> bool:
        """True when the range contains exactly one value."""
        return self.lo == self.hi

    def size(self) -> int:
        """Number of values in the range (0 when empty)."""
        return 0 if self.is_empty() else self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """True when ``value`` lies in the range."""
        return self.lo <= value <= self.hi

    def intersect(self, other: "ValueRange") -> "ValueRange":
        """Intersection of two ranges over the same width."""
        if self.width != other.width:
            raise ValueError("range width mismatch: %d vs %d" % (self.width, other.width))
        return ValueRange(self.width, max(self.lo, other.lo), min(self.hi, other.hi))

    def clamp_below(self, hi: int) -> "ValueRange":
        """Restrict the range to values ``<= hi``."""
        return ValueRange(self.width, self.lo, min(self.hi, hi))

    def clamp_above(self, lo: int) -> "ValueRange":
        """Restrict the range to values ``>= lo``."""
        return ValueRange(self.width, max(self.lo, lo), self.hi)

    def __str__(self) -> str:
        if self.is_empty():
            return "[empty/%d]" % (self.width,)
        return "[%d, %d]/%d" % (self.lo, self.hi, self.width)


def cube_to_range(cube: BV3) -> ValueRange:
    """The ``[min, max]`` interval spanned by a cube (paper: set x's to 0 / 1).

    Note the resulting interval may be a strict over-approximation of the
    cube's completion set (e.g. ``x0`` spans [0, 2] but only contains 0, 2).
    """
    return ValueRange(cube.width, cube.min_value(), cube.max_value())


def range_to_cube(cube: BV3, target: ValueRange) -> BV3:
    """Refine ``cube`` against the tightened range ``target`` (Rules 1 & 2).

    Walk the unknown bits from most-significant to least-significant.  For
    each ``x`` bit, consider the two sub-cubes obtained by fixing the bit to 0
    and to 1.  If only one of them has a ``[min, max]`` interval intersecting
    ``target``, the bit is implied to that constant and the walk continues;
    if both intersect, the walk stops (Rule 2); if neither does, the
    refinement is contradictory and :class:`BV3Conflict` is raised.

    Parameters
    ----------
    cube:
        The current three-valued value of the signal.
    target:
        The tightened interval the signal's value must lie in.

    Returns
    -------
    BV3
        The refined cube (possibly identical to ``cube`` when no bit could be
        implied).
    """
    if cube.width != target.width:
        raise ValueError("cube/range width mismatch: %d vs %d" % (cube.width, target.width))
    if target.is_empty():
        raise BV3Conflict("empty target range for cube %s" % (cube,))

    current = cube
    for index in reversed(range(cube.width)):
        if current.bit(index) is not None:
            continue  # Rule 1: only x bits can receive implications.
        with_zero = current.set_bit(index, 0)
        with_one = current.set_bit(index, 1)
        zero_ok = _overlaps(with_zero, target)
        one_ok = _overlaps(with_one, target)
        if zero_ok and one_ok:
            break  # Rule 2: cannot decide this bit, stop at the first split.
        if not zero_ok and not one_ok:
            raise BV3Conflict(
                "range %s excludes every completion of cube %s" % (target, cube)
            )
        current = with_zero if zero_ok else with_one
    return current


def _overlaps(cube: BV3, target: ValueRange) -> bool:
    """True when the cube's [min, max] interval intersects ``target``."""
    return not (cube.max_value() < target.lo or cube.min_value() > target.hi)


def tighten_for_compare(
    op: str,
    range_a: ValueRange,
    range_b: ValueRange,
    result: bool,
) -> Tuple[ValueRange, ValueRange]:
    """Tighten two operand ranges given the known result of a comparison.

    ``op`` is one of ``">"``, ``">="``, ``"<"``, ``"<="``, ``"=="``, ``"!="``.
    When ``result`` is ``False`` the complementary relation is applied.  The
    returned ranges may be empty, which signals a conflict to the caller.

    This implements the adjustment step of the paper's Fig. 4: for
    ``a > b == TRUE``, ``min_a`` is raised above ``min_b`` and ``max_b`` is
    lowered below ``max_a``.
    """
    relation = op
    if not result:
        relation = {
            ">": "<=",
            ">=": "<",
            "<": ">=",
            "<=": ">",
            "==": "!=",
            "!=": "==",
        }[op]

    a, b = range_a, range_b
    if relation == ">":
        # a > b: a must exceed b's minimum, b must be below a's maximum.
        a = a.clamp_above(b.lo + 1)
        b = b.clamp_below(a.hi - 1) if a.hi > 0 else ValueRange.empty(b.width)
    elif relation == ">=":
        a = a.clamp_above(b.lo)
        b = b.clamp_below(a.hi)
    elif relation == "<":
        a = a.clamp_below(b.hi - 1) if b.hi > 0 else ValueRange.empty(a.width)
        b = b.clamp_above(a.lo + 1)
    elif relation == "<=":
        a = a.clamp_below(b.hi)
        b = b.clamp_above(a.lo)
    elif relation == "==":
        common = a.intersect(b)
        a, b = common, common
    elif relation == "!=":
        # Only prune when one side is a point exactly at the other's boundary.
        if b.is_point():
            if a.is_point() and a.lo == b.lo:
                a = ValueRange.empty(a.width)
            elif a.lo == b.lo:
                a = ValueRange(a.width, a.lo + 1, a.hi)
            elif a.hi == b.lo:
                a = ValueRange(a.width, a.lo, a.hi - 1)
        if range_a.is_point():
            if b.is_point() and b.lo == range_a.lo:
                b = ValueRange.empty(b.width)
            elif b.lo == range_a.lo:
                b = ValueRange(b.width, b.lo + 1, b.hi)
            elif b.hi == range_a.lo:
                b = ValueRange(b.width, b.lo, b.hi - 1)
    else:
        raise ValueError("unknown comparison operator %r" % (op,))
    return a, b
