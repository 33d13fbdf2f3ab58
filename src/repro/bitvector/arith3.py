"""Three-valued arithmetic for word-level implication on adders/subtractors.

The paper's Fig. 3 shows the key operation: given a partially known adder
output (``4'b0111``) and one partially known input (``4'b1x1x``), backward
implication learns bits of the other input (``1x0x``) *and* the carry-out
(``1``).  We implement this with a per-bit full-adder constraint network:

each bit position ``i`` relates five three-valued bits
``(a_i, b_i, carry_i, sum_i, carry_{i+1})`` through the full-adder truth
table.  Propagation enumerates the (at most 32) assignments of a cell that
are consistent with the current knowledge and keeps the bits that are forced.
Cells are iterated to a fixpoint, which yields both the forward and backward
implications of the paper in a single uniform procedure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bitvector.bv3 import BV3, BV3Conflict, Bit


def _forced_bits(cell_bits: List[Bit]) -> List[Bit]:
    """Given the current knowledge of ``(a, b, cin, s, cout)`` for one
    full-adder cell, return the bits forced by the full-adder relation.

    Raises :class:`BV3Conflict` when no assignment is consistent.
    """
    candidates: List[Tuple[int, int, int, int, int]] = []
    for a in (0, 1):
        if cell_bits[0] is not None and cell_bits[0] != a:
            continue
        for b in (0, 1):
            if cell_bits[1] is not None and cell_bits[1] != b:
                continue
            for cin in (0, 1):
                if cell_bits[2] is not None and cell_bits[2] != cin:
                    continue
                s = a ^ b ^ cin
                cout = (a + b + cin) >> 1
                if cell_bits[3] is not None and cell_bits[3] != s:
                    continue
                if cell_bits[4] is not None and cell_bits[4] != cout:
                    continue
                candidates.append((a, b, cin, s, cout))
    if not candidates:
        raise BV3Conflict("inconsistent full-adder cell %r" % (cell_bits,))
    forced: List[Bit] = []
    for position in range(5):
        values = {c[position] for c in candidates}
        forced.append(values.pop() if len(values) == 1 else None)
    return forced


def propagate_adder(
    a: BV3,
    b: BV3,
    out: BV3,
    carry_in: Bit = 0,
    carry_out: Bit = None,
) -> Tuple[BV3, BV3, BV3, Bit, Bit]:
    """Propagate ``a + b + carry_in = out`` (mod ``2**width``) to a fixpoint.

    All arguments are three-valued; the return value is the refined
    ``(a, b, out, carry_in, carry_out)`` tuple.  ``carry_out`` is the carry
    out of the most significant bit.  Raises :class:`BV3Conflict` when the
    constraint is unsatisfiable under the given knowledge.
    """
    width = a.width
    if b.width != width or out.width != width:
        raise ValueError("adder operand width mismatch")

    a_bits: List[Bit] = list(a.bits())
    b_bits: List[Bit] = list(b.bits())
    out_bits: List[Bit] = list(out.bits())
    # carries[i] is the carry *into* bit i; carries[width] is the carry out.
    carries: List[Bit] = [None] * (width + 1)
    carries[0] = carry_in
    carries[width] = carry_out

    changed = True
    while changed:
        changed = False
        for i in range(width):
            cell = [a_bits[i], b_bits[i], carries[i], out_bits[i], carries[i + 1]]
            forced = _forced_bits(cell)
            updates = (
                ("a", i, forced[0]),
                ("b", i, forced[1]),
                ("cin", i, forced[2]),
                ("s", i, forced[3]),
                ("cout", i, forced[4]),
            )
            for kind, idx, new_bit in updates:
                if new_bit is None:
                    continue
                if kind == "a" and a_bits[idx] is None:
                    a_bits[idx] = new_bit
                    changed = True
                elif kind == "b" and b_bits[idx] is None:
                    b_bits[idx] = new_bit
                    changed = True
                elif kind == "s" and out_bits[idx] is None:
                    out_bits[idx] = new_bit
                    changed = True
                elif kind == "cin" and carries[idx] is None:
                    carries[idx] = new_bit
                    changed = True
                elif kind == "cout" and carries[idx + 1] is None:
                    carries[idx + 1] = new_bit
                    changed = True

    return (
        BV3.from_bits(a_bits),
        BV3.from_bits(b_bits),
        BV3.from_bits(out_bits),
        carries[0],
        carries[width],
    )


def propagate_subtractor(
    a: BV3,
    b: BV3,
    out: BV3,
) -> Tuple[BV3, BV3, BV3]:
    """Propagate ``a - b = out`` (mod ``2**width``) to a fixpoint.

    Implemented as ``a = out + b``, reusing the adder network, so both forward
    (known ``a``, ``b``) and backward (known ``out`` and one operand)
    directions work.
    """
    new_out, new_b, new_a, _, _ = propagate_adder(out, b, a, carry_in=0)
    return new_a, new_b, new_out


def add3(a: BV3, b: BV3, carry_in: int = 0) -> BV3:
    """Forward-only three-valued addition (sum cube of ``a + b + carry_in``)."""
    _, _, out, _, _ = propagate_adder(a, b, BV3.unknown(a.width), carry_in=carry_in)
    return out


def sub3(a: BV3, b: BV3) -> BV3:
    """Forward-only three-valued subtraction (difference cube of ``a - b``)."""
    _, _, out = _forward_sub(a, b)
    return out


def _forward_sub(a: BV3, b: BV3) -> Tuple[BV3, BV3, BV3]:
    width = a.width
    # a - b == a + ~b + 1 (two's complement).
    not_b = ~b if b.is_fully_known() else BV3(width, (~b.value) & b.known, b.known)
    _, _, out, _, _ = propagate_adder(a, not_b, BV3.unknown(width), carry_in=1)
    return a, b, out


def negate3(a: BV3) -> BV3:
    """Two's-complement negation of a cube (forward only)."""
    width = a.width
    zero = BV3.from_int(width, 0)
    return sub3(zero, a)


def mul3(a: BV3, b: BV3, out_width: Optional[int] = None) -> BV3:
    """Forward three-valued multiplication.

    Only coarse information is propagated: the product is fully known when
    both operands are, known-zero when either operand is known-zero, and the
    low-order bits implied by known-zero low bits of the operands are
    propagated (a multiple of ``2**k`` has ``k`` zero low bits).
    """
    width = out_width if out_width is not None else a.width
    if a.is_fully_known() and b.is_fully_known():
        return BV3.from_int(width, a.to_int() * b.to_int())
    if (a.is_fully_known() and a.to_int() == 0) or (
        b.is_fully_known() and b.to_int() == 0
    ):
        return BV3.from_int(width, 0)
    # Count guaranteed trailing zeros of each operand.
    tz = _known_trailing_zeros(a) + _known_trailing_zeros(b)
    tz = min(tz, width)
    known = (1 << tz) - 1
    return BV3(width, 0, known)


def _known_trailing_zeros(a: BV3) -> int:
    count = 0
    for bit in a.bits():
        if bit == 0:
            count += 1
        else:
            break
    return count
