"""Implication rules for arithmetic units (adders, subtractors, multipliers,
shifters).

Adders and subtractors use the three-valued ripple-carry propagation of
:mod:`repro.bitvector.arith3`, which realises the paper's Fig. 3 example
(learning missing input bits *and* the carry-out from a partially known sum).
Multipliers propagate exact values when both operands are known and use the
scalar congruence solver (Theorem 1/2) backwards when the product and one
operand are known; everything else is deferred to the arithmetic constraint
solver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.bitvector import BV3, BV3Conflict, propagate_adder, propagate_subtractor
from repro.bitvector.arith3 import mul3

#: :func:`repro.modsolver.modular.solve_scalar_congruence`, bound by the
#: first multiplier factor rule: checks without one never load the solver.
_solve_scalar_congruence = None


def imply_adder(has_cin: bool, has_cout: bool, cubes: Sequence[BV3]) -> List[BV3]:
    """Adder pins: ``a, b, [cin], out, [cout]`` (cin/cout are 1-bit cubes)."""
    index = 0
    a = cubes[index]; index += 1
    b = cubes[index]; index += 1
    cin_cube: Optional[BV3] = None
    if has_cin:
        cin_cube = cubes[index]; index += 1
    out = cubes[index]; index += 1
    cout_cube: Optional[BV3] = None
    if has_cout:
        cout_cube = cubes[index]; index += 1

    cin_bit = cin_cube.bit(0) if cin_cube is not None else 0
    cout_bit = cout_cube.bit(0) if cout_cube is not None else None

    new_a, new_b, new_out, new_cin, new_cout = propagate_adder(
        a, b, out, carry_in=cin_bit, carry_out=cout_bit
    )

    result = [new_a, new_b]
    if has_cin:
        refined_cin = cin_cube
        if new_cin is not None:
            refined_cin = cin_cube.intersect(BV3.from_int(1, new_cin))
        result.append(refined_cin)
    result.append(new_out)
    if has_cout:
        refined_cout = cout_cube
        if new_cout is not None:
            refined_cout = cout_cube.intersect(BV3.from_int(1, new_cout))
        result.append(refined_cout)
    return result


def imply_subtractor(cubes: Sequence[BV3]) -> List[BV3]:
    """Subtractor pins: ``a, b, out`` with ``out = a - b``."""
    a, b, out = cubes
    new_a, new_b, new_out = propagate_subtractor(a, b, out)
    return [new_a, new_b, new_out]


def imply_multiplier(cubes: Sequence[BV3]) -> List[BV3]:
    """Multiplier pins: ``a, b, out`` with ``out = a * b (mod 2**out.width)``.

    Backward implication uses the paper's modular machinery: when the product
    and one operand are fully known, the other operand's solution set is the
    multiplicative inverse with product ``k``; a unique solution is implied
    directly, an empty one is a conflict, and multiple solutions are left for
    the arithmetic constraint solver.
    """
    a, b, out = cubes
    width = out.width

    new_out = out
    if a.is_fully_known() and b.is_fully_known():
        product = (a.to_int() * b.to_int()) & out.mask
        new_out = out.intersect(BV3.from_int(width, product))
        return [a, b, new_out]

    forward = mul3(a, b, out_width=width)
    new_out = out.intersect(forward)

    new_a, new_b = a, b
    if new_out.is_fully_known():
        product = new_out.to_int()
        if a.is_fully_known():
            new_b = _imply_factor(a.to_int(), product, b, width)
        elif b.is_fully_known():
            new_a = _imply_factor(b.to_int(), product, a, width)
    return [new_a, new_b, new_out]


def _imply_factor(known_operand: int, product: int, other: BV3, width: int) -> BV3:
    """Refine the unknown multiplier operand when the solution is unique."""
    global _solve_scalar_congruence
    if _solve_scalar_congruence is None:
        from repro.modsolver.modular import solve_scalar_congruence

        _solve_scalar_congruence = solve_scalar_congruence
    solutions = _solve_scalar_congruence(known_operand % (1 << width), product, width)
    if solutions is None:
        raise BV3Conflict(
            "no %d-bit operand satisfies %d * x = %d (mod 2**%d)"
            % (other.width, known_operand, product, width)
        )
    if solutions.count == 1:
        value = solutions.base & other.mask
        return other.intersect(BV3.from_int(other.width, value))
    # Multiple modular solutions: check at least one is compatible.
    if solutions.count <= 64:
        compatible = [v for v in solutions.values() if other.contains_int(v & other.mask)]
        if not compatible:
            raise BV3Conflict("no modular factor compatible with %s" % (other,))
        if len(compatible) == 1:
            return other.intersect(BV3.from_int(other.width, compatible[0] & other.mask))
    return other


def imply_shift_const(kind: str, amount: int, cubes: Sequence[BV3]) -> List[BV3]:
    """Constant-amount shift: exact bidirectional bit remapping.

    ``kind`` is ``"shl"`` or ``"shr"``; pins are ``a, out``.
    """
    a, out = cubes
    width = out.width
    new_a_bits = list(a.bits())
    new_out_bits = list(out.bits())

    for i in range(width):
        if kind == "shl":
            src = i - amount
        else:
            src = i + amount
        if 0 <= src < a.width:
            merged = _merge(new_a_bits[src], new_out_bits[i])
            new_a_bits[src] = merged
            new_out_bits[i] = merged
        else:
            # Shifted-in position: always zero.
            if new_out_bits[i] == 1:
                raise BV3Conflict("shift fills bit %d with 0 but output requires 1" % (i,))
            new_out_bits[i] = 0
    return [BV3.from_bits(new_a_bits), BV3.from_bits(new_out_bits)]


def imply_shift_var(kind: str, cubes: Sequence[BV3]) -> List[BV3]:
    """Variable-amount shift: pins ``a, amount, out``.

    Forward only, and only when the amount is fully known (the general case
    is a non-linear constraint handled by the arithmetic solver).
    """
    a, amount, out = cubes
    if not amount.is_fully_known():
        return [a, amount, out]
    refined = imply_shift_const(kind, amount.to_int(), [a, out])
    return [refined[0], amount, refined[1]]


def _merge(x, y):
    if x is None:
        return y
    if y is None:
        return x
    if x != y:
        raise BV3Conflict("shift wiring conflict")
    return x
