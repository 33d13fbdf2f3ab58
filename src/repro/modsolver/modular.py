"""Multiplicative inverses of bit-vectors modulo ``2**n``.

This module implements Definitions 3-4 and Theorems 1-2 of the paper:

* every *odd* ``n``-bit vector has exactly one multiplicative inverse
  modulo ``2**n``;
* an even vector ``a = a' * 2**m`` (``a'`` odd) has no inverse, but its
  *multiplicative inverse with product k* exists exactly when ``2**m``
  divides ``k`` and then has exactly ``2**m`` values, expressible in the
  closed form ``(b + 2**(n-m) * t) mod 2**n`` for ``t = 0 .. 2**m - 1``
  where ``b`` solves ``a' * b = k / 2**m (mod 2**n)``.

:func:`solve_scalar_congruence` packages the theorems as the scalar
congruence solver ``a * x = k (mod 2**n)`` used by the linear system solver.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.records import Record


def two_adic_valuation(value: int) -> int:
    """The exponent of the largest power of two dividing ``value``.

    By convention the valuation of 0 is ``+inf``; since callers always work
    modulo ``2**n`` we return a large sentinel instead (callers treat zero
    specially before asking).
    """
    if value == 0:
        raise ValueError("two_adic_valuation(0) is infinite; handle zero separately")
    v = 0
    while value % 2 == 0:
        value //= 2
        v += 1
    return v


def odd_part(value: int) -> int:
    """The greatest odd factor ``a'`` of ``value`` (``value = a' * 2**m``)."""
    if value == 0:
        raise ValueError("zero has no odd part")
    while value % 2 == 0:
        value //= 2
    return value


def multiplicative_inverse(a: int, width: int) -> int:
    """The unique inverse of an odd ``a`` modulo ``2**width`` (Definition 3).

    Raises ``ValueError`` for even ``a`` (Theorem 1: only odd bit-vectors
    have a multiplicative inverse).
    """
    modulus = 1 << width
    a %= modulus
    if a % 2 == 0:
        raise ValueError("%d has no multiplicative inverse modulo 2**%d" % (a, width))
    # Newton / Hensel iteration doubles the number of correct bits each step.
    inverse = 1
    bits = 1
    while bits < width:
        inverse = (inverse * (2 - a * inverse)) % modulus
        bits *= 2
    return inverse % modulus


class ScalarSolutions(Record, frozen=True):
    """All solutions of ``a * x = k (mod 2**width)`` in closed form.

    The solution set is ``{ (base + step * t) mod 2**width : 0 <= t < count }``.
    For an odd ``a`` the set is the single value given by Theorem 1.1; for an
    even ``a = a' * 2**m`` with ``2**m | k`` it is the ``2**m`` values of
    Theorem 2 (``step = 2**(width-m)``); the special case ``a = 0`` gives the
    full value range when ``k = 0`` and no solution otherwise.
    """

    width: int
    base: int
    step: int
    count: int

    def __init__(self, width: int, base: int, step: int, count: int):
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "count", count)

    def values(self) -> Iterator[int]:
        """Iterate over every solution value."""
        modulus = 1 << self.width
        for t in range(self.count):
            yield (self.base + self.step * t) % modulus

    def smallest(self) -> int:
        """The smallest solution value."""
        return min(self.values()) if self.count <= 1 << 16 else self.base

    def contains(self, x: int) -> bool:
        """Membership test without enumerating (solves for ``t``)."""
        modulus = 1 << self.width
        x %= modulus
        if self.count == modulus and self.step == 1:
            return True
        delta = (x - self.base) % modulus
        if self.step == 0:
            return delta == 0
        if delta % self.step:
            return False
        return delta // self.step < self.count

    def __len__(self) -> int:
        return self.count


def solve_scalar_congruence(a: int, k: int, width: int) -> Optional[ScalarSolutions]:
    """Solve ``a * x = k (mod 2**width)``; ``None`` when no solution exists.

    This is the operational form of Theorems 1 and 2.
    """
    modulus = 1 << width
    a %= modulus
    k %= modulus
    if a == 0:
        if k == 0:
            return ScalarSolutions(width, 0, 1, modulus)
        return None
    if a % 2 == 1:
        # Theorem 1.1: unique solution inverse(a) * k.
        base = (multiplicative_inverse(a, width) * k) % modulus
        return ScalarSolutions(width, base, 0, 1)
    m = two_adic_valuation(a)
    if k % (1 << m) != 0:
        # Theorem 1.2: no inverse with product k.
        return None
    # Theorem 2: reduce to the odd sub-problem and expand the closed form.
    a_odd = a >> m
    k_reduced = k >> m
    base = (multiplicative_inverse(a_odd, width) * k_reduced) % modulus
    step = 1 << (width - m)
    return ScalarSolutions(width, base % modulus, step, 1 << m)


def multiplicative_inverse_with_product(a: int, k: int, width: int) -> List[int]:
    """All multiplicative inverses of ``a`` with product ``k`` (Definition 4).

    Returns the explicit (possibly empty) list of values; prefer
    :func:`solve_scalar_congruence` when the closed form is enough.  The
    special case ``a = 0`` follows the paper: 0 has no inverse with a
    non-zero product, and *every* bit-vector is an inverse of 0 with
    product 0 (the full list is returned only for widths up to 16 to avoid
    surprising blow-ups; ask :func:`solve_scalar_congruence` otherwise).
    """
    solutions = solve_scalar_congruence(a, k, width)
    if solutions is None:
        return []
    if solutions.count > (1 << 16):
        raise ValueError(
            "solution set of size %d is too large to enumerate; "
            "use solve_scalar_congruence for the closed form" % (solutions.count,)
        )
    return sorted(solutions.values())


def count_inverses_with_product(a: int, k: int, width: int) -> int:
    """Number of multiplicative inverses of ``a`` with product ``k`` (Theorem 1)."""
    solutions = solve_scalar_congruence(a, k, width)
    return 0 if solutions is None else solutions.count
