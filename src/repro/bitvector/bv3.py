"""Three-valued (0/1/x) fixed-width bit-vectors.

A :class:`BV3` models the *cube* representation the paper uses for every
word-level signal: each bit is either a known constant (``0`` or ``1``) or
unknown (``x``).  Cubes are ordered by information content: refining a cube
means turning ``x`` bits into constants; two cubes *conflict* when they
assign opposite constants to the same bit.

The representation uses two Python integers:

``known``
    bit ``i`` set means bit ``i`` of the vector has a known constant value.
``value``
    the constant values; bits outside ``known`` are always zero
    (class invariant).

All operations are pure -- :class:`BV3` instances are immutable and hashable,
which lets the implication engine store them on the decision trail and
restore previous *partially implied* values on backtrack (Section 3.1 of the
paper emphasises that word-level signals, unlike single bits, can be implied
multiple times).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

#: Type alias for a single three-valued bit: ``0``, ``1`` or ``None`` (= x).
Bit = Optional[int]


class BV3Conflict(Exception):
    """Raised when two cubes assign opposite constants to the same bit."""


def _mask(width: int) -> int:
    return (1 << width) - 1


class BV3:
    """An immutable three-valued bit-vector of fixed width.

    Parameters
    ----------
    width:
        Number of bits (must be positive).
    value:
        Integer holding the known bit values.  Bits outside ``known`` are
        ignored (masked away).
    known:
        Bit mask of positions whose value is known.  ``None`` (the default)
        means *all* bits are known, i.e. the vector is a constant.
    """

    __slots__ = ("width", "value", "known")

    def __init__(self, width: int, value: int = 0, known: Optional[int] = None):
        if width <= 0:
            raise ValueError("BV3 width must be positive, got %r" % (width,))
        m = _mask(width)
        if known is None:
            known = m
        known &= m
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "value", value & known)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def unknown(cls, width: int) -> "BV3":
        """A cube with every bit unknown (``x...x``)."""
        return cls(width, 0, 0)

    @classmethod
    def from_int(cls, width: int, value: int) -> "BV3":
        """A fully known cube holding ``value`` (wrapped modulo ``2**width``)."""
        return cls(width, value & _mask(width), _mask(width))

    @classmethod
    def from_string(cls, text: str) -> "BV3":
        """Parse a cube written MSB-first, e.g. ``"10xx"`` or ``"4'b10xx"``.

        Underscores are ignored.  An optional Verilog-style ``<width>'b``
        prefix is accepted (the declared width must match the digit count).
        """
        body = text
        if "'" in text:
            width_str, _, body = text.partition("'")
            body = body.lstrip("bB")
            declared = int(width_str)
        else:
            declared = None
        body = body.replace("_", "")
        if not body:
            raise ValueError("empty bit-vector literal: %r" % (text,))
        width = len(body)
        if declared is not None and declared != width:
            raise ValueError(
                "declared width %d does not match %d digits in %r"
                % (declared, width, text)
            )
        value = 0
        known = 0
        for i, ch in enumerate(body):
            bit_pos = width - 1 - i
            if ch == "1":
                value |= 1 << bit_pos
                known |= 1 << bit_pos
            elif ch == "0":
                known |= 1 << bit_pos
            elif ch in ("x", "X", "?"):
                pass
            else:
                raise ValueError("invalid character %r in bit-vector %r" % (ch, text))
        return cls(width, value, known)

    @classmethod
    def from_bits(cls, bits: Sequence[Bit]) -> "BV3":
        """Build a cube from a sequence of bits given LSB-first."""
        width = len(bits)
        value = 0
        known = 0
        for i, b in enumerate(bits):
            if b is None:
                continue
            known |= 1 << i
            if b:
                value |= 1 << i
        return cls(width, value, known)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mask(self) -> int:
        """All-ones mask for this width."""
        return _mask(self.width)

    def is_fully_known(self) -> bool:
        """True when no bit is ``x``."""
        return self.known == self.mask

    def is_fully_unknown(self) -> bool:
        """True when every bit is ``x``."""
        return self.known == 0

    def num_known(self) -> int:
        """Number of bits with a known constant value."""
        return bin(self.known).count("1")

    def num_unknown(self) -> int:
        """Number of ``x`` bits."""
        return self.width - self.num_known()

    def bit(self, index: int) -> Bit:
        """Return bit ``index`` (LSB = 0) as ``0``, ``1`` or ``None`` for x."""
        if not 0 <= index < self.width:
            raise IndexError("bit index %d out of range for width %d" % (index, self.width))
        if not (self.known >> index) & 1:
            return None
        return (self.value >> index) & 1

    def bits(self) -> Iterator[Bit]:
        """Iterate over bits LSB-first."""
        for i in range(self.width):
            yield self.bit(i)

    def to_int(self) -> int:
        """Return the constant value; raises if any bit is unknown."""
        if not self.is_fully_known():
            raise ValueError("cannot convert %s with unknown bits to int" % (self,))
        return self.value

    def min_value(self) -> int:
        """Smallest (unsigned) completion: all ``x`` bits set to 0."""
        return self.value

    def max_value(self) -> int:
        """Largest (unsigned) completion: all ``x`` bits set to 1."""
        return self.value | (self.mask & ~self.known)

    def num_completions(self) -> int:
        """Number of constant vectors contained in this cube."""
        return 1 << self.num_unknown()

    def contains_int(self, value: int) -> bool:
        """True when constant ``value`` is a completion of this cube."""
        value &= self.mask
        return (value & self.known) == self.value

    def completions(self) -> Iterator[int]:
        """Iterate over every constant completion (exponential -- use for
        small numbers of unknown bits only, e.g. in tests)."""
        unknown_positions = [i for i in range(self.width) if not (self.known >> i) & 1]
        for combo in range(1 << len(unknown_positions)):
            v = self.value
            for j, pos in enumerate(unknown_positions):
                if (combo >> j) & 1:
                    v |= 1 << pos
            yield v

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def set_bit(self, index: int, bit: int) -> "BV3":
        """Return a copy with bit ``index`` set to constant ``bit``.

        Raises :class:`BV3Conflict` if the bit is already known with the
        opposite value.
        """
        current = self.bit(index)
        bit = 1 if bit else 0
        if current is not None:
            if current != bit:
                raise BV3Conflict(
                    "bit %d already %d, cannot set to %d" % (index, current, bit)
                )
            return self
        known = self.known | (1 << index)
        value = self.value | ((1 << index) if bit else 0)
        return BV3(self.width, value, known)

    def intersect(self, other: "BV3") -> "BV3":
        """Cube intersection (meet): combine knowledge from both cubes.

        Raises :class:`BV3Conflict` if the cubes disagree on any known bit.
        """
        self._check_width(other)
        both = self.known & other.known
        if (self.value ^ other.value) & both:
            raise BV3Conflict("conflicting cubes %s and %s" % (self, other))
        known = self.known | other.known
        value = (self.value | other.value) & known
        return BV3(self.width, value, known)

    def compatible(self, other: "BV3") -> bool:
        """True when the two cubes share at least one completion."""
        self._check_width(other)
        both = self.known & other.known
        return not ((self.value ^ other.value) & both)

    def union(self, other: "BV3") -> "BV3":
        """Cube union (join): keep only bits known *and equal* in both.

        This is the operation the paper uses to imply a multiplexor output
        from its (possibly partially known) data inputs.
        """
        self._check_width(other)
        both = self.known & other.known
        agree = both & ~(self.value ^ other.value)
        return BV3(self.width, self.value & agree, agree)

    def covers(self, other: "BV3") -> bool:
        """True when every completion of ``other`` is a completion of self.

        Equivalently: self's known bits are a subset of other's and agree.
        """
        self._check_width(other)
        if self.known & ~other.known:
            return False
        return not ((self.value ^ other.value) & self.known)

    def refines(self, other: "BV3") -> bool:
        """True when self carries at least as much information as ``other``
        and agrees with it (i.e. ``other.covers(self)``)."""
        return other.covers(self)

    # ------------------------------------------------------------------
    # Bitwise three-valued operators (Kleene logic, bit-parallel)
    # ------------------------------------------------------------------
    def __invert__(self) -> "BV3":
        return BV3(self.width, (~self.value) & self.known, self.known)

    def and3(self, other: "BV3") -> "BV3":
        """Bit-parallel three-valued AND."""
        self._check_width(other)
        # A result bit is known-0 if either operand bit is known-0;
        # known-1 if both operand bits are known-1.
        zero_a = self.known & ~self.value
        zero_b = other.known & ~other.value
        one_a = self.known & self.value
        one_b = other.known & other.value
        known_zero = zero_a | zero_b
        known_one = one_a & one_b
        known = known_zero | known_one
        return BV3(self.width, known_one, known)

    def or3(self, other: "BV3") -> "BV3":
        """Bit-parallel three-valued OR."""
        self._check_width(other)
        zero_a = self.known & ~self.value
        zero_b = other.known & ~other.value
        one_a = self.known & self.value
        one_b = other.known & other.value
        known_one = one_a | one_b
        known_zero = zero_a & zero_b
        known = known_zero | known_one
        return BV3(self.width, known_one, known)

    def xor3(self, other: "BV3") -> "BV3":
        """Bit-parallel three-valued XOR (known only where both are known)."""
        self._check_width(other)
        known = self.known & other.known
        value = (self.value ^ other.value) & known
        return BV3(self.width, value, known)

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    def slice(self, msb: int, lsb: int) -> "BV3":
        """Extract bits ``[msb:lsb]`` (inclusive, msb >= lsb) as a new cube."""
        if msb < lsb or lsb < 0 or msb >= self.width:
            raise IndexError(
                "invalid slice [%d:%d] of width-%d vector" % (msb, lsb, self.width)
            )
        width = msb - lsb + 1
        m = _mask(width)
        return BV3(width, (self.value >> lsb) & m, (self.known >> lsb) & m)

    def concat(self, low: "BV3") -> "BV3":
        """Concatenate with ``low`` occupying the least-significant bits."""
        width = self.width + low.width
        value = (self.value << low.width) | low.value
        known = (self.known << low.width) | low.known
        return BV3(width, value, known)

    def zero_extend(self, width: int) -> "BV3":
        """Zero-extend to ``width`` bits (new high bits are known 0)."""
        if width < self.width:
            raise ValueError("cannot zero-extend %d-bit vector to %d bits" % (self.width, width))
        if width == self.width:
            return self
        high_known = _mask(width) & ~_mask(self.width)
        return BV3(width, self.value, self.known | high_known)

    def truncate(self, width: int) -> "BV3":
        """Keep only the ``width`` least-significant bits."""
        if width > self.width:
            raise ValueError("cannot truncate %d-bit vector to %d bits" % (self.width, width))
        m = _mask(width)
        return BV3(width, self.value & m, self.known & m)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def _check_width(self, other: "BV3") -> None:
        if self.width != other.width:
            raise ValueError(
                "width mismatch: %d vs %d" % (self.width, other.width)
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BV3):
            return NotImplemented
        return (
            self.width == other.width
            and self.known == other.known
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.width, self.known, self.value))

    def __len__(self) -> int:
        return self.width

    def __str__(self) -> str:
        chars: List[str] = []
        for i in reversed(range(self.width)):
            b = self.bit(i)
            chars.append("x" if b is None else str(b))
        return "%d'b%s" % (self.width, "".join(chars))

    def __repr__(self) -> str:
        return "BV3(%s)" % (str(self),)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BV3 instances are immutable")


def bv(spec: Union[str, int, BV3], width: Optional[int] = None) -> BV3:
    """Convenience constructor.

    ``bv("10xx")`` parses a cube string, ``bv(5, width=4)`` builds a constant,
    and an existing :class:`BV3` is passed through (optionally width-checked).
    """
    if isinstance(spec, BV3):
        if width is not None and spec.width != width:
            raise ValueError("expected width %d, got %d" % (width, spec.width))
        return spec
    if isinstance(spec, str):
        result = BV3.from_string(spec)
        if width is not None and result.width != width:
            raise ValueError("expected width %d, got %d" % (width, result.width))
        return result
    if isinstance(spec, int):
        if width is None:
            raise ValueError("width is required when building a BV3 from an int")
        return BV3.from_int(width, spec)
    raise TypeError("cannot build BV3 from %r" % (spec,))
