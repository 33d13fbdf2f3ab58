"""Nets: named, fixed-width signals connecting word-level primitives."""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netlist.gates import Gate


class NetKind(enum.Enum):
    """Coarse role of a net in the control/datapath partition.

    ``AUTO`` nets are classified by :func:`repro.netlist.classify.classify_nets`
    based on their width and the primitives they connect; the other values
    force the classification (used e.g. for abstract state registers that the
    ATPG should treat as decision candidates even when they are wide).
    """

    AUTO = "auto"
    CONTROL = "control"
    DATA = "data"


class Net:
    """A named signal of fixed bit width.

    A net has at most one driver (the gate whose output it is, or ``None``
    for primary inputs and undriven nets) and any number of readers.
    """

    __slots__ = (
        "name",
        "width",
        "kind",
        "driver",
        "readers",
        "is_input",
        "is_output",
        "uid",
    )

    def __init__(self, name: str, width: int, kind: NetKind = NetKind.AUTO, uid: int = -1):
        if width <= 0:
            raise ValueError("net %r must have positive width, got %d" % (name, width))
        self.name = name
        self.width = width
        self.kind = kind
        self.driver: Optional["Gate"] = None
        self.readers: List["Gate"] = []
        self.is_input = False
        self.is_output = False
        self.uid = uid

    # ------------------------------------------------------------------
    def fanout(self) -> int:
        """Number of gates reading this net."""
        return len(self.readers)

    def is_primary_input(self) -> bool:
        """True when the net is a primary input of the circuit."""
        return self.is_input

    def is_primary_output(self) -> bool:
        """True when the net is a primary output of the circuit."""
        return self.is_output

    def mask(self) -> int:
        """All-ones mask of this net's width."""
        return (1 << self.width) - 1

    def __str__(self) -> str:
        return "%s[%d]" % (self.name, self.width)

    def __repr__(self) -> str:
        return "Net(%r, width=%d, kind=%s)" % (self.name, self.width, self.kind.value)
