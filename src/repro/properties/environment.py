"""Environmental setup: input constraints and initialization sequences.

The paper's framework requires an environmental setup defining constraints on
the circuit inputs (clock waveforms, one-hot constraints, ...) and an
initialization sequence used to derive the set of initial states.  We model:

* *pinned inputs* -- an input held at a constant value in every frame;
* *one-hot input groups* -- exactly one signal of the group is 1 per frame;
* *assumption expressions* -- arbitrary 1-bit conditions that must hold in
  every frame (compiled to monitor nets like properties);
* *initialization sequences* -- concrete input vectors simulated from the
  power-on state to produce the initial state used for checking.

:func:`environment_identity` is the one canonical encoding of an
(environment, initial state) pair: the lowering memo, the unrolled-model
cache and the knowledge base's on-disk model key are all derived from it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.atpg.statehash import property_search_digest
from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.properties.spec import Expression, expression_memo
from repro.simulation.simulator import Simulator


class InitializationSequence:
    """Concrete input vectors applied from power-on to derive initial states."""

    __slots__ = ("vectors",)

    def __init__(self, vectors: Optional[List[Dict[str, int]]] = None):
        self.vectors = [] if vectors is None else vectors

    def derive_initial_state(self, circuit: Circuit) -> Dict[str, int]:
        """Simulate the sequence and return the resulting register values."""
        simulator = Simulator(circuit)
        for vector in self.vectors:
            simulator.step(vector)
        return simulator.register_values()

    def __len__(self) -> int:
        return len(self.vectors)


class Environment:
    """Constraints on the circuit inputs assumed by every property check."""

    def __init__(self):
        self.pinned: Dict[str, int] = {}
        self.one_hot_groups: List[List[str]] = []
        self.assumptions: List[Expression] = []
        self.initialization: Optional[InitializationSequence] = None

    # ------------------------------------------------------------------
    def pin(self, signal: Union[str, Net], value: int) -> "Environment":
        """Hold an input at a constant value in every frame."""
        name = signal.name if isinstance(signal, Net) else signal
        self.pinned[name] = value
        return self

    def one_hot(self, signals: Sequence[Union[str, Net]]) -> "Environment":
        """Require exactly one of the listed 1-bit inputs to be 1 per frame."""
        names = [s.name if isinstance(s, Net) else s for s in signals]
        if len(names) < 2:
            raise ValueError("a one-hot group needs at least two signals")
        self.one_hot_groups.append(names)
        return self

    def assume(self, expr: Expression) -> "Environment":
        """Add an arbitrary 1-bit assumption that must hold in every frame."""
        self.assumptions.append(expr)
        return self

    def initialize_with(self, vectors: Sequence[Mapping[str, int]]) -> "Environment":
        """Provide an initialization sequence (applied before checking)."""
        self.initialization = InitializationSequence([dict(v) for v in vectors])
        return self

    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        """True when no constraint at all was declared."""
        return (
            not self.pinned
            and not self.one_hot_groups
            and not self.assumptions
            and self.initialization is None
        )

    def __repr__(self) -> str:
        return "Environment(%d pinned, %d one-hot groups, %d assumptions)" % (
            len(self.pinned),
            len(self.one_hot_groups),
            len(self.assumptions),
        )


def environment_identity(
    environment: Optional[Environment],
    initial_state: Optional[Mapping[str, int]],
) -> Tuple[str, str]:
    """The canonical ``(initial state, environment)`` encoding of a check.

    Two checks whose identities are equal start from the same registers and
    assume the same constraints, so they may share a lowering, an unrolled
    model and the facts learned on it.  The encoding is structural and
    process-stable: pins with their declared values, one-hot groups,
    assumptions by their exact-spelling digest
    (:func:`~repro.atpg.statehash.property_search_digest`; ``repr`` elides
    the terms of one-hot expressions and would alias distinct assumptions)
    and the initialization vectors.  The knowledge base hashes each half
    into its on-disk model key, so changing this text orphans every stored
    fact.  ``None`` (no environment object at all) encodes apart from an
    empty :class:`Environment`.
    """
    initial = "initial:none" if initial_state is None else "initial:" + _values(initial_state)
    if environment is None:
        return initial, "env:none"
    parts = ["env"]
    for name in sorted(environment.pinned):
        parts.append("pin:%s=%d" % (name, environment.pinned[name]))
    for group in environment.one_hot_groups:
        parts.append("onehot:" + ",".join(group))
    for expr in environment.assumptions:
        parts.append("assume:%016x" % _assumption_digest(expr))
    if environment.initialization is not None:
        for vector in environment.initialization.vectors:
            parts.append("init:" + _values(vector))
    return initial, "\n".join(parts)


@expression_memo
def _assumption_digest(expr: Expression) -> int:
    # Digested once per assumption tree, not on every check under it.
    return property_search_digest(expr)


def _values(values: Mapping[str, int]) -> str:
    items = sorted((str(name), int(value)) for name, value in values.items())
    return ";".join("%s=%d" % item for item in items)
