"""Random input-lane generation that honours environment constraints.

The bit-parallel kernel is fed *constructively*: free inputs get one
``getrandbits(K)`` draw per bit lane (K independent uniform vectors in one
call), pinned inputs are broadcast constants, and one-hot groups pick a
winner per lane — so every lane satisfies the pin and one-hot constraints by
construction, with no rejection loop at all.  Assumptions cannot be sampled
constructively; the random-simulation checker masks out the lanes that
violate them.

Draw order is fixed (free inputs in circuit order, then one-hot groups), so
a given seed always produces the same stimulus.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.properties.environment import Environment

Lanes = List[int]


class RandomLaneSampler:
    """Draws per-cycle input lanes for :class:`~repro.sim.BitParallelSim`."""

    def __init__(self, circuit: Circuit, environment: Optional[Environment] = None):
        environment = environment if environment is not None else Environment()
        self.pinned: Dict[str, int] = dict(environment.pinned)
        grouped = set()
        self.groups: List[List[str]] = []
        for group in environment.one_hot_groups:
            # A member pinned to 1 always wins its group; members pinned to 0
            # are never eligible.  (Conflicting pins degenerate to the pin.)
            forced = [name for name in group if self.pinned.get(name) == 1]
            eligible = [
                name for name in group
                if name not in self.pinned or self.pinned[name] == 1
            ]
            self.groups.append(forced if forced else (eligible or list(group)))
            grouped.update(group)
        self.group_members = grouped
        #: free inputs: (name, width), sampled uniformly per lane.
        self.free: List[Tuple[str, int]] = [
            (net.name, net.width)
            for net in circuit.inputs
            if net.name not in self.pinned and net.name not in grouped
        ]
        self._broadcast_cache: Dict[int, Dict[str, Lanes]] = {}

    # ------------------------------------------------------------------
    def sample(self, rng: random.Random, lanes: int) -> Dict[str, Lanes]:
        """One cycle of stimulus: input name -> bit-lanes for ``lanes`` vectors."""
        vector = dict(self._pinned_lanes(lanes))
        for name, width in self.free:
            vector[name] = [rng.getrandbits(lanes) for _ in range(width)]
        for group in self.groups:
            if len(group) == 1:
                vector[group[0]] = [(1 << lanes) - 1]
                continue
            member_lanes = [0] * len(group)
            for lane in range(lanes):
                member_lanes[rng.randrange(len(group))] |= 1 << lane
            for name, lane in zip(group, member_lanes):
                vector[name] = [lane]
        return vector

    def scalar_vector(self, packed: Dict[str, Lanes], lane: int) -> Dict[str, int]:
        """Extract one lane of a sampled cycle as a plain input vector."""
        vector: Dict[str, int] = {}
        for name, value_lanes in packed.items():
            value = 0
            for position, bits in enumerate(value_lanes):
                if (bits >> lane) & 1:
                    value |= 1 << position
            vector[name] = value
        return vector

    # ------------------------------------------------------------------
    def _pinned_lanes(self, lanes: int) -> Dict[str, Lanes]:
        cached = self._broadcast_cache.get(lanes)
        if cached is None:
            full = (1 << lanes) - 1
            cached = {}
            for name, value in self.pinned.items():
                if name in self.group_members:
                    continue  # handled (or overridden) by the group draw
                cached[name] = [
                    full if (value >> b) & 1 else 0 for b in range(max(1, value.bit_length()))
                ]
            self._broadcast_cache[lanes] = cached
        return cached
