"""Process-stable fingerprints naming a model configuration on disk.

The in-process :class:`~repro.checker.incremental.UnrolledModelCache` keys
cached models by ``id(circuit)`` -- perfect for object identity within one
process, useless across processes.  The knowledge base instead keys its rows
by *structural* fingerprints: pure FNV-1a hashes of a canonical dump of the
circuit and of the two halves of
:func:`~repro.properties.environment.environment_identity` -- the initial
register state and the environmental setup, in the same encoding the
in-process cache keys on.  Two
processes that elaborate the same design the same way compute the same key
and therefore see each other's learned facts.

The circuit fingerprint covers only the circuit's *design*
(:func:`~repro.properties.convert.design_extent`): the nets and gates it
held before any property or assumption monitor was compiled into it.  The
snapshot also records the design's net names: only learned cubes whose
literals all lie inside it are persisted, because monitor nets carry
generated names that another process has no obligation to reproduce.  So
the key and the name set depend on the design alone, not on what the
circuit was checked for before, and every checker sharing the circuit (the
batch-group shape) agrees on them.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Tuple

from repro.atpg.statehash import fnv1a
from repro.properties.convert import design_extent
from repro.properties.environment import environment_identity

#: attribute caching ``(design extent, (fingerprint, net names))`` on a circuit.
_SNAPSHOT_ATTR = "_kb_snapshot"


def circuit_snapshot(circuit) -> Tuple[int, FrozenSet[str]]:
    """The design's structural fingerprint and persistable-net-name set.

    Cached on the circuit object per design extent.
    """
    extent = design_extent(circuit)
    cached = getattr(circuit, _SNAPSHOT_ATTR, None)
    if cached is not None and cached[0] == extent:
        return cached[1]
    names = frozenset(net.name for net in circuit.nets[: extent[0]])
    snapshot = (circuit_fingerprint(circuit), names)
    setattr(circuit, _SNAPSHOT_ATTR, (extent, snapshot))
    return snapshot


def circuit_fingerprint(circuit) -> int:
    """Stable 64-bit structural hash of a circuit's design.

    Covers every design net (name, width, kind), every design gate (class,
    name, input and output net names, plus any scalar parameters such as
    constant values, slice bounds or comparison operators), the flip-flop
    list and the primary input/output designations.  Deliberately ignores
    object identities and insertion bookkeeping (``uid``), so re-elaborating
    the same source in a fresh process reproduces the hash.
    """
    nets, gates = design_extent(circuit)
    parts = ["circuit:%s" % getattr(circuit, "name", "")]
    for net in circuit.nets[:nets]:
        parts.append("n:%s/%d/%s" % (net.name, net.width, net.kind.value))
    for gate in circuit.gates[:gates]:
        scalars = []
        for attr, value in sorted(vars(gate).items()):
            if attr in ("name", "uid"):
                continue
            if isinstance(value, (bool, int, str)):
                scalars.append("%s=%r" % (attr, value))
        parts.append(
            "g:%s:%s(%s)->%s{%s}"
            % (
                type(gate).__name__,
                gate.name,
                ",".join(net.name for net in gate.inputs),
                gate.output.name,
                ",".join(scalars),
            )
        )
    parts.append("i:" + ",".join(net.name for net in circuit.inputs if net.uid < nets))
    parts.append("o:" + ",".join(net.name for net in circuit.outputs if net.uid < nets))
    parts.append("f:" + ",".join(ff.name for ff in circuit.flip_flops if ff.uid < gates))
    return fnv1a("\n".join(parts).encode("utf-8"))


def initial_state_kb_fingerprint(initial_state: Optional[Mapping[str, int]]) -> int:
    """Stable hash of the initial register-state mapping (``None`` included)."""
    return fnv1a(environment_identity(None, initial_state)[0].encode("utf-8"))


def environment_kb_fingerprint(environment) -> int:
    """Stable hash of an environmental setup (``None`` included)."""
    return fnv1a(environment_identity(environment, None)[1].encode("utf-8"))


def model_kb_key(circuit, initial_state, environment) -> str:
    """The on-disk key naming one (circuit, initial state, environment) model."""
    return identity_kb_key(circuit, environment_identity(environment, initial_state))


def identity_kb_key(circuit, identity: Tuple[str, str]) -> str:
    """The on-disk key of a circuit under an environment identity.

    ``identity`` is :func:`~repro.properties.environment.environment_identity`
    (as carried by a :class:`~repro.properties.convert.LoweredEnvironment`):
    the in-process model-cache key and this key come from the same encoding.
    A fixed-width hex triple -- process-stable, filesystem- and SQL-friendly.
    """
    circuit_fp, _ = circuit_snapshot(circuit)
    initial, environment = identity
    return "%016x-%016x-%016x" % (
        circuit_fp,
        fnv1a(initial.encode("utf-8")),
        fnv1a(environment.encode("utf-8")),
    )
