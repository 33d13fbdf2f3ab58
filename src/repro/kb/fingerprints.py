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

The circuit fingerprint is taken over a snapshot of the circuit *as it was
when the first knowledge-base-enabled checker saw it* -- before that checker
compiles any property or assumption monitors into it.  The snapshot also
records the set of net names existing at that moment: only learned cubes
whose literals all lie inside the snapshot are persisted, because monitor
nets synthesised later carry generated names that another process has no
obligation to reproduce.  Both the fingerprint and the name snapshot are
cached on the circuit object, so every checker sharing that circuit (the
batch-group shape) agrees on the key.
"""

from __future__ import annotations

from typing import FrozenSet, Mapping, Optional, Tuple

from repro.atpg.statehash import fnv1a
from repro.properties.environment import environment_identity

#: attribute caching the (fingerprint, net-name snapshot) pair on a circuit.
_SNAPSHOT_ATTR = "_kb_snapshot"


def circuit_snapshot(circuit) -> Tuple[int, FrozenSet[str]]:
    """The circuit's structural fingerprint and persistable-net-name set.

    Computed once per circuit object (cached on the instance) at the moment
    the first knowledge-base-enabled checker is constructed for it; see the
    module docstring for why the timing matters.
    """
    cached = getattr(circuit, _SNAPSHOT_ATTR, None)
    if cached is not None:
        return cached
    snapshot = (circuit_fingerprint(circuit), frozenset(net.name for net in circuit.nets))
    setattr(circuit, _SNAPSHOT_ATTR, snapshot)
    return snapshot


def circuit_fingerprint(circuit) -> int:
    """Stable 64-bit structural hash of a circuit.

    Covers every net (name, width, kind), every gate (class, name, input and
    output net names, plus any scalar parameters such as constant values,
    slice bounds or comparison operators), the flip-flop list and the primary
    input/output designations.  Deliberately ignores object identities and
    insertion bookkeeping (``uid``), so re-elaborating the same source in a
    fresh process reproduces the hash.
    """
    parts = ["circuit:%s" % getattr(circuit, "name", "")]
    for net in circuit.nets:
        parts.append("n:%s/%d/%s" % (net.name, net.width, net.kind.value))
    for gate in circuit.gates:
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
    parts.append("i:" + ",".join(net.name for net in circuit.inputs))
    parts.append("o:" + ",".join(net.name for net in circuit.outputs))
    parts.append("f:" + ",".join(gate.name for gate in circuit.flip_flops))
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
