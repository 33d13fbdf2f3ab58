"""Persistent cross-process knowledge base for learned search facts.

Everything the checker learns while riding a cached unrolled model --
conflict-lifted cubes, datapath infeasibility certificates, proven-FAIL
target memos -- used to die with the process.
This package persists those facts in a versioned sqlite store keyed by
process-stable structural fingerprints, so batch workers and successive CLI
runs pick up where the last process left off.

Public surface:

* :func:`open_knowledge_base` / :class:`KnowledgeBase` -- the store handle;
* :func:`model_kb_key` / :func:`circuit_fingerprint` -- the structural keys;
* :func:`flush_attached_stores` -- the worker's sync-to-disk barrier.

See ``docs/knowledge-base.md`` for the on-disk format and guarantees.
"""

from repro.kb.fingerprints import (
    circuit_fingerprint,
    circuit_snapshot,
    environment_kb_fingerprint,
    initial_state_kb_fingerprint,
    model_kb_key,
)
from repro.kb.store import (
    SCHEMA_VERSION,
    KnowledgeBase,
    flush_attached_stores,
    open_knowledge_base,
)

__all__ = [
    "SCHEMA_VERSION",
    "KnowledgeBase",
    "circuit_fingerprint",
    "circuit_snapshot",
    "environment_kb_fingerprint",
    "flush_attached_stores",
    "initial_state_kb_fingerprint",
    "model_kb_key",
    "open_knowledge_base",
]
