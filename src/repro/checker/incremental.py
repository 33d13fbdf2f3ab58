"""Shared cache of incrementally unrolled models.

Building an :class:`~repro.atpg.timeframe.UnrolledModel` is the dominant
fixed cost of a bounded check: every gate becomes one implication node per
frame and the seed implication fixpoint runs over all of them.  The checker
therefore reuses one model per circuit and lowered environment (the
:attr:`~repro.properties.convert.LoweredEnvironment.identity` of the
environment and the initial state it derives):

* across **bounds** -- :meth:`UnrolledModel.extend_to` appends only the new
  frames, so checking up to bound ``k`` builds each frame once instead of
  O(k^2) times;
* across **properties** -- monitor logic compiled for a later property is
  absorbed by :meth:`UnrolledModel.sync_with_circuit`, and the per-bound
  goals are retracted through an engine savepoint after every target frame,
  which restores the cached base fixpoint exactly;
* across **checker instances** -- the cache is a process-wide LRU, so
  every check against the same circuit object skips the rebuild: repeated
  ``api.check`` calls on one design, the jobs of one batch group, the
  sequential engines of a portfolio.

Each cached model also carries its
:class:`~repro.atpg.estg.ExtendedStateTransitionGraph` (``model.estg``): the
conflict-lifted illegal cubes and proven-FAIL target memo learned during one
check persist with the model, so every later bound -- and every property
sharing the (circuit, environment identity) key -- starts from what
earlier searches already proved.  Evicting a model drops its in-memory
facts with it; when a persistent knowledge base is attached
(:mod:`repro.kb` sets ``model.kb_flush_hook``) the cache flushes the facts
to disk first, so eviction never loses what a later process could reuse.

The cache key uses the circuit's *identity*: circuits are mutable builder
objects and two structurally equal netlists are still distinct designs.  The
cached model holds a strong reference to its circuit, so an entry's id
cannot be recycled while the entry lives; stale entries are simply evicted
by the LRU bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional, Tuple

from repro.atpg.timeframe import UnrolledModel
from repro.netlist.circuit import Circuit
from repro.properties.convert import LoweredEnvironment


def _flush_model_kb(model: UnrolledModel) -> None:
    """Run a model's knowledge-base flush hook, if one is attached.

    Learned facts pass their verification guard when *recorded*, so they
    are safe to persist regardless of the engine state the model is being
    dropped in; a failing store must never turn an eviction into an error.
    """
    hook = getattr(model, "kb_flush_hook", None)
    if hook is None:
        return
    try:
        hook()
    except Exception:  # pragma: no cover - defensive
        pass


class UnrolledModelCache:
    """Process-wide LRU cache of incremental unrolled models.

    ``max_entries`` bounds memory: each entry pins one circuit plus one
    implication network of ``built_frames`` frames.  The default of 8 covers
    a typical batch (a handful of designs, many properties each) while
    keeping the worst case small.

    ``compiled`` selects the engine every model of this cache runs on.  The
    product always uses the compiled slot-indexed kernel; tests and
    benchmarks build a cache with ``compiled=False`` to run a check on the
    interpreted engine, the bit-identical oracle the kernel is lowered from.

    Concurrency: the internal lock only protects the cache *dictionary*
    (lookups, insertion, eviction).  The models it hands out are live,
    mutable engines -- checking itself is single-threaded per process, as in
    the rest of the stack (the portfolio layer parallelises with worker
    *processes*, never threads).  Do not drive one cached model from two
    threads.
    """

    def __init__(self, max_entries: int = 8, compiled: bool = True):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.compiled = compiled
        self._entries: "OrderedDict[Tuple[int, Hashable], UnrolledModel]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def acquire(
        self,
        circuit: Circuit,
        lowered: Optional[LoweredEnvironment] = None,
    ) -> Tuple[UnrolledModel, bool]:
        """Return ``(model, reused)`` for ``circuit`` under ``lowered``.

        The key is the circuit's identity plus ``lowered.identity``; a model
        acquired without a lowered environment starts from the power-on
        state and shares no key with any checker's.  A cache miss builds a
        one-frame skeleton (callers grow it with
        :meth:`UnrolledModel.extend_to`); a hit returns the live model after
        absorbing any circuit growth via ``sync_with_circuit``.
        """
        key = (id(circuit), None if lowered is None else lowered.identity)
        initial_state = None if lowered is None else lowered.initial_state
        with self._lock:
            model = self._entries.get(key)
            if model is not None and not model.is_clean:
                # A previous check died without retracting its goals (or
                # mid-extension); the model's state is unusable, rebuild.
                del self._entries[key]
                model = None
            if model is not None and model.circuit is circuit:
                self._entries.move_to_end(key)
                self.hits += 1
                reused = True
            else:
                model = None
                reused = False
        if reused:
            model.sync_with_circuit()
            return model, True
        # Build outside the lock: the seed fixpoint is O(circuit) and must
        # not stall other cache users.  A racing duplicate build is benign
        # (last insert wins).
        model = UnrolledModel(
            circuit, 1, initial_state=initial_state, compiled=self.compiled
        )
        dropped = []
        with self._lock:
            self.misses += 1
            self._entries[key] = model
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                dropped.append(self._entries.popitem(last=False)[1])
        for stale_model in dropped:
            _flush_model_kb(stale_model)
        return model, False

    # ------------------------------------------------------------------
    def evict(self, circuit: Circuit) -> None:
        """Drop every entry for ``circuit`` (flushing attached KB facts)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == id(circuit)]
            dropped = [self._entries.pop(key) for key in stale]
        for model in dropped:
            _flush_model_kb(model)

    def clear(self) -> None:
        """Drop all entries, flushing attached knowledge-base facts first
        (used by tests and benchmarks)."""
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
        for model in dropped:
            _flush_model_kb(model)

    def stats(self) -> Dict[str, int]:
        """Cache occupancy and hit counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide cache shared by every :class:`AssertionChecker` that is
#: not handed a private one.
_SHARED_CACHE = UnrolledModelCache()


def shared_model_cache() -> UnrolledModelCache:
    """The process-wide :class:`UnrolledModelCache` singleton."""
    return _SHARED_CACHE
