"""The sqlite-backed persistent knowledge base for learned search facts.

One :class:`KnowledgeBase` wraps one sqlite file holding, per *model key*
(the structural circuit/initial-state/environment fingerprint triple from
:mod:`repro.kb.fingerprints`):

* the model's **learned cubes** -- literals, anchoring metadata (shiftable /
  frame window), property digest scope, derivation source and hit counter;
* its **proven-FAIL target memos** -- (property fingerprint, target frame)
  pairs whose whole justification search completed with FAIL.

Design rules (see ``docs/knowledge-base.md`` for the full contract):

* **versioned schema** -- ``kb_meta.schema_version`` names the on-disk
  format; stores written by a *newer* repro are left untouched and the
  handle disables itself, older versions are migrated forward in place;
* **merge, never clobber** -- flushing unions cubes (keyed by their
  process-stable fingerprint) taking the maximum hit counter, and only ever
  *adds* proven-FAIL memos; concurrent flushes from batch workers therefore
  commute;
* **crash safety** -- every flush that writes is a single immediate write
  transaction; a reader either sees the previous consistent state or the
  new one.  A flush with nothing new since this handle's last commit for
  the model writes nothing at all;
* **fail open** -- a corrupt, truncated or unreadable store never fails a
  check: the handle degrades to an empty, write-disabled knowledge base and
  records the reason in :attr:`KnowledgeBase.disabled_reason`.
"""

from __future__ import annotations

import json
import os
import sqlite3
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.atpg.estg import ExtendedStateTransitionGraph, LearnedCube
from repro.bitvector import BV3
from repro.kb.fingerprints import circuit_snapshot, identity_kb_key

#: current on-disk format version (bump on any incompatible schema change).
#: v1: cubes + fail memos.  v2: adds a ``solver_cores`` table.  v3: fail
#: memos are keyed by the property digest alone (the ``search_fp`` column
#: holds the JSON of ``[digest, goal value]``).  v4: drops ``solver_cores``.
SCHEMA_VERSION = 4

#: seconds sqlite waits on a locked database before raising; concurrent
#: batch workers flush small transactions, so collisions resolve quickly.
_BUSY_TIMEOUT = 30.0

#: retry count for flushes that still hit a lock after the busy timeout.
_WRITE_RETRIES = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS kb_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS models (
    model_key TEXT PRIMARY KEY,
    circuit_name TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS cubes (
    model_key TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    literals TEXT NOT NULL,
    shiftable INTEGER NOT NULL,
    min_position INTEGER NOT NULL,
    max_position INTEGER NOT NULL,
    prop_digest TEXT,
    source TEXT NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (model_key, fingerprint)
);
CREATE TABLE IF NOT EXISTS fail_memos (
    model_key TEXT NOT NULL,
    search_fp TEXT NOT NULL,
    target_frame INTEGER NOT NULL,
    PRIMARY KEY (model_key, search_fp, target_frame)
);
"""

#: per-version upgrade steps applied by :meth:`KnowledgeBase._migrate`;
#: entry N upgrades a v(N) store to v(N+1).
_MIGRATIONS = {
    # v1 -> v2 added the solver-core table that v3 -> v4 drops again, so
    # the step has nothing left to do; it stays so the chain still walks.
    1: [],
    2: [
        # v2 -> v3: fail memos were keyed by the search configuration and
        # may come from heuristic (non-proof) searches; drop them.  Cubes
        # were only ever learned from proofs and stay.
        "DELETE FROM fail_memos",
    ],
    3: [
        # v3 -> v4: the solver-core memo is gone; every certificate already
        # survives as a datapath cube and a proven-FAIL memo.
        "DROP TABLE IF EXISTS solver_cores",
    ],
}


def _freeze(value):
    """Recursively turn JSON lists back into the tuples fingerprints use."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _jsonable(value) -> bool:
    """True when ``value`` is a scalar/tuple tree JSON round-trips exactly."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_jsonable(item) for item in value)
    return False


def _flush_signature(estg: ExtendedStateTransitionGraph) -> tuple:
    """What a flush of ``estg`` would merge: cube hit counters and memos.

    Cube rows only ever change by a new fingerprint or a higher hit count
    (the merge takes the maximum), and memo rows only by a new memo, so an
    unchanged signature means the flush would write nothing new.
    """
    return (
        frozenset((fingerprint, cube.hits)
                  for fingerprint, cube in estg.learned_cubes.items()),
        frozenset(estg.proven_fail_targets),
    )


class KnowledgeBase:
    """Handle on one knowledge-base file; never raises into a check.

    Construct via :func:`open_knowledge_base` (which deduplicates handles
    per process and survives ``fork``) rather than directly.
    """

    def __init__(self, path: str):
        """Open (creating or migrating as needed) the store at ``path``."""
        self.path = path
        self.disabled = False
        #: human-readable reason when :attr:`disabled` (shown by `kb stats`).
        self.disabled_reason: Optional[str] = None
        self._conn: Optional[sqlite3.Connection] = None
        #: models attached this process: key -> (estg weakref, names, name).
        self._attached: Dict[str, Tuple[weakref.ref, frozenset, str]] = {}
        #: model key -> signature of what this handle last committed for it
        #: (see :func:`_flush_signature`); an unchanged flush is skipped.
        self._flushed: Dict[str, tuple] = {}
        try:
            self._conn = sqlite3.connect(path, timeout=_BUSY_TIMEOUT)
            self._conn.isolation_level = None  # explicit transactions only
            self._ensure_schema()
        except sqlite3.Error as exc:
            self._disable("cannot open %s: %s" % (path, exc))

    # ------------------------------------------------------------------
    def _disable(self, reason: str) -> None:
        self.disabled = True
        self.disabled_reason = reason
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def _tear_file(self) -> None:
        """Simulate a torn write: truncate the store mid-file and disable.

        Exists for the ``kb.flush`` / ``torn-write`` fault kind (chaos
        tests): the next :func:`open_knowledge_base` of the path must take
        the fail-open corruption path, exactly as after a real torn write.
        """
        self._disable("injected torn write during flush")
        try:
            size = os.path.getsize(self.path)
            with open(self.path, "r+b") as stream:
                stream.truncate(max(1, size // 2))
        except OSError:  # pragma: no cover - defensive
            pass

    def _ensure_schema(self) -> None:
        assert self._conn is not None
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            has_meta = conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type='table' AND name='kb_meta'"
            ).fetchone()
            if not has_meta:
                # One execute per statement: executescript() would commit
                # the explicit transaction implicitly and break atomicity.
                for statement in _SCHEMA.split(";"):
                    if statement.strip():
                        conn.execute(statement)
                conn.execute(
                    "INSERT OR REPLACE INTO kb_meta(key, value) VALUES('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                conn.execute("COMMIT")
                return
            row = conn.execute(
                "SELECT value FROM kb_meta WHERE key='schema_version'"
            ).fetchone()
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        try:
            version = int(row[0]) if row else None
        except (TypeError, ValueError):
            version = None
        if version is None:
            self._disable("store has no readable schema_version")
        elif version > SCHEMA_VERSION:
            self._disable(
                "store schema v%d is newer than this build (v%d)"
                % (version, SCHEMA_VERSION)
            )
        elif version < SCHEMA_VERSION:
            self._migrate(version)

    def _migrate(self, version: int) -> None:
        """Migrate an older on-disk format forward, one version at a time.

        Policy (documented in ``docs/knowledge-base.md``): migrations are
        forward-only -- each step runs in one immediate write
        transaction that applies the version's DDL and bumps
        ``kb_meta.schema_version`` together, so a crash mid-migration leaves
        the store consistently at the old version and the next open retries.
        Newer stores are never downgraded (the handle disables itself
        instead), and a version with no registered step disables fail-open.
        """
        assert self._conn is not None
        conn = self._conn
        while version < SCHEMA_VERSION:
            steps = _MIGRATIONS.get(version)
            if steps is None:
                self._disable("store schema v%d has no migration path" % version)
                return
            try:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    for statement in steps:
                        conn.execute(statement)
                    conn.execute(
                        "UPDATE kb_meta SET value = ? WHERE key = 'schema_version'",
                        (str(version + 1),),
                    )
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.Error as exc:
                self._disable(
                    "migration v%d -> v%d failed: %s" % (version, version + 1, exc)
                )
                return
            version += 1

    # ------------------------------------------------------------------
    def schema_version(self) -> Optional[int]:
        """The store's on-disk schema version (``None`` when disabled)."""
        return None if self.disabled else SCHEMA_VERSION

    def attach(self, model, circuit, lowered) -> Tuple[int, int]:
        """Merge the store's facts for this model into ``model.estg``.

        ``lowered`` is the :class:`~repro.properties.convert.LoweredEnvironment`
        the model was acquired under; its ``identity`` names the model on
        disk (:func:`~repro.kb.fingerprints.identity_kb_key`).

        Idempotent per (store, model): the first call loads, later calls
        return ``(0, 0)``.  Also registers the model for flushing (including
        the cache-eviction hook; see
        :class:`~repro.checker.incremental.UnrolledModelCache`) and returns
        ``(cubes loaded, memos loaded)``.
        """
        key = identity_kb_key(circuit, lowered.identity)
        _, net_names = circuit_snapshot(circuit)
        loaded_keys = getattr(model, "kb_loaded_keys", None)
        if loaded_keys is None:
            loaded_keys = set()
            model.kb_loaded_keys = loaded_keys
        estg = model.estg
        self._attached[key] = (
            weakref.ref(estg),
            net_names,
            getattr(circuit, "name", ""),
        )
        model.kb_flush_hook = lambda: self.flush_model(
            key, estg, net_names, getattr(circuit, "name", "")
        )
        if (id(self), key) in loaded_keys:
            return (0, 0)
        loaded_keys.add((id(self), key))
        return self._load_model(key, estg, circuit)

    def _load_model(self, key: str, estg, circuit) -> Tuple[int, int]:
        if self.disabled or self._conn is None:
            return (0, 0)
        try:
            cube_rows = self._conn.execute(
                "SELECT fingerprint, literals, shiftable, min_position, max_position,"
                " prop_digest, source, hits FROM cubes WHERE model_key = ?"
                " ORDER BY hits DESC, fingerprint",
                (key,),
            ).fetchall()
            memo_rows = self._conn.execute(
                "SELECT search_fp, target_frame FROM fail_memos WHERE model_key = ?",
                (key,),
            ).fetchall()
        except sqlite3.Error as exc:
            self._disable("read failed: %s" % exc)
            return (0, 0)
        budget = max(0, estg.max_learned_cubes - len(estg.learned_cubes))
        parsed: List[Tuple[int, LearnedCube]] = []
        for fp_hex, literals_json, shiftable, min_pos, max_pos, prop_json, source, hits in cube_rows:
            if len(parsed) >= budget:
                break
            cube = self._parse_cube(
                fp_hex, literals_json, shiftable, min_pos, max_pos, prop_json, source, hits, circuit
            )
            if cube is not None:
                parsed.append(cube)
        cubes_loaded = 0
        # Insert hottest last so it lands in the most-recent LRU position.
        for fingerprint, cube in reversed(parsed):
            if estg.adopt_kb_cube(cube, fingerprint):
                cubes_loaded += 1
        memos_loaded = 0
        for memo_json, target_frame in memo_rows:
            try:
                prop_fp = _freeze(json.loads(memo_json))
            except (ValueError, TypeError):
                continue
            if estg.adopt_kb_fail(prop_fp, int(target_frame)):
                memos_loaded += 1
        return (cubes_loaded, memos_loaded)

    @staticmethod
    def _parse_cube(
        fp_hex, literals_json, shiftable, min_pos, max_pos, prop_json, source, hits, circuit
    ) -> Optional[Tuple[int, LearnedCube]]:
        """One cube row -> (fingerprint, cube), or ``None`` if not loadable.

        A cube is dropped (not an error) when a literal names a net this
        circuit does not have at the recorded width -- the defensive check
        behind the name-snapshot persistence filter.
        """
        try:
            fingerprint = int(fp_hex, 16)
            raw_literals = json.loads(literals_json)
            literals = []
            for name, width, position, value in raw_literals:
                if not circuit.has_net(name):
                    return None
                net = circuit.net(name)
                if net.width != width:
                    return None
                literals.append((net, int(position), BV3.from_string(value)))
            prop_fp = _freeze(json.loads(prop_json)) if prop_json is not None else None
        except (ValueError, TypeError, KeyError):
            return None
        cube = LearnedCube(
            literals=tuple(literals),
            shiftable=bool(shiftable),
            min_position=int(min_pos),
            max_position=int(max_pos),
            prop_fp=prop_fp,
            source=str(source),
            hits=int(hits),
        )
        return (fingerprint, cube)

    # ------------------------------------------------------------------
    def flush_model(
        self,
        key: str,
        estg: ExtendedStateTransitionGraph,
        net_names: frozenset,
        circuit_name: str = "",
    ) -> int:
        """Write the graph's persistable facts for ``key`` in one write-tx.

        Returns the number of cube rows written (0 when disabled, or when
        nothing changed since this handle last committed ``key``: then no
        transaction is opened).  Only cubes whose literals all name snapshot
        nets are persisted; memos are written whenever their property
        fingerprint JSON-round-trips.  Safe to call repeatedly -- merging
        is idempotent.
        """
        if self.disabled or self._conn is None:
            return 0
        rule = faults.maybe_fire("kb.flush")
        if rule is not None and rule.kind == "fsync-fail":
            # As if the OS failed the write-back: nothing on disk can be
            # trusted any more, so the handle degrades fail-open -- checks
            # keep their in-memory facts and simply stop persisting.
            self._disable("injected fsync failure during flush")
            return 0
        tear_after = rule is not None and rule.kind == "torn-write"
        signature = _flush_signature(estg)
        if not tear_after and self._flushed.get(key) == signature:
            return 0
        cube_rows = []
        for fingerprint, cube in estg.learned_cubes.items():
            row = self._serialize_cube(fingerprint, cube, net_names)
            if row is not None:
                cube_rows.append((key,) + row)
        memo_rows = []
        for prop_fp, target_frame in estg.proven_fail_targets:
            if _jsonable(prop_fp) and isinstance(target_frame, int):
                memo_rows.append((key, json.dumps(prop_fp), target_frame))
        for attempt in range(_WRITE_RETRIES):
            try:
                conn = self._conn
                conn.execute("BEGIN IMMEDIATE")
                try:
                    _merge_rows(conn, [(key, circuit_name)], cube_rows, memo_rows)
                    conn.execute("COMMIT")
                    if tear_after:
                        self._tear_file()
                        return 0
                    self._flushed[key] = signature
                    return len(cube_rows)
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            except sqlite3.OperationalError:
                if attempt == _WRITE_RETRIES - 1:
                    return 0
            except sqlite3.Error as exc:
                self._disable("write failed: %s" % exc)
                return 0
        return 0

    @staticmethod
    def _serialize_cube(
        fingerprint: Optional[int], cube: LearnedCube, net_names: frozenset
    ) -> Optional[tuple]:
        """One cube -> a sqlite row tail, or ``None`` when not persistable."""
        if fingerprint is None:
            return None
        literals = []
        for net, position, value in cube.literals:
            name = getattr(net, "name", None)
            width = getattr(net, "width", None)
            if name is None or width is None or name not in net_names:
                return None
            literals.append([name, width, position, str(value)])
        if cube.prop_fp is not None and not _jsonable(cube.prop_fp):
            return None
        prop_json = None if cube.prop_fp is None else json.dumps(cube.prop_fp)
        return (
            "%016x" % fingerprint,
            json.dumps(literals),
            int(cube.shiftable),
            cube.min_position,
            cube.max_position,
            prop_json,
            cube.source,
            cube.hits,
        )

    def flush_attached(self) -> int:
        """Flush every still-alive model attached this process.

        The batch worker calls this after finishing a circuit group, so a
        group's facts land on disk even if a later group crashes the worker.
        Returns total cube rows written.
        """
        written = 0
        for key, (estg_ref, net_names, circuit_name) in list(self._attached.items()):
            estg = estg_ref()
            if estg is None:
                del self._attached[key]
                continue
            written += self.flush_model(key, estg, net_names, circuit_name)
        return written

    # ------------------------------------------------------------------
    # Admin operations (the `repro kb` CLI)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Store totals plus one summary row per model (for `kb stats`)."""
        if self.disabled or self._conn is None:
            return {
                "path": self.path,
                "disabled": True,
                "reason": self.disabled_reason,
            }
        per_model = []
        try:
            for key, name in self._conn.execute(
                "SELECT model_key, circuit_name FROM models ORDER BY model_key"
            ):
                cubes, hits = self._conn.execute(
                    "SELECT COUNT(*), COALESCE(SUM(hits), 0) FROM cubes WHERE model_key = ?",
                    (key,),
                ).fetchone()
                memos = self._conn.execute(
                    "SELECT COUNT(*) FROM fail_memos WHERE model_key = ?", (key,)
                ).fetchone()[0]
                per_model.append(
                    {
                        "model_key": key,
                        "circuit": name,
                        "cubes": cubes,
                        "fail_memos": memos,
                        "hits": hits,
                    }
                )
        except sqlite3.Error as exc:
            # Corruption (e.g. a torn write) can pass the open-time schema
            # check and only surface mid-query; degrade fail-open here too.
            self._disable("stats failed: %s" % exc)
            return {
                "path": self.path,
                "disabled": True,
                "reason": self.disabled_reason,
            }
        return {
            "path": self.path,
            "disabled": False,
            "schema_version": SCHEMA_VERSION,
            "models": len(per_model),
            "cubes": sum(row["cubes"] for row in per_model),
            "fail_memos": sum(row["fail_memos"] for row in per_model),
            "hits": sum(row["hits"] for row in per_model),
            "per_model": per_model,
        }

    def prune(self, min_hits: int = 0, keep: Optional[int] = None) -> int:
        """Drop cold cubes; returns the number of cube rows removed.

        ``min_hits`` drops cubes with fewer recorded fires; ``keep`` additionally keeps only the hottest N cubes per
        model.  Proven-FAIL memos are never pruned (they are tiny and never
        demoted).
        """
        if self.disabled or self._conn is None:
            return 0
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            before = conn.execute("SELECT COUNT(*) FROM cubes").fetchone()[0]
            if min_hits > 0:
                conn.execute("DELETE FROM cubes WHERE hits < ?", (min_hits,))
            if keep is not None:
                conn.execute(
                    "DELETE FROM cubes WHERE (model_key, fingerprint) IN ("
                    " SELECT model_key, fingerprint FROM ("
                    "  SELECT model_key, fingerprint, ROW_NUMBER() OVER ("
                    "   PARTITION BY model_key ORDER BY hits DESC, fingerprint"
                    "  ) AS rank FROM cubes) WHERE rank > ?)",
                    (keep,),
                )
            after = conn.execute("SELECT COUNT(*) FROM cubes").fetchone()[0]
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("VACUUM")
        return before - after

    def merge_from(self, source: "KnowledgeBase") -> Dict[str, int]:
        """Merge another store into this one (union / max-hits / add-only)."""
        merged = self.merge_many([source])
        merged.pop("sources", None)
        return merged

    def merge_many(self, sources: Sequence["KnowledgeBase"]) -> Dict[str, int]:
        """Merge several stores into this one in a *single* transaction.

        The merge semantics are the commuting flush rules (union cubes
        keyed by fingerprint taking the maximum hit counter, add-only
        memos), applied to every readable source under one
        ``BEGIN IMMEDIATE`` -- so ``repro fleet sync`` over N shards pays
        one write transaction per destination, not one per source pair.
        Disabled sources (and the destination itself) are skipped; the
        returned counts are totals over the sources actually merged
        (row counts read, not deduplicated).  Merging is idempotent:
        replaying the same sources changes nothing.
        """
        totals = {"sources": 0, "models": 0, "cubes": 0, "fail_memos": 0}
        if self.disabled or self._conn is None:
            return totals
        batches = []
        for source in sources:
            if source is self or source.path == self.path:
                continue
            if source.disabled or source._conn is None:
                continue
            try:
                models = source._conn.execute(
                    "SELECT model_key, circuit_name FROM models"
                ).fetchall()
                cubes = source._conn.execute(
                    "SELECT model_key, fingerprint, literals, shiftable,"
                    " min_position, max_position, prop_digest, source, hits"
                    " FROM cubes"
                ).fetchall()
                memos = source._conn.execute(
                    "SELECT model_key, search_fp, target_frame FROM fail_memos"
                ).fetchall()
            except sqlite3.Error:
                # A source torn mid-read contributes nothing; the merge of
                # the remaining sources still lands atomically.
                continue
            batches.append((models, cubes, memos))
        if not batches:
            return totals
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            for models, cubes, memos in batches:
                _merge_rows(conn, models, cubes, memos)
                totals["sources"] += 1
                totals["models"] += len(models)
                totals["cubes"] += len(cubes)
                totals["fail_memos"] += len(memos)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return totals

    def close(self) -> None:
        """Close the sqlite handle (flushes nothing by itself)."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None


def _merge_rows(conn: sqlite3.Connection, models, cubes, memos) -> None:
    """Apply the commuting merge rule inside the caller's transaction.

    Models and FAIL memos are add-only; cubes union by fingerprint, keeping
    the larger hit counter.  Every flush and every merge writes through here,
    so replaying rows in any order and any number of times lands the same
    store.
    """
    conn.executemany(
        "INSERT OR IGNORE INTO models(model_key, circuit_name) VALUES(?, ?)",
        models,
    )
    conn.executemany(
        "INSERT INTO cubes(model_key, fingerprint, literals, shiftable,"
        " min_position, max_position, prop_digest, source, hits)"
        " VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?)"
        " ON CONFLICT(model_key, fingerprint)"
        " DO UPDATE SET hits = MAX(hits, excluded.hits)",
        cubes,
    )
    conn.executemany(
        "INSERT OR IGNORE INTO fail_memos(model_key, search_fp, target_frame)"
        " VALUES(?, ?, ?)",
        memos,
    )


# ----------------------------------------------------------------------
# Per-process handle registry
# ----------------------------------------------------------------------
#: path -> (owning pid, handle); the pid guard gives forked batch workers
#: fresh connections (sqlite handles must not cross a fork).
_OPEN_STORES: Dict[str, Tuple[int, KnowledgeBase]] = {}


def open_knowledge_base(path: str) -> KnowledgeBase:
    """The process's shared handle for the store at ``path``.

    Handles are deduplicated per (absolute path, pid): every checker and
    batch worker in one process shares a connection, and a worker forked
    from a parent that had the store open transparently re-opens it.
    """
    resolved = os.path.abspath(path)
    entry = _OPEN_STORES.get(resolved)
    if entry is not None and entry[0] == os.getpid():
        return entry[1]
    handle = KnowledgeBase(resolved)
    _OPEN_STORES[resolved] = (os.getpid(), handle)
    return handle


def flush_attached_stores() -> int:
    """Flush every attached model of every store opened by this process.

    Called by the batch worker after each circuit group and usable as a
    general "sync to disk now" barrier.  Returns total cube rows written.
    """
    written = 0
    pid = os.getpid()
    for owner_pid, handle in list(_OPEN_STORES.values()):
        if owner_pid == pid:
            written += handle.flush_attached()
    return written
