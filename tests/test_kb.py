"""Persistent knowledge base (PR 6): cross-process reuse of learned facts.

The contract under test is the prune-only soundness guarantee extended
across process boundaries: a warm run primed from a knowledge-base store
must produce verdicts and counterexamples bit-identical to a cold run,
while actually consuming the persisted facts (``kb_cubes_loaded`` /
``kb_hits``).  Failure paths (corrupt stores, newer schema versions) must
fail *open*: the check proceeds as if no store were given.
"""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.atpg.estg import ExtendedStateTransitionGraph
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.circuits import build_case
from repro.kb import (
    SCHEMA_VERSION,
    KnowledgeBase,
    environment_kb_fingerprint,
    initial_state_kb_fingerprint,
    model_kb_key,
)
from repro.kb.fingerprints import circuit_snapshot, identity_kb_key
from repro.netlist import Circuit
from repro.properties import Environment, parse_expression

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Sweeps a zoo case in a fresh interpreter and dumps per-bound results as
#: JSON.  argv: ``case_id kb_path_or_dash``.  Run via ``subprocess`` so the
#: knowledge base is genuinely crossing a process boundary, not just a
#: cache boundary.
_SWEEP_SCRIPT = """\
import json, sys
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.circuits import build_case

case_id, kb_arg = sys.argv[1], sys.argv[2]
case = build_case(case_id)
# Sweep a little past the case's nominal bound: the deeper frames are where
# conflict-heavy searches learn most of their cubes.
depth = case.max_frames + 3
checker = AssertionChecker(
    case.circuit,
    environment=case.environment,
    initial_state=case.initial_state,
    options=CheckerOptions(
        max_frames=depth,
        learning=True,
        kb_path=None if kb_arg == "-" else kb_arg,
    ),
    model_cache=UnrolledModelCache(),
)
payload = []
for bound in range(1, depth + 1):
    result = checker.check(case.prop, max_frames=bound)
    cex = result.counterexample
    payload.append({
        "status": result.status.value,
        "frames": result.frames_explored,
        "cex": None if cex is None else {
            "initial_state": cex.initial_state,
            "inputs": cex.inputs,
            "target_frame": cex.target_frame,
        },
        "decisions": result.statistics.decisions,
        "kb_cubes_loaded": result.statistics.kb_cubes_loaded,
        "kb_hits": result.statistics.kb_hits,
    })
print(json.dumps(payload))
"""


def _run_sweep_process(case_id, kb_arg):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("REPRO_KB", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT, case_id, kb_arg],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def _verdicts(payload):
    return [(row["status"], row["frames"], row["cex"]) for row in payload]


# ----------------------------------------------------------------------
# Tentpole: cross-process round trip, verdicts bit-identical to cold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", ["p5", "p15"])
def test_cross_process_roundtrip_is_prune_only(case_id, tmp_path):
    kb_path = str(tmp_path / "facts.db")
    cold = _run_sweep_process(case_id, kb_path)
    warm = _run_sweep_process(case_id, kb_path)
    bare = _run_sweep_process(case_id, "-")

    # The second process consumed facts the first one persisted...
    assert sum(row["kb_cubes_loaded"] for row in warm) > 0
    assert sum(row["kb_hits"] for row in warm) > 0
    assert sum(row["decisions"] for row in warm) < sum(
        row["decisions"] for row in cold
    )
    # ...and the first process, starting empty, consumed none.
    assert sum(row["kb_cubes_loaded"] for row in cold) == 0

    # Prune-only: every verdict and counterexample is bit-identical to a
    # run that never saw a knowledge base.
    assert _verdicts(warm) == _verdicts(bare)
    assert _verdicts(cold) == _verdicts(bare)


def test_cross_process_roundtrip_via_cli(tmp_path):
    design = tmp_path / "counter.v"
    design.write_text(
        "module counter(clk, rst, en, count);\n"
        "  input clk, rst, en;\n"
        "  output [3:0] count;\n"
        "  reg [3:0] count;\n"
        "  always @(posedge clk) begin\n"
        "    if (rst) count <= 4'd0;\n"
        "    else if (en) begin\n"
        "      if (count == 4'd9) count <= 4'd0;\n"
        "      else count <= count + 4'd1;\n"
        "    end\n"
        "  end\n"
        "endmodule\n"
    )
    kb_path = str(tmp_path / "facts.db")

    def run_check(*extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env.pop("REPRO_KB", None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(design),
             "--assert", "safe=count < 10", "--max-frames", "6", "--json",
             *extra],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)[0]

    cold = run_check("--kb", kb_path)
    warm = run_check("--kb", kb_path)
    bare = run_check("--no-kb", "--kb", kb_path)

    assert cold["status"] == warm["status"] == bare["status"] == "holds"
    assert warm["kb_hits"] > 0
    assert warm["decisions"] == 0 and bare["decisions"] > 0
    assert bare["kb_hits"] == 0  # --no-kb really disables the store

    # `repro kb stats --json` sees what the runs persisted.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "kb", "stats", kb_path, "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["schema_version"] == SCHEMA_VERSION
    assert stats["models"] == 1
    assert stats["fail_memos"] > 0


# ----------------------------------------------------------------------
# Memo keys stay stable across releases; older stores migrate forward
# ----------------------------------------------------------------------
#: ``json.dumps`` of p5's proven-FAIL memo key, as written to the
#: ``fail_memos.search_fp`` column since schema v3: the normalised property
#: digest and the goal value, the key learned cubes are scoped by.
P5_MEMO_KEY_JSON = "[8982715274654717957, 0]"

#: A p5 memo key as schema v2 wrote it: the property spelling plus the
#: search configuration.
P5_V2_MEMO_KEY_JSON = (
    "[[8982715274654717957, 0], true, false, 0, 2000, "
    "[200000, 50000, 5000, 64, 8, 256]]"
)


def test_fail_memo_key_json_is_stable():
    case = build_case("p5")
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        model_cache=UnrolledModelCache(),
    )
    compiled = checker.compiler.compile(case.prop)
    assert json.dumps(checker._prop_fingerprint(compiled)) == P5_MEMO_KEY_JSON


#: The ``solver_cores`` table of schema v2 and v3 (dropped by v4).
_V3_SOLVER_CORES_DDL = (
    "CREATE TABLE solver_cores (model_key TEXT NOT NULL,"
    " fingerprint TEXT NOT NULL, core TEXT NOT NULL,"
    " hits INTEGER NOT NULL DEFAULT 0, PRIMARY KEY (model_key, fingerprint))"
)


def _legacy_copy(written, path, version):
    """Copy a store and rewrite it as the given pre-v4 schema version,
    with a ``solver_cores`` table holding one row per model.  Returns the
    path and an open connection for further edits."""
    shutil.copy(written, path)
    conn = sqlite3.connect(str(path))
    conn.execute(
        "UPDATE kb_meta SET value = ? WHERE key = 'schema_version'", (str(version),)
    )
    conn.execute(_V3_SOLVER_CORES_DDL)
    conn.execute(
        "INSERT INTO solver_cores(model_key, fingerprint, core, hits)"
        " SELECT model_key, 'core', '[[\"sum\", 0]]', 3 FROM models"
    )
    conn.commit()
    return str(path), conn


def _table_names(path):
    conn = sqlite3.connect(path)
    try:
        return {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
    finally:
        conn.close()


def test_v2_store_migrates_without_its_fail_memos(tmp_path):
    """v2 memos were keyed by the search configuration and may come from
    heuristic searches, so the v3 migration drops them; cubes were only
    ever learned from proofs, so they stay, load and keep pruning.  The
    chain then walks on to the current version."""
    written = tmp_path / "written.db"
    _, _, _, cold = _sweep_case("p14", str(written))
    legacy, conn = _legacy_copy(written, tmp_path / "legacy.db", 2)
    (model_key,) = conn.execute("SELECT model_key FROM models").fetchone()
    conn.execute(
        "INSERT INTO fail_memos(model_key, search_fp, target_frame) VALUES(?, ?, 0)",
        (model_key, P5_V2_MEMO_KEY_JSON),
    )
    conn.commit()
    (cubes,) = conn.execute("SELECT COUNT(*) FROM cubes").fetchone()
    (memos,) = conn.execute("SELECT COUNT(*) FROM fail_memos").fetchone()
    conn.close()
    assert cubes > 0 and memos > 1

    store = KnowledgeBase(legacy)
    try:
        assert not store.disabled
        stats = store.stats()
        assert stats["schema_version"] == SCHEMA_VERSION == 4
        assert stats["cubes"] == cubes
        assert stats["fail_memos"] == 0
    finally:
        store.close()
    conn = sqlite3.connect(legacy)
    try:
        assert conn.execute(
            "SELECT value FROM kb_meta WHERE key = 'schema_version'"
        ).fetchone() == ("4",)
    finally:
        conn.close()
    assert "solver_cores" not in _table_names(legacy)

    _, _, _, warm = _sweep_case("p14", legacy)
    assert [r.status for r in warm] == [r.status for r in cold]
    assert warm[0].statistics.kb_cubes_loaded > 0
    assert warm[0].statistics.targets_skipped == 0
    assert sum(r.statistics.kb_hits for r in warm) > 0


def test_v1_store_walks_the_empty_v2_step(tmp_path):
    """v1 -> v2 once added ``solver_cores``; that step is empty now, but a
    v1 store still walks the whole chain to the current version."""
    path = str(tmp_path / "v1.db")
    KnowledgeBase(path).close()
    conn = sqlite3.connect(path)
    conn.execute("UPDATE kb_meta SET value = '1' WHERE key = 'schema_version'")
    conn.commit()
    conn.close()
    store = KnowledgeBase(path)
    try:
        assert not store.disabled
        assert store.stats()["schema_version"] == SCHEMA_VERSION
    finally:
        store.close()
    assert "solver_cores" not in _table_names(path)


def test_v3_store_opens_as_v4_without_its_solver_cores(tmp_path):
    """v3 also memoised whole solver answers in ``solver_cores``; v4 drops
    the table.  The datapath cubes and FAIL memos a v3 store holds still
    load and replay every p15 certificate without a solver call, and
    neither ``kb stats`` nor ``merge_many`` reports solver cores any more.
    """
    written = tmp_path / "written.db"
    _, _, _, cold = _sweep_case("p15", str(written))
    assert sum(r.statistics.datapath_cubes_learned for r in cold) > 0
    legacy, conn = _legacy_copy(written, tmp_path / "legacy.db", 3)
    (cubes,) = conn.execute("SELECT COUNT(*) FROM cubes").fetchone()
    (memos,) = conn.execute("SELECT COUNT(*) FROM fail_memos").fetchone()
    conn.close()
    assert cubes > 0 and memos > 0
    cubes_only, conn = _legacy_copy(written, tmp_path / "cubes-only.db", 3)
    conn.execute("DELETE FROM fail_memos")
    conn.commit()
    conn.close()
    merge_source, conn = _legacy_copy(written, tmp_path / "source.db", 3)
    conn.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "kb", "stats", legacy, "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout)
    assert stats["schema_version"] == SCHEMA_VERSION == 4
    assert (stats["cubes"], stats["fail_memos"]) == (cubes, memos)
    assert "solver_cores" not in stats
    assert all("solver_cores" not in row for row in stats["per_model"])
    assert "solver_cores" not in _table_names(legacy)

    _, _, _, warm = _sweep_case("p15", legacy)
    assert [r.status for r in warm] == [r.status for r in cold]
    assert sum(r.statistics.arithmetic_calls for r in warm) == 0
    assert sum(r.statistics.targets_skipped for r in warm) > 0
    assert sum(r.statistics.kb_hits for r in warm) > 0

    # Without the memos the datapath cubes alone replay every certificate.
    _, _, _, pruned = _sweep_case("p15", cubes_only)
    assert [r.status for r in pruned] == [r.status for r in cold]
    assert sum(r.statistics.arithmetic_calls for r in pruned) == 0
    assert sum(r.statistics.datapath_cube_hits for r in pruned) > 0

    source = KnowledgeBase(merge_source)
    dest = KnowledgeBase(str(tmp_path / "dest.db"))
    try:
        merged = dest.merge_many([source])
        assert merged == {
            "sources": 1, "models": 1, "cubes": cubes, "fail_memos": memos,
        }
        assert "solver_cores" not in dest.stats()
    finally:
        source.close()
        dest.close()


def _golden_circuit():
    circuit = Circuit("golden")
    for name in ("x", "y", "z"):
        circuit.input(name, 1)
    circuit.input("d", 4)
    circuit.output(circuit.dff(circuit.or_(circuit.net("x"), circuit.net("y")),
                               init_value=0, name="r"))
    return circuit


#: name -> (environment, its environment_kb_fingerprint).  ``d`` is a 4-bit
#: net pinned to 37: the key hashes the declared value, not the wrapped one.
GOLDEN_ENVIRONMENTS = {
    "none": (lambda: None, 0x4A3EFB5C9E1076D0),
    "empty": (Environment, 0xC2F01118F05367D4),
    "pins": (lambda: Environment().pin("x", 1).pin("d", 37), 0xCFBDC8694041001D),
    "onehot_group": (lambda: Environment().one_hot(["x", "y", "z"]), 0xE305A7F62A499D2A),
    "assume_onehot_xy": (
        lambda: Environment().assume(parse_expression("onehot(x, y)")),
        0xBFAB10F271276E92,
    ),
    "assume_onehot_xz": (
        lambda: Environment().assume(parse_expression("onehot(x, z)")),
        0x1C38752B07F18B74,
    ),
    "init": (
        lambda: Environment().pin("z", 0).initialize_with([{"x": 1, "d": 3}, {"y": 1}]),
        0x48EB5FB9EA6E1736,
    ),
}
GOLDEN_INITIAL_STATES = [
    (None, 0x5E9C1B78F04C74DD),
    ({}, 0xF32445CCD782E91B),
    ({"r": 1}, 0xD9DF666E198A5B49),
    ({"r": 0, "q": 5}, 0x26FF7F489186CEC0),
]
GOLDEN_CIRCUIT_FP = "2adaf5edc2a109d7"


def test_model_kb_keys_are_pinned():
    """Stored facts are found again only while these values hold: a store
    written by an earlier version keys its rows by exactly these hashes."""
    for name, (build, expected) in GOLDEN_ENVIRONMENTS.items():
        assert environment_kb_fingerprint(build()) == expected, name
    for state, expected in GOLDEN_INITIAL_STATES:
        assert initial_state_kb_fingerprint(state) == expected, state
    circuit = _golden_circuit()
    for name, (build, env_fp) in GOLDEN_ENVIRONMENTS.items():
        for state, state_fp in (GOLDEN_INITIAL_STATES[0], GOLDEN_INITIAL_STATES[2]):
            assert model_kb_key(circuit, state, build()) == "%s-%016x-%016x" % (
                GOLDEN_CIRCUIT_FP, state_fp, env_fp
            ), (name, state)


def test_circuit_snapshot_names_only_the_design():
    """The key does not depend on what the circuit was checked for before:
    after a check without learning (which opens no store) the snapshot is
    still the fresh design's."""
    fresh = circuit_snapshot(build_case("p9").circuit)
    case = build_case("p9")
    AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(learning=False),
    ).check(case.prop)
    assert circuit_snapshot(case.circuit) == fresh
    assert len(fresh[1]) < len(case.circuit.nets)


# ----------------------------------------------------------------------
# Failure paths fail open
# ----------------------------------------------------------------------
def _check_case_with_kb(kb_path):
    case = build_case("p5")
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(
            max_frames=case.max_frames,
            kb_path=kb_path,
        ),
        model_cache=UnrolledModelCache(),
    )
    return checker.check(case.prop)


def test_corrupt_store_fails_open(tmp_path):
    kb_path = tmp_path / "corrupt.db"
    kb_path.write_bytes(b"this is definitely not a sqlite database\x00\xff" * 8)
    store = KnowledgeBase(str(kb_path))
    try:
        assert store.disabled
        assert store.disabled_reason
        assert store.stats()["disabled"]
    finally:
        store.close()
    # The checker still runs and decides the property normally.
    case = build_case("p5")
    result = _check_case_with_kb(str(kb_path))
    assert result.status is case.expected_status
    assert result.statistics.kb_cubes_loaded == 0


def test_truncated_store_fails_open(tmp_path):
    kb_path = tmp_path / "facts.db"
    _run_sweep_process("p5", str(kb_path))
    whole = kb_path.read_bytes()
    kb_path.write_bytes(whole[: len(whole) // 3])
    result = _check_case_with_kb(str(kb_path))
    assert result.status is build_case("p5").expected_status


def test_newer_schema_version_fails_open(tmp_path):
    kb_path = str(tmp_path / "future.db")
    KnowledgeBase(kb_path).close()  # creates a valid v-current store
    conn = sqlite3.connect(kb_path)
    conn.execute(
        "UPDATE kb_meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    store = KnowledgeBase(kb_path)
    try:
        assert store.disabled
        assert "newer" in (store.disabled_reason or "")
        # A disabled handle never writes.
        assert store.flush_attached() == 0
    finally:
        store.close()
    result = _check_case_with_kb(kb_path)
    assert result.status is build_case("p5").expected_status


# ----------------------------------------------------------------------
# Merge semantics: union cubes, max hits, add-only memos, idempotent
# ----------------------------------------------------------------------
def test_merge_is_idempotent_union(tmp_path):
    source_path = str(tmp_path / "source.db")
    _run_sweep_process("p5", source_path)
    _run_sweep_process("p5", source_path)  # record some hits
    copy_path = str(tmp_path / "copy.db")
    shutil.copy(source_path, copy_path)

    source = KnowledgeBase(source_path)
    reference = source.stats()
    assert reference["cubes"] > 0 and reference["fail_memos"] > 0

    dest = KnowledgeBase(str(tmp_path / "dest.db"))
    copy = KnowledgeBase(copy_path)
    try:
        dest.merge_from(source)
        dest.merge_from(copy)
        dest.merge_from(source)  # idempotent: same facts, no duplication
        merged = dest.stats()
        assert merged["models"] == reference["models"]
        assert merged["cubes"] == reference["cubes"]
        assert merged["fail_memos"] == reference["fail_memos"]
        # Hit counters take the max across stores, never the sum.
        assert merged["hits"] == reference["hits"]
    finally:
        source.close()
        copy.close()
        dest.close()


def test_merge_many_multi_source_idempotent(tmp_path):
    """One ``merge_many`` call equals sequential ``merge_from`` calls, and
    replaying it changes nothing (merge twice == merge once)."""
    path_a = str(tmp_path / "a.db")
    path_b = str(tmp_path / "b.db")
    _run_sweep_process("p5", path_a)
    _run_sweep_process("p2", path_b)

    source_a = KnowledgeBase(path_a)
    source_b = KnowledgeBase(path_b)
    dest = KnowledgeBase(str(tmp_path / "dest.db"))
    sequential = KnowledgeBase(str(tmp_path / "sequential.db"))
    try:
        assert source_a.stats()["models"] > 0
        assert source_b.stats()["models"] > 0

        once = dest.merge_many([source_a, source_b])
        assert once["sources"] == 2
        after_once = dest.stats()
        assert after_once["models"] > 0

        twice = dest.merge_many([source_a, source_b])
        assert twice["sources"] == 2  # rows re-read, but nothing changes:
        assert dest.stats() == after_once

        sequential.merge_from(source_a)
        sequential.merge_from(source_b)
        for key in ("models", "cubes", "fail_memos", "hits"):
            assert sequential.stats()[key] == after_once[key]
    finally:
        source_a.close()
        source_b.close()
        dest.close()
        sequential.close()


def test_merge_many_is_a_single_transaction(tmp_path):
    """N sources cost one BEGIN IMMEDIATE, not one per source."""
    path_a = str(tmp_path / "a.db")
    path_b = str(tmp_path / "b.db")
    _run_sweep_process("p5", path_a)
    _run_sweep_process("p2", path_b)
    source_a = KnowledgeBase(path_a)
    source_b = KnowledgeBase(path_b)
    dest = KnowledgeBase(str(tmp_path / "dest.db"))
    statements = []
    try:
        dest._conn.set_trace_callback(statements.append)
        dest.merge_many([source_a, source_b])
        dest._conn.set_trace_callback(None)
    finally:
        source_a.close()
        source_b.close()
        dest.close()
    assert sum("BEGIN IMMEDIATE" in s for s in statements) == 1
    assert sum("COMMIT" in s for s in statements) == 1


def test_merge_many_skips_self_and_disabled(tmp_path):
    path_a = str(tmp_path / "a.db")
    _run_sweep_process("p5", path_a)
    source = KnowledgeBase(path_a)

    broken_path = tmp_path / "broken.db"
    broken_path.write_bytes(b"this is not sqlite at all" * 64)
    broken = KnowledgeBase(str(broken_path))

    dest = KnowledgeBase(str(tmp_path / "dest.db"))
    try:
        assert broken.disabled
        merged = dest.merge_many([dest, broken, source])
        # Only the one readable, distinct source contributed.
        assert merged["sources"] == 1
        assert dest.stats()["models"] == source.stats()["models"]
    finally:
        source.close()
        broken.close()
        dest.close()


def test_prune_keeps_hottest_cubes_per_model(tmp_path):
    kb_path = str(tmp_path / "facts.db")
    _run_sweep_process("p5", kb_path)
    _run_sweep_process("p5", kb_path)
    store = KnowledgeBase(kb_path)
    try:
        before = store.stats()
        assert before["cubes"] > 2
        removed = store.prune(keep=2)
        after = store.stats()
        assert removed == before["cubes"] - after["cubes"]
        assert all(row["cubes"] <= 2 for row in after["per_model"])
        # Memos are never pruned.
        assert after["fail_memos"] == before["fail_memos"]
    finally:
        store.close()


# ----------------------------------------------------------------------
# Stores written by older versions
# ----------------------------------------------------------------------
def _sweep_case(case_id, kb_path=None, depth=8):
    case = build_case(case_id)
    cache = UnrolledModelCache()
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=depth, kb_path=kb_path),
        model_cache=cache,
    )
    results = [
        checker.check(case.prop, max_frames=bound) for bound in range(1, depth + 1)
    ]
    model, _ = cache.acquire(case.circuit, checker.lowered)
    return case.circuit, checker, model, results


def test_legacy_state_cubes_still_load_and_prune(tmp_path):
    """Older versions also persisted goal-free, non-shiftable cubes with
    ``source="state"``.  A store holding such rows keeps loading into a
    fresh checker, and its cubes keep pruning."""
    circuit, checker, model, cold = _sweep_case("p14")
    legacy = ExtendedStateTransitionGraph()
    for cube in model.estg.learned_cubes.values():
        if cube.prop_fp is None and not cube.shiftable:
            legacy.record_learned_cube(replace(cube, source="state", hits=0))
    assert legacy.learned_cubes
    kb_path = str(tmp_path / "legacy.db")
    store = KnowledgeBase(kb_path)
    try:
        _, net_names = circuit_snapshot(circuit)
        key = identity_kb_key(circuit, checker.lowered.identity)
        assert store.flush_model(key, legacy, net_names, circuit.name) == len(
            legacy.learned_cubes
        )
    finally:
        store.close()

    _, _, warm_model, warm = _sweep_case("p14", kb_path)
    assert [r.status for r in warm] == [r.status for r in cold]
    assert warm[-1].statistics.kb_cubes_loaded == len(legacy.learned_cubes)
    assert sum(r.statistics.kb_hits for r in warm) > 0
    fired = [
        cube for cube in warm_model.estg.learned_cubes.values()
        if cube.from_kb and cube.hits
    ]
    assert fired and all(cube.source == "state" for cube in fired)
    assert sum(r.statistics.decisions for r in warm) <= sum(
        r.statistics.decisions for r in cold
    )


# ----------------------------------------------------------------------
# Batch workers: concurrent flushes commute
# ----------------------------------------------------------------------
def test_batch_workers_flush_concurrently(tmp_path):
    from repro.portfolio import (
        AtpgEngine, BatchJob, BatchOptions, BatchRunner, EngineBudget,
    )

    kb_path = str(tmp_path / "batch.db")

    def run_batch():
        # Fresh circuit objects per run: nothing is shared in-process, so
        # the second run can only get facts from the store.
        cases = [build_case(case_id) for case_id in ("p5", "p12", "p15")]
        jobs = [
            BatchJob(case_id, case.circuit, case.prop,
                     environment=case.environment,
                     initial_state=case.initial_state)
            for case_id, case in zip(("p5", "p12", "p15"), cases)
        ]
        report = BatchRunner(
            BatchOptions(
                engines=(AtpgEngine(CheckerOptions(kb_path=kb_path)),),
                budget=EngineBudget(max_frames=max(c.max_frames for c in cases)),
                jobs=2,
            )
        ).run(jobs)
        statuses = [item.result.status.value for item in report.items]
        kb_hits = sum(
            (engine_result.stats or {}).get("kb_hits", 0)
            for item in report.items
            for engine_result in item.result.engine_results
        )
        return statuses, kb_hits

    cold_statuses, _ = run_batch()
    warm_statuses, warm_hits = run_batch()
    assert warm_statuses == cold_statuses
    assert warm_hits > 0
    store = KnowledgeBase(kb_path)
    try:
        stats = store.stats()
        assert not stats["disabled"]
        assert stats["models"] == 3
        assert stats["fail_memos"] > 0
    finally:
        store.close()
