"""Knowledge-base flushes that would write nothing new are skipped.

:meth:`repro.kb.KnowledgeBase.flush_model` keeps, per model key, a
signature of what the handle last committed (cube fingerprints with their
hit counters, plus the proven-FAIL memo set) and opens no transaction when
a flush would merge the same facts again.  The contract under test:

* a store flushed that way dumps row for row like one that writes every
  flush in full;
* a warm check that learns nothing issues no ``BEGIN IMMEDIATE``, while a
  raised hit counter or a new memo is written;
* the ``kb.flush`` fault site still fires on a skipped flush, and a
  ``torn-write`` flush still writes (and tears).
"""

import sqlite3

import pytest

from repro import api, faults
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache, shared_model_cache
from repro.circuits import build_case
from repro.kb import KnowledgeBase, open_knowledge_base

CASES = ("p9", "p14", "p15")


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts and ends with empty process-wide caches."""
    faults.disarm()
    api.clear_design_cache()
    shared_model_cache().clear()
    yield
    api.clear_design_cache()
    shared_model_cache().clear()
    faults.disarm()


def _request(case_id, kb_path):
    return api.CheckRequest(circuit=api.CircuitRef.case(case_id), kb_path=kb_path,
                            learning=True)


def _sweep(kb_path):
    """Each case cold, then warm, then reloaded from the store; verdicts."""
    verdicts = []
    for case_id in CASES:
        request = _request(case_id, kb_path)
        verdicts.append(api.check(request).results[0].status)
        verdicts.append(api.check(request).results[0].status)
    api.clear_design_cache()
    shared_model_cache().clear()  # evicting flushes too
    for case_id in CASES:
        verdicts.append(api.check(_request(case_id, kb_path)).results[0].status)
    shared_model_cache().clear()
    return verdicts


def _dump(kb_path):
    conn = sqlite3.connect(kb_path)
    try:
        return {
            table: sorted(conn.execute("SELECT * FROM %s" % table).fetchall())
            for table in ("models", "cubes", "fail_memos")
        }
    finally:
        conn.close()


def _begins(statements):
    return [s for s in statements if s.strip().upper().startswith("BEGIN")]


def test_skipped_flushes_dump_like_full_flushes(tmp_path, monkeypatch):
    shipped = str(tmp_path / "shipped.sqlite")
    full = str(tmp_path / "full.sqlite")
    original = KnowledgeBase.flush_model

    def flush_in_full(self, *args, **kwargs):
        if self.path == full:
            self._flushed.clear()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KnowledgeBase, "flush_model", flush_in_full)
    shipped_verdicts = _sweep(shipped)
    api.clear_design_cache()
    full_verdicts = _sweep(full)

    assert shipped_verdicts == full_verdicts
    shipped_rows, full_rows = _dump(shipped), _dump(full)
    assert shipped_rows["cubes"], "the sweep should learn cubes"
    assert shipped_rows["fail_memos"], "the sweep should prove FAIL memos"
    assert shipped_rows == full_rows


def test_warm_job_that_learns_nothing_opens_no_write_transaction(tmp_path):
    kb_path = str(tmp_path / "warm.sqlite")
    statements = []
    store = open_knowledge_base(kb_path)
    store._conn.set_trace_callback(statements.append)
    try:
        for case_id in CASES:
            api.check(_request(case_id, kb_path))
        cold = _begins(statements)
        del statements[:]
        for case_id in CASES:
            report = api.check(_request(case_id, kb_path))
            assert report.aggregate("models_reused") == 1
        warm = _begins(statements)
    finally:
        store._conn.set_trace_callback(None)
    assert len(cold) == len(CASES), cold
    assert warm == []


def test_a_new_hit_or_memo_is_written(tmp_path):
    """The signature covers every column a merge can raise: a cube's hit
    counter and the memo set, not only which cubes exist."""
    kb_path = str(tmp_path / "delta.sqlite")
    case = build_case("p14")
    cache = UnrolledModelCache()
    checker = AssertionChecker(
        case.circuit, environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames, kb_path=kb_path),
        model_cache=cache,
    )
    checker.check(case.prop)
    model, _ = cache.acquire(case.circuit, checker.lowered)
    estg = model.estg
    assert estg.learned_cubes and estg.proven_fail_targets

    store = open_knowledge_base(kb_path)
    statements = []
    store._conn.set_trace_callback(statements.append)
    try:
        model.kb_flush_hook()
        assert _begins(statements) == []

        fingerprint, cube = next(iter(estg.learned_cubes.items()))
        cube.hits += 5
        model.kb_flush_hook()
        assert len(_begins(statements)) == 1

        estg.proven_fail_targets.add((("synthetic-property",), 99))
        model.kb_flush_hook()
        assert len(_begins(statements)) == 2
        model.kb_flush_hook()
        assert len(_begins(statements)) == 2
    finally:
        store._conn.set_trace_callback(None)
        cache.clear()

    conn = sqlite3.connect(kb_path)
    try:
        (hits,) = conn.execute("SELECT hits FROM cubes WHERE fingerprint = ?",
                               ("%016x" % fingerprint,)).fetchone()
        memos = [row[0] for row in conn.execute("SELECT target_frame FROM fail_memos")]
    finally:
        conn.close()
    assert hits == cube.hits
    assert 99 in memos


def test_skipped_flush_still_hits_the_fault_site(tmp_path):
    kb_path = str(tmp_path / "torn.sqlite")
    request = _request("p9", kb_path)
    api.check(request)
    store = open_knowledge_base(kb_path)
    assert not store.disabled

    # An unchanged flush with no fault armed writes nothing ...
    statements = []
    store._conn.set_trace_callback(statements.append)
    api.check(request)
    store._conn.set_trace_callback(None)
    assert _begins(statements) == []

    # ... but a torn-write rule on the same site still fires, writes and
    # tears the file, exactly as on a flush with news.
    faults.arm(faults.FaultPlan.parse("kb.flush:torn-write"))
    api.check(request)
    assert store.disabled
    assert "torn" in store.disabled_reason
