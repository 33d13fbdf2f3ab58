"""A warm re-check derives nothing from its property text again.

A check reuses the unrolled model, learned cubes and FAIL memos of earlier
checks; what it derives from the property and assumption expressions is
reused too:

* the parsed tree, once per distinct text (:func:`parsed_expression`, a
  bounded cache that never keeps a parse error);
* the compile-memo key and each assumption's digest, once per tree
  (:class:`~repro.properties.spec.ExpressionMemo`);
* the ``(property_digest, goal_value)`` fingerprint, once per compilation
  (:attr:`~repro.properties.convert.CompiledProperty.fingerprint`).

Every derived value stays what it was before any of it was cached: the
goldens below pin the fingerprint, environment identity, knowledge-base
model key and monitor net name of every zoo case.  The daemon's per-job
costs around the check ride along: the worker runs the request object the
supervisor validated, the quarantine digest is hashed on first use, and a
per-job stats block reads no RSS.

A warm re-check skips every target frame a proven-FAIL memo covers in the
frame loop itself: :meth:`AssertionChecker._check_target_frame` runs only
for frames it searches, and the reports keep every statistic they had when
each skipped frame went through it (goldens below).
"""

import sys

import pytest

from repro import api
from repro.checker.engine import AssertionChecker
from repro.checker.incremental import shared_model_cache
from repro.circuits import build_case
from repro.circuits.properties import all_case_ids, extended_case_ids
from repro.kb.fingerprints import circuit_snapshot, identity_kb_key
from repro.properties import Environment, PropertyParseError, Signal, parse_expression
from repro.properties.environment import environment_identity
from repro.properties.parse import PARSE_CACHE_SIZE, format_expression, parsed_expression
from repro.properties.spec import ExpressionMemo
from repro.service import protocol
from repro.service.supervisor import Job
from repro.service.worker import _WorkerState, current_rss_bytes

#: the library-sweep cases: search-heavy zoo cases at their bundled bounds.
SWEEP_CASES = ("p2", "p5", "p9", "p10", "p12", "p14", "p15")

#: the derivations a warm re-check must not repeat.
DERIVATIONS = (
    "parse_expression", "format_expression", "property_digest", "property_search_digest",
)

#: case -> (fingerprint, environment identity, KB model key, monitor net),
#: captured before any of these values was cached.
GOLDENS = {
    "p1": ((1625986135837717780, 1), ("initial:none", "env"),
           "ccf4ecae39e06c87-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p1_1"),
    "p2": ((2226638611347193243, 0), ("initial:none", "env"),
           "ccf4ecae39e06c87-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p2_1"),
    "p3": ((5433207680110712996, 0), ("initial:none", "env"),
           "410cc5d5b23c90e6-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p3_1"),
    "p4": ((17190573592292006610, 1), ("initial:none", "env"),
           "410cc5d5b23c90e6-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p4_1"),
    "p5": ((8982715274654717957, 0), ("initial:none", "env"),
           "3a1bd30a08abe498-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p5_1"),
    "p6": ((18365432240270593349, 1), ("initial:none", "env"),
           "3a1bd30a08abe498-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p6_1"),
    "p7": ((10894348678268454564, 0),
           ("initial:none", "env\nassume:5a76808191567021\nassume:4510defc42736e5c"),
           "e7df90ce6947287c-5e9c1b78f04c74dd-13778221f0ca8b84", "monitor_p7_4"),
    "p8": ((13508881255712024319, 1), ("initial:none", "env"),
           "bfbf58bb0e281e99-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p8_1"),
    "p9": ((18409744956465408965, 0), ("initial:none", "env"),
           "bfbf58bb0e281e99-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p9_1"),
    "p10": ((7615053123311187805, 0), ("initial:none", "env"),
            "055b789a18866cfb-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p10_1"),
    "p11": ((7957529202134696981, 0), ("initial:none", "env"),
            "157c78384db313d6-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p11_1"),
    "p12": ((5714143358886952045, 0), ("initial:none", "env"),
            "1203f12acace0745-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p12_1"),
    "p13": ((6333023307412258093, 0), ("initial:none", "env\nonehot:en_0,en_1,en_2,en_3"),
            "149b1207197cd586-5e9c1b78f04c74dd-b8489f63faa0ca5f", "monitor_p13_2"),
    "p14": ((7529125031686105307, 0), ("initial:none", "env"),
            "d90f5bc0b10069a4-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p14_1"),
    "p15": ((2455060011390002122, 0), ("initial:none", "env"),
            "f6c155a6c754c0f7-5e9c1b78f04c74dd-c2f01118f05367d4", "monitor_p15_1"),
}


#: case -> (status, frames explored, non-zero statistics) of a warm
#: re-check, captured when every skipped frame still went through
#: ``_check_target_frame``.
WARM_GOLDENS = {
    "p1": ("witness_found", 2, {"justified_cache_hit_rate": 1.0, "models_reused": 1,
                                "rule_cache_hit_rate": 1.0, "targets_skipped": 1}),
    "p2": ("holds", 3, {"models_reused": 1, "targets_skipped": 3}),
    "p3": ("holds", 4, {"models_reused": 1, "targets_skipped": 4}),
    "p4": ("witness_found", 6, {"models_reused": 1, "targets_skipped": 5}),
    "p5": ("holds", 4, {"models_reused": 1, "targets_skipped": 4}),
    "p6": ("witness_found", 4, {"justified_cache_hit_rate": 1.0, "models_reused": 1,
                                "rule_cache_hit_rate": 1.0, "targets_skipped": 3}),
    "p7": ("holds", 3, {"models_reused": 1, "targets_skipped": 2}),
    "p8": ("witness_found", 3, {"justified_cache_hit_rate": 1.0, "models_reused": 1,
                                "rule_cache_hit_rate": 1.0, "targets_skipped": 2}),
    "p9": ("holds", 5, {"models_reused": 1, "targets_skipped": 5}),
    "p10": ("holds", 4, {"models_reused": 1, "targets_skipped": 4}),
    "p11": ("holds", 3, {"models_reused": 1, "targets_skipped": 3}),
    "p12": ("holds", 3, {"models_reused": 1, "targets_skipped": 3}),
    "p13": ("holds", 3, {"models_reused": 1, "targets_skipped": 3}),
    "p14": ("holds", 5, {"models_reused": 1, "targets_skipped": 5}),
    "p15": ("holds", 3, {"models_reused": 1, "targets_skipped": 3}),
}

#: case -> non-zero statistics of a check from a reloaded knowledge base
#: (every skip is owed to a stored memo, so each one counts a ``kb_hits``).
KB_GOLDENS = {
    "p2": {"compiled_models": 1, "frames_built": 1, "kb_cubes_loaded": 5, "kb_hits": 3,
           "targets_skipped": 3},
    "p4": {"compiled_models": 1, "frames_built": 6, "kb_hits": 5, "targets_skipped": 5},
    "p15": {"compiled_models": 1, "frames_built": 1, "kb_cubes_loaded": 30, "kb_hits": 3,
            "targets_skipped": 3},
}

#: statistics that are times, not counts.
TIMINGS = ("compile_time_ms", "peak_memory_mb")


@pytest.fixture(autouse=True)
def _cold_caches():
    """Every test starts and ends with empty process-wide model caches."""
    api.clear_design_cache()
    shared_model_cache().clear()
    yield
    api.clear_design_cache()
    shared_model_cache().clear()


@pytest.fixture
def derivations(monkeypatch):
    """Count calls of each derivation, wherever a repro module binds it."""
    import repro.atpg.statehash as statehash
    import repro.properties.parse as parse

    originals = {
        "parse_expression": parse.parse_expression,
        "format_expression": parse.format_expression,
        "property_digest": statehash.property_digest,
        "property_search_digest": statehash.property_search_digest,
    }
    counts = dict.fromkeys(DERIVATIONS, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, original in originals.items():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return counts


def _travelled(request):
    """The request as a daemon job carries it: through its JSON form."""
    return api.CheckRequest.from_json(request.to_json())


# ----------------------------------------------------------------------
# (a) a warm re-check derives nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", SWEEP_CASES)
def test_warm_recheck_derives_nothing(case_id, derivations):
    first = api.check(api.CheckRequest(circuit=api.CircuitRef.case(case_id)))
    derivations.update(dict.fromkeys(DERIVATIONS, 0))
    fresh = api.CheckRequest(circuit=api.CircuitRef.case(case_id))
    for request in (fresh, _travelled(fresh)):
        report = api.check(request)
        assert report.results[0].status == first.results[0].status
        assert report.results[0].stats["models_reused"] == 1
    assert derivations == dict.fromkeys(DERIVATIONS, 0)


def _spelled_out_p7():
    """p7 with its property and assumptions carried as request text."""
    case = build_case("p7")
    return api.CheckRequest(
        circuit=api.CircuitRef.case("p7"),
        properties=(api.PropertySpec.from_property(case.prop),),
        assumptions=tuple(format_expression(e) for e in case.environment.assumptions),
    )


def test_warm_recheck_of_request_text_derives_nothing(derivations):
    first = api.check(_spelled_out_p7())
    job = _travelled(_spelled_out_p7())
    derivations.update(dict.fromkeys(DERIVATIONS, 0))
    report = api.check(job)
    assert report.results[0].status == first.results[0].status
    assert report.results[0].stats["models_reused"] == 1
    assert derivations == dict.fromkeys(DERIVATIONS, 0)


def test_a_cold_check_is_counted(derivations):
    # The counters see the derivations a cold design and text really run,
    # so the zero counts above are not an artefact of the patching.
    parsed_expression.cache_clear()
    api.check(_travelled(_spelled_out_p7()))
    assert all(derivations[name] > 0 for name in DERIVATIONS), derivations


# ----------------------------------------------------------------------
# (b) every derived value is unchanged
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case_id", all_case_ids() + extended_case_ids())
def test_derived_identities_match_goldens(case_id):
    case = build_case(case_id)
    circuit_snapshot(case.circuit)
    checker = AssertionChecker(case.circuit, case.environment, case.initial_state)
    compiled = checker.compiler.compile(
        api.PropertySpec.from_property(case.prop).to_property()
    )
    fingerprint, identity, kb_key, monitor = GOLDENS[case_id]
    assert checker._prop_fingerprint(compiled) == fingerprint
    assert environment_identity(case.environment, case.initial_state) == identity
    assert identity_kb_key(case.circuit, checker.lowered.identity) == kb_key
    assert compiled.monitor.name == monitor
    # A second compilation, of the tree itself, hits the same memo entry.
    assert checker.compiler.compile(case.prop) is compiled


def test_environment_identity_of_every_part_matches_golden():
    environment = (
        Environment().pin("x", 3).one_hot(["a", "b"])
        .assume(parse_expression("onehot(x, y)"))
        .assume(parse_expression("(a + b) * 2 == (c & 3) | d"))
        .initialize_with([{"a": 1, "b": 0}])
    )
    expected = (
        "initial:q=1;r=2",
        "env\npin:x=3\nonehot:a,b\nassume:ca25735b57019f40\n"
        "assume:ccb169c9c51def2e\ninit:a=1;b=0",
    )
    for _ in range(2):  # the second call reads the memoised digests
        assert environment_identity(environment, {"r": 2, "q": 1}) == expected


# ----------------------------------------------------------------------
# (c) the caches are bounded and keep no errors
# ----------------------------------------------------------------------
def test_parse_cache_is_bounded():
    parsed_expression.cache_clear()
    for index in range(PARSE_CACHE_SIZE + 10):
        parsed_expression("x == %d" % index)
    info = parsed_expression.cache_info()
    assert info.maxsize == PARSE_CACHE_SIZE
    assert info.currsize == PARSE_CACHE_SIZE
    assert parsed_expression("y == 1") is parsed_expression("y == 1")


def test_parse_cache_never_keeps_an_error():
    parsed_expression.cache_clear()
    for _ in range(2):
        with pytest.raises(PropertyParseError):
            parsed_expression("a ==")
    assert parsed_expression.cache_info().currsize == 0


def test_expression_memo_is_bounded_and_keyed_by_tree():
    calls = []

    def derive(expr):
        calls.append(expr)
        return len(calls)

    memo = ExpressionMemo(derive, size=2)
    first, twin, third = (parse_expression("x == 1") for _ in range(3))
    assert memo(first) == 1 and memo(first) == 1
    assert memo(twin) == 2  # an equal spelling is another tree
    assert memo(third) == 3
    assert len(memo) == 2
    assert memo(first) == 4  # the oldest entry was dropped


def test_expression_memo_never_keeps_an_error():
    memo = ExpressionMemo(format_expression, size=4)
    unrenderable = Signal("top.x") == 1  # not an identifier: no textual form
    for _ in range(2):
        with pytest.raises(PropertyParseError):
            memo(unrenderable)
    assert len(memo) == 0


# ----------------------------------------------------------------------
# The daemon's per-job costs around the check
# ----------------------------------------------------------------------
def test_job_digest_is_hashed_on_first_use():
    request = api.CheckRequest(circuit=api.CircuitRef.case("p5"))
    payload = request.to_dict()
    job = Job("job-1", request, payload)
    assert job.request is request
    assert job._digest is None
    assert job.digest == protocol.request_digest(payload)
    assert Job("job-2", request, payload, digest="given").digest == "given"


def test_per_job_stats_read_no_rss():
    state = _WorkerState("worker-key")
    assert "rss_bytes" not in state.snapshot(with_kb=False)
    if current_rss_bytes() is not None:
        assert "rss_bytes" in state.snapshot()


# ----------------------------------------------------------------------
# Skipped target frames
# ----------------------------------------------------------------------
@pytest.fixture
def searched_frames(monkeypatch):
    """Record every frame ``_check_target_frame`` runs, and its memo state."""
    calls = []
    original = AssertionChecker._check_target_frame

    def recorded(self, compiled, target_frame):
        store = self._incremental_model.estg
        calls.append((target_frame, store.is_proven_fail(compiled.fingerprint,
                                                         target_frame)))
        return original(self, compiled, target_frame)

    monkeypatch.setattr(AssertionChecker, "_check_target_frame", recorded)
    return calls


def _nonzero_stats(verdict):
    return {name: value for name, value in verdict.stats.items()
            if value and name not in TIMINGS}


@pytest.mark.parametrize("case_id", sorted(WARM_GOLDENS, key=lambda c: int(c[1:])))
def test_a_warm_recheck_searches_only_frames_it_does_not_skip(case_id, searched_frames):
    request = api.CheckRequest(circuit=api.CircuitRef.case(case_id))
    api.check(request)
    searched_frames.clear()
    verdict = api.check(request).results[0]
    status, frames_explored, stats = WARM_GOLDENS[case_id]
    assert (verdict.status, verdict.frames_explored, _nonzero_stats(verdict)) == \
        (status, frames_explored, stats)
    # No searched frame was proven FAIL, and nothing but the skipped
    # frames and the one that found a witness is left.
    assert all(not proven for _, proven in searched_frames)
    assert len(searched_frames) == (1 if status == "witness_found" else 0)


@pytest.mark.parametrize("case_id", sorted(KB_GOLDENS))
def test_skips_owed_to_the_knowledge_base_count_as_kb_hits(case_id, tmp_path,
                                                           searched_frames):
    request = api.CheckRequest(circuit=api.CircuitRef.case(case_id),
                               kb_path=str(tmp_path / "kb.sqlite"))
    api.check(request)
    api.clear_design_cache()
    shared_model_cache().clear()
    searched_frames.clear()
    assert _nonzero_stats(api.check(request).results[0]) == KB_GOLDENS[case_id]
    assert all(not proven for _, proven in searched_frames)
