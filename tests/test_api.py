"""Tests for the unified public API (:mod:`repro.api`).

Covers the satellite guarantees of the api_redesign: the
``repro-check-request/v1`` JSON round trip (tolerant of unknown fields and
newer minor schema revisions), the adapter equivalence of
``CheckerOptions`` / ``EngineBudget`` / ``BatchOptions`` over one request,
the property-expression render/parse round trip, and the facade
(``check`` / ``check_batch`` / ``CheckReport``) matching the classic
checker verbatim.
"""

import dataclasses
import io
import json
import sys
import threading

import pytest

from repro import api
from repro.atpg.statehash import property_search_digest
from repro.checker.engine import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache, shared_model_cache
from repro.circuits import all_case_ids, build_case, extended_case_ids
from repro.netlist import Circuit
from repro.portfolio.batch import BatchOptions
from repro.portfolio.engines import AtpgEngine, EngineBudget
from repro.properties import (
    Assertion,
    Environment,
    Signal,
    Witness,
    format_expression,
    parse_expression,
)


def build_counter(limit: int = 9) -> Circuit:
    circuit = Circuit("counter")
    en = circuit.input("en", 1)
    count = circuit.state("count", 4)
    wrapped = circuit.mux(circuit.eq(count, limit),
                          circuit.add(count, circuit.const(1, 4)),
                          circuit.const(0, 4))
    circuit.dff_into(count, circuit.mux(en, count, wrapped), init_value=0)
    circuit.output(count, name="count")
    return circuit


def full_request() -> api.CheckRequest:
    return api.CheckRequest(
        circuit=api.CircuitRef.verilog("designs/foo.v", top="foo"),
        properties=(
            api.PropertySpec.assertion("safe", "count != 12", max_frames=5),
            api.PropertySpec.witness("reach", "count == 2", seed=7),
        ),
        pinned=(("rst", 0),),
        one_hot=(("req0", "req1"),),
        assumptions=("en == 1",),
        initial_state=(("count", 3),),
        init_vectors=((("rst", 1),),),
        engines=("atpg", "random"),
        max_frames=6,
        time_budget=2.5,
        sim_width=16,
        seed=11,
        random_runs=32,
        random_cycles=24,
        bdd_iterations=100,
        bdd_node_limit=50_000,
        learning=False,
        kb_path="/tmp/kb.sqlite",
        fsm_guidance=True,
        jobs=3,
        compare=True,
    )


#: search fields a ``repro-check-request/v1`` (v1.0) writer could still send.
RETIRED_SEARCH_FIELDS = {"incremental": False, "compiled": False,
                         "cube_hit_ordering": True}


def legacy_v1_payload(case_id: str = "p5") -> dict:
    """A default request for ``case_id`` as a v1.0 client serialised it,
    with every retired search field set away from its old default."""
    payload = api.CheckRequest(circuit=api.CircuitRef.case(case_id)).to_dict()
    payload["schema"] = "repro-check-request/v1"
    payload["search"].update(RETIRED_SEARCH_FIELDS)
    return payload


#: malformed request fields, each with the field name its error must carry.
MALFORMED_FIELDS = [
    ("bounds", {"max_frames": "abc"}, "bounds.max_frames"),
    ("environment", {"pin": {"a": "x"}}, "environment.pin.a"),
    ("batch", {"jobs": "two"}, "batch.jobs"),
    ("environment", {"pin": [1, 2]}, "environment.pin"),
    ("properties", [5], "properties"),
    ("environment", {"one_hot": 5}, "environment.one_hot"),
    ("environment", {"one_hot": [["count"]]}, "environment.one_hot group"),
    ("engines", "atpg", "engines"),
    ("budget", {"time_seconds": -1}, "time_budget"),
    ("budget", {"random_runs": -3}, "random_runs"),
    ("search", {"learning": "false"}, "search.learning"),
    ("search", {"fsm_guidance": 1}, "search.fsm_guidance"),
    ("batch", {"compare": "false"}, "batch.compare"),
    ("budget", {"seed": True}, "budget.seed"),
    ("budget", {"sim_width": 2.9}, "budget.sim_width"),
    ("budget", {"time_seconds": True}, "budget.time_seconds"),
    ("properties",
     [{"kind": "assert", "name": "x", "expr": "0 == 1", "max_frames": 0}],
     "properties.max_frames"),
]


# ----------------------------------------------------------------------
# CheckRequest serialisation
# ----------------------------------------------------------------------
class TestRequestRoundTrip:
    def test_full_round_trip(self):
        request = full_request()
        assert api.CheckRequest.from_json(request.to_json()) == request

    def test_defaults_round_trip(self):
        request = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        assert api.CheckRequest.from_json(request.to_json()) == request

    def test_unknown_fields_tolerated_everywhere(self):
        payload = full_request().to_dict()
        payload["future_field"] = {"nested": True}
        payload["circuit"]["future_hint"] = "x"
        payload["properties"][0]["future_weight"] = 3
        payload["environment"]["future_clock"] = "clk"
        payload["budget"]["future_budget"] = 9
        payload["search"]["future_switch"] = False
        payload["batch"]["future_shard"] = 4
        assert api.CheckRequest.from_dict(payload) == full_request()

    def test_newer_minor_schema_accepted(self):
        payload = full_request().to_dict()
        payload["schema"] = "repro-check-request/v1.7"
        assert api.CheckRequest.from_dict(payload) == full_request()

    def test_v1_0_payload_with_retired_search_fields_parses(self):
        request = api.CheckRequest.from_dict(legacy_v1_payload("p5"))
        assert request == api.CheckRequest(circuit=api.CircuitRef.case("p5"))
        payload = request.to_dict()
        assert payload["schema"] == api.REQUEST_SCHEMA == "repro-check-request/v1.1"
        assert not set(RETIRED_SEARCH_FIELDS) & set(payload["search"])

    def test_other_major_schema_rejected(self):
        payload = full_request().to_dict()
        payload["schema"] = "repro-check-request/v2"
        with pytest.raises(api.RequestError):
            api.CheckRequest.from_dict(payload)

    def test_missing_circuit_rejected(self):
        with pytest.raises(api.RequestError):
            api.CheckRequest.from_dict({"schema": api.REQUEST_SCHEMA})

    def test_invalid_knobs_rejected(self):
        with pytest.raises(api.RequestError):
            api.CheckRequest(circuit=api.CircuitRef.case("p1"), engines=())
        with pytest.raises(api.RequestError):
            api.CheckRequest(circuit=api.CircuitRef.case("p1"), jobs=0)
        with pytest.raises(api.RequestError):
            api.CheckRequest(circuit=api.CircuitRef.case("p1"), sim_width=0)

    @pytest.mark.parametrize("key, value, field", MALFORMED_FIELDS,
                             ids=[field for _, _, field in MALFORMED_FIELDS])
    def test_malformed_field_raises_request_error(self, key, value, field):
        payload = api.CheckRequest(circuit=api.CircuitRef.case("p1")).to_dict()
        payload[key] = value
        with pytest.raises(api.RequestError, match=field):
            api.CheckRequest.from_dict(payload)

    def test_inline_circuit_is_not_serialisable(self):
        request = api.build_request(build_counter(), "count != 12")
        assert not request.circuit.serializable
        with pytest.raises(api.RequestError):
            request.to_dict()


# ----------------------------------------------------------------------
# Property specs and expression rendering
# ----------------------------------------------------------------------
class TestPropertySpecs:
    def test_spec_round_trip_preserves_structure(self):
        prop = Assertion("safe", (Signal("a") & Signal("b")) != 0)
        spec = api.PropertySpec.from_property(prop)
        rebuilt = spec.to_property()
        assert rebuilt.name == "safe"
        assert rebuilt.is_assertion
        assert property_search_digest(rebuilt.expr) == property_search_digest(prop.expr)

    def test_witness_kind_round_trips(self):
        spec = api.PropertySpec.from_property(Witness("reach", Signal("x") == 3))
        assert spec.kind == "witness"
        assert not spec.to_property().is_assertion

    @pytest.mark.parametrize("case_id", all_case_ids())
    def test_bundled_case_properties_render_and_parse(self, case_id):
        prop = build_case(case_id).prop
        text = format_expression(prop.expr)
        assert property_search_digest(parse_expression(text)) == (
            property_search_digest(prop.expr)
        )

    def test_delayed_initial_round_trips(self):
        expr = parse_expression("delayed(x == 1, 2, 1) >> (y == 0)")
        assert parse_expression(format_expression(expr)) is not None
        assert property_search_digest(parse_expression(format_expression(expr))) == (
            property_search_digest(expr)
        )

    def test_bad_expression_rejected_eagerly(self):
        with pytest.raises(Exception):
            api.PropertySpec.assertion("broken", "count ===")


# ----------------------------------------------------------------------
# Adapter equivalence: one request, no second knob list
# ----------------------------------------------------------------------
class TestAdapters:
    def test_checker_options_adapter(self):
        request = full_request()
        options = CheckerOptions.from_request(request)
        assert options.max_frames == request.max_frames
        assert options.learning is request.learning
        assert options.kb_path == request.kb_path
        assert options.use_local_fsm_guidance is request.fsm_guidance

    def test_checker_options_defaults_survive_none(self):
        request = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        options = CheckerOptions.from_request(request)
        assert options.max_frames == CheckerOptions().max_frames

    def test_engine_budget_adapter(self):
        request = full_request()
        budget = EngineBudget.from_request(request)
        assert budget.time_seconds == request.time_budget
        assert budget.max_frames == request.max_frames
        assert budget.sim_width == request.sim_width
        assert budget.seed == request.seed
        assert budget.random_runs == request.random_runs
        assert budget.random_cycles == request.random_cycles
        assert budget.bdd_iterations == request.bdd_iterations
        assert budget.bdd_node_limit == request.bdd_node_limit

    def test_engine_budget_defaults_survive_none(self):
        request = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        assert EngineBudget.from_request(request) == EngineBudget()

    def test_batch_options_adapter(self):
        request = full_request()
        options = BatchOptions.from_request(request)
        assert options.jobs == request.jobs
        assert options.run_all is request.compare
        assert options.budget == EngineBudget.from_request(request)
        assert isinstance(options.engines[0], AtpgEngine)
        assert options.engines[0].options.use_local_fsm_guidance
        assert options.engines[1] == "random"

    def test_batch_options_plain_engines_without_fsm_guidance(self):
        request = dataclasses.replace(full_request(), fsm_guidance=False)
        options = BatchOptions.from_request(request)
        assert not options.engines[0].options.use_local_fsm_guidance
        assert options.engines[1:] == ("random",)

    def test_batch_options_atpg_adapter_is_checker_options(self):
        # The batch path configures ATPG through the same single mapping as
        # the single-engine path: no batch-level override can drift from it.
        for overrides in ({}, {"learning": False}, {"kb_path": "facts.db"},
                          {"fsm_guidance": True},
                          {"learning": False, "kb_path": "facts.db",
                           "fsm_guidance": True}):
            request = api.CheckRequest(
                circuit=api.CircuitRef.case("p1"), engines=("bdd", "atpg"),
                **overrides,
            )
            engines = BatchOptions.from_request(request).engines
            assert engines[0] == "bdd"
            assert isinstance(engines[1], AtpgEngine)
            assert engines[1].options == CheckerOptions.from_request(request)


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class TestFacade:
    def test_check_matches_classic_checker(self):
        circuit = build_counter()
        prop = Assertion("no_twelve", Signal("count") != 12)
        classic = AssertionChecker(
            circuit, options=CheckerOptions(max_frames=6)
        ).check(prop)

        report = api.check(api.build_request(build_counter(), prop, max_frames=6))
        assert len(report.results) == 1
        verdict = report.results[0]
        assert verdict.status == classic.status.value
        assert verdict.conclusive
        assert report.exit_code == 0

    def test_check_failing_assertion_reports_trace_and_exit_code(self):
        report = api.check(
            api.build_request(build_counter(), Assertion("bad", Signal("count") != 3),
                              max_frames=8)
        )
        verdict = report.results[0]
        assert verdict.status == "fails"
        assert verdict.trace is not None
        assert report.exit_code == 1

    def test_case_ref_supplies_defaults(self):
        # No properties / bound on the request: the bundled case's own
        # property and max_frames apply.
        request = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        report = api.check(request)
        case = build_case("p1")
        assert report.results[0].name == case.prop.name
        assert report.results[0].status == case.expected_status.value

    def test_check_batch_forces_portfolio_machinery(self):
        report = api.check_batch(
            api.build_request(build_counter(), Assertion("ok", Signal("count") != 12),
                              max_frames=6)
        )
        assert report.results[0].engines  # per-engine details present
        assert report.results[0].winner == "atpg"

    def test_design_cache_reuses_circuit_objects(self):
        request = api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        first = api.resolve_design(request.circuit)
        second = api.resolve_design(request.circuit)
        assert first.circuit is second.circuit

    def test_report_json_round_trip(self):
        report = api.check(
            api.build_request(build_counter(), Assertion("bad", Signal("count") != 3),
                              max_frames=8)
        )
        rebuilt = api.CheckReport.from_json(report.to_json())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.exit_code == report.exit_code

    def test_report_tolerates_unknown_fields_and_minor_versions(self):
        payload = api.check(
            api.CheckRequest(circuit=api.CircuitRef.case("p1"))
        ).to_dict()
        payload["schema"] = "repro-check-report/v1.4"
        payload["future"] = 1
        payload["results"][0]["future_detail"] = "x"
        rebuilt = api.CheckReport.from_dict(payload)
        assert rebuilt.results[0].status == payload["results"][0]["status"]

    def test_stored_v1_report_still_parses(self):
        report = api.check(api.CheckRequest(circuit=api.CircuitRef.case("p1")))
        payload = report.to_dict()
        assert payload["schema"] == api.REPORT_SCHEMA == "repro-check-report/v1.2"
        assert "solver_core_hits" not in payload["results"][0]["stats"]
        # A v1 writer also duplicated the verdict's wall time into its stats
        # and carried the solver-core memo counters v1.2 retired.
        payload["schema"] = "repro-check-report/v1"
        stats = payload["results"][0]["stats"]
        stats["cpu_seconds"] = payload["results"][0]["wall_seconds"]
        stats.update(solver_cores_learned=0, solver_core_hits=0,
                     kb_solver_cores_loaded=0)
        rebuilt = api.CheckReport.from_dict(payload).to_dict()
        assert rebuilt["results"] == payload["results"]
        assert rebuilt["exit_code"] == report.exit_code
        assert rebuilt["schema"] == api.REPORT_SCHEMA

    def test_environment_decomposition_through_build_request(self):
        environment = Environment()
        environment.pin("rst", 0)
        environment.one_hot(["a", "b"])
        environment.assume(parse_expression("en == 1"))
        environment.initialize_with([{"rst": 1}])
        request = api.build_request(build_counter(), "count != 12",
                                    environment=environment)
        rebuilt = request.build_environment()
        assert rebuilt.pinned == {"rst": 0}
        assert [list(g) for g in rebuilt.one_hot_groups] == [["a", "b"]]
        assert len(rebuilt.assumptions) == 1
        assert rebuilt.initialization.vectors == [{"rst": 1}]

    def test_unknown_engine_rejected(self):
        request = api.build_request(build_counter(), "count != 12",
                                    engines=("warp",))
        with pytest.raises(api.RequestError):
            api.check(request)

    @pytest.mark.parametrize("field, knobs, error", [
        ("environment.pin", {"pinned": (("nosuch", 1),)}, "no net named 'nosuch'"),
        ("environment.one_hot", {"one_hot": (("count", "nosuch"),)}, "no net named 'nosuch'"),
        ("environment.assume", {"assumptions": ("nosuch == 1",)}, "no net named 'nosuch'"),
        ("environment.initial_state", {"initial_state": (("nosuch", 1),)},
         "no net named 'nosuch'"),
        ("property bad", {"properties": (api.PropertySpec.assertion("bad", "nosuch <= 9"),)},
         "no net named 'nosuch'"),
        ("environment.init_vectors", {"init_vectors": ((("en", 0), ("nosuch", 1)),)},
         "no net named 'nosuch'"),
        ("environment.initial_state", {"initial_state": (("en", 1),)},
         "'en' is not a register output"),
    ], ids=["pin", "one_hot", "assume", "initial_state", "property", "init_vectors",
            "initial_state_not_a_register"])
    def test_unknown_net_is_a_request_error(self, field, knobs, error):
        fields = {"properties": (api.PropertySpec.assertion("ok", "count != 12"),)}
        fields.update(knobs)
        request = api.CheckRequest(circuit=api.CircuitRef.inline(build_counter()), **fields)
        with pytest.raises(api.RequestError, match="^%s: %s" % (field, error)):
            api.check(request)

    def test_request_json_is_camera_ready(self):
        # The wire form groups knobs; spot-check the layout the docs promise.
        payload = json.loads(full_request().to_json())
        assert payload["schema"] == api.REQUEST_SCHEMA
        assert set(payload) >= {"circuit", "properties", "environment",
                                "engines", "bounds", "budget", "search", "batch"}


@pytest.fixture
def cold_caches():
    """Start and end with empty process-wide design and model caches."""
    api.clear_design_cache()
    shared_model_cache().clear()
    yield
    api.clear_design_cache()


def wrap_counter(limit: int) -> str:
    """A 4-bit counter wrapping at ``limit``: one distinct design per limit."""
    return (
        "module counter(clk, count);\n"
        "  input clk;\n"
        "  output [3:0] count;\n"
        "  reg [3:0] count;\n"
        "  always @(posedge clk) begin\n"
        "    if (count == 4'd%d) count <= 4'd0;\n"
        "    else count <= count + 4'd1;\n"
        "  end\n"
        "endmodule\n" % limit
    )


def counter_request(ref: api.CircuitRef, bad: int = 12,
                    max_frames: int = 4) -> api.CheckRequest:
    return api.CheckRequest(
        circuit=ref,
        properties=(api.PropertySpec.assertion("safe", "count != %d" % bad),),
        initial_state=(("count", 0),),
        max_frames=max_frames,
    )


@pytest.mark.usefixtures("cold_caches")
class TestDesignCache:
    """The process-wide design cache behind :func:`api.resolve_design`."""

    @pytest.mark.parametrize("case_id", all_case_ids() + extended_case_ids())
    def test_second_case_check_is_warm_and_identical(self, case_id):
        request = api.CheckRequest(circuit=api.CircuitRef.case(case_id))
        cold = api.check(request).results[0]
        warm = api.check(request).results[0]
        assert cold.stats["models_reused"] == 0
        assert warm.stats["models_reused"] == 1
        assert warm.status == cold.status == build_case(case_id).expected_status.value
        assert warm.trace == cold.trace

    def test_ninth_design_evicts_the_oldest_and_its_models(self, monkeypatch):
        evicted = []
        real_evict = UnrolledModelCache.evict

        def spy(cache, circuit):
            evicted.append(circuit)
            real_evict(cache, circuit)

        monkeypatch.setattr(UnrolledModelCache, "evict", spy)
        refs = [api.CircuitRef.source(wrap_counter(limit)) for limit in range(6, 15)]
        assert len(refs) == api.DESIGN_CACHE_SIZE + 1
        circuits = []
        for ref in refs:
            api.check(counter_request(ref))
            circuits.append(api.resolve_design(ref).circuit)
        oldest = circuits[0]
        assert api.designs_resident() == api.DESIGN_CACHE_SIZE
        assert len(evicted) == 1 and evicted[0] is oldest
        assert all(
            model.circuit is not oldest
            for model in shared_model_cache()._entries.values()
        )
        assert api.resolve_design(refs[1]).circuit is circuits[1]
        assert api.resolve_design(refs[0]).circuit is not oldest

    @pytest.mark.parametrize("route", ["resolve_design", "fleet_router"])
    def test_design_file_is_keyed_and_elaborated_from_one_read(
        self, route, tmp_path, monkeypatch
    ):
        """An edit landing right after the design file was read must not
        file the edited circuit under the digest of the text read: a later
        request for that text would be served the other circuit."""
        from repro.kb.fingerprints import circuit_fingerprint
        from repro.service.fleet import FleetEndpoint, FleetRouter

        router = FleetRouter([FleetEndpoint("a", str(tmp_path / "a.sock"))])
        routes = {
            "resolve_design": lambda ref: "%016x" % circuit_fingerprint(
                api.resolve_design(ref).circuit),
            "fleet_router": lambda ref: router.fingerprint_for(counter_request(ref)),
        }
        fingerprint = routes[route]
        first, edit = wrap_counter(9), wrap_counter(12)
        design = tmp_path / "design.v"
        design.write_text(first)
        real_open = open
        reads = []

        def edited_after_first_read(file, *args, **kwargs):
            stream = real_open(file, *args, **kwargs)
            if reads:
                return stream
            with stream:
                data = stream.read()
            reads.append(file)
            design.write_text(edit)
            return io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)

        ref = api.CircuitRef.verilog(str(design))
        monkeypatch.setattr(api, "open", edited_after_first_read, raising=False)
        raced = fingerprint(ref)
        monkeypatch.delattr(api, "open")
        assert reads and design.read_text() == edit
        design.write_text(first)
        expected = fingerprint(api.CircuitRef.source(first))
        assert raced == fingerprint(ref) == expected
        design.write_text(edit)
        assert fingerprint(ref) == fingerprint(api.CircuitRef.source(edit)) != expected

    def test_inline_refs_never_enter_the_cache(self):
        report = api.check(api.build_request(build_counter(), "count != 12",
                                             max_frames=4))
        assert report.results[0].status == "holds"
        assert api.designs_resident() == 0

    def test_worker_degrade_empties_the_cache(self):
        from repro.service.worker import _WorkerState

        api.check(api.CheckRequest(circuit=api.CircuitRef.case("p1")))
        state = _WorkerState("key")
        assert state.snapshot()["designs_resident"] == 1
        state.degrade()
        assert api.designs_resident() == 0
        assert state.snapshot()["designs_resident"] == 0
        assert len(shared_model_cache()) == 0

    def test_busy_design_is_checked_on_a_private_copy(self):
        """A design another thread is checking is never shared: the request
        runs cold on its own circuit and leaves the cached one alone."""
        request = counter_request(api.CircuitRef.source(wrap_counter(9)))
        resolved = api.resolve_design(request.circuit)
        nets = len(resolved.circuit.nets)
        with resolved.lock:
            verdict = api.check(request).results[0]
        assert verdict.status == "holds"
        assert verdict.stats["models_reused"] == 0
        assert len(resolved.circuit.nets) == nets
        assert api.check(request).results[0].stats["models_reused"] == 0

    def test_checked_copies_leave_the_model_cache_as_it_was(self):
        """A busy design's private copy, checked once, takes its model with
        it, so a model cached earlier stays cached and warm.  A batch check
        makes no copy: it warms the resolved design's own model."""
        request = counter_request(api.CircuitRef.source(wrap_counter(9)))
        api.check(request)
        cached = list(shared_model_cache()._entries)
        p9 = api.CheckRequest(circuit=api.CircuitRef.case("p9"))
        batch = api.check_batch(p9)
        assert batch.results[0].status == "holds"
        assert batch.aggregate("models_reused") == 0
        assert len(shared_model_cache()._entries) == len(cached) + 1
        assert api.check(p9).results[0].stats["models_reused"] == 1
        assert api.check_batch(p9).aggregate("models_reused") == 1
        cached = list(shared_model_cache()._entries)
        with api.resolve_design(request.circuit).lock:
            assert api.check(request).results[0].stats["models_reused"] == 0
        assert list(shared_model_cache()._entries) == cached
        assert api.check(request).results[0].stats["models_reused"] == 1

    def test_threads_sharing_the_cache_get_right_answers(self):
        """More threads than cores, a tiny switch interval and more designs
        than the cache holds: every verdict stays right and the cache stays
        bounded."""
        limits = range(1, 1 + api.DESIGN_CACHE_SIZE + 2)
        expected = {limit: "holds" if limit < 7 else "fails" for limit in limits}
        requests = {
            limit: counter_request(
                api.CircuitRef.source(wrap_counter(limit)), bad=7, max_frames=9
            )
            for limit in limits
        }
        errors, wrong = [], []

        def worker(offset):
            try:
                for step in range(12):
                    limit = limits[(offset + step) % len(limits)]
                    status = api.check(requests[limit]).results[0].status
                    if status != expected[limit]:
                        wrong.append((limit, status))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert api.designs_resident() <= api.DESIGN_CACHE_SIZE

    def test_verilog_refs_are_keyed_by_content(self, tmp_path):
        """A same-size rewrite without ``os.utime`` can keep the mtime
        within one clock tick: only the content tells the two apart.
        Rewriting identical bytes keeps the design warm."""
        path = tmp_path / "design.v"
        request = counter_request(api.CircuitRef.verilog(str(path)), bad=2)
        path.write_text(wrap_counter(1))
        assert api.check(request).results[0].status == "holds"
        path.write_text(wrap_counter(9))
        assert api.check(request).results[0].status == "fails"
        path.write_text(wrap_counter(9))
        verdict = api.check(request).results[0]
        assert verdict.status == "fails"
        assert verdict.stats["models_reused"] == 1
