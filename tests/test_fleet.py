"""Tests for the fleet shard router (:mod:`repro.service.fleet`).

Five layers:

* configuration -- endpoint specs, the environment, TOML fleet files (and
  the tomllib-free fallback parser CI's Python 3.10 exercises);
* rendezvous hashing -- stable scores, fair-ish spread, and the property
  the failover contract rests on: removing an endpoint never reorders the
  survivors (no rehash scatter);
* health -- ping probes against live / legacy / dead endpoints, and the
  per-endpoint circuit breaker (trip, cooldown, half-open rejoin);
* routing -- live multi-daemon fleets: sticky assignment, deterministic
  failover with bit-identical verdicts, draining handoff, the
  answered-means-answered contract, in-process fallback
  (deadline-clamped) and the ``fleet.route`` / ``fleet.probe`` fault
  sites;
* anti-entropy -- ``sync_stores`` drives every shard store to the union of
  learned facts, idempotently, and the ``repro fleet`` CLI wraps it all.
"""

import json
import os
import socket as socket_module
import threading
import time

import pytest

from repro import api, faults
from repro.kb import KnowledgeBase
from repro.service import fleet, protocol, supervisor
from repro.service.client import JobFailure, ServiceError

from test_service import arm_plan, case_request, normalized, running_daemon


@pytest.fixture(autouse=True)
def _unarmed_faults(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.SEED_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.disarm()
    yield
    faults.disarm()


def two_endpoints(tmp_path, sock_a, sock_b, with_kb=True):
    kb_a = str(tmp_path / "a.sqlite") if with_kb else None
    kb_b = str(tmp_path / "b.sqlite") if with_kb else None
    return [fleet.FleetEndpoint("a", sock_a, kb_a),
            fleet.FleetEndpoint("b", sock_b, kb_b)]


def second_daemon_dir(tmp_path):
    """A sibling directory for a second in-thread daemon's socket."""
    path = tmp_path / "b"
    path.mkdir(exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestEndpointConfig:
    def test_spec_with_name_and_kb(self):
        endpoint = fleet.parse_endpoint_spec("a=/run/a.sock;kb=/var/a.sqlite")
        assert endpoint == fleet.FleetEndpoint("a", "/run/a.sock", "/var/a.sqlite")

    def test_spec_name_defaults_to_socket_basename(self):
        assert fleet.parse_endpoint_spec("/run/shard-0.sock").name == "shard-0"
        assert fleet.parse_endpoint_spec("/run/shard-1").name == "shard-1"

    def test_bad_specs_are_typed_errors(self):
        with pytest.raises(fleet.FleetError):
            fleet.parse_endpoint_spec("")
        with pytest.raises(fleet.FleetError):
            fleet.parse_endpoint_spec("a=/run/a.sock;bogus=1")
        with pytest.raises(fleet.FleetError):
            fleet.parse_endpoint_specs(["x=/a.sock", "x=/b.sock"])

    def test_env_endpoints_resolve(self):
        endpoints, options = fleet.resolve_endpoints(
            env={fleet.ENDPOINTS_ENV: "a=/a.sock;kb=/a.kb, b=/b.sock"})
        assert [e.name for e in endpoints] == ["a", "b"]
        assert endpoints[0].kb == "/a.kb"
        assert options == {}

    def test_cli_specs_beat_environment(self):
        endpoints, _ = fleet.resolve_endpoints(
            specs=["only=/one.sock"],
            env={fleet.ENDPOINTS_ENV: "a=/a.sock,b=/b.sock"})
        assert [e.name for e in endpoints] == ["only"]

    def test_nothing_configured_is_empty_not_an_error(self):
        endpoints, options = fleet.resolve_endpoints(env={})
        assert endpoints == [] and options == {}

    FLEET_TOML = (
        "# two shards\n"
        "[fleet]\n"
        "trip_threshold = 2\n"
        "cooldown = 0.5\n"
        "\n"
        "[[endpoints]]\n"
        'name = "a"\n'
        'socket = "/run/a.sock"\n'
        'kb = "/var/a.sqlite"\n'
        "\n"
        "[[endpoints]]\n"
        'socket = "/run/b.sock"\n'
    )

    def test_fleet_file_round_trip(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(self.FLEET_TOML)
        endpoints, options = fleet.load_fleet_file(str(path))
        assert endpoints == [
            fleet.FleetEndpoint("a", "/run/a.sock", "/var/a.sqlite"),
            fleet.FleetEndpoint("b", "/run/b.sock", None),
        ]
        assert options == {"trip_threshold": 2, "cooldown": 0.5}

    def test_retired_hedge_after_key_is_ignored(self, tmp_path):
        """Fleet files written for releases with hedged submits still load."""
        plain = tmp_path / "fleet.toml"
        plain.write_text(self.FLEET_TOML)
        legacy = tmp_path / "legacy.toml"
        legacy.write_text(
            self.FLEET_TOML.replace("[fleet]\n", "[fleet]\nhedge_after = 1.5\n"))
        assert "hedge_after" in legacy.read_text()
        assert fleet.load_fleet_file(str(legacy)) == fleet.load_fleet_file(str(plain))

    def test_fallback_parser_matches_tomllib(self):
        """The 3.10 fallback and tomllib must agree on fleet files."""
        fallback = fleet._parse_fleet_toml_fallback(self.FLEET_TOML)
        tomllib = pytest.importorskip("tomllib")
        assert fallback == tomllib.loads(self.FLEET_TOML)

    def test_fallback_parser_rejects_garbage(self):
        with pytest.raises(fleet.FleetError):
            fleet._parse_fleet_toml_fallback("not toml at all")

    def test_fleet_file_without_endpoints_rejected(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text("[fleet]\ncooldown = 1.0\n")
        with pytest.raises(fleet.FleetError):
            fleet.load_fleet_file(str(path))

    def test_fleet_file_env_is_lowest_precedence(self, tmp_path):
        path = tmp_path / "fleet.toml"
        path.write_text(self.FLEET_TOML)
        endpoints, _ = fleet.resolve_endpoints(
            env={fleet.FLEET_FILE_ENV: str(path)})
        assert [e.name for e in endpoints] == ["a", "b"]
        endpoints, _ = fleet.resolve_endpoints(
            env={fleet.FLEET_FILE_ENV: str(path),
                 fleet.ENDPOINTS_ENV: "win=/w.sock"})
        assert [e.name for e in endpoints] == ["win"]


# ----------------------------------------------------------------------
# Rendezvous hashing
# ----------------------------------------------------------------------
FIVE = [fleet.FleetEndpoint(name, "/run/%s.sock" % name)
        for name in ("alpha", "bravo", "charlie", "delta", "echo")]


class TestRendezvous:
    def test_scores_are_pure_and_stable(self):
        a = fleet.rendezvous_score("%016x" % 42, "alpha")
        assert a == fleet.rendezvous_score("%016x" % 42, "alpha")
        assert a != fleet.rendezvous_score("%016x" % 42, "bravo")
        assert a != fleet.rendezvous_score("%016x" % 43, "alpha")

    def test_scores_are_pinned(self):
        """Routing tables must not move between releases."""
        assert fleet.rendezvous_score("abc", "a") == 5984063953405390043
        assert fleet.rendezvous_score("", "b") == 8158898237183541013
        assert fleet.rendezvous_score("fp-123", "node-7") == 17847298279029147896

    def test_removal_never_reorders_survivors(self):
        """The no-scatter property: drop any endpoint and every other
        fingerprint keeps its assignment; the dropped endpoint's jobs move
        to their second choice."""
        for n in range(200):
            fingerprint = "%016x" % (n * 0x9E3779B9)
            full = fleet.rendezvous_order(fingerprint, FIVE)
            for gone in FIVE:
                survivors = [e for e in FIVE if e.name != gone.name]
                reduced = fleet.rendezvous_order(fingerprint, survivors)
                assert reduced == [e for e in full if e.name != gone.name]

    def test_spread_is_roughly_fair(self):
        counts = {endpoint.name: 0 for endpoint in FIVE}
        total = 1000
        for n in range(total):
            fingerprint = "%016x" % (n * 0x517CC1B727220A95 % (1 << 64))
            counts[fleet.rendezvous_order(fingerprint, FIVE)[0].name] += 1
        for name, count in counts.items():
            assert total / 10 < count < total / 2, (name, counts)

    def test_order_is_deterministic_across_list_order(self):
        fingerprint = "%016x" % 7
        shuffled = list(reversed(FIVE))
        assert fleet.rendezvous_order(fingerprint, FIVE) == \
            fleet.rendezvous_order(fingerprint, shuffled)


# ----------------------------------------------------------------------
# Health probes and the breaker
# ----------------------------------------------------------------------
@pytest.fixture
def legacy_server(tmp_path):
    """A fake pre-v1.1 daemon: live socket, but ping is an unknown verb."""
    socket_path = str(tmp_path / "legacy.sock")
    server = socket_module.socket(socket_module.AF_UNIX,
                                  socket_module.SOCK_STREAM)
    server.bind(socket_path)
    server.listen(4)
    stop = threading.Event()

    def run():
        server.settimeout(0.2)
        while not stop.is_set():
            try:
                conn, _ = server.accept()
            except socket_module.timeout:
                continue
            with conn:
                stream = conn.makefile("rwb")
                line = stream.readline()
                if not line:
                    continue
                message = protocol.decode(line.rstrip(b"\n"))
                response = dict(
                    protocol.error_response(
                        message.get("verb"),
                        "unknown verb %r" % (message.get("verb"),)),
                    schema="repro-service/v1",
                )
                stream.write(protocol.encode(response))
                stream.flush()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield socket_path
    finally:
        stop.set()
        thread.join(timeout=5.0)
        server.close()


class TestProbes:
    def test_probe_live_daemon(self, tmp_path):
        with running_daemon(tmp_path) as socket_path:
            probe = fleet.probe_endpoint(fleet.FleetEndpoint("a", socket_path))
        assert probe["alive"] is True
        assert probe["draining"] is False
        assert probe["protocol"] == protocol.PROTOCOL
        assert isinstance(probe["pid"], int)

    def test_probe_dead_socket(self, tmp_path):
        probe = fleet.probe_endpoint(
            fleet.FleetEndpoint("a", str(tmp_path / "nobody.sock")))
        assert probe["alive"] is False
        assert probe["error"]

    def test_probe_legacy_unknown_verb_is_alive(self, legacy_server):
        """A v1 daemon that predates ping answers 'unknown verb' -- that is
        a live supervisor, not a failed probe (same-major tolerance)."""
        probe = fleet.probe_endpoint(fleet.FleetEndpoint("old", legacy_server))
        assert probe["alive"] is True
        assert probe["legacy"] is True

    def test_probe_fault_site(self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "fleet.probe:drop-connection")
        with running_daemon(tmp_path) as socket_path:
            probe = fleet.probe_endpoint(fleet.FleetEndpoint("a", socket_path))
        assert probe["alive"] is False
        assert "injected" in probe["error"]


class TestBreaker:
    def test_trip_cooldown_half_open(self):
        state = fleet.EndpointState(fleet.FleetEndpoint("a", "/none.sock"))
        assert state.health(cooldown=0.2) == "up"
        state.record_failure("boom", trip_threshold=2)
        assert state.health(cooldown=0.2) == "up"
        state.record_failure("boom", trip_threshold=2)
        assert state.health(cooldown=60.0) == "tripped"
        state.tripped_at = time.monotonic() - 1.0
        assert state.health(cooldown=0.2) == "half-open"
        state.record_success()
        assert state.health(cooldown=0.2) == "up"
        assert state.consecutive_failures == 0

    def test_success_clears_draining(self):
        state = fleet.EndpointState(fleet.FleetEndpoint("a", "/none.sock"))
        state.draining = True
        assert state.health(cooldown=1.0) == "draining"
        state.record_success()
        assert state.health(cooldown=1.0) == "up"

    def test_tripped_endpoint_is_skipped_then_rejoins(self, tmp_path):
        """A tripped endpoint is routed around for the cooldown, then one
        half-open probe lets a live daemon rejoin."""
        with running_daemon(tmp_path) as socket_path:
            router = fleet.FleetRouter(
                [fleet.FleetEndpoint("a", socket_path)],
                trip_threshold=1, cooldown=30.0)
            state = router._states["a"]
            state.record_failure("induced", router.trip_threshold)
            assert not router._usable(state)  # tripped, cooldown running
            state.tripped_at = time.monotonic() - 60.0
            assert router._usable(state)      # half-open probe succeeded
            assert state.health(router.cooldown) == "up"


def test_fingerprint_cache_keeps_the_route_cache_bound(monkeypatch):
    """The router remembers as many circuit refs as a daemon's route cache,
    dropping the least recently used first."""
    monkeypatch.setattr(supervisor, "ROUTES_KEPT", 2)
    router = fleet.FleetRouter([fleet.FleetEndpoint("a", "/none.sock")])
    refs = [api.CircuitRef.case(case_id) for case_id in ("p1", "p3", "p5")]
    fingerprints = [router.fingerprint_for(case_request(ref.case_id)) for ref in refs]
    assert len(set(fingerprints)) == 3
    assert list(router._fingerprints) == [refs[1].cache_key(), refs[2].cache_key()]
    assert router.fingerprint_for(case_request("p3")) == fingerprints[1]
    assert router.fingerprint_for(case_request("p1")) == fingerprints[0]
    assert list(router._fingerprints) == [refs[1].cache_key(), refs[0].cache_key()]


def test_route_table_keeps_a_digest_of_the_design_text():
    """A route is keyed by a digest of a design's text, not the text, and
    the same text routes to the same entry."""
    text = ("module wide(input [3:0] x, output bad);\n"
            "  assign bad = (x == 4'd3);\n"
            "endmodule\n") + "// padding\n" * 200
    table = supervisor.RouteTable()
    key, read, route = table.lookup(api.CircuitRef.source(text))
    assert route is None and read == text
    assert text not in key and all(len(str(part)) <= 64 for part in key)
    learned = table.learn(api.CircuitRef.source(text), key, read)
    assert table.lookup(api.CircuitRef.source(text))[2] == learned
    assert list(table) == [key]


# ----------------------------------------------------------------------
# Routing (live daemons)
# ----------------------------------------------------------------------
class TestRouting:
    def test_single_endpoint_fleet_matches_in_process(self, tmp_path):
        request = case_request("p1")
        baseline = normalized(api.check(request))
        with running_daemon(tmp_path) as socket_path:
            router = fleet.FleetRouter([fleet.FleetEndpoint("a", socket_path)])
            report = router.check(request, fallback=False)
        assert normalized(report) == baseline
        assert report.source == "daemon"
        assert report.service["endpoint"] == "a"
        assert router.counters["jobs"] == 1
        assert router.counters["failovers"] == 0

    def test_routing_is_sticky(self, tmp_path):
        """Repeats of one circuit keep landing on the same shard."""
        with running_daemon(tmp_path) as sock_a:
            with running_daemon(second_daemon_dir(tmp_path)) as sock_b:
                router = fleet.FleetRouter(
                    two_endpoints(tmp_path, sock_a, sock_b, with_kb=False))
                homes = set()
                for _ in range(3):
                    report = router.check(case_request("p1"), fallback=False)
                    homes.add(report.service["endpoint"])
        assert len(homes) == 1

    def test_requests_rewritten_to_shard_kb(self, tmp_path):
        """Each shard learns into its own store: the routed request's
        kb_path is the endpoint's, not the client's."""
        with running_daemon(tmp_path) as socket_path:
            endpoint = fleet.FleetEndpoint("a", socket_path,
                                           str(tmp_path / "a.sqlite"))
            router = fleet.FleetRouter([endpoint])
            router.check(case_request("p1"), fallback=False)
        assert os.path.exists(endpoint.kb)

    def test_failover_is_deterministic_and_bit_identical(self, tmp_path):
        """Satellite: with A dead, every fingerprint whose primary was A
        lands on B (its second choice -- no rehash scatter), and the
        verdicts are bit-identical to a single-daemon run."""
        cases = ["p1", "p2", "p3"]
        baselines = {cid: normalized(api.check(case_request(cid)))
                     for cid in cases}
        dead_socket = str(tmp_path / "dead-a.sock")
        with running_daemon(tmp_path) as sock_b:
            endpoints = [fleet.FleetEndpoint("a", dead_socket),
                         fleet.FleetEndpoint("b", sock_b)]
            router = fleet.FleetRouter(endpoints, trip_threshold=99)
            expected_failovers = 0
            for cid in cases:
                fingerprint = router.fingerprint_for(case_request(cid))
                order = [e.name for e in
                         fleet.rendezvous_order(fingerprint, endpoints)]
                if order[0] == "a":
                    # A's jobs fail over to exactly their second choice.
                    expected_failovers += 1
                    assert order[1] == "b"
                report = router.check(case_request(cid), fallback=False)
                assert normalized(report) == baselines[cid]
                assert report.service["endpoint"] == "b"
            assert router.counters["failovers"] == expected_failovers
            assert router._states["b"].jobs_routed == len(cases)

    def test_draining_endpoint_hands_over(self, tmp_path):
        """A draining daemon's typed refusal moves the job along the chain
        instead of surfacing as a failure."""
        from repro.service.client import ServiceClient

        with running_daemon(tmp_path) as sock_a:
            with running_daemon(second_daemon_dir(tmp_path)) as sock_b:
                with ServiceClient(sock_a) as client:
                    client.shutdown(mode="drain")
                router = fleet.FleetRouter(
                    two_endpoints(tmp_path, sock_a, sock_b, with_kb=False))
                report = router.check(case_request("p1"), fallback=False)
                assert report.service["endpoint"] == "b"

    def test_job_failure_propagates_not_retried(self, tmp_path, monkeypatch):
        """Answered-means-answered: a daemon-side job failure must raise
        typed, never be silently re-run on the next endpoint."""
        arm_plan(monkeypatch, tmp_path, "worker.run:crash")
        with running_daemon(tmp_path, requeue_limit=0,
                            quarantine_limit=99) as sock_a:
            with running_daemon(second_daemon_dir(tmp_path), requeue_limit=0,
                                quarantine_limit=99) as sock_b:
                router = fleet.FleetRouter(
                    two_endpoints(tmp_path, sock_a, sock_b, with_kb=False))
                with pytest.raises(JobFailure) as excinfo:
                    router.check(case_request("p1"), fallback=False)
        assert excinfo.value.cause in protocol.FAILURE_CAUSES
        # Exactly one endpoint saw the job; nobody re-ran it.
        routed = [state.jobs_routed for state in router._states.values()]
        assert sum(routed) == 0  # no *successful* routes
        assert router.counters["failovers"] == 0

    def test_route_fault_forces_failover(self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "fleet.route:drop-connection")
        request = case_request("p1")
        baseline = normalized(api.check(request))
        with running_daemon(tmp_path) as sock_a:
            with running_daemon(second_daemon_dir(tmp_path)) as sock_b:
                router = fleet.FleetRouter(
                    two_endpoints(tmp_path, sock_a, sock_b, with_kb=False))
                report = router.check(request, fallback=False)
        assert normalized(report) == baseline
        assert router.counters["failovers"] == 1

    def test_all_down_falls_back_in_process_with_deadline(
            self, tmp_path, monkeypatch):
        """With every endpoint dead the in-process fallback answers -- and
        it honours the end-to-end deadline by clamping the engine budget,
        exactly like the daemon path."""
        seen = {}
        real_check = api.check

        def spy(request, **kwargs):
            seen["time_budget"] = request.time_budget
            return real_check(request, **kwargs)

        monkeypatch.setattr(api, "check", spy)
        router = fleet.FleetRouter(
            [fleet.FleetEndpoint("a", str(tmp_path / "no-a.sock")),
             fleet.FleetEndpoint("b", str(tmp_path / "no-b.sock"))])
        report = router.check(case_request("p1"), deadline=7.5)
        assert report.source == "in-process"
        assert seen["time_budget"] == 7.5
        assert router.counters["fell_back"] == 1

    def test_all_down_without_fallback_raises_typed(self, tmp_path):
        router = fleet.FleetRouter(
            [fleet.FleetEndpoint("a", str(tmp_path / "no-a.sock"))])
        with pytest.raises(ServiceError):
            router.check(case_request("p1"), fallback=False)

    def test_inline_circuit_short_circuits_to_in_process(self, tmp_path):
        from repro.circuits import build_case

        case = build_case("p1")
        request = api.CheckRequest(
            circuit=api.CircuitRef.inline(case.circuit),
            properties=(api.PropertySpec.from_property(case.prop),),
        )
        router = fleet.FleetRouter(
            [fleet.FleetEndpoint("a", str(tmp_path / "no.sock"))])
        report = router.check(request)
        assert report.source == "in-process"


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------
class TestBatch:
    def test_batch_routes_everything_no_losses(self, tmp_path):
        cases = ["p1", "p2", "p3", "p5"]
        with running_daemon(tmp_path) as sock_a:
            with running_daemon(second_daemon_dir(tmp_path)) as sock_b:
                router = fleet.FleetRouter(
                    two_endpoints(tmp_path, sock_a, sock_b))
                report = router.run_batch(
                    [case_request(cid) for cid in cases], fallback=False)
        assert report["schema"] == fleet.FLEET_BATCH_SCHEMA
        assert report["total"] == len(cases)
        assert report["done"] == len(cases)
        assert report["failed"] == 0
        assert report["lost"] == 0
        labels = {item["circuit"] for item in report["items"]}
        assert labels == set(cases)
        for item in report["items"]:
            assert item["endpoint"] in ("a", "b")
        assert {block["name"] for block in report["endpoints"]} == {"a", "b"}

    def test_batch_with_one_shard_down_completes_on_survivor(self, tmp_path):
        cases = ["p1", "p2", "p3"]
        with running_daemon(tmp_path) as sock_b:
            router = fleet.FleetRouter(
                [fleet.FleetEndpoint("a", str(tmp_path / "dead.sock")),
                 fleet.FleetEndpoint("b", sock_b)],
                trip_threshold=99)
            report = router.run_batch(
                [case_request(cid) for cid in cases], fallback=False)
        assert report["done"] == len(cases)
        assert report["lost"] == 0
        assert all(item["endpoint"] == "b" for item in report["items"])


# ----------------------------------------------------------------------
# Anti-entropy
# ----------------------------------------------------------------------
def kb_facts(path):
    """The (models, cubes, fail_memos) content triple of a store."""
    store = KnowledgeBase(path)
    try:
        stats = store.stats()
        assert not stats.get("disabled"), stats
        return (stats["models"], stats["cubes"], stats["fail_memos"],
                stats["hits"])
    finally:
        store.close()


def learn_into(kb_path, case_id):
    report = api.check(case_request(case_id, kb_path=str(kb_path)))
    from repro.kb import flush_attached_stores

    flush_attached_stores()
    return report


class TestAntiEntropy:
    def test_sync_unions_both_directions_idempotently(self, tmp_path):
        kb_a = str(tmp_path / "a.sqlite")
        kb_b = str(tmp_path / "b.sqlite")
        learn_into(kb_a, "p1")
        learn_into(kb_b, "p2")
        before_a, before_b = kb_facts(kb_a), kb_facts(kb_b)

        results = fleet.sync_stores([kb_a, kb_b])
        assert len(results) == 2
        after_a, after_b = kb_facts(kb_a), kb_facts(kb_b)
        # Both shards now hold the union: every count at least as big as
        # either input, and the two stores agree with each other.
        assert after_a == after_b
        for before in (before_a, before_b):
            assert all(a >= b for a, b in zip(after_a, before))

        # Re-syncing is a no-op (the merge rules commute and dedupe).
        fleet.sync_stores([kb_a, kb_b])
        assert kb_facts(kb_a) == after_a
        assert kb_facts(kb_b) == after_b

    def test_sync_fewer_than_two_stores_is_a_noop(self, tmp_path):
        kb_a = str(tmp_path / "a.sqlite")
        learn_into(kb_a, "p1")
        results = fleet.sync_stores([kb_a, kb_a])
        assert results == [{"path": kb_a, "sources": 0, "models": 0,
                            "cubes": 0, "fail_memos": 0}]

    def test_router_syncs_after_failover(self, tmp_path):
        """sync_on_failover: the takeover shard inherits what the dead
        shard had learned, once per (failed, winner) pair."""
        kb_a = str(tmp_path / "a.sqlite")
        kb_b = str(tmp_path / "b.sqlite")
        learn_into(kb_a, "p1")  # the "dead" shard's prior knowledge
        cubes_a = kb_facts(kb_a)
        with running_daemon(tmp_path) as sock_b:
            router = fleet.FleetRouter(
                [fleet.FleetEndpoint("a", str(tmp_path / "dead.sock"), kb_a),
                 fleet.FleetEndpoint("b", sock_b, kb_b)],
                trip_threshold=99, sync_on_failover=True)
            failed_over = 0
            for cid in ("p1", "p2", "p3"):
                fingerprint = router.fingerprint_for(case_request(cid))
                order = fleet.rendezvous_order(fingerprint, router.endpoints)
                failed_over += order[0].name == "a"
                router.check(case_request(cid), fallback=False)
        # At least one bundled case must shard onto A for this to bite.
        assert failed_over > 0
        # One sync per (failed, winner) pair, not one per job.
        assert router.counters["syncs"] == 1
        facts_b = kb_facts(kb_b)
        # B's store now contains at least everything A had learned.
        assert all(b >= a for b, a in zip(facts_b, cubes_a))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetCli:
    def test_fleet_status_json(self, tmp_path, capsys):
        from repro.cli import main

        with running_daemon(tmp_path) as socket_path:
            code = main(["fleet", "status", "--endpoint",
                         "a=%s" % socket_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["up"] == 1
        assert payload["endpoints"][0]["probe"]["alive"] is True

    def test_fleet_status_all_down_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["fleet", "status",
                     "--endpoint", "a=%s" % (tmp_path / "no.sock")])
        assert code == 1
        assert "DOWN" in capsys.readouterr().out

    def test_fleet_sync_cli(self, tmp_path, capsys):
        from repro.cli import main

        kb_a = str(tmp_path / "a.sqlite")
        kb_b = str(tmp_path / "b.sqlite")
        learn_into(kb_a, "p1")
        learn_into(kb_b, "p2")
        code = main(["fleet", "sync", kb_a, kb_b, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert kb_facts(kb_a) == kb_facts(kb_b)

    def test_fleet_sync_needs_two_stores(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["fleet", "sync", str(tmp_path / "only.sqlite")])
        assert code == 1
        assert "at least two" in capsys.readouterr().err

    def test_fleet_sync_uses_endpoint_kb_paths(self, tmp_path, capsys):
        from repro.cli import main

        kb_a = str(tmp_path / "a.sqlite")
        kb_b = str(tmp_path / "b.sqlite")
        learn_into(kb_a, "p1")
        learn_into(kb_b, "p2")
        code = main(["fleet", "sync",
                     "--endpoint", "a=/no.sock;kb=%s" % kb_a,
                     "--endpoint", "b=/no.sock2;kb=%s" % kb_b])
        assert code == 0
        assert kb_facts(kb_a) == kb_facts(kb_b)

    def test_fleet_batch_cli(self, tmp_path, capsys):
        from repro.cli import main

        with running_daemon(tmp_path) as socket_path:
            code = main(["fleet", "batch", "--case", "p2", "--case", "p3",
                         "--endpoint", "a=%s" % socket_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["done"] == 2 and payload["lost"] == 0

    COUNTER_VERILOG = (
        "module counter(input clk, input rst, input en,"
        " output [3:0] count);\n"
        "  reg [3:0] count;\n"
        "  always @(posedge clk) begin\n"
        "    if (rst) count <= 0;\n"
        "    else if (en) begin\n"
        "      if (count == 9) count <= 0;\n"
        "      else count <= count + 1;\n"
        "    end\n"
        "  end\n"
        "endmodule\n"
    )

    def test_submit_routes_through_fleet(self, tmp_path, capsys):
        from repro.cli import main

        design = tmp_path / "counter.v"
        design.write_text(self.COUNTER_VERILOG)
        with running_daemon(tmp_path) as socket_path:
            code = main([
                "submit", str(design),
                "--assert", "count <= 9",
                "--endpoint", "a=%s" % socket_path,
                "--no-fallback", "--json",
            ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["source"] == "daemon"
        assert payload["service"]["endpoint"] == "a"
