"""Tests for the verification-as-a-service daemon (:mod:`repro.service`).

Four layers:

* golden protocol tests -- every ``repro-service/v1`` message shape
  round-trips through encode/decode, unknown fields survive, newer minor
  protocol revisions are tolerated and other majors rejected;
* daemon integration -- a real supervisor on a unix socket: the second
  submit of the same circuit hits the warm worker (nonzero warm stats) and
  returns a bit-identical verdict + counterexample to the in-process path;
* failure handling -- seeded fault plans (:mod:`repro.faults`) drive worker
  crashes (requeued once then aborted with a typed cause), job timeouts,
  hung-worker watchdog kills and poison-job quarantine;
* resilience plumbing -- client read deadlines, typed fallback semantics
  (in-process only on connection-level failures), idempotent resubmit,
  end-to-end deadline propagation and graceful drain.
"""

import asyncio
import contextlib
import copy
import os
import socket as socket_module
import subprocess
import sys
import threading
import time

import pytest

from repro import api, faults
from repro.service import protocol
from repro.service.client import (
    JobFailure,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
    check_via_service,
    service_available,
)
from repro.service.supervisor import ServiceOptions, serve
from repro.service.worker import _clamped_request


@pytest.fixture(autouse=True)
def _unarmed_faults(monkeypatch):
    """Tests arm fault plans explicitly; none may leak between tests."""
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.SEED_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.disarm()
    yield
    faults.disarm()


def arm_plan(monkeypatch, tmp_path, text, seed=0):
    """Arm a fault plan through the environment (workers inherit on fork)."""
    plan = faults.FaultPlan.parse(text, seed=seed)
    state_dir = str(tmp_path / "fault-state")
    for key, value in faults.plan_environment(plan, state_dir).items():
        monkeypatch.setenv(key, value)
    faults._ARMED = None  # force the lazy env re-read in this process too


# ----------------------------------------------------------------------
# Protocol golden tests
# ----------------------------------------------------------------------
GOLDEN_REQUESTS = [
    protocol.request_message("ping"),
    protocol.request_message("submit", request={"circuit": {"kind": "case", "case": "p1"}}),
    protocol.request_message(
        "submit",
        request={"circuit": {"kind": "case", "case": "p1"}},
        submit_key="a1b2c3d4e5f6-0f0e0d0c",
        deadline_seconds=30.0,
    ),
    protocol.request_message("status", job_id="job-1"),
    protocol.request_message("result", job_id="job-1", wait=True, timeout=2.0),
    protocol.request_message("cancel", job_id="job-1"),
    protocol.request_message("stats"),
    protocol.request_message("shutdown"),
    protocol.request_message("shutdown", mode="drain"),
]

GOLDEN_RESPONSES = [
    protocol.ok_response("ping", pid=1234, draining=False),
    protocol.ok_response("ping", protocol=protocol.PROTOCOL, pid=1234,
                         uptime_seconds=12.5, draining=True),
    protocol.ok_response("submit", job_id="job-1", state="queued"),
    protocol.ok_response("submit", job_id="job-1", state="running", deduplicated=True),
    protocol.ok_response("status", job={"job_id": "job-1", "state": "running"}),
    protocol.ok_response("result", job_id="job-1", state="done",
                         report={"schema": "repro-check-report/v1"}),
    protocol.ok_response("result", job_id="job-2", state="failed",
                         error="worker crashed", cause="crash",
                         job={"job_id": "job-2", "state": "failed",
                              "cause": "crash"}),
    protocol.ok_response("cancel", job_id="job-1", state="cancelled"),
    protocol.ok_response("stats", stats={"jobs": {"submitted": 1}, "workers": [],
                                         "resilience": {"retries": 0}}),
    protocol.ok_response("shutdown", stopping=True),
    protocol.ok_response("shutdown", mode="drain", draining=True),
    protocol.error_response("submit", "bad request"),
    protocol.error_response("submit", "daemon is draining", cause="draining"),
    protocol.error_response("submit", "request is quarantined",
                            cause="quarantined", digest="ab" * 32),
    protocol.error_response(None, "unreadable message"),
]


class TestProtocol:
    @pytest.mark.parametrize("message", GOLDEN_REQUESTS + GOLDEN_RESPONSES)
    def test_every_message_round_trips(self, message):
        decoded = protocol.decode(protocol.encode(message))
        assert decoded == dict(message, schema=protocol.PROTOCOL)

    @pytest.mark.parametrize("message", GOLDEN_REQUESTS)
    def test_requests_parse_to_known_verbs(self, message):
        verb, payload = protocol.parse_verb(protocol.decode(protocol.encode(message)))
        assert verb in protocol.VERBS
        assert isinstance(payload, dict)

    def test_unknown_fields_pass_through(self):
        message = protocol.request_message("submit", request={}, x_new_field={"k": 1})
        decoded = protocol.decode(protocol.encode(message))
        assert decoded["x_new_field"] == {"k": 1}

    def test_protocol_is_v1_1_with_ping(self):
        """The ping verb shipped as a minor revision: same major, so v1
        peers interoperate, but the version string records the addition."""
        assert protocol.PROTOCOL == "repro-service/v1.1"
        assert "ping" in protocol.VERBS

    def test_plain_v1_peer_still_accepted(self):
        """Messages tagged by a pre-ping peer (plain ``repro-service/v1``)
        must keep decoding after the minor bump -- same-major tolerance
        works in both directions."""
        message = dict(protocol.request_message("submit", request={}),
                       schema="repro-service/v1")
        decoded = protocol.decode(protocol.encode(message))
        assert protocol.parse_verb(decoded)[0] == "submit"

    def test_newer_minor_protocol_tolerated(self):
        message = dict(protocol.request_message("ping"), schema="repro-service/v1.6")
        decoded = protocol.decode(protocol.encode(message))
        assert protocol.parse_verb(decoded)[0] == "ping"

    def test_other_major_protocol_rejected(self):
        line = protocol.encode(dict(protocol.request_message("ping"),
                                    schema="repro-service/v2"))
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_missing_schema_tolerated(self):
        message = protocol.request_message("ping")
        del message["schema"]
        assert protocol.decode(protocol.encode(message))["verb"] == "ping"

    def test_non_object_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'"just a string"\n')
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'not json at all\n')

    def test_unknown_verb_rejected_by_parse(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_verb({"verb": "explode"})

    def test_failure_causes_are_stable(self):
        # Clients branch on these strings; renaming one is a protocol break.
        assert set(protocol.FAILURE_CAUSES) >= {
            "timeout", "crash", "watchdog", "quarantined", "draining",
            "job-error", "cancelled", "injected",
        }

    def test_request_digest_is_canonical(self):
        a = {"circuit": {"kind": "case", "case": "p1"}, "seed": 7}
        b = {"seed": 7, "circuit": {"case": "p1", "kind": "case"}}
        assert protocol.request_digest(a) == protocol.request_digest(b)
        assert protocol.request_digest(a) != protocol.request_digest(
            dict(a, seed=8))


# ----------------------------------------------------------------------
# Daemon integration
# ----------------------------------------------------------------------
@contextlib.contextmanager
def running_daemon(tmp_path, **options):
    """A real supervisor on a unix socket in a background thread."""
    socket_path = str(tmp_path / "repro-service.sock")
    thread = threading.Thread(
        target=lambda: asyncio.run(serve(ServiceOptions(socket_path=socket_path,
                                                        **options))),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if os.path.exists(socket_path) and service_available(socket_path):
            break
        time.sleep(0.05)
    else:
        raise RuntimeError("daemon did not come up")
    try:
        yield socket_path
    finally:
        # A connect can land in the backlog of a listener that is already
        # tearing down and never get an answer; keep the cleanup deadlines
        # short so a daemon that shut down on its own costs seconds, not
        # the full read timeout.
        with contextlib.suppress(ServiceError, protocol.ProtocolError):
            with ServiceClient(socket_path, connect_timeout=2.0,
                               read_timeout=5.0) as client:
                client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread failed to shut down"
        assert not os.path.exists(socket_path), "daemon left its socket behind"


def case_request(case_id: str = "p1", **knobs) -> api.CheckRequest:
    return api.CheckRequest(circuit=api.CircuitRef.case(case_id), **knobs)


def normalized(report: api.CheckReport) -> dict:
    """A report dict with everything timing/transport-dependent removed."""
    payload = copy.deepcopy(report.to_dict())
    payload.pop("wall_seconds", None)
    payload.pop("source", None)
    payload.pop("service", None)
    for result in payload.get("results", []):
        result.pop("wall_seconds", None)
        result.pop("stats", None)
        for engine in result.get("engines", []):
            engine.pop("wall_seconds", None)
            engine.pop("stats", None)
    return payload


def test_supervisor_loads_the_solver_before_forking_workers():
    """Workers fork from the supervisor, so it loads the lazily imported
    datapath solver up front: no worker compiles it inside a job."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "from repro.service.supervisor import ServiceOptions, Supervisor\n"
        "print('repro.modsolver.extract' in sys.modules)\n"
        "Supervisor(ServiceOptions(socket_path='unused.sock'))\n"
        "print('repro.modsolver.extract' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class TestDaemon:
    def test_second_submit_is_warm_and_bit_identical(self, tmp_path):
        request = case_request("p1")
        baseline = api.check(request)
        with running_daemon(tmp_path) as socket_path:
            first = check_via_service(request, socket_path=socket_path, fallback=False)
            second = check_via_service(request, socket_path=socket_path, fallback=False)

        assert first.source == "daemon"
        assert second.source == "daemon"
        # Warm path: the worker kept its design + unrolled models resident.
        worker = second.service["worker"]
        assert worker["jobs_done"] >= 2
        assert worker["warm_hits"] >= 1
        # The daemon answers with the exact same verdicts and traces as the
        # in-process facade -- callers never need to care which path ran.
        assert normalized(first) == normalized(baseline)
        assert normalized(second) == normalized(baseline)
        assert second.results[0].trace == baseline.results[0].trace

    def test_aliasing_one_hot_assumptions_answer_like_cold(self, tmp_path):
        """Two submits on the resident design, ``onehot(x, y)`` then
        ``onehot(x, z)``: the second must not inherit the first's facts."""
        from test_incremental import ALIAS_VERILOG

        def request(assumption):
            return api.CheckRequest(
                circuit=api.CircuitRef.source(ALIAS_VERILOG),
                properties=(api.PropertySpec.assertion("p", "r == 0"),),
                assumptions=(assumption,), initial_state=(("r", 0),),
                max_frames=4,
            )

        baseline = api.check(request("onehot(x, z)"))
        with running_daemon(tmp_path) as socket_path:
            first = check_via_service(request("onehot(x, y)"),
                                      socket_path=socket_path, fallback=False)
            second = check_via_service(request("onehot(x, z)"),
                                       socket_path=socket_path, fallback=False)
        # The design stayed resident; only the model is per-environment.
        assert second.service["worker"]["jobs_done"] >= 2
        assert second.service["worker"]["designs_resident"] == 1
        assert first.results[0].status == "holds"
        assert second.results[0].status == "fails"
        assert normalized(second) == normalized(baseline)

    def test_v1_0_payload_with_retired_fields_answers_like_default(self, tmp_path):
        """An old client's request, retired search fields set, gets the
        same verdict and trace as the default request."""
        from test_api import legacy_v1_payload

        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(legacy_v1_payload("p4"))
                legacy = api.CheckReport.from_dict(client.result(job_id)["report"])
            default = check_via_service(
                case_request("p4"), socket_path=socket_path, fallback=False
            )
        assert legacy.results[0].trace is not None
        assert normalized(legacy) == normalized(default)
        assert legacy.results[0].trace == default.results[0].trace

    def test_stats_verb_and_kb_block_shape(self, tmp_path):
        kb_path = str(tmp_path / "service-kb.sqlite")
        request = case_request("p1", kb_path=kb_path)
        with running_daemon(tmp_path) as socket_path:
            check_via_service(request, socket_path=socket_path, fallback=False)
            with ServiceClient(socket_path) as client:
                stats = client.stats()

        assert stats["protocol"] == protocol.PROTOCOL
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["completed"] == 1
        assert len(stats["workers"]) == 1
        worker = stats["workers"][0]
        assert worker["alive"]
        assert worker["jobs_done"] == 1
        assert isinstance(worker.get("pid"), int)
        # The worker's kb blocks reuse the exact `repro kb stats --json`
        # shape -- one schema for knowledge-base stats everywhere.
        assert worker["kb"], "kb-attached job should surface a kb stats block"
        assert set(worker["kb"][0]) >= {"path", "disabled", "schema_version",
                                        "models", "cubes", "fail_memos",
                                        "hits", "per_model"}
        # The resilience block rides on the same stats payload.
        resilience = stats["resilience"]
        assert resilience["draining"] is False
        for counter in ("retries", "requeued", "quarantined",
                        "watchdog_kills", "timeouts", "degradations"):
            assert resilience[counter] == 0

    def test_status_and_result_verbs(self, tmp_path):
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
                status = client.status(job_id)
        assert response["state"] == "done"
        assert response["report"]["schema"] == api.REPORT_SCHEMA
        assert status["state"] == "done"
        assert status["job_id"] == job_id

    def test_unknown_job_and_bad_submit_are_protocol_errors(self, tmp_path):
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                with pytest.raises(ServiceError):
                    client.status("job-999")
                with pytest.raises(ServiceError):
                    client.submit({"schema": api.REQUEST_SCHEMA})  # no circuit
                # The connection survives errors: the next call still works.
                assert client.ping()["pid"] == os.getpid()

    def test_idempotent_resubmit_collapses_onto_one_job(self, tmp_path):
        request = case_request("p1")
        payload = request.to_dict()
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                first = client.submit(payload, submit_key="retry-key-1")
                # A retry of the same logical submit (response lost) reuses
                # the key and must land on the same job...
                second = client.submit(payload, submit_key="retry-key-1")
                # ...while a fresh logical submit gets a fresh job.
                third = client.submit(payload)
                client.result(first, wait=True)
                client.result(third, wait=True)
                stats = client.stats()
        assert first == second
        assert third != first
        assert stats["jobs"]["submitted"] == 2
        assert stats["resilience"]["retries"] == 1


# ----------------------------------------------------------------------
# Failure handling (seeded fault plans)
# ----------------------------------------------------------------------
class TestFailureHandling:
    def test_worker_crash_is_requeued_once_then_succeeds(
            self, tmp_path, monkeypatch):
        # nth=1 with a shared state dir: the respawned worker must NOT
        # re-fire the crash (the hit counter survives the process death).
        arm_plan(monkeypatch, tmp_path, "worker.run:crash:nth=1")
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
                stats = client.stats()
        assert response["state"] == "done", response.get("error")
        assert stats["jobs"]["requeued"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["resilience"]["requeued"] == 1
        # Verdict survives the crash-and-requeue bit-identically.
        report = api.CheckReport.from_dict(response["report"])
        assert normalized(report) == normalized(api.check(request))

    def test_persistent_crash_aborts_with_typed_cause(
            self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "worker.run:crash:exit_code=21")
        request = case_request("p1")
        with running_daemon(tmp_path, quarantine_limit=99) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
        assert response["state"] == "failed"
        assert response["cause"] == "crash"
        assert "21" in response["error"]
        assert "requeue limit" in response["error"]

    def test_job_timeout_aborts_with_typed_cause(self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=30")
        request = case_request("p1")
        with running_daemon(tmp_path, job_timeout=1.0) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
                stats = client.stats()
        assert response["state"] == "failed"
        assert response["cause"] == "timeout"
        assert stats["resilience"]["timeouts"] == 1

    def test_hung_worker_is_shot_by_watchdog_not_job_timeout(
            self, tmp_path, monkeypatch):
        # A hang (no result AND no heartbeats) must trip the watchdog even
        # though no job timeout is configured at all.
        arm_plan(monkeypatch, tmp_path, "worker.run:hang")
        request = case_request("p1")
        with running_daemon(tmp_path, hang_timeout=1.5,
                            heartbeat_interval=0.2,
                            quarantine_limit=99) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
                stats = client.stats()
        assert response["state"] == "failed"
        assert response["cause"] == "watchdog"
        assert "heartbeat" in response["error"]
        assert stats["resilience"]["watchdog_kills"] == 1

    def test_slow_job_with_heartbeats_is_not_shot(self, tmp_path, monkeypatch):
        # The inverse of the watchdog test: a *slow* job (sleep fault) keeps
        # heartbeating, so a hang_timeout shorter than the job must not kill
        # it -- the watchdog distinguishes wedged from busy.
        arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=2")
        request = case_request("p1")
        with running_daemon(tmp_path, hang_timeout=1.0,
                            heartbeat_interval=0.2) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
        assert response["state"] == "done", response.get("error")

    def test_poison_job_is_quarantined_and_refused(self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "worker.run:crash")
        request = case_request("p1")
        with running_daemon(tmp_path, quarantine_limit=2,
                            requeue_limit=5) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
                # The digest is now poison: resubmitting it is refused
                # outright instead of burning more workers.
                with pytest.raises(JobFailure) as excinfo:
                    client.submit(request)
                stats = client.stats()
        assert response["state"] == "failed"
        assert response["cause"] == "quarantined"
        assert excinfo.value.cause == "quarantined"
        assert stats["resilience"]["quarantined"] == 1
        assert stats["resilience"]["quarantined_digests"]

    def test_injected_dispatch_fault_is_typed(self, tmp_path, monkeypatch):
        # supervisor.dispatch error faults surface as typed responses, and
        # the daemon survives them (the next verb works).  Armed only once
        # the daemon is up, so the readiness ping does not consume a hit.
        with running_daemon(tmp_path) as socket_path:
            arm_plan(monkeypatch, tmp_path, "supervisor.dispatch:error:nth=2")
            with ServiceClient(socket_path) as client:
                client.ping()  # hit 1: clean
                with pytest.raises(JobFailure) as excinfo:
                    client.ping()  # hit 2: injected
                assert client.ping()  # hit 3: clean again
        assert excinfo.value.cause == "injected"

    def test_faults_are_inert_unless_armed(self, tmp_path):
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                response = client.result(job_id, wait=True)
        assert response["state"] == "done"


# ----------------------------------------------------------------------
# Client resilience plumbing
# ----------------------------------------------------------------------
class TestClientResilience:
    def test_wedged_daemon_surfaces_as_typed_timeout(self, tmp_path):
        """A daemon that accepts but never answers must not block forever."""
        socket_path = str(tmp_path / "wedged.sock")
        server = socket_module.socket(socket_module.AF_UNIX,
                                      socket_module.SOCK_STREAM)
        server.bind(socket_path)
        server.listen(1)
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(server.accept()), daemon=True)
        thread.start()
        try:
            client = ServiceClient(socket_path, read_timeout=0.3)
            started = time.monotonic()
            with pytest.raises(ServiceTimeout):
                client.ping()
            assert time.monotonic() - started < 5.0
        finally:
            server.close()
            for conn, _ in accepted:
                conn.close()

    def test_connect_retries_with_backoff_then_unavailable(self, tmp_path):
        socket_path = str(tmp_path / "nobody-home.sock")
        policy = RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.05)
        client = ServiceClient(socket_path, retry=policy)
        started = time.monotonic()
        with pytest.raises(ServiceUnavailable):
            client.connect_with_retry()
        # Two backoff sleeps happened (attempts 1->2->3), but tiny ones.
        assert 0.005 < time.monotonic() - started < 5.0

    def test_fallback_when_no_daemon(self, tmp_path):
        request = case_request("p1")
        socket_path = str(tmp_path / "nobody-home.sock")
        report = check_via_service(request, socket_path=socket_path, fallback=True)
        assert report.source == "in-process"
        assert normalized(report) == normalized(api.check(request))
        with pytest.raises(ServiceUnavailable):
            check_via_service(request, socket_path=socket_path, fallback=False)

    def test_daemon_side_failure_propagates_despite_fallback(
            self, tmp_path, monkeypatch):
        """Satellite #2: a failed job must NOT silently re-run locally."""
        arm_plan(monkeypatch, tmp_path, "worker.run:crash")
        request = case_request("p1")
        with running_daemon(tmp_path, quarantine_limit=99) as socket_path:
            with pytest.raises(JobFailure) as excinfo:
                check_via_service(request, socket_path=socket_path,
                                  fallback=True)
        assert excinfo.value.cause == "crash"
        assert excinfo.value.state == "failed"

    def test_injected_connect_fault_falls_back(self, tmp_path, monkeypatch):
        # client.connect drop-connection faults look like nobody listening,
        # which IS the one condition the in-process fallback covers.
        arm_plan(monkeypatch, tmp_path, "client.connect:drop-connection")
        request = case_request("p1")
        report = check_via_service(
            request, socket_path=str(tmp_path / "unused.sock"), fallback=True)
        assert report.source == "in-process"

    def test_fallback_respects_deadline(self, tmp_path, monkeypatch):
        """Regression: the in-process fallback must clamp the engine time
        budget to --deadline exactly like the daemon path does worker-side.
        Pinned by a fault plan dropping every connection, so the fallback
        is guaranteed to run."""
        arm_plan(monkeypatch, tmp_path, "client.connect:drop-connection")
        seen = {}
        real_check = api.check

        def spy(request, **kwargs):
            seen["time_budget"] = request.time_budget
            return real_check(request, **kwargs)

        monkeypatch.setattr(api, "check", spy)
        report = check_via_service(
            case_request("p1"), socket_path=str(tmp_path / "unused.sock"),
            fallback=True, deadline=4.5)
        assert report.source == "in-process"
        assert seen["time_budget"] == 4.5

        # An already-tighter engine budget survives a looser deadline.
        seen.clear()
        report = check_via_service(
            case_request("p1", time_budget=0.5),
            socket_path=str(tmp_path / "unused.sock"),
            fallback=True, deadline=60.0)
        assert report.source == "in-process"
        assert seen["time_budget"] == 0.5

    def test_dropped_connection_is_retried_and_job_survives(
            self, tmp_path, monkeypatch):
        # One injected mid-conversation drop on the first recv: the client
        # reconnects (same daemon, same job id server-side) and the check
        # still returns the daemon's bit-identical report.
        request = case_request("p1")
        baseline = api.check(request)
        with running_daemon(tmp_path) as socket_path:
            # Hit 1 is the submit's response read; hit 2 is the first
            # result poll, which is where the drop lands.
            arm_plan(monkeypatch, tmp_path, "client.recv:drop-connection:nth=2")
            report = check_via_service(request, socket_path=socket_path,
                                       fallback=False)
        assert report.source == "daemon"
        assert normalized(report) == normalized(baseline)

    def test_inline_circuit_cannot_be_submitted(self, tmp_path):
        from repro.netlist import Circuit
        from repro.properties import Assertion, Signal

        circuit = Circuit("inline")
        a = circuit.input("a", 4)
        circuit.output(a, name="out")
        request = api.build_request(circuit, Assertion("ok", Signal("out") != 99))
        socket_path = str(tmp_path / "nobody-home.sock")
        # Graceful: falls back in-process rather than failing the caller.
        report = check_via_service(request, socket_path=socket_path, fallback=True)
        assert report.source == "in-process"
        with pytest.raises(ServiceError):
            check_via_service(request, socket_path=socket_path, fallback=False)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_fails_typed_before_dispatch(self, tmp_path):
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request, deadline=0.0)
                response = client.result(job_id, wait=True)
        assert response["state"] == "failed"
        assert response["cause"] == "timeout"
        assert "deadline" in response["error"]

    def test_generous_deadline_still_completes(self, tmp_path):
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            report = check_via_service(request, socket_path=socket_path,
                                       fallback=False, deadline=120.0)
        assert report.source == "daemon"
        # A deadline routes through the budgeted portfolio path, whose
        # result rows carry plain-string statuses.
        status = report.results[0].status
        status = getattr(status, "value", status)
        assert status in ("fails", "holds", "witness_found", "witness_not_found")

    def test_deadline_clamps_engine_budget(self):
        request = case_request("p1")
        assert _clamped_request(request, None).time_budget is None
        assert _clamped_request(request, 5.0).time_budget == 5.0
        tight = api.CheckRequest(circuit=api.CircuitRef.case("p1"),
                                 time_budget=2.0)
        assert _clamped_request(tight, 5.0).time_budget == 2.0
        assert _clamped_request(tight, 0.5).time_budget == 0.5

    def test_exhaust_budget_fault_collapses_the_budget(
            self, tmp_path, monkeypatch):
        arm_plan(monkeypatch, tmp_path, "worker.budget:exhaust-budget")
        request = case_request("p1")
        clamped = _clamped_request(request, None)
        assert clamped.time_budget == 0.001


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_finishes_in_flight_and_refuses_new_submits(
            self, tmp_path, monkeypatch):
        # The in-flight job is slowed by a sleep fault so the drain verb
        # demonstrably arrives while it is still running.
        arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=1.5:nth=1")
        request = case_request("p1")
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                job_id = client.submit(request)
                reply = client.shutdown(mode="drain")
                assert reply["draining"] is True
                # New work is refused with the typed draining cause...
                with pytest.raises(JobFailure) as excinfo:
                    client.submit(case_request("p2"))
                assert excinfo.value.cause == "draining"
                # ...while the in-flight job runs to a real verdict.
                response = client.result(job_id, wait=True)
                assert response["state"] == "done", response.get("error")
        # running_daemon's exit asserts the thread stopped and the socket
        # is gone -- the drain completed the shutdown on its own.

    def test_drain_with_idle_daemon_stops_immediately(self, tmp_path):
        with running_daemon(tmp_path) as socket_path:
            with ServiceClient(socket_path) as client:
                reply = client.shutdown(mode="drain")
                assert reply["draining"] is True
        # Exit-time asserts in running_daemon cover the clean stop.
