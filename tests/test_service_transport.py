"""The supervisor <-> worker transport and the per-job costs around a check.

* the supervisor holds each worker's socketpair as an asyncio stream in
  :class:`multiprocessing.connection.Connection` framing, so no job keeps
  a thread blocked -- busy workers cannot starve the default executor the
  routing of a new design needs;
* each worker runs one heartbeat thread for its whole life, armed and
  disarmed per job under the send lock without being woken, on its own
  half-interval clock;
* the report crosses the supervisor as the worker's JSON text, and the
  supervisor waits for jobs with one future and one timer per wait;
* per-job replies carry counters only; the ``stats`` verb asks idle
  workers for the knowledge-base block;
* the job table keeps a bounded number of finished jobs;
* a client that connects while the daemon shuts down is answered or
  disconnected, never left waiting for its read timeout.
"""

import asyncio
import contextlib
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import Connection

import pytest

from repro import api, faults
from repro.service import fleet, protocol
from repro.service import supervisor as supervisor_module
from repro.service.client import ServiceClient, ServiceError, service_available
from repro.service.supervisor import Job, ServiceOptions, Supervisor, _frame, _WorkerPipe
from repro.service.worker import _Heartbeat
from test_service import arm_plan, case_request


@pytest.fixture(autouse=True)
def _unarmed_faults(monkeypatch):
    monkeypatch.delenv(faults.PLAN_ENV, raising=False)
    monkeypatch.delenv(faults.SEED_ENV, raising=False)
    monkeypatch.delenv(faults.STATE_ENV, raising=False)
    faults.disarm()
    yield
    faults.disarm()


@contextlib.contextmanager
def supervisor_thread(tmp_path, executor_threads=None, **options):
    """A supervisor on its own loop in a thread; yields (socket, supervisor)."""
    socket_path = str(tmp_path / "transport.sock")
    holder = {}

    def run():
        loop = asyncio.new_event_loop()
        if executor_threads is not None:
            loop.set_default_executor(ThreadPoolExecutor(executor_threads))
        try:
            supervisor = Supervisor(ServiceOptions(socket_path=socket_path, **options))
            holder["supervisor"] = supervisor
            loop.run_until_complete(supervisor.serve_forever())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 20.0
    while not (os.path.exists(socket_path) and service_available(socket_path)):
        if time.monotonic() > deadline:
            raise RuntimeError("daemon did not come up")
        time.sleep(0.05)
    try:
        yield socket_path, holder["supervisor"]
    finally:
        with contextlib.suppress(ServiceError):
            with ServiceClient(socket_path, connect_timeout=2.0,
                               read_timeout=10.0) as client:
                client.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread failed to shut down"


# ----------------------------------------------------------------------
# Framing and the stream reader
# ----------------------------------------------------------------------
@pytest.mark.parametrize("message", [
    {"op": "run", "job_id": "job-1", "request": {"seed": 7}},
    {"op": "run", "blob": "x" * 100_000},  # larger than one Connection chunk
])
def test_frames_are_what_a_worker_connection_reads(message):
    ours, theirs = socket.socketpair()
    conn = Connection(theirs.detach())
    try:
        ours.sendall(_frame(message))
        assert conn.recv() == message
    finally:
        ours.close()
        conn.close()


def test_worker_pipe_routes_by_op_and_resolves_waiters_on_eof():
    async def scenario():
        ours, theirs = socket.socketpair()
        conn = Connection(theirs.detach())
        seen = []
        pipe = _WorkerPipe(ours, lambda op, message: seen.append(op))
        result, stats = pipe.expect("result"), pipe.expect("stats")
        assert pipe.expect("stats") is stats  # shared while pending
        await pipe.send({"op": "ping-through"})
        assert await asyncio.to_thread(conn.recv) == {"op": "ping-through"}
        conn.send({"op": "heartbeat", "ts": 1.0})
        conn.send({"op": "stats", "stats": {"jobs_done": 0}})
        conn.send({"op": "done", "job_id": "job-1", "report": {"big": "y" * 50_000}})
        assert (await asyncio.wait_for(stats, 5))["stats"] == {"jobs_done": 0}
        assert (await asyncio.wait_for(result, 5))["job_id"] == "job-1"
        stopped = pipe.expect("stopped")
        conn.close()  # EOF: pending waiters resolve to None
        assert await asyncio.wait_for(stopped, 5) is None
        assert pipe.closed
        assert await pipe.expect("result") is None
        with pytest.raises(EOFError):
            await pipe.send({"op": "stop"})
        pipe.close()
        return seen

    assert asyncio.run(scenario()) == ["heartbeat", "stats", "done"]


# ----------------------------------------------------------------------
# One heartbeat thread per worker
# ----------------------------------------------------------------------
class _Recorder:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def test_one_heartbeat_thread_serves_every_job():
    lock, conn = threading.Lock(), _Recorder()
    heartbeat = _Heartbeat(conn, lock, 0.05)
    idents = set()
    for _ in range(100):
        with lock:
            heartbeat.arm()
        idents.add(heartbeat._thread.ident)
        with lock:
            heartbeat.disarm()
    assert len(idents) == 1


def test_no_heartbeat_follows_a_result_and_hang_silences_one_job():
    lock, conn = threading.Lock(), _Recorder()
    heartbeat = _Heartbeat(conn, lock, 0.05)
    with lock:
        heartbeat.arm()
    _wait_for(lambda: len(conn.sent) >= 2)
    assert {m["op"] for m in conn.sent} == {"heartbeat"}
    with lock:  # what the worker's send_result does
        heartbeat.disarm()
        conn.send({"op": "done"})
    time.sleep(0.25)
    assert conn.sent[-1] == {"op": "done"}

    # The hang fault pauses heartbeats for its job only.
    with lock:
        heartbeat.arm()
        heartbeat.pause()
    count = len(conn.sent)
    time.sleep(0.25)
    assert len(conn.sent) == count
    with lock:
        heartbeat.disarm()
        heartbeat.arm()
    _wait_for(lambda: len(conn.sent) > count)
    with lock:
        heartbeat.disarm()


def test_back_to_back_jobs_do_not_wake_the_heartbeat_thread():
    """200 arm/disarm cycles cost the thread a constant number of wake-ups,
    not two each."""
    lock, conn = threading.Lock(), _Recorder()
    heartbeat = _Heartbeat(conn, lock, 2.0)
    wakeups = []
    wait = heartbeat._wake.wait

    def counted_wait(timeout=None):
        result = wait(timeout)
        wakeups.append(timeout)
        return result

    heartbeat._wake.wait = counted_wait
    for _ in range(200):
        with lock:
            heartbeat.arm()
        time.sleep(0.0005)  # the job; the main thread gives up the GIL
        with lock:
            heartbeat.disarm()
    time.sleep(0.05)
    assert len(wakeups) <= 3, wakeups
    assert conn.sent == []


def test_heartbeats_are_at_most_one_and_a_half_intervals_apart():
    interval = 0.2
    lock = threading.Lock()
    sent = []

    class Clocked:
        def send(self, message):
            sent.append((time.monotonic(), message["op"]))

    heartbeat = _Heartbeat(Clocked(), lock, interval)
    # Park the thread first, so the measured job starts from the idle state.
    with lock:
        heartbeat.arm()
        heartbeat.disarm()
    _wait_for(lambda: heartbeat._parked)
    for _ in range(2):  # from a parked thread, then from a ticking one
        sent.clear()
        with lock:
            heartbeat.arm()
            armed_at = time.monotonic()
        time.sleep(6 * interval)
        with lock:
            heartbeat.disarm()
        times = [armed_at] + [at for at, op in sent if op == "heartbeat"]
        assert len(times) >= 5, sent
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        # 1.5 intervals, plus scheduling slack on a loaded machine.
        assert max(gaps) <= 1.5 * interval + 0.1, gaps
        assert min(gaps) >= interval * 0.99, gaps


# ----------------------------------------------------------------------
# The report crosses the supervisor as text
# ----------------------------------------------------------------------
def test_a_result_decodes_to_the_dict_the_report_encodes_to():
    report = api.check(case_request("p1"))  # a witness: the report has a trace
    assert report.results[0].trace is not None

    async def scenario():
        supervisor = Supervisor(ServiceOptions(socket_path="unused.sock"))
        job = Job("job-1", report_request, report_request.to_dict())
        supervisor.jobs[job.job_id] = job
        job.worker_stats = {"jobs_done": 1}
        job.report = protocol.dumps(report.to_dict())  # what the worker sends
        job.finish("done")
        line = await supervisor._verb_result({"job_id": job.job_id})
        # How the supervisor answered when the report crossed as a dict.
        before = protocol.ok_response("result", job_id=job.job_id, state="done",
                                      job=job.describe())
        before["report"] = report.to_dict()
        before["stats"] = job.worker_stats
        return line, protocol.encode(before)

    report_request = case_request("p1")
    line, before = asyncio.run(scenario())
    assert isinstance(line, bytes) and line.endswith(b"\n")
    decoded = protocol.decode(line.rstrip(b"\n"))
    assert decoded == protocol.decode(before.rstrip(b"\n"))
    assert api.CheckReport.from_dict(decoded["report"]).to_dict() == decoded["report"]


# ----------------------------------------------------------------------
# The supervisor leaves no timer or waiter behind
# ----------------------------------------------------------------------
def test_warm_jobs_leave_no_timer_or_waiter_and_a_short_wait_is_typed(tmp_path,
                                                                      monkeypatch):
    socket_path = str(tmp_path / "timers.sock")

    def live_timers(loop):
        return [handle for handle in loop._scheduled if not handle.cancelled()]

    def waiters(supervisor):
        pending = [w for job in supervisor.jobs.values() for w in job._waiters]
        for handle in supervisor.workers.values():
            pending.extend(handle.pipe._waiters.values())
        return pending

    def warm_jobs():
        with ServiceClient(socket_path) as client:
            for _ in range(500):
                assert client.result(client.submit(case_request("p5")))["state"] == "done"

    def short_wait():
        # A new design forks a new worker, which inherits the armed plan.
        with ServiceClient(socket_path) as client:
            job_id = client.submit(case_request("p3"))
            _wait_for(lambda: client.status(job_id)["state"] == "running")
            early = client.call("result", job_id=job_id, wait=True, timeout=0.1)
            return early, client.result(job_id, timeout=30.0)

    async def scenario():
        loop = asyncio.get_running_loop()
        supervisor = Supervisor(ServiceOptions(socket_path=socket_path))
        await supervisor.start()
        try:
            await asyncio.to_thread(warm_jobs)
            after_jobs = (live_timers(loop), waiters(supervisor))
            arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=1")
            early, final = await asyncio.to_thread(short_wait)
            after_wait = (live_timers(loop), waiters(supervisor))
        finally:
            await supervisor.stop()
        return after_jobs, early, final, after_wait

    after_jobs, early, final, after_wait = asyncio.run(scenario())
    assert after_jobs == ([], [])
    assert early["ok"] is False and early["state"] == "running", early
    assert "still running" in early["error"]
    assert "cause" not in early  # not a failure: the client polls on
    assert final["state"] == "done"
    assert after_wait == ([], [])


# ----------------------------------------------------------------------
# Busy workers hold no threads
# ----------------------------------------------------------------------
def test_busy_workers_do_not_starve_the_supervisor(tmp_path, monkeypatch):
    """Three sleeping jobs on a 2-thread default executor: a new design
    still routes at once, and every job starts when it is submitted."""
    sleep = 3.0
    arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=%g" % sleep)
    with supervisor_thread(tmp_path, executor_threads=2,
                           heartbeat_interval=5.0) as (socket_path, _):
        with ServiceClient(socket_path) as client:
            job_ids = [client.submit(case_request(case_id))
                       for case_id in ("p1", "p3", "p5")]
            _wait_for(lambda: all(client.status(job_id)["state"] == "running"
                                  for job_id in job_ids), timeout=2.0 * sleep)
            started = time.monotonic()
            client.ping()
            ping_seconds = time.monotonic() - started
            started = time.monotonic()
            job_ids.append(client.submit(case_request("p9")))
            submit_seconds = time.monotonic() - started
            jobs = [client.result(job_id, timeout=30.0)["job"] for job_id in job_ids]
    assert ping_seconds < 0.5
    assert submit_seconds < 0.5
    for job in jobs:
        assert job["state"] == "done", job
        assert job["wall_seconds"] < sleep + 1.0, job


# ----------------------------------------------------------------------
# Stats: counters per job, the KB block on the stats verb
# ----------------------------------------------------------------------
def test_result_stats_carry_counters_and_the_stats_verb_the_kb_block(tmp_path,
                                                                     monkeypatch):
    arm_plan(monkeypatch, tmp_path, "worker.run:sleep:seconds=2:nth=2")
    kb_path = str(tmp_path / "transport-kb.sqlite")
    request = case_request("p1", kb_path=kb_path)
    with supervisor_thread(tmp_path) as (socket_path, _):
        with ServiceClient(socket_path) as client:
            reply = client.result(client.submit(request))
            idle = client.stats()["workers"][0]
            busy_id = client.submit(request)
            _wait_for(lambda: client.status(busy_id)["state"] == "running")
            started = time.monotonic()
            busy = client.stats()["workers"][0]
            busy_seconds = time.monotonic() - started
            client.result(busy_id)
    stats = reply["stats"]
    assert "kb" not in stats
    assert stats["jobs_done"] == 1
    for counter in ("warm_hits", "kb_cubes_loaded", "kb_hits", "compiled_models",
                    "designs_resident", "model_cache", "degradations"):
        assert counter in stats
    assert set(idle["kb"][0]) >= {"path", "disabled", "schema_version", "models",
                                  "cubes", "fail_memos", "hits", "per_model"}
    assert idle["kb"][0]["models"] == 1
    # A busy worker is not asked: it reports its last-known block at once.
    assert busy["busy"]
    assert busy_seconds < 1.0
    assert busy["kb"] == idle["kb"]


# ----------------------------------------------------------------------
# Bounded job table
# ----------------------------------------------------------------------
def test_job_table_keeps_only_the_newest_finished_jobs(tmp_path, monkeypatch):
    kept = 3
    monkeypatch.setattr(supervisor_module, "FINISHED_JOBS_KEPT", kept)
    with supervisor_thread(tmp_path) as (socket_path, supervisor):
        with ServiceClient(socket_path) as client:
            job_ids = []
            for index in range(kept + 4):
                job_id = client.submit(case_request("p1"), submit_key="key-%d" % index)
                assert client.result(job_id)["state"] == "done"
                job_ids.append(job_id)
            stats = client.stats()
            assert len(supervisor.jobs) <= kept + stats["jobs"]["queued"] \
                + stats["jobs"]["running"]
            assert len(supervisor._submit_keys) <= kept
            assert client.result(job_ids[-1])["state"] == "done"
            with pytest.raises(ServiceError, match="unknown job"):
                client.result(job_ids[0])
            # An evicted submit key no longer deduplicates: it is a new job.
            assert client.submit(case_request("p1"), submit_key="key-0") not in job_ids
    assert stats["jobs"]["completed"] == kept + 4
    assert stats["jobs"]["queued"] == stats["jobs"]["running"] == 0


# ----------------------------------------------------------------------
# Shutdown closes every client connection
# ----------------------------------------------------------------------
def test_a_submit_racing_shutdown_is_never_left_hanging(tmp_path):
    """A submit that lands while a daemon drains to a stop gets a typed
    refusal or a dropped connection at once, not a read timeout.  The race
    is timing-dependent, so the fleet hand-over that exposes it is run
    several times."""
    for attempt in range(15):
        directory = tmp_path / str(attempt)
        (directory / "b").mkdir(parents=True)
        with supervisor_thread(directory) as (sock_a, _):
            with supervisor_thread(directory / "b") as (sock_b, _):
                with ServiceClient(sock_a) as client:
                    client.shutdown(mode="drain")
                router = fleet.FleetRouter(
                    [fleet.FleetEndpoint("a", sock_a), fleet.FleetEndpoint("b", sock_b)],
                    read_timeout=5.0)
                started = time.monotonic()
                report = router.check(case_request("p1"), fallback=False)
                assert time.monotonic() - started < 2.0, attempt
                assert report.service["endpoint"] == "b"
