"""daemon-warm: one client against a warm ``repro serve`` with default options.

Set-up spawns the daemon and primes one worker per circuit.  The client
then submits and waits, round-robin in a seeded order, over the default
property of at most four zoo circuits (no more than ``--max-workers``, so
nothing is evicted).  Requests carry a ``kb_path`` to a per-run store, as
the per-shard fleet configuration does, so every job also loads from and
flushes to the knowledge base.  The daemon is shut down through the
``shutdown`` verb, and the run fails if any process or the socket survives.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import subprocess
import sys
import time

import harness
from harness import Ledger, log
from layers import load_records
from repro import api
from repro.service import ProtocolError, ServiceClient, ServiceError

#: known answers: the verdicts the paper reports for these cases.
CASES = {"p5": "holds", "p9": "holds", "p12": "holds", "p15": "holds"}
#: rounds over the cases that prime a fresh daemon; the first is cold.
PRIMING_ROUNDS = 2
#: daemons started to find the set-up time; the last one is measured.
SETUP_REPEATS = 5
#: rounds over the cases per pass of the traced run.
TRACE_ROUNDS = 25


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as stream:
            state = stream.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


class Daemon:
    """One ``repro serve`` child process and the benchmark's client of it."""

    def __init__(self, scratch, index, trace_dir=None):
        self.socket = os.path.join(scratch, "d%d.sock" % index)
        self.kb_path = os.path.join(scratch, "kb%d.sqlite" % index)
        serve = ["serve", "--socket", self.socket]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro"] + serve
        else:
            argv = [sys.executable, harness.TRACED_ENTRY, "serve", trace_dir] + serve
        self._log = open(os.path.join(scratch, "d%d.log" % index), "w")
        self.proc = subprocess.Popen(
            argv, cwd=harness.ROOT, env=harness.child_env(),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(self.socket)
        self.worker_pids = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.kill()

    def start(self, timeout=60.0):
        """Wait for the socket, then prime every case; raises on failure."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with code %d" % self.proc.returncode)
            try:
                self.client.ping()
                break
            except ServiceError:
                self.client.close()
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        for _ in range(PRIMING_ROUNDS):
            for case_id in sorted(CASES):
                failure, _ = self.score(case_id, self.check(case_id))
                if failure is not None:
                    raise RuntimeError("priming %s failed: %s" % (case_id, failure))

    def check(self, case_id):
        request = api.CheckRequest(
            circuit=api.CircuitRef.case(case_id), kb_path=self.kb_path
        )
        return self.client.result(self.client.submit(request), timeout=120.0)

    def score(self, case_id, response):
        """``(failure or None, report)`` of one ``result`` response."""
        if response.get("state") != "done":
            return "job ended %s" % response.get("state"), None
        report = api.CheckReport.from_dict(response["report"])
        return harness.report_failure(report, CASES[case_id]), report

    def stats(self):
        stats = self.client.stats()
        self.worker_pids = sorted(w["pid"] for w in stats["workers"] if "pid" in w)
        return stats

    def tree_cpu_seconds(self):
        """CPU of the supervisor and its workers so far."""
        return sum(
            harness.proc_cpu_seconds(pid) for pid in [self.proc.pid] + self.worker_pids
        )

    def shutdown(self):
        """Stop through the ``shutdown`` verb; returns hygiene problems."""
        self.stats()
        self.client.shutdown(mode="now")
        self.client.close()
        problems = []
        try:
            code = self.proc.wait(timeout=30)
            if code != 0:
                problems.append("daemon exited with code %d" % code)
        except subprocess.TimeoutExpired:
            problems.append("daemon still running 30 s after shutdown")
        if os.path.exists(self.socket):
            problems.append("socket %s survived shutdown" % self.socket)
        deadline = time.monotonic() + 5.0
        while any(map(_alive, self.worker_pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        problems.extend(
            "worker %d survived shutdown" % pid for pid in self.worker_pids if _alive(pid)
        )
        self.kill()
        return problems

    def kill(self):
        """Stop whatever is still running, and reap the daemon."""
        self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pid in self.worker_pids:
            if _alive(pid):
                os.kill(pid, 9)
        self._log.close()


def one_check(ledger, daemon, case_id):
    """Returns the verified report, or None."""
    gc.collect()
    ledger.calibrate()
    cpu_before = time.process_time()
    started = time.perf_counter()
    try:
        response = daemon.check(case_id)
    except (ServiceError, ProtocolError) as exc:
        ledger.record(case_id, 0.0, 0.0, "%s: %s" % (type(exc).__name__, exc))
        return None
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_before
    failure, report = daemon.score(case_id, response)
    stats = [] if report is None else [v.stats for v in report.results]
    ledger.record(case_id, elapsed, cpu, failure, stats)
    return None if failure is not None else report


def started_daemon(scratch, index, trace_dir=None):
    """A spawned and primed daemon, and the seconds that took."""
    started = time.perf_counter()
    daemon = Daemon(scratch, index, trace_dir)
    try:
        daemon.start()
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - started


def measure(seed, seconds):
    order = harness.schedule(sorted(CASES), random.Random(seed))
    problems = []
    ledger, setup = Ledger(), []
    with harness.scratch_dir() as scratch:
        for index in range(SETUP_REPEATS):
            ledger.calibrate()
            daemon, elapsed = started_daemon(scratch, index)
            setup.append(ledger.scaled(elapsed))
            if index + 1 < SETUP_REPEATS:
                with daemon:
                    problems.extend(daemon.shutdown())
        with daemon:
            daemon.stats()
            pids = list(daemon.worker_pids)
            cpu_before = daemon.tree_cpu_seconds()
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                one_check(ledger, daemon, next(order))
            ledger.add_cpu(daemon.tree_cpu_seconds() - cpu_before)
            daemon.stats()
            if daemon.worker_pids != pids:
                problems.append("workers changed during the run: %s -> %s"
                                % (pids, daemon.worker_pids))
            # The workers ran the checks; the supervisor only routed them.
            rss_mb = max(map(harness.proc_peak_rss_mb, daemon.worker_pids))
            problems.extend(daemon.shutdown())
    for problem in problems:
        log("hygiene: %s" % problem)
    values = ledger.end_to_end(statistics.median(setup), rss_mb)
    return not problems and ledger.failed == 0, ledger.attempted, ledger.failed, values


def _traced_pass(scratch, index, checks, traced):
    """One fresh daemon, primed, then ``checks``; returns pass results."""
    trace_dir = None
    if traced:
        trace_dir = os.path.join(scratch, "spans-%d" % index)
        os.makedirs(trace_dir)
    ledger, worker_seconds = Ledger(), 0.0
    daemon, _ = started_daemon(scratch, index, trace_dir)
    with daemon:
        for case_id in checks:
            report = one_check(ledger, daemon, case_id)
            if report is not None:
                worker_seconds += report.wall_seconds
        workers = daemon.stats()["workers"]
        problems = daemon.shutdown()
    records = []
    if traced:
        for name in sorted(os.listdir(trace_dir)):
            # Each circuit has its own worker, whose first jobs primed it.
            records.extend(load_records(os.path.join(trace_dir, name))[PRIMING_ROUNDS:])
    jobs = sum(worker.get("jobs_done", 0) for worker in workers)
    service = {
        "service.worker_ms": 1000.0 * worker_seconds / max(1, ledger.checks),
        "service.warm_hit_ratio": (
            sum(worker.get("warm_hits", 0) for worker in workers) / max(1, jobs)
        ),
        "kb.store_bytes": float(sum(
            os.path.getsize(daemon.kb_path + suffix)
            for suffix in ("", "-wal") if os.path.exists(daemon.kb_path + suffix)
        )),
    }
    service["service.roundtrip_ms"] = (
        1000.0 * sum(sum(v) for v in ledger.measured_s.values()) / max(1, ledger.checks)
    )
    service["service.queue_ipc_ms"] = (
        service["service.roundtrip_ms"] - service["service.worker_ms"]
    )
    for problem in problems:
        log("hygiene: %s" % problem)
    return ledger, records, service, problems


def trace(seed):
    order = harness.schedule(sorted(CASES), random.Random(seed))
    checks = [next(order) for _ in range(TRACE_ROUNDS * len(CASES))]
    with harness.scratch_dir() as scratch:
        untraced, _, _, problems = _traced_pass(scratch, 0, checks, traced=False)
        first, first_records, service, more = _traced_pass(scratch, 1, checks, traced=True)
        problems += more
        second, second_records, _, more = _traced_pass(scratch, 2, checks, traced=True)
        problems += more
    correct, attempted, failed, values = harness.traced_result(
        untraced, (first, first_records), (second, second_records), service
    )
    return correct and not problems, attempted, failed, values
