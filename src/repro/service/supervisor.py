"""The asyncio supervisor of the verification service.

One daemon process owns a unix-socket listener and a fleet of per-circuit
worker processes (:mod:`repro.service.worker`):

* jobs are routed by **circuit fingerprint**
  (:func:`repro.kb.fingerprints.circuit_fingerprint`), so every check of the
  same design lands on the same worker and hits its warm unrolled-model
  cache, learned cubes and open KB handle;
* each worker runs jobs serially; the supervisor talks to it over a unix
  socketpair held as an asyncio stream on the event loop (one reader task
  per worker routes its messages by ``op``), so one slow job never blocks
  the listener and no job holds a thread;
* a crashed worker is detected by pipe EOF: its running job is requeued
  once (``requeue_limit``) onto a fresh worker, then reported as a failure
  with the crash cause;
* when the fleet exceeds ``max_workers``, the least-recently-used *idle*
  worker is retired gracefully -- a ``stop`` op that flushes its attached
  KB stores before exit, so eviction never loses learned facts.

Hardening (PR 8) -- the failure-handling duties on top of that core:

* **heartbeats + hung-worker watchdog**: workers heartbeat every
  ``heartbeat_interval`` while running; a worker silent for
  ``hang_timeout`` is killed as *hung* (typed cause ``watchdog``) --
  a deadline distinct from the job timeout, so a legitimately long solve
  that still heartbeats is never shot;
* **job timeout and end-to-end deadlines**: ``job_timeout`` caps any job;
  a client-supplied ``deadline_seconds`` additionally bounds one job end
  to end and is forwarded to the worker, which folds it into the engine
  budget (typed cause ``timeout`` either way);
* **poison-job quarantine**: a request digest that kills workers
  ``quarantine_limit`` times is failed typed (``quarantined``) and
  refused on resubmit, instead of burning fresh workers forever;
* **idempotent resubmit**: retried submits carrying the same
  ``submit_key`` collapse onto the original job (while the job is still
  in the job table, which keeps the newest :data:`FINISHED_JOBS_KEPT`
  finished jobs);
* **graceful drain**: SIGTERM (or ``shutdown`` with ``mode: "drain"``)
  finishes in-flight jobs, refuses new submits with the typed
  ``draining`` cause, flushes every worker's KB stores and exits 0;
* **RSS watermarks** ride with the worker config: workers degrade
  (evict caches, flush KB) at the soft watermark and ask to be retired at
  the hard one -- the supervisor respawns them cold;
* fault-injection site ``supervisor.dispatch`` (:mod:`repro.faults`)
  covers the dispatch path itself (typed cause ``injected``).

The client-facing protocol is :mod:`repro.service.protocol`
(``repro-service/v1``); the check payload inside it is a verbatim
:class:`repro.api.CheckRequest` dict.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import pickle
import signal
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from collections.abc import Mapping
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple, Union

from repro import api, faults
from repro.kb.fingerprints import circuit_fingerprint
from repro.portfolio.checker import fork_context
from repro.service import protocol
from repro.service.worker import worker_main

#: finished (done / failed / cancelled) jobs the job table keeps, newest
#: first; older ones are forgotten together with their ``submit_key``.
FINISHED_JOBS_KEPT = 1024

#: circuit refs the route cache remembers, least recently used dropped
#: first; a forgotten design is elaborated again on its next submit.
ROUTES_KEPT = 1024


class RouteTable:
    """The routing key of the daemon and the fleet router, per circuit ref.

    A route is the design's structural fingerprint and circuit name.
    :meth:`lookup` reads the design once (:func:`repro.api.design_key`)
    and answers repeats; :meth:`learn` elaborates the text that read
    returned, so the key and the design come from one read.  A route is
    keyed by the design key with the design text replaced by its sha256,
    so the table holds digests, not whole designs.  Elaboration
    bypasses the process-wide design cache, or every worker a daemon
    forks afterwards would inherit the circuits of other workers' designs.
    The newest :data:`ROUTES_KEPT` refs used are kept.  Thread-safe.
    """

    def __init__(self):
        self._routes: "OrderedDict[tuple, Tuple[str, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self):
        return iter(self._routes)

    def lookup(self, ref: api.CircuitRef) -> Tuple[tuple, str, Optional[Tuple[str, str]]]:
        """The ref's route key and design text, and its route if known."""
        key, text = api.design_key(ref)
        if text is not None:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            key = tuple(digest if part is text else part for part in key)
        with self._lock:
            route = self._routes.get(key)
            if route is not None:
                self._routes.move_to_end(key)
        return key, text, route

    def learn(self, ref: api.CircuitRef, key: tuple, text: str) -> Tuple[str, str]:
        """Elaborate ``text`` and remember the ref's route under ``key``."""
        circuit = api.load_design(ref, text).circuit
        route = ("%016x" % circuit_fingerprint(circuit), circuit.name)
        with self._lock:
            self._routes[key] = route
            self._routes.move_to_end(key)
            while len(self._routes) > ROUTES_KEPT:
                self._routes.popitem(last=False)
        return route


#: seconds the ``stats`` verb waits for idle workers' fresh stats blocks.
STATS_REPLY_TIMEOUT = 5.0

#: loop iterations from a socket accept to the connection callback
#: (accept, transport creation, ``connection_made``), with one to spare.
_ACCEPT_ITERATIONS = 4


@dataclass
class ServiceOptions:
    """Tunables of one daemon instance."""

    #: unix socket the daemon listens on.
    socket_path: str
    #: resident per-circuit workers before LRU eviction kicks in.
    max_workers: int = 4
    #: wall-clock cap per job; ``None`` disables it.
    job_timeout: Optional[float] = None
    #: how often a job orphaned by a worker crash is retried before failing.
    requeue_limit: int = 1
    #: how often running workers heartbeat to the supervisor.
    heartbeat_interval: float = 1.0
    #: a running worker silent this long is killed as hung (the watchdog);
    #: ``None`` disables it.  Distinct from ``job_timeout``: a slow job
    #: heartbeats and lives, a wedged worker does not and dies.
    hang_timeout: Optional[float] = 30.0
    #: a request digest that kills workers this often is quarantined.
    quarantine_limit: int = 3
    #: worker RSS watermarks (bytes): degrade at soft, retire at hard.
    rss_soft_bytes: Optional[int] = None
    rss_hard_bytes: Optional[int] = None


class Job:
    """One submitted check request moving through the daemon."""

    def __init__(self, job_id: str, request: api.CheckRequest,
                 payload: Mapping[str, object],
                 digest: Optional[str] = None,
                 submit_key: Optional[str] = None,
                 deadline_seconds: Optional[float] = None):
        self.job_id = job_id
        #: the request validated at submit; the worker runs this very object.
        self.request = request
        #: the submitted CheckRequest dict, kept for :attr:`digest`.
        self.payload = dict(payload)
        self._digest = digest
        #: client idempotency key; resubmits with it dedupe onto this job.
        self.submit_key = submit_key
        #: end-to-end wall-clock budget from submission, if any.
        self.deadline_seconds = deadline_seconds
        self.state = "queued"
        self.worker_key: Optional[str] = None
        self.attempts = 0
        self.requeues = 0
        self.error: Optional[str] = None
        #: typed failure cause (one of protocol.FAILURE_CAUSES) when failed.
        self.cause: Optional[str] = None
        #: the report as the worker's JSON text, written into ``result`` as is.
        self.report: Optional[str] = None
        self.worker_stats: Optional[Dict[str, object]] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: futures of the coroutines waiting for this job to finish.
        self._waiters: List[asyncio.Future] = []

    @property
    def digest(self) -> str:
        """Canonical request identity (the quarantine key), hashed on first use."""
        if self._digest is None:
            self._digest = protocol.request_digest(self.payload)
        return self._digest

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def waiter(self) -> asyncio.Future:
        """A future resolved when the job finishes (:meth:`forget` it after)."""
        waiter = asyncio.get_running_loop().create_future()
        if self.finished:
            waiter.set_result(None)
        else:
            self._waiters.append(waiter)
        return waiter

    def forget(self, waiter: asyncio.Future) -> None:
        """Drop a waiter that stopped waiting before the job finished."""
        if waiter in self._waiters:
            self._waiters.remove(waiter)

    def finish(self, state: str, error: Optional[str] = None,
               cause: Optional[str] = None) -> None:
        self.state = state
        self.error = error
        self.cause = cause
        self.finished_at = time.time()
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def deadline_remaining(self) -> Optional[float]:
        """Seconds left of the end-to-end deadline, or ``None`` without one."""
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds - (time.time() - self.submitted_at)

    def describe(self) -> Dict[str, object]:
        """The ``status`` verb's job block."""
        payload: Dict[str, object] = {
            "job_id": self.job_id,
            "state": self.state,
            "worker": self.worker_key,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "submitted_at": self.submitted_at,
        }
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
            payload["wall_seconds"] = round(self.finished_at - self.submitted_at, 6)
        if self.error is not None:
            payload["error"] = self.error
        if self.cause is not None:
            payload["cause"] = self.cause
        return payload


class WorkerHandle:
    """Supervisor-side bookkeeping for one worker process."""

    def __init__(self, key: str, circuit_name: str):
        self.key = key
        #: human-readable circuit name (for stats).
        self.circuit_name = circuit_name
        self.queue: "asyncio.Queue[Job]" = asyncio.Queue()
        self.proc = None
        self.pipe: Optional[_WorkerPipe] = None
        self.runner: Optional[asyncio.Task] = None
        self.current: Optional[Job] = None
        self.jobs_done = 0
        self.restarts = 0
        self.last_stats: Optional[Dict[str, object]] = None
        #: the ``kb`` list of the worker's last full stats block (per-job
        #: replies carry counters only).
        self.kb_blocks: Optional[list] = None
        self.last_active = time.time()
        #: last heartbeat-reported RSS, for the stats verb.
        self.rss_bytes: Optional[int] = None
        #: cumulative degradations already folded into the counters.
        self.degradations_seen = 0

    @property
    def idle(self) -> bool:
        return self.current is None and self.queue.empty()


def _frame(message: object) -> bytes:
    """One message in :class:`multiprocessing.connection.Connection` framing.

    A 4-byte big-endian signed length (``-1`` and an 8-byte length above
    2 GiB), then the pickle -- what the worker's ``Connection.recv`` reads.
    """
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    if len(data) > 0x7FFFFFFF:
        return struct.pack("!iQ", -1, len(data)) + data
    return struct.pack("!i", len(data)) + data


def _resolve(waiter: asyncio.Future) -> None:
    """Wake whoever awaits ``waiter`` (a timer callback)."""
    if not waiter.done():
        waiter.set_result(None)


def _reap(proc, timeout: float) -> None:
    """Wait for a stopping worker process; kill it if it outlives ``timeout``."""
    proc.join(timeout)
    if proc.is_alive():  # pragma: no cover - wedged worker
        proc.kill()
        proc.join(5)


class _WorkerPipe:
    """The supervisor's end of one worker's socketpair, on the event loop.

    One task per pipe opens the asyncio stream and then reads frames for
    the worker's whole life, routing them by ``op``: every message
    refreshes :attr:`last_message` and goes to ``on_message``; ``done`` /
    ``job-error`` resolve the ``"result"`` waiter, ``stats`` and
    ``stopped`` their own.  On EOF (or :meth:`close`) every pending waiter
    resolves to ``None``.  Nothing here blocks the loop: a worker stopped
    in the middle of a frame just leaves ``readexactly`` waiting.
    """

    def __init__(self, sock: socket.socket,
                 on_message: Callable[[Optional[str], Dict[str, object]], None]):
        loop = asyncio.get_running_loop()
        self.closed = False
        #: monotonic time of the last message of any kind (the watchdog's).
        self.last_message = time.monotonic()
        self._sock: Optional[socket.socket] = sock
        self._on_message = on_message
        self._writer: Optional[asyncio.StreamWriter] = None
        self._opened: asyncio.Future = loop.create_future()
        self._waiters: Dict[str, asyncio.Future] = {}
        self._task = loop.create_task(self._read_loop())

    def expect(self, kind: str) -> asyncio.Future:
        """The future of the next ``kind`` message (shared while pending)."""
        waiter = self._waiters.get(kind)
        if waiter is None or waiter.done():
            waiter = asyncio.get_running_loop().create_future()
            if self.closed:
                waiter.set_result(None)
            else:
                self._waiters[kind] = waiter
        return waiter

    def forget(self, kind: str, waiter: asyncio.Future) -> None:
        """Stop routing ``kind`` messages to ``waiter`` (its reader gave up)."""
        if self._waiters.get(kind) is waiter:
            del self._waiters[kind]

    async def send(self, message: Mapping[str, object]) -> None:
        """Write one framed message; ``EOFError`` once the pipe is closed."""
        if not self._opened.done():
            await asyncio.shield(self._opened)
        if self.closed or self._writer is None:
            raise EOFError("worker pipe is closed")
        self._writer.write(_frame(message))
        await self._writer.drain()

    def close(self) -> None:
        self._shut()
        self._task.cancel()

    def _shut(self) -> None:
        self.closed = True
        if not self._opened.done():
            self._opened.set_result(None)
        waiters, self._waiters = self._waiters, {}
        for waiter in waiters.values():
            if not waiter.done():
                waiter.set_result(None)
        if self._writer is not None:
            self._writer.close()
        elif self._sock is not None:
            self._sock.close()
        self._sock = None

    async def _read_loop(self) -> None:
        try:
            reader, self._writer = await asyncio.open_unix_connection(sock=self._sock)
            self._sock = None
            if not self._opened.done():
                self._opened.set_result(None)
            while True:
                (size,) = struct.unpack("!i", await reader.readexactly(4))
                if size == -1:
                    (size,) = struct.unpack("!Q", await reader.readexactly(8))
                message = pickle.loads(await reader.readexactly(size))
                self.last_message = time.monotonic()
                op = None
                if isinstance(message, dict):
                    op = message.get("op")
                    self._on_message(op, message)
                if op == "heartbeat":
                    continue
                waiter = self._waiters.pop(op if op in ("stats", "stopped") else "result",
                                           None)
                if waiter is not None and not waiter.done():
                    waiter.set_result(message)
        except (asyncio.IncompleteReadError, OSError, EOFError, pickle.UnpicklingError):
            pass
        finally:
            self._shut()


class Supervisor:
    """The daemon: listener, job table, and the per-circuit worker fleet."""

    def __init__(self, options: ServiceOptions):
        self.options = options
        context = fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError("the verification service needs a POSIX fork context")
        self._context = context
        self.workers: "OrderedDict[str, WorkerHandle]" = OrderedDict()
        #: every unfinished job plus the newest FINISHED_JOBS_KEPT finished.
        self.jobs: Dict[str, Job] = {}
        #: ids of the finished jobs still in the table, oldest first.
        self._finished: Deque[str] = deque()
        #: unfinished jobs by state, kept as counters for the stats verb.
        self._in_flight = {"queued": 0, "running": 0}
        self._job_ids = itertools.count(1)
        self.counters = {
            "submitted": 0, "completed": 0, "failed": 0,
            "cancelled": 0, "requeued": 0, "retries": 0,
            "quarantined": 0, "watchdog_kills": 0, "timeouts": 0,
            "degradations": 0,
        }
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self._shutdown_requested = False
        self._draining = False
        self.shutdown_event = asyncio.Event()
        #: circuit ref -> (worker key, circuit name), so repeat submissions
        #: route without elaborating the design again.
        self._route_cache = RouteTable()
        #: request digest -> how often it killed a worker (crash or hang).
        self._kill_counts: Dict[str, int] = {}
        #: digests refused as poison jobs.
        self._quarantine: Set[str] = set()
        #: submit_key -> job_id, for idempotent resubmits.
        self._submit_keys: Dict[str, str] = {}
        self._drain_task: Optional[asyncio.Task] = None
        #: open client connections, closed by :meth:`stop`.
        self._clients: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        socket_path = self.options.socket_path
        directory = os.path.dirname(socket_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(socket_path):
            os.unlink(socket_path)  # stale socket from an unclean exit
        self._server = await asyncio.start_unix_server(
            self._accept, path=socket_path, limit=protocol.MAX_LINE_BYTES,
        )
        self._install_signal_handlers()

    def _install_signal_handlers(self) -> None:
        """SIGTERM means drain, not die mid-job.

        Installation is best-effort: event loops in non-main threads (the
        test harness) cannot own signal handlers, and that is fine -- the
        ``shutdown`` verb's drain mode covers them.
        """
        try:
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, self.begin_drain)
        except (NotImplementedError, ValueError, RuntimeError, OSError):
            pass

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` verb (or drain) completes, then stop."""
        await self.start()
        try:
            await self.shutdown_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        self._closing = True
        if self._server is not None:
            # Stop accepting first, and let a connection accepted just before
            # reach _accept: asyncio (3.11) leaks the socket of one that is
            # still on its way when the server closes, and its client then
            # waits out a full read timeout.
            loop = asyncio.get_running_loop()
            for listener in self._server.sockets:
                loop.remove_reader(listener.fileno())
            for _ in range(_ACCEPT_ITERATIONS):
                await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._clients):
            writer.close()
        for handle in list(self.workers.values()):
            await self._retire(handle)
        self.workers.clear()
        try:
            os.unlink(self.options.socket_path)
        except OSError:
            pass

    # -- drain ---------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop accepting work, finish what is in flight, then shut down.

        Every in-flight (queued or running) job runs to completion and
        every worker flushes its KB stores on retirement -- the daemon
        exits with nothing lost and nothing half-done.
        """
        if self._draining or self._closing:
            return
        self._draining = True
        loop = asyncio.get_running_loop()
        self._drain_task = loop.create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        # Submits are refused from the moment _draining flips, so this
        # snapshot of unfinished jobs is complete (requeues reuse the
        # same Job objects and stay covered).
        waiters = [job.waiter() for job in self.jobs.values() if not job.finished]
        if waiters:
            await asyncio.wait(waiters)
        self.shutdown_event.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """Register a client connection before its handler task first runs."""
        self._clients.add(writer)
        return self._client_connected(reader, writer)

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(protocol.encode(protocol.error_response(
                        None, "message exceeds %d bytes" % protocol.MAX_LINE_BYTES)))
                    await writer.drain()
                    break
                if not line:
                    break
                response: Union[bytes, Dict[str, object]]
                try:
                    message = protocol.decode(line.rstrip(b"\n"))
                    verb, payload = protocol.parse_verb(message)
                    response = await self._dispatch(verb, payload)
                except protocol.ProtocolError as exc:
                    response = protocol.error_response(None, str(exc))
                except faults.InjectedFault as exc:
                    response = protocol.error_response(
                        None, "injected fault at %s" % exc.site, cause="injected")
                except api.RequestError as exc:
                    response = protocol.error_response(None, "bad request: %s" % exc)
                except Exception as exc:  # pragma: no cover - defensive
                    response = protocol.error_response(None, "internal error: %s" % exc)
                writer.write(response if isinstance(response, bytes)
                             else protocol.encode(response))
                await writer.drain()
                if self._shutdown_requested:
                    self.shutdown_event.set()
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server teardown cancels connection tasks mid-read; returning
            # (rather than re-raising) keeps asyncio's stream callbacks from
            # logging the cancellation as an error during shutdown.
            pass
        finally:
            # Close without awaiting: during shutdown this task is itself
            # cancelled by the server teardown and must not block on it.
            self._clients.discard(writer)
            writer.close()

    async def _dispatch(self, verb: str, payload: Mapping[str, object]
                        ) -> Union[bytes, Dict[str, object]]:
        """The response to one verb: a message, or an encoded ``result`` line."""
        faults.maybe_fire("supervisor.dispatch")
        if verb == "ping":
            return protocol.ok_response(
                "ping", protocol=protocol.PROTOCOL, pid=os.getpid(),
                uptime_seconds=round(time.time() - self.started_at, 3),
                draining=self._draining,
            )
        if verb == "submit":
            return await self._verb_submit(payload)
        if verb == "status":
            job = self._job_for(payload)
            return protocol.ok_response("status", job=job.describe())
        if verb == "result":
            return await self._verb_result(payload)
        if verb == "cancel":
            return await self._verb_cancel(payload)
        if verb == "stats":
            await self._refresh_idle_stats()
            return protocol.ok_response("stats", stats=self.stats())
        if verb == "shutdown":
            return self._verb_shutdown(payload)
        raise protocol.ProtocolError("unknown verb %r" % (verb,))  # pragma: no cover

    def _verb_shutdown(self, payload: Mapping[str, object]) -> Dict[str, object]:
        mode = payload.get("mode", "now")
        if mode == "drain":
            self.begin_drain()
            return protocol.ok_response("shutdown", mode="drain",
                                        draining=True, stats=self.stats())
        if mode != "now":
            raise protocol.ProtocolError("unknown shutdown mode %r" % (mode,))
        self._shutdown_requested = True
        return protocol.ok_response("shutdown", mode="now", stats=self.stats())

    def _job_for(self, payload: Mapping[str, object]) -> Job:
        job_id = payload.get("job_id")
        job = self.jobs.get(str(job_id))
        if job is None:
            raise protocol.ProtocolError("unknown job %r" % (job_id,))
        return job

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def _verb_submit(self, payload: Mapping[str, object]) -> Dict[str, object]:
        if self._draining or self._closing:
            return protocol.error_response(
                "submit", "daemon is draining and refuses new submits",
                cause="draining",
            )
        request_payload = payload.get("request")
        if not isinstance(request_payload, Mapping):
            raise protocol.ProtocolError("submit needs a 'request' object")
        # Validate eagerly so a malformed request is rejected at submit time
        # (with a cause), not discovered as a failed job later.
        request = api.CheckRequest.from_dict(request_payload)
        # Hashing costs a canonical JSON dump: only a non-empty quarantine
        # needs the digest now, otherwise the first worker kill computes it.
        digest = protocol.request_digest(request_payload) if self._quarantine else None
        if digest is not None and digest in self._quarantine:
            return protocol.error_response(
                "submit",
                "request %s is quarantined: it killed %d workers"
                % (digest[:12], self._kill_counts.get(digest, 0)),
                cause="quarantined", digest=digest,
            )
        submit_key = payload.get("submit_key")
        if submit_key is not None:
            existing_id = self._submit_keys.get(str(submit_key))
            existing = self.jobs.get(existing_id) if existing_id else None
            if existing is not None and existing.state not in ("failed", "cancelled"):
                # An idempotent retry of a submit whose response was lost:
                # same logical job, do not run it twice.
                self.counters["retries"] += 1
                return protocol.ok_response(
                    "submit", job_id=existing.job_id, state=existing.state,
                    worker=existing.worker_key, deduplicated=True,
                )
        worker_key, circuit_name = await self._route(request)
        deadline = payload.get("deadline_seconds")
        job = Job(
            "job-%d" % next(self._job_ids),
            request,
            request_payload,
            digest=digest,
            submit_key=None if submit_key is None else str(submit_key),
            deadline_seconds=None if deadline is None else float(deadline),
        )
        job.worker_key = worker_key
        self.jobs[job.job_id] = job
        self._in_flight["queued"] += 1
        if job.submit_key is not None:
            self._submit_keys[job.submit_key] = job.job_id
        self.counters["submitted"] += 1
        handle = self._worker(worker_key, circuit_name)
        handle.queue.put_nowait(job)
        return protocol.ok_response(
            "submit", job_id=job.job_id, state=job.state, worker=worker_key,
        )

    async def _verb_result(self, payload: Mapping[str, object]
                           ) -> Union[bytes, Dict[str, object]]:
        job = self._job_for(payload)
        if payload.get("wait", True) and not job.finished:
            timeout = payload.get("timeout")
            delay = None if timeout is None else float(timeout)
            waiter = job.waiter()
            timer = None if delay is None \
                else asyncio.get_running_loop().call_later(delay, _resolve, waiter)
            try:
                await waiter
            finally:
                if timer is not None:
                    timer.cancel()
                job.forget(waiter)
            if not job.finished:
                return protocol.error_response(
                    "result", "job %s still %s" % (job.job_id, job.state),
                    job_id=job.job_id, state=job.state,
                )
        response = protocol.ok_response(
            "result", job_id=job.job_id, state=job.state, job=job.describe(),
        )
        if job.worker_stats is not None:
            response["stats"] = job.worker_stats
        if job.error is not None:
            response["error"] = job.error
        if job.cause is not None:
            response["cause"] = job.cause
        if job.report is None:
            return response
        return protocol.encode(response, raw={"report": job.report})

    async def _verb_cancel(self, payload: Mapping[str, object]) -> Dict[str, object]:
        job = self._job_for(payload)
        if job.state == "queued":
            self._finish(job, "cancelled", "cancelled while queued", cause="cancelled")
            self.counters["cancelled"] += 1
            return protocol.ok_response("cancel", job_id=job.job_id,
                                        cancelled=True, state=job.state)
        if job.state == "running":
            # Mark first so the runner's EOF handler knows this was deliberate,
            # then kill the worker (a wedged search has no polite interrupt).
            self._finish(job, "cancelled", "cancelled while running", cause="cancelled")
            self.counters["cancelled"] += 1
            handle = self.workers.get(job.worker_key or "")
            if handle is not None:
                await self._kill_worker(handle)
            return protocol.ok_response("cancel", job_id=job.job_id,
                                        cancelled=True, state=job.state)
        return protocol.ok_response("cancel", job_id=job.job_id,
                                    cancelled=False, state=job.state)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, request: api.CheckRequest) -> Tuple[str, str]:
        """Map a request onto its circuit-fingerprint worker key and name.

        The first submission of a design elaborates it once in the
        supervisor (in a thread, off the event loop); repeats are served
        from the route table.
        """
        key, text, route = self._route_cache.lookup(request.circuit)
        if route is None:
            route = await asyncio.to_thread(
                self._route_cache.learn, request.circuit, key, text
            )
        return route

    def _worker(self, key: str, circuit_name: str) -> WorkerHandle:
        handle = self.workers.get(key)
        if handle is None:
            self._evict_idle_workers(need_room=True)
            handle = WorkerHandle(key, circuit_name)
            self._spawn(handle)
            handle.runner = asyncio.get_running_loop().create_task(
                self._run_worker(handle)
            )
            self.workers[key] = handle
        self.workers.move_to_end(key)
        handle.last_active = time.time()
        return handle

    def _evict_idle_workers(self, need_room: bool = False) -> None:
        """Retire least-recently-used idle workers beyond the cap.

        Busy workers are never evicted; if everything is busy the fleet
        temporarily overshoots ``max_workers`` rather than dropping jobs.
        """
        budget = self.options.max_workers - (1 if need_room else 0)
        while len(self.workers) > budget:
            victim = next(
                (key for key, handle in self.workers.items() if handle.idle),
                None,
            )
            if victim is None:
                return
            handle = self.workers.pop(victim)
            if handle.runner is not None:
                handle.runner.cancel()
            asyncio.get_running_loop().create_task(self._retire(handle))

    # ------------------------------------------------------------------
    # Job table
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        """A queued job goes to its worker."""
        self._in_flight["queued"] -= 1
        self._in_flight["running"] += 1
        job.state = "running"

    def _requeue(self, job: Job) -> None:
        """A running job goes back to the queue (its worker died)."""
        self._in_flight["running"] -= 1
        self._in_flight["queued"] += 1
        job.state = "queued"

    def _finish(self, job: Job, state: str, error: Optional[str] = None,
                cause: Optional[str] = None) -> None:
        """Finish a job once, and forget the oldest finished jobs."""
        if job.finished:
            return
        self._in_flight[job.state] -= 1
        job.finish(state, error, cause)
        self._finished.append(job.job_id)
        while len(self._finished) > FINISHED_JOBS_KEPT:
            old = self.jobs.pop(self._finished.popleft(), None)
            if old is not None and old.submit_key is not None \
                    and self._submit_keys.get(old.submit_key) == old.job_id:
                del self._submit_keys[old.submit_key]

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _worker_config(self) -> Dict[str, object]:
        return {
            "heartbeat_interval": self.options.heartbeat_interval,
            "rss_soft_bytes": self.options.rss_soft_bytes,
            "rss_hard_bytes": self.options.rss_hard_bytes,
        }

    def _spawn(self, handle: WorkerHandle) -> None:
        ours, theirs = socket.socketpair()
        child = Connection(theirs.detach())
        process = self._context.Process(
            target=worker_main,
            args=(child, handle.key, self._worker_config()),
            name="repro-worker-%s" % handle.key[:8],
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            child.close()
        handle.proc = process
        handle.pipe = _WorkerPipe(
            ours, lambda op, message: self._on_worker_message(handle, op, message)
        )

    def _on_worker_message(self, handle: WorkerHandle, op: Optional[str],
                           message: Dict[str, object]) -> None:
        """Bookkeeping every worker message gets, before it is routed."""
        if op == "heartbeat":
            rss = message.get("rss_bytes")
            if isinstance(rss, int):
                handle.rss_bytes = rss
            return
        stats = message.get("stats")
        if isinstance(stats, dict):
            handle.last_stats = stats
            if "kb" in stats:
                handle.kb_blocks = stats["kb"]

    async def _kill_worker(self, handle: WorkerHandle) -> None:
        """Hard-stop a worker process; only the reaping runs in a thread."""
        proc = handle.proc
        if proc is not None and proc.is_alive():
            proc.kill()
        if handle.pipe is not None:
            handle.pipe.close()
        if proc is not None:
            await asyncio.to_thread(proc.join, 5)

    async def _retire(self, handle: WorkerHandle, timeout: float = 15.0) -> None:
        """Graceful stop: the worker flushes its KB stores before exiting."""
        if handle.runner is not None and not handle.runner.done():
            handle.runner.cancel()
        pipe = handle.pipe
        if pipe is not None and not pipe.closed:
            stopped = pipe.expect("stopped")
            try:
                await pipe.send({"op": "stop"})
                await asyncio.wait([stopped], timeout=timeout)
            except (EOFError, OSError):
                pass
            pipe.forget("stopped", stopped)
        if handle.proc is not None:
            await asyncio.to_thread(_reap, handle.proc, timeout)
        if pipe is not None:
            pipe.close()
        self._fold_degradations(handle, handle.last_stats)

    async def _restart(self, handle: WorkerHandle) -> None:
        handle.restarts += 1
        await self._kill_worker(handle)
        if not self._closing:
            self._spawn(handle)

    def _note_worker_kill(self, job: Job) -> bool:
        """Record that ``job``'s digest killed a worker; True when quarantined."""
        count = self._kill_counts.get(job.digest, 0) + 1
        self._kill_counts[job.digest] = count
        if count >= self.options.quarantine_limit:
            self._quarantine.add(job.digest)
            return True
        return False

    def _fold_degradations(self, handle: WorkerHandle,
                           stats: Optional[Mapping[str, object]]) -> None:
        """Fold a worker's cumulative degradation count into the counters.

        Workers report lifetime totals; the delta since the last report is
        what the daemon-wide counter accumulates (and it survives the
        worker's retirement, unlike the per-worker stats block).
        """
        if not isinstance(stats, Mapping):
            return
        total = stats.get("degradations")
        if isinstance(total, int) and total > handle.degradations_seen:
            self.counters["degradations"] += total - handle.degradations_seen
            handle.degradations_seen = total

    # ------------------------------------------------------------------
    # The per-worker runner coroutine
    # ------------------------------------------------------------------
    async def _await_result(self, pipe: _WorkerPipe, result: asyncio.Future,
                            job: Job):
        """Wait for a job's result, a timeout or a hang.

        Returns ``("reply", message)``, ``("timeout", None)`` (the job's
        wall-clock budget -- service timeout or end-to-end deadline --
        expired) or ``("watchdog", None)`` (no message of any kind within
        ``hang_timeout``: the worker is wedged, not slow).  Pipe EOF raises
        ``EOFError`` into the caller's crash handling.

        The coroutine awaits the reply future itself, with one timer.
        Heartbeats move ``pipe.last_message`` without waking anything; a
        timer that fires after they moved the watchdog's deadline re-arms
        itself for the new one.  Only an expired deadline resolves the
        future, with the name of the outcome.
        """
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        budget = self.options.job_timeout
        remaining_deadline = job.deadline_remaining()
        if remaining_deadline is not None:
            budget = remaining_deadline if budget is None \
                else min(budget, remaining_deadline)
        hang_timeout = self.options.hang_timeout
        timer: Optional[asyncio.TimerHandle] = None

        def time_left(now: float) -> Optional[float]:
            waits = []
            if budget is not None:
                waits.append(budget - (now - started))
            if hang_timeout is not None:
                waits.append(hang_timeout - (now - pipe.last_message))
            return min(waits) if waits else None

        def expire() -> None:
            nonlocal timer
            timer = None
            if result.done():
                return
            now = time.monotonic()
            wait = time_left(now)
            if wait is not None and wait > 0:
                timer = loop.call_later(wait, expire)
                return
            timed_out = budget is not None and budget - (now - started) <= 0
            result.set_result("timeout" if timed_out else "watchdog")

        wait = time_left(started)
        if wait is not None:
            timer = loop.call_later(wait, expire)
        try:
            reply = await result
        finally:
            if timer is not None:
                timer.cancel()
            pipe.forget("result", result)
        if reply is None:
            raise EOFError("worker pipe closed")
        if isinstance(reply, str):
            return (reply, None)
        return ("reply", reply)

    async def _run_worker(self, handle: WorkerHandle) -> None:
        while True:
            job = await handle.queue.get()
            if job.state != "queued":
                continue  # cancelled while waiting
            remaining = job.deadline_remaining()
            if remaining is not None and remaining <= 0:
                self._finish(
                    job,
                    "failed",
                    "aborted: %.1fs end-to-end deadline expired before dispatch"
                    % (job.deadline_seconds,),
                    cause="timeout",
                )
                self.counters["failed"] += 1
                self.counters["timeouts"] += 1
                continue
            self._start(job)
            job.worker_key = handle.key
            job.started_at = time.time()
            job.attempts += 1
            handle.current = job
            try:
                message: Dict[str, object] = {
                    "op": "run", "job_id": job.job_id, "request": job.request,
                }
                if remaining is not None:
                    message["deadline_seconds"] = remaining
                pipe = handle.pipe
                if pipe is None:
                    raise EOFError("worker has no pipe")
                result = pipe.expect("result")
                await pipe.send(message)
                pipe.last_message = time.monotonic()
                outcome, reply = await self._await_result(pipe, result, job)
            except (EOFError, OSError):
                handle.current = None
                if job.state == "cancelled":
                    await self._restart(handle)
                    continue
                exit_code = None
                if handle.proc is not None:
                    # Pipe EOF can beat process reaping; join briefly so the
                    # reported exit code is the real one, not None.
                    await asyncio.to_thread(handle.proc.join, 5)
                    exit_code = handle.proc.exitcode
                await self._handle_worker_death(handle, job, exit_code)
                continue
            if outcome == "timeout":
                handle.current = None
                budget = self.options.job_timeout
                deadline = job.deadline_seconds
                if deadline is not None and (budget is None or deadline < budget):
                    detail = "%.1fs end-to-end deadline" % deadline
                else:
                    detail = "%.1fs service timeout" % budget
                self._finish(job, "failed", "aborted: job exceeded the %s" % detail,
                             cause="timeout")
                self.counters["failed"] += 1
                self.counters["timeouts"] += 1
                await self._restart(handle)
                continue
            if outcome == "watchdog":
                handle.current = None
                self.counters["watchdog_kills"] += 1
                quarantined = self._note_worker_kill(job)
                self._finish(
                    job,
                    "failed",
                    "aborted: worker sent no heartbeat for %.1fs; killed as hung"
                    % (self.options.hang_timeout,),
                    cause="quarantined" if quarantined else "watchdog",
                )
                if quarantined:
                    self.counters["quarantined"] += 1
                self.counters["failed"] += 1
                await self._restart(handle)
                continue
            handle.current = None
            handle.last_active = time.time()
            if job.state == "cancelled":
                continue  # finished racing a cancel; the cancel wins
            op = reply.get("op") if isinstance(reply, dict) else None
            if op == "done":
                job.report = reply.get("report")
                job.worker_stats = reply.get("stats")
                self._fold_degradations(handle, handle.last_stats)
                handle.jobs_done += 1
                self.counters["completed"] += 1
                self._finish(job, "done")
            elif op == "job-error":
                self._fold_degradations(handle, handle.last_stats)
                self.counters["failed"] += 1
                self._finish(job, "failed", str(reply.get("error")), cause="job-error")
            else:  # pragma: no cover - defensive
                self.counters["failed"] += 1
                self._finish(job, "failed", "unexpected worker reply %r" % (op,),
                             cause="crash")
            if isinstance(reply, dict) and reply.get("retiring"):
                # The worker hit its hard RSS watermark, flushed its KB
                # state and exited after answering; respawn it cold.
                await self._restart(handle)

    async def _handle_worker_death(self, handle: WorkerHandle, job: Job,
                                   exit_code) -> None:
        """Crash path: quarantine poison jobs, requeue the rest once."""
        quarantined = self._note_worker_kill(job)
        if quarantined:
            self._finish(
                job,
                "failed",
                "quarantined: request killed %d workers (limit %d); "
                "last exit code %s"
                % (self._kill_counts[job.digest],
                   self.options.quarantine_limit, exit_code),
                cause="quarantined",
            )
            self.counters["quarantined"] += 1
            self.counters["failed"] += 1
            await self._restart(handle)
            return
        if job.requeues < self.options.requeue_limit:
            job.requeues += 1
            self._requeue(job)
            self.counters["requeued"] += 1
            await self._restart(handle)
            handle.queue.put_nowait(job)
            return
        self._finish(
            job,
            "failed",
            "aborted: worker crashed (exit code %s) on attempt %d; "
            "requeue limit %d reached"
            % (exit_code, job.attempts, self.options.requeue_limit),
            cause="crash",
        )
        self.counters["failed"] += 1
        await self._restart(handle)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    async def _refresh_idle_stats(self) -> None:
        """Ask every idle worker for a fresh full stats block.

        Per-job replies carry counters only; the ``kb`` list (sqlite
        queries in the worker) is fetched here, for the ``stats`` verb.
        A busy worker keeps its last-known block.
        """
        waiters = []
        for handle in list(self.workers.values()):
            pipe = handle.pipe
            if not handle.idle or pipe is None or pipe.closed:
                continue
            waiter = pipe.expect("stats")
            try:
                await pipe.send({"op": "stats"})
            except (EOFError, OSError):
                continue
            waiters.append(waiter)
        if waiters:
            await asyncio.wait(waiters, timeout=STATS_REPLY_TIMEOUT)

    def stats(self) -> Dict[str, object]:
        """The ``stats`` verb payload (also embedded in shutdown replies)."""
        workers = []
        for key, handle in self.workers.items():
            block: Dict[str, object] = dict(handle.last_stats or {})
            if handle.kb_blocks is not None:
                block.setdefault("kb", handle.kb_blocks)
            block.update({
                "worker_key": key,
                "circuit": handle.circuit_name,
                "alive": bool(handle.proc is not None and handle.proc.is_alive()),
                "busy": handle.current is not None,
                "queue_depth": handle.queue.qsize(),
                "jobs_done": handle.jobs_done,
                "restarts": handle.restarts,
                "idle_seconds": round(time.time() - handle.last_active, 3),
            })
            if handle.proc is not None and handle.proc.pid is not None:
                block["pid"] = handle.proc.pid
            if handle.rss_bytes is not None:
                block.setdefault("rss_bytes", handle.rss_bytes)
            workers.append(block)
        jobs = dict(self.counters)
        jobs["queued"] = self._in_flight["queued"]
        jobs["running"] = self._in_flight["running"]
        resilience = {
            "retries": self.counters["retries"],
            "requeued": self.counters["requeued"],
            "quarantined": self.counters["quarantined"],
            "quarantined_digests": sorted(self._quarantine),
            "watchdog_kills": self.counters["watchdog_kills"],
            "timeouts": self.counters["timeouts"],
            "degradations": self.counters["degradations"],
            "draining": self._draining,
        }
        return {
            "protocol": protocol.PROTOCOL,
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "max_workers": self.options.max_workers,
            "jobs": jobs,
            "workers": workers,
            "resilience": resilience,
        }


async def serve(options: ServiceOptions) -> None:
    """Convenience entry point: run one supervisor until shutdown."""
    await Supervisor(options).serve_forever()


__all__ = ["Job", "ServiceOptions", "Supervisor", "WorkerHandle", "serve"]
