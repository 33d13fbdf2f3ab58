"""The per-circuit worker process of the verification service.

One worker owns one circuit (keyed by its structural fingerprint) and runs
check jobs for it *serially*, which is exactly what makes the daemon fast:

* :func:`repro.api.resolve_design`'s process-wide design cache keeps the
  resolved circuit object alive, so the process-wide
  :class:`~repro.checker.incremental.UnrolledModelCache` (keyed partly by
  object identity) serves every job after the first from the warm unrolled
  model -- along with the learned illegal cubes, ESTG state and
  proven-FAIL memos riding on it;
* the **knowledge-base handle** is opened once per store path and held for
  the worker's life (:func:`repro.kb.open_knowledge_base` deduplicates per
  process), so KB cubes are loaded from sqlite once, not per job;
* on a graceful stop the worker flushes all attached stores
  (:func:`repro.kb.flush_attached_stores`) before exiting, so nothing
  learned is lost when the supervisor evicts an idle worker.

Resilience duties (PR 8):

* while a job runs, a **heartbeat thread** sends ``{"op": "heartbeat"}``
  every ``heartbeat_interval`` seconds (with the worker's resident-set
  size), so the supervisor's hung-worker watchdog can tell *slow* from
  *wedged*.  The thread starts with the first job and lives as long as
  the worker; each job arms and disarms it;
* an end-to-end **deadline** forwarded with the job clamps the request's
  engine time budget, so a deadline set at the client bounds the solver
  itself, not just the transport;
* **RSS watermarks**: above the soft watermark the worker degrades
  gracefully -- evicts its model caches and flushes its KB stores --
  instead of growing until the OOM killer takes it; above the hard
  watermark it additionally asks to be retired after the current job
  (the supervisor respawns it cold, with nothing learned lost);
* fault-injection sites (``worker.run``, ``worker.budget``; see
  :mod:`repro.faults`) replace the old ad-hoc ``REPRO_SERVICE_FAULTS``
  hooks -- they are inert unless a fault plan is armed in the
  environment, which forked workers inherit from the daemon.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import replace
from typing import Dict, Optional

from repro import api, faults
from repro.checker.incremental import shared_model_cache
from repro.kb import flush_attached_stores, open_knowledge_base

#: fallback worker configuration (mirrors ServiceOptions defaults).
DEFAULT_CONFIG = {
    "heartbeat_interval": 1.0,
    "rss_soft_bytes": None,
    "rss_hard_bytes": None,
}

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> Optional[int]:
    """This process's resident-set size, or ``None`` when unreadable."""
    try:
        with open("/proc/self/statm") as stream:
            fields = stream.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        try:
            import resource

            # Peak RSS (kilobytes on Linux); an over-estimate of the current
            # value, which errs on the safe side for watermark checks.
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:  # pragma: no cover - exotic platforms
            return None


class _Heartbeat:
    """Background sender keeping the supervisor's watchdog fed during jobs.

    One thread per worker process, started by the first :meth:`arm`.  The
    pipe is shared with the main loop, so every send goes through one lock,
    which is also this object's condition lock: :meth:`arm` and
    :meth:`disarm` must be called with it held.  Disarming under the lock
    that then sends a job's result is what guarantees no heartbeat follows
    a result.  :meth:`pause` exists for the ``hang`` fault kind, which must
    look exactly like a wedged process (no result *and* no heartbeats); the
    next :meth:`arm` clears it.
    """

    def __init__(self, conn, lock: threading.Lock, interval: float):
        self._conn = conn
        self._interval = max(0.05, float(interval))
        self._wake = threading.Condition(lock)
        #: bumped by every arm, so a re-arm restarts the interval.
        self._job = 0
        self._armed = False
        self._paused = False
        self._thread: Optional[threading.Thread] = None

    def arm(self) -> None:
        """Heartbeat every interval from now on (caller holds the lock)."""
        self._job += 1
        self._armed = True
        self._paused = False
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        self._wake.notify()

    def disarm(self) -> None:
        """Stop heartbeating (caller holds the lock)."""
        self._armed = False
        self._wake.notify()

    def pause(self) -> None:
        """Silence heartbeats until the next arm (``hang`` fault)."""
        self._paused = True

    def _run(self) -> None:
        with self._wake:
            while True:
                while not self._armed:
                    self._wake.wait()
                job = self._job
                due = time.monotonic() + self._interval
                while self._armed and self._job == job:
                    remaining = due - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
                if not self._armed or self._job != job or self._paused:
                    continue
                message = {"op": "heartbeat", "ts": time.time()}
                rss = current_rss_bytes()
                if rss is not None:
                    message["rss_bytes"] = rss
                try:
                    self._conn.send(message)
                except (BrokenPipeError, OSError):
                    return


class _WorkerState:
    """Warm state and counters one worker accumulates across jobs."""

    def __init__(self, worker_key: str):
        self.worker_key = worker_key
        self.kb_paths: Dict[str, None] = {}  # insertion-ordered set
        self.jobs_done = 0
        self.warm_hits = 0
        self.kb_cubes_loaded = 0
        self.kb_hits = 0
        self.compiled_models = 0
        self.compile_time_ms = 0.0
        self.degradations = 0
        self.started_at = time.time()

    def note_report(self, report: api.CheckReport) -> None:
        self.jobs_done += 1
        self.warm_hits += report.aggregate("models_reused")
        self.kb_cubes_loaded += report.aggregate("kb_cubes_loaded")
        self.kb_hits += report.aggregate("kb_hits")
        self.compiled_models += report.aggregate("compiled_models")
        self.compile_time_ms += report.aggregate("compile_time_ms")

    def note_request(self, request: api.CheckRequest) -> None:
        if request.kb_path:
            self.kb_paths.setdefault(request.kb_path)

    def degrade(self) -> None:
        """Soft-watermark response: shed the warm state, keep the process.

        Evicts the unrolled-model cache and the process-wide design cache
        and flushes every attached KB store first, so the memory comes back
        without losing a single learned fact -- the next job runs cold but
        correct.
        """
        flush_attached_stores()
        shared_model_cache().clear()
        api.clear_design_cache()
        self.degradations += 1

    def snapshot(self, with_kb: bool = True) -> Dict[str, object]:
        """The live per-worker stats block of the ``stats`` verb.

        The ``kb`` entries reuse :meth:`repro.kb.KnowledgeBase.stats`
        verbatim -- the same shape ``repro kb stats --json`` prints -- so
        tooling parses one schema for both.  Those cost sqlite queries per
        stored model, so per-job replies pass ``with_kb=False`` and carry
        the counters only: no ``kb`` list and no ``rss_bytes`` (a
        ``/proc`` read), which heartbeats and the full block report.
        """
        cache = shared_model_cache().stats()
        snapshot = {
            "worker_key": self.worker_key,
            "pid": os.getpid(),
            "jobs_done": self.jobs_done,
            "warm_hits": self.warm_hits,
            "kb_cubes_loaded": self.kb_cubes_loaded,
            "kb_hits": self.kb_hits,
            "compiled_models": self.compiled_models,
            "compile_time_ms": round(self.compile_time_ms, 3),
            "degradations": self.degradations,
            "model_cache": cache,
            "cache_residency": cache.get("entries", 0),
            "designs_resident": api.designs_resident(),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }
        if with_kb:
            kb_blocks = []
            for path in self.kb_paths:
                try:
                    kb_blocks.append(open_knowledge_base(path).stats())
                except Exception as exc:  # pragma: no cover - defensive
                    kb_blocks.append({"path": path, "disabled": True,
                                      "reason": str(exc)})
            snapshot["kb"] = kb_blocks
            rss = current_rss_bytes()
            if rss is not None:
                snapshot["rss_bytes"] = rss
        return snapshot


def _clamped_request(request: api.CheckRequest,
                     deadline_seconds: Optional[float]) -> api.CheckRequest:
    """Fold the forwarded end-to-end deadline into the engine time budget.

    A ``worker.budget`` fault of kind ``exhaust-budget`` collapses the
    budget to near-zero, forcing the budget-exhaustion path (inconclusive
    but typed verdicts) without waiting for a real deadline.
    """
    rule = faults.maybe_fire("worker.budget")
    if rule is not None and rule.kind == "exhaust-budget":
        return replace(request, time_budget=0.001)
    return api.clamp_to_deadline(request, deadline_seconds)


def worker_main(conn, worker_key: str, config: Optional[Dict] = None) -> None:
    """Entry point of the worker child process.

    ``conn`` is the supervisor end-to-end duplex pipe.  Ops:

    * ``{"op": "run", "job_id", "request": <CheckRequest>,
      "deadline_seconds"?}``
      -> interleaved ``{"op": "heartbeat", "ts", "rss_bytes"?}`` messages,
      then ``{"op": "done", "job_id", "report": <CheckReport dict>,
      "stats", "retiring"?}`` or ``{"op": "job-error", "job_id", "error",
      "stats", "retiring"?}``;
    * ``{"op": "stats"}`` -> ``{"op": "stats", "stats"}``;
    * ``{"op": "stop"}`` -> flush KB stores, ``{"op": "stopped"}``, exit.
    """
    settings = dict(DEFAULT_CONFIG)
    if config:
        settings.update(config)
    state = _WorkerState(worker_key)
    send_lock = threading.Lock()
    # Forked siblings inherit copies of this pipe's supervisor end, so a
    # SIGKILLed supervisor never yields EOF here.  Reparenting is the
    # reliable orphan signal: poll with a timeout and watch the ppid.
    supervisor_pid = os.getppid()

    heartbeat = _Heartbeat(conn, send_lock, settings["heartbeat_interval"])

    def send(message: Dict[str, object]) -> None:
        with send_lock:
            conn.send(message)

    def send_result(message: Dict[str, object]) -> None:
        with send_lock:
            heartbeat.disarm()
            conn.send(message)

    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != supervisor_pid:
                    flush_attached_stores()
                    return
            message = conn.recv()
        except (EOFError, OSError):
            # Supervisor went away: flush what we learned and fold.
            flush_attached_stores()
            return
        op = message.get("op")
        if op == "stop":
            flush_attached_stores()
            try:
                send({"op": "stopped", "stats": state.snapshot()})
            except (BrokenPipeError, OSError):  # pragma: no cover - racing exit
                pass
            return
        if op == "stats":
            send({"op": "stats", "stats": state.snapshot()})
            continue
        if op != "run":
            send({"op": "error", "error": "unknown op %r" % (op,)})
            continue

        job_id = message.get("job_id")
        with send_lock:
            heartbeat.arm()
        try:
            rule = faults.maybe_fire("worker.run")
            if rule is not None and rule.kind == "hang":
                # A wedged process sends nothing at all -- silence the
                # heartbeats too, so the supervisor's watchdog (not the job
                # timeout) is what fires.
                heartbeat.pause()
                time.sleep(rule.seconds if rule.seconds > 0.05 else 3600.0)
            request = _clamped_request(
                message["request"], message.get("deadline_seconds")
            )
            state.note_request(request)
            report = api.check(request)
        except Exception as exc:
            try:
                send_result({
                    "op": "job-error",
                    "job_id": job_id,
                    "error": "%s: %s" % (type(exc).__name__, exc),
                    "traceback": traceback.format_exc(),
                    "stats": state.snapshot(with_kb=False),
                })
            except (BrokenPipeError, OSError):
                flush_attached_stores()
                return
            continue
        state.note_report(report)
        reply: Dict[str, object] = {
            "op": "done",
            "job_id": job_id,
            "report": report.to_dict(),
        }
        retiring = _apply_watermarks(state, settings)
        if retiring:
            reply["retiring"] = True
        reply["stats"] = state.snapshot(with_kb=False)
        try:
            send_result(reply)
        except (BrokenPipeError, OSError):
            # Orphaned mid-job: nobody will read the verdict, but what the
            # run *learned* still reaches the shard KB for anti-entropy.
            flush_attached_stores()
            return
        if retiring:
            flush_attached_stores()
            return


def _apply_watermarks(state: _WorkerState, settings: Dict) -> bool:
    """Post-job RSS watermark check; returns whether to retire the worker."""
    soft = settings.get("rss_soft_bytes")
    hard = settings.get("rss_hard_bytes")
    if soft is None and hard is None:
        return False
    rss = current_rss_bytes()
    if rss is None:
        return False
    if soft is not None and rss >= soft:
        state.degrade()
    if hard is not None and rss >= hard:
        # Even a degraded cache may not shrink the heap (the allocator keeps
        # its arenas); retiring lets the supervisor respawn a cold process
        # before the kill threshold -- with everything learned flushed.
        if not (soft is not None and rss >= soft):
            state.degrade()
        return True
    return False


__all__ = ["DEFAULT_CONFIG", "current_rss_bytes", "worker_main"]
