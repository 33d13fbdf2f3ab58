"""Synchronous client for the verification service.

:class:`ServiceClient` speaks ``repro-service/v1`` over the daemon's unix
socket; :func:`check_via_service` is the high-level entry the CLI's
``repro submit`` uses -- it degrades gracefully to in-process checking when
no daemon is listening (so scripts can use ``repro submit`` unconditionally
and only *benefit* from a running daemon, never depend on one).

Resilience contract (PR 8):

* **every protocol read has a deadline** (``read_timeout``; a wedged daemon
  surfaces as a typed :class:`ServiceTimeout`, never an eternal block);
* connection-level failures are **retried with jittered exponential
  backoff** (:class:`RetryPolicy`); resubmits after a lost connection are
  **idempotent** -- each logical submit carries a ``submit_key``, a
  one-shot nonce, and the daemon collapses retries of the same key onto
  the original job;
* the failure taxonomy is typed, not prose: :class:`ServiceUnavailable`
  (nobody listening -- the only error the in-process fallback acts on),
  :class:`ServiceConnectionLost` (mid-conversation loss),
  :class:`ServiceTimeout` (deadline expired) and :class:`JobFailure`
  (the daemon answered: the job failed, with a machine-readable ``cause``
  from :data:`repro.service.protocol.FAILURE_CAUSES`);
* an end-to-end ``deadline`` propagates from here through the protocol to
  the supervisor and into the worker's engine budget, so one number bounds
  the whole round trip including the solver itself.
"""

from __future__ import annotations

import os
import random
import socket
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

from repro import api, faults
from repro.service import protocol

#: Environment variable overriding the default socket path.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Default per-read deadline; generous because ``result`` long-polls in
#: bounded chunks (:data:`RESULT_POLL_SECONDS`) well under this.
DEFAULT_READ_TIMEOUT = 60.0

#: Server-side wait per ``result`` long-poll chunk.  Kept far below the
#: read deadline so a daemon that stops answering is distinguishable from
#: a job that is merely still running.
RESULT_POLL_SECONDS = 20.0


def default_socket_path() -> str:
    """Where the daemon listens unless told otherwise.

    ``$REPRO_SERVICE_SOCKET`` wins; the fallback is a per-user path under
    the system temp directory so unprivileged users never collide.
    """
    override = os.environ.get(SOCKET_ENV)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), "repro-service-%d.sock" % uid)


class ServiceError(RuntimeError):
    """The daemon answered, but with a failure."""


class ServiceUnavailable(ServiceError):
    """No daemon is listening on the socket (connection-level failure).

    This is the *only* error :func:`check_via_service` falls back to
    in-process checking on -- everything else means a daemon exists and
    its answer (or silence) must not be papered over by a local re-run.
    """


class ServiceConnectionLost(ServiceError):
    """An established connection dropped mid-conversation.

    Deliberately *not* a :class:`ServiceUnavailable`: a daemon that was
    reachable and then vanished mid-job is a failure to report (or retry
    against the same daemon), not a cue to silently re-run locally.
    """


class ServiceTimeout(ServiceError):
    """A protocol read or an end-to-end deadline expired."""


class JobFailure(ServiceError):
    """A submitted job terminated without a report.

    ``cause`` is one of :data:`repro.service.protocol.FAILURE_CAUSES`
    (``timeout``, ``crash``, ``watchdog``, ``quarantined``, ``draining``,
    ``job-error``, ``cancelled``, ``injected``) so callers can branch
    without parsing prose.
    """

    def __init__(self, message: str, job_id: Optional[str] = None,
                 state: Optional[str] = None, cause: Optional[str] = None):
        super().__init__(message)
        self.job_id = job_id
        self.state = state
        self.cause = cause


#: Private RNG for backoff jitter.  Deliberately unseeded: jitter exists to
#: *decorrelate* clients, and it never influences verdicts, so it sits
#: outside the per-job derived-seed discipline (which bans module-global
#: ``random.*`` draws, not dedicated instances).
_JITTER_RNG = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for connection-level failures."""

    #: total tries (first attempt included); 1 disables retries.
    attempts: int = 3
    #: backoff before retry *n* is ``base_delay * multiplier**(n-1)``...
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: ...scaled by a uniform draw from ``[1 - jitter, 1]`` so a thundering
    #: herd of clients does not reconnect in lockstep.
    jitter: float = 0.5

    def delay(self, attempt: int) -> float:
        """Backoff to sleep before retry ``attempt`` (1-based)."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        return raw * (1.0 - self.jitter * _JITTER_RNG.random())


#: Retry policy used when callers pass none.
DEFAULT_RETRY = RetryPolicy()


def _drop_injected(site: str) -> bool:
    """Whether an armed ``drop-connection`` fault fired at ``site``."""
    rule = faults.maybe_fire(site)
    return rule is not None and rule.kind == "drop-connection"


class ServiceClient:
    """One connection to a running daemon (usable as a context manager)."""

    def __init__(self, socket_path: Optional[str] = None,
                 connect_timeout: float = 5.0,
                 read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
                 retry: Optional[RetryPolicy] = None):
        self.socket_path = socket_path or default_socket_path()
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self.retry = retry or DEFAULT_RETRY
        self._sock: Optional[socket.socket] = None
        self._stream = None

    # -- connection ---------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        if _drop_injected("client.connect"):
            raise ServiceUnavailable(
                "no verification daemon on %s (injected connect fault)"
                % (self.socket_path,)
            )
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self._connect_timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServiceUnavailable(
                "no verification daemon on %s (%s); start one with 'repro serve'"
                % (self.socket_path, exc)
            ) from exc
        # Every read on the established connection keeps a deadline; verbs
        # that wait server-side (result) long-poll in chunks below it, so a
        # wedged daemon surfaces as ServiceTimeout instead of blocking
        # `repro submit` forever.
        sock.settimeout(self._read_timeout)
        self._sock = sock
        self._stream = sock.makefile("rwb")
        return self

    def connect_with_retry(self) -> "ServiceClient":
        """Connect, retrying per the policy with jittered backoff."""
        attempt = 1
        while True:
            try:
                return self.connect()
            except ServiceUnavailable:
                if attempt >= self.retry.attempts:
                    raise
                time.sleep(self.retry.delay(attempt))
                attempt += 1

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- raw protocol -------------------------------------------------
    def call(self, verb: str, read_timeout: Optional[float] = None,
             **fields) -> Dict[str, object]:
        """Send one verb, return the decoded response (``ok`` or not).

        ``read_timeout`` overrides the connection-wide read deadline for
        this exchange (the ``result`` long-poll stretches it per chunk).
        Raises :class:`ServiceTimeout` when the deadline expires and
        :class:`ServiceConnectionLost` when the established connection
        drops -- after either, the connection is closed (a half-read
        stream cannot be trusted for the next exchange).
        """
        self.connect()
        if read_timeout is not None:
            self._sock.settimeout(read_timeout)
        try:
            if _drop_injected("client.send"):
                raise BrokenPipeError("injected send fault")
            self._stream.write(protocol.encode(protocol.request_message(verb, **fields)))
            self._stream.flush()
            if _drop_injected("client.recv"):
                raise BrokenPipeError("injected recv fault")
            line = self._stream.readline()
        except socket.timeout as exc:
            self.close()
            raise ServiceTimeout(
                "daemon did not answer %r within %.1fs"
                % (verb, read_timeout if read_timeout is not None
                   else (self._read_timeout or 0.0))
            ) from exc
        except OSError as exc:
            self.close()
            raise ServiceConnectionLost("daemon connection lost: %s" % (exc,)) from exc
        else:
            if read_timeout is not None and self._sock is not None:
                self._sock.settimeout(self._read_timeout)
        if not line:
            self.close()
            raise ServiceConnectionLost("daemon closed the connection")
        return protocol.decode(line.rstrip(b"\n"))

    def request(self, verb: str, read_timeout: Optional[float] = None,
                **fields) -> Dict[str, object]:
        """Like :meth:`call`, but raises :class:`ServiceError` on ``ok: false``."""
        response = self.call(verb, read_timeout=read_timeout, **fields)
        if not response.get("ok"):
            raise _error_from_response(response)
        return response

    # -- verbs --------------------------------------------------------
    def ping(self) -> Dict[str, object]:
        return self.request("ping")

    def submit(self, request: Union[api.CheckRequest, Mapping[str, object]],
               deadline: Optional[float] = None,
               submit_key: Optional[str] = None,
               **extra) -> str:
        """Submit a check request; returns the daemon's job id.

        ``request`` may be a :class:`~repro.api.CheckRequest` or its dict
        form -- either way the daemon receives the one true schema.
        ``deadline`` (seconds) rides along as ``deadline_seconds`` and
        bounds the job end to end, engine budget included.  ``submit_key``
        makes the submit idempotent: retries carrying the same key are
        collapsed onto the original job daemon-side.  Connection-level
        failures are retried here with backoff, reusing the key.
        """
        payload = request.to_dict() if isinstance(request, api.CheckRequest) else dict(request)
        fields: Dict[str, object] = {"request": payload}
        fields["submit_key"] = submit_key or make_submit_key()
        if deadline is not None:
            fields["deadline_seconds"] = float(deadline)
        fields.update(extra)
        attempt = 1
        while True:
            try:
                response = self.request("submit", **fields)
                return str(response["job_id"])
            except (ServiceUnavailable, ServiceConnectionLost):
                if attempt >= self.retry.attempts:
                    raise
                time.sleep(self.retry.delay(attempt))
                attempt += 1

    def status(self, job_id: str) -> Dict[str, object]:
        return dict(self.request("status", job_id=job_id)["job"])

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, object]:
        """Fetch a job's outcome; with ``wait``, long-polls until done.

        The daemon-side wait happens in bounded chunks so every socket
        read keeps a deadline; ``timeout`` bounds the *total* wait and
        expires as :class:`ServiceTimeout`.
        """
        if not wait:
            return self.request("result", job_id=job_id, wait=False)
        started = time.monotonic()
        while True:
            remaining = None
            if timeout is not None:
                remaining = timeout - (time.monotonic() - started)
                if remaining <= 0:
                    raise ServiceTimeout(
                        "job %s not finished within %.1fs" % (job_id, timeout))
            chunk = RESULT_POLL_SECONDS if remaining is None \
                else max(0.05, min(RESULT_POLL_SECONDS, remaining))
            response = self.call(
                "result", job_id=job_id, wait=True, timeout=chunk,
                read_timeout=chunk + max(5.0, chunk),
            )
            if response.get("ok"):
                return response
            # "still queued/running" chunk expiries loop; real errors raise.
            if response.get("state") in ("queued", "running"):
                continue
            raise _error_from_response(response)

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self.request("cancel", job_id=job_id)

    def stats(self) -> Dict[str, object]:
        return dict(self.request("stats")["stats"])

    def shutdown(self, mode: str = "now") -> Dict[str, object]:
        """Ask the daemon to exit; ``mode="drain"`` finishes in-flight jobs.

        Either way every worker flushes its KB state before the daemon is
        gone; drain additionally refuses new submits (typed ``draining``
        cause) while in-flight jobs run to completion.
        """
        return self.request("shutdown", mode=mode)


def _error_from_response(response: Mapping[str, object]) -> ServiceError:
    """Map an ``ok: false`` response onto the typed error taxonomy."""
    message = str(response.get("error", "unknown service error"))
    cause = response.get("cause")
    state = response.get("state")
    if cause is not None or state in ("failed", "cancelled"):
        job_id = response.get("job_id")
        return JobFailure(
            message,
            job_id=None if job_id is None else str(job_id),
            state=None if state is None else str(state),
            cause=None if cause is None else str(cause),
        )
    return ServiceError(message)


def make_submit_key() -> str:
    """A fresh idempotency key for one *logical* submit: a one-shot nonce.

    Retries of the same logical submit reuse the key (and the daemon
    dedupes them onto one job), while two deliberate submissions of the
    same request get distinct keys and run twice -- warming benchmarks
    depend on that.  The daemon compares whole keys and reads nothing into
    them, so the key does not hash the request.
    """
    return os.urandom(8).hex()


def service_available(socket_path: Optional[str] = None) -> bool:
    """Whether a daemon answers a ping on the socket."""
    try:
        with ServiceClient(socket_path) as client:
            client.ping()
        return True
    except (ServiceError, protocol.ProtocolError):
        return False


def check_in_process(request: api.CheckRequest,
                     deadline: Optional[float] = None) -> api.CheckReport:
    """The in-process fallback path, honouring the end-to-end deadline.

    The engine time budget is clamped exactly the way the daemon path
    clamps it worker-side (:func:`repro.api.clamp_to_deadline`), so
    ``--deadline`` bounds the solver whether or not a daemon answered.
    """
    return api.check(api.clamp_to_deadline(request, deadline))


def check_via_service(
    request: api.CheckRequest,
    socket_path: Optional[str] = None,
    fallback: bool = True,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    read_timeout: Optional[float] = None,
    submit_key: Optional[str] = None,
) -> api.CheckReport:
    """Check a request through the daemon, or in-process when there is none.

    The returned report is tagged with its execution path (``source``:
    ``daemon`` / ``in-process``) and, when daemon-run, carries the worker's
    warm-path stats in ``service`` -- verdicts and traces are bit-identical
    either way, so callers never need to care which path answered.

    Failure semantics: the in-process fallback fires **only** on
    :class:`ServiceUnavailable` (nobody listening).  Once a daemon has
    answered, its errors propagate typed -- a failed job raises
    :class:`JobFailure` with its cause, a mid-wait connection loss is
    retried against the same daemon (the job id survives server-side) and
    raises :class:`ServiceConnectionLost` if the daemon is truly gone.
    A ``deadline`` bounds the whole round trip, solver included.
    """
    if not request.circuit.serializable:
        if fallback:
            return check_in_process(request, deadline)
        raise ServiceError(
            "an inline circuit cannot be submitted to a daemon; "
            "use a verilog/source/case circuit ref"
        )
    policy = retry or DEFAULT_RETRY
    wait_timeout = timeout
    if wait_timeout is None and deadline is not None:
        # The job's engine budget is clamped to the deadline worker-side;
        # the grace on top covers queueing and transport.
        wait_timeout = deadline + 30.0
    if submit_key is None:
        submit_key = make_submit_key()
    try:
        client = ServiceClient(
            socket_path, retry=policy,
            read_timeout=DEFAULT_READ_TIMEOUT if read_timeout is None else read_timeout,
        ).connect_with_retry()
    except ServiceUnavailable:
        if fallback:
            return check_in_process(request, deadline)
        raise
    try:
        job_id = client.submit(request, deadline=deadline, submit_key=submit_key)
        attempt = 1
        while True:
            try:
                response = client.result(job_id, wait=True, timeout=wait_timeout)
                break
            except ServiceConnectionLost:
                # The job lives on daemon-side; reconnect and re-poll it
                # rather than silently re-running the check locally.
                client.close()
                if attempt >= policy.attempts:
                    raise
                time.sleep(policy.delay(attempt))
                attempt += 1
                try:
                    client.connect_with_retry()
                except ServiceUnavailable as exc:
                    raise ServiceConnectionLost(
                        "daemon vanished while job %s was in flight: %s"
                        % (job_id, exc)
                    ) from exc
    finally:
        client.close()
    state = response.get("state")
    if state != "done":
        job_block = response.get("job")
        cause = None
        if isinstance(job_block, Mapping):
            cause = job_block.get("cause")
        raise JobFailure(
            "job %s finished as %s: %s"
            % (response.get("job_id"), state, response.get("error", "no cause given")),
            job_id=str(response.get("job_id")),
            state=None if state is None else str(state),
            cause=None if cause is None else str(cause),
        )
    report_payload = response.get("report")
    if not isinstance(report_payload, Mapping):
        raise ServiceError("daemon returned no report for a done job")
    report = api.CheckReport.from_dict(report_payload)
    service_block: Dict[str, object] = {"job": dict(response.get("job") or {})}
    stats = response.get("stats")
    if isinstance(stats, Mapping):
        service_block["worker"] = dict(stats)
    return replace(report, source="daemon", service=service_block)


__all__ = [
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_RETRY",
    "JobFailure",
    "RESULT_POLL_SECONDS",
    "RetryPolicy",
    "SOCKET_ENV",
    "ServiceClient",
    "ServiceConnectionLost",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "check_in_process",
    "check_via_service",
    "default_socket_path",
    "make_submit_key",
    "service_available",
]
