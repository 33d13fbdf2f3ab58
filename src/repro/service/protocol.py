"""The ``repro-service/v1`` wire protocol.

Newline-delimited JSON over a unix domain socket.  Every message -- request
and response -- is one JSON object on one line, tagged with the protocol
schema:

.. code-block:: json

    {"schema": "repro-service/v1", "verb": "submit", "request": {...}}
    {"schema": "repro-service/v1", "verb": "submit", "ok": true, "job_id": "job-1"}

Verbs: ``ping``, ``submit``, ``status``, ``result``, ``cancel``, ``stats``,
``shutdown``.  The payload of ``submit`` is a
:class:`repro.api.CheckRequest` dict *verbatim* (``repro-check-request/v1``)
and the payload of a finished ``result`` is a
:class:`repro.api.CheckReport` dict verbatim -- the service defines no
second schema for either.

Forward compatibility is part of the contract: decoders ignore unknown
fields everywhere, and a peer speaking a *newer minor* revision of the same
major (``repro-service/v1.2``) is accepted.  A different major is rejected
with an ``incompatible-protocol`` error instead of garbage.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional, Tuple

from repro.api import schema_compatible

#: The protocol schema tag; bump the major only on incompatible layout
#: changes, the minor on additive revisions (v1.1 added the ``ping`` health
#: probe -- protocol version, pid, uptime and the draining flag without the
#: full stats payload).  Same-major peers interoperate: a v1.1 client
#: probing a v1.0 server gets an ``unknown verb`` error, which health
#: probes treat as *alive, health unknown* rather than down.
PROTOCOL = "repro-service/v1.1"

#: Verbs a client may send (``ping`` since v1.1).
VERBS = ("ping", "submit", "status", "result", "cancel", "stats", "shutdown")

#: Job lifecycle states reported by ``status`` / ``result``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Typed causes attached to failed jobs and refused submits (the ``cause``
#: field of ``status`` / ``result`` job blocks and of error responses).
#: Clients branch on these instead of parsing error prose.
FAILURE_CAUSES = (
    "timeout",      # job exceeded its wall-clock budget (service or deadline)
    "crash",        # worker died mid-job and the requeue limit is spent
    "watchdog",     # worker stopped heartbeating and was killed as hung
    "quarantined",  # the request digest killed workers too often (poison job)
    "draining",     # daemon is draining and refuses new submits
    "job-error",    # the check itself raised inside the worker
    "cancelled",    # cancel verb won
    "injected",     # a fault-injection rule fired in the supervisor
)

#: Hard cap on one encoded message line (guards the reader against a
#: runaway/hostile peer; generous enough for large counterexample traces).
MAX_LINE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """A message violates the ``repro-service/v1`` framing or schema."""


def dumps(value: object) -> str:
    """The protocol's JSON text of one value (no whitespace)."""
    return json.dumps(value, separators=(",", ":"))


def encode(message: Mapping[str, object],
           raw: Optional[Mapping[str, str]] = None) -> bytes:
    """Frame one message as a JSON line (adds the schema tag if absent).

    ``raw`` maps further fields to values that are already JSON text (a
    worker's :func:`dumps` of its report); they are written as they are,
    after the message's own fields, instead of being decoded and encoded
    again.
    """
    payload = dict(message)
    payload.setdefault("schema", PROTOCOL)
    text = dumps(payload)
    if raw:
        text = text[:-1] + "".join(
            ",%s:%s" % (dumps(key), value) for key, value in raw.items()
        ) + "}"
    return (text + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, object]:
    """Parse one received line into a message dict.

    Raises :class:`ProtocolError` on malformed JSON, a non-object payload
    or an incompatible schema major.  Unknown fields pass through untouched
    (the caller ignores what it does not know).
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("message exceeds %d bytes" % (MAX_LINE_BYTES,))
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("malformed message: %s" % (exc,)) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message must be a JSON object, got %s" % (type(payload).__name__,))
    if not schema_compatible(payload.get("schema"), PROTOCOL):
        raise ProtocolError(
            "incompatible protocol %r (this side speaks %s)"
            % (payload.get("schema"), PROTOCOL)
        )
    return payload


def request_message(verb: str, **fields) -> Dict[str, object]:
    """Build a client request message for ``verb``."""
    if verb not in VERBS:
        raise ProtocolError("unknown verb %r" % (verb,))
    message: Dict[str, object] = {"schema": PROTOCOL, "verb": verb}
    message.update(fields)
    return message


def ok_response(verb: str, **fields) -> Dict[str, object]:
    """Build a success response for ``verb``."""
    message: Dict[str, object] = {"schema": PROTOCOL, "verb": verb, "ok": True}
    message.update(fields)
    return message


def error_response(verb: Optional[str], error: str, **fields) -> Dict[str, object]:
    """Build a failure response (``ok: false`` plus a human-readable cause)."""
    message: Dict[str, object] = {
        "schema": PROTOCOL,
        "verb": verb or "error",
        "ok": False,
        "error": error,
    }
    message.update(fields)
    return message


def request_digest(payload: Mapping[str, object]) -> str:
    """Canonical sha256 of a ``CheckRequest`` dict.

    The digest is the request's *identity* for resilience purposes: the
    supervisor keys its poison-job quarantine on it, so equal requests
    must hash the same bytes -- sorted keys, no whitespace.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parse_verb(message: Mapping[str, object]) -> Tuple[str, Mapping[str, object]]:
    """Extract and validate the verb of a decoded client message."""
    verb = message.get("verb")
    if verb not in VERBS:
        raise ProtocolError("unknown verb %r (known: %s)" % (verb, ", ".join(VERBS)))
    return str(verb), message


__all__ = [
    "FAILURE_CAUSES",
    "JOB_STATES",
    "MAX_LINE_BYTES",
    "PROTOCOL",
    "ProtocolError",
    "VERBS",
    "decode",
    "dumps",
    "encode",
    "error_response",
    "ok_response",
    "parse_verb",
    "request_digest",
    "request_message",
]
