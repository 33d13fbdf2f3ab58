"""Client-side shard router over a fleet of verification daemons.

One daemon (:mod:`repro.service.supervisor`) already keeps per-circuit
worker processes warm.  A *fleet* is N such daemons, each on its own unix
socket with its own knowledge-base store; this module is the client half
that makes them behave like one service:

* **sticky sharding** -- every job is assigned by rendezvous (highest
  random weight) hashing of its circuit's *structural fingerprint*
  (:func:`repro.kb.fingerprints.circuit_fingerprint`), so all checks of a
  design keep landing on the shard that already holds its warm unrolled
  models, ESTG state and learned KB cubes.  Rendezvous hashing has the
  property the failover contract needs: removing one endpoint never
  reorders the remaining ones, so a dead shard's jobs move to their
  *second* choice and everyone else's jobs stay put -- no rehash scatter;
* **health-checked routing** -- each endpoint carries circuit-breaker
  state: ``trip_threshold`` consecutive connection-level failures trip it,
  a tripped endpoint is skipped until ``cooldown`` elapses, then one
  half-open ``ping`` probe decides whether it rejoins.  Draining endpoints
  (``repro serve`` handling SIGTERM) are routed around without tripping;
* **deterministic failover** -- a job whose endpoint is down is resubmitted
  to the next endpoint in *its own* rendezvous order, reusing the same
  idempotent ``submit_key``, so retries collapse daemon-side and verdicts
  stay bit-identical to a single-daemon run;
* **anti-entropy** -- shards learn independently; :func:`sync_stores`
  pairwise-merges their sqlite stores with the commuting KB merge
  semantics (union cubes / max hits / add-only memos), and the router can
  trigger the same merge after a failover so the takeover shard inherits
  what the dead one had learned.

Fault sites ``fleet.route`` and ``fleet.probe`` hook the
deterministic injector (:mod:`repro.faults`); they are inert unless a
fault plan is armed.

The semantics contract of :func:`repro.service.client.check_via_service`
is preserved fleet-wide: once *any* daemon has answered, its answer stands
-- a failed job raises :class:`~repro.service.client.JobFailure` untouched
(except the typed ``draining`` cause, which is an explicit "go elsewhere").
Only connection-level unavailability moves a job along the failover chain,
and only when the whole chain is exhausted does the in-process fallback
(deadline-clamped, same verdicts) run.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import api, faults
from repro.atpg.statehash import fnv1a
from repro.service.client import (
    JobFailure,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    check_in_process,
    check_via_service,
    make_submit_key,
)

#: Environment variable listing endpoints (comma-separated specs, each
#: ``[name=]socket[;kb=store.sqlite]``) when no ``--endpoint`` flags given.
ENDPOINTS_ENV = "REPRO_SERVICE_ENDPOINTS"

#: Environment variable naming a TOML fleet file (lowest precedence).
FLEET_FILE_ENV = "REPRO_FLEET_FILE"

#: Schema tag of the fleet batch report.
FLEET_BATCH_SCHEMA = "repro-fleet-batch-report/v1"
#: Schema tag of the fleet status block.
FLEET_STATUS_SCHEMA = "repro-fleet-status/v1"

#: Breaker defaults: trip after this many consecutive connection-level
#: failures, skip the endpoint for ``cooldown`` seconds, then allow one
#: half-open probe.
DEFAULT_TRIP_THRESHOLD = 3
DEFAULT_COOLDOWN = 5.0

#: Connect timeout used by health probes (cheap ping, short fuse).
PROBE_TIMEOUT = 2.0


class FleetError(ServiceError):
    """A fleet-level configuration or routing error."""


# ----------------------------------------------------------------------
# Endpoints and their configuration sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetEndpoint:
    """One shard: a daemon socket plus (optionally) its KB store path."""

    name: str
    socket: str
    kb: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"name": self.name, "socket": self.socket}
        if self.kb is not None:
            payload["kb"] = self.kb
        return payload


def parse_endpoint_spec(spec: str) -> FleetEndpoint:
    """Parse one ``[name=]socket[;kb=store.sqlite]`` endpoint spec.

    The name defaults to the socket file's basename (minus ``.sock``);
    names are what rendezvous hashing scores, so explicit stable names
    keep routing stable when socket paths move.
    """
    spec = spec.strip()
    if not spec:
        raise FleetError("empty endpoint spec")
    head, *options = spec.split(";")
    if "=" in head:
        name, _, sock = head.partition("=")
        name = name.strip()
        sock = sock.strip()
    else:
        sock = head.strip()
        base = os.path.basename(sock)
        name = base[:-5] if base.endswith(".sock") else base
    if not sock:
        raise FleetError("endpoint spec %r has no socket path" % (spec,))
    kb: Optional[str] = None
    for option in options:
        key, _, value = option.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "kb":
            kb = value or None
        elif key:
            raise FleetError("unknown endpoint option %r in %r" % (key, spec))
    return FleetEndpoint(name=name or sock, socket=sock, kb=kb)


def parse_endpoint_specs(specs: Iterable[str]) -> List[FleetEndpoint]:
    """Parse several specs, rejecting duplicate names (they'd collide in
    rendezvous scoring and silently halve the fleet)."""
    endpoints = [parse_endpoint_spec(spec) for spec in specs]
    seen: Dict[str, str] = {}
    for endpoint in endpoints:
        if endpoint.name in seen:
            raise FleetError(
                "duplicate endpoint name %r (%s and %s)"
                % (endpoint.name, seen[endpoint.name], endpoint.socket)
            )
        seen[endpoint.name] = endpoint.socket
    return endpoints


def _parse_toml_value(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise FleetError("unsupported TOML value %r in fleet file" % (raw,))


def _parse_fleet_toml(text: str) -> Dict[str, object]:
    """Parse fleet-file TOML: :mod:`tomllib` when present, else the subset."""
    try:
        import tomllib
    except ModuleNotFoundError:
        return _parse_fleet_toml_fallback(text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise FleetError("invalid fleet file: %s" % (exc,)) from exc


def _parse_fleet_toml_fallback(text: str) -> Dict[str, object]:
    """Parse the fleet-file TOML subset without :mod:`tomllib`.

    CI still runs Python 3.10 (no ``tomllib``) and new dependencies are
    off the table, so this understands exactly what fleet files use: a
    ``[fleet]`` table, ``[[endpoints]]`` array tables, and bare
    string/int/float/bool scalars.  Python >= 3.11 uses the real parser.
    """
    document: Dict[str, object] = {}
    current: Optional[Dict[str, object]] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            table = line[2:-2].strip()
            current = {}
            document.setdefault(table, [])
            if not isinstance(document[table], list):
                raise FleetError(
                    "fleet file line %d: %r is both a table and an array"
                    % (lineno, table))
            document[table].append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            table = line[1:-1].strip()
            current = document.setdefault(table, {})
            if not isinstance(current, dict):
                raise FleetError(
                    "fleet file line %d: %r is both a table and an array"
                    % (lineno, table))
            continue
        if "=" not in line:
            raise FleetError("fleet file line %d: cannot parse %r"
                             % (lineno, raw_line.strip()))
        key, _, value = line.partition("=")
        target = current if current is not None else document
        target[key.strip()] = _parse_toml_value(value)
    return document


def load_fleet_file(path: str) -> Tuple[List[FleetEndpoint], Dict[str, object]]:
    """Read a TOML fleet file; returns (endpoints, router options).

    Expected shape::

        [fleet]
        trip_threshold = 3       # optional
        cooldown = 5.0           # optional

        [[endpoints]]
        name = "a"
        socket = "/run/repro/a.sock"
        kb = "/var/lib/repro/a.sqlite"   # optional
    """
    try:
        with open(path, encoding="utf-8") as stream:
            text = stream.read()
    except OSError as exc:
        raise FleetError("cannot read fleet file %r: %s" % (path, exc)) from exc
    document = _parse_fleet_toml(text)
    entries = document.get("endpoints") or []
    if not isinstance(entries, list) or not entries:
        raise FleetError("fleet file %r defines no [[endpoints]]" % (path,))
    endpoints = []
    for entry in entries:
        if not isinstance(entry, Mapping) or not entry.get("socket"):
            raise FleetError(
                "fleet file %r: every [[endpoints]] needs a 'socket'" % (path,))
        sock = str(entry["socket"])
        base = os.path.basename(sock)
        default_name = base[:-5] if base.endswith(".sock") else base
        endpoints.append(FleetEndpoint(
            name=str(entry.get("name") or default_name),
            socket=sock,
            kb=str(entry["kb"]) if entry.get("kb") else None,
        ))
    names = [endpoint.name for endpoint in endpoints]
    if len(set(names)) != len(names):
        raise FleetError("fleet file %r has duplicate endpoint names" % (path,))
    options_block = document.get("fleet")
    options: Dict[str, object] = {}
    if isinstance(options_block, Mapping):
        if "cooldown" in options_block:
            options["cooldown"] = float(options_block["cooldown"])
        if "trip_threshold" in options_block:
            options["trip_threshold"] = int(options_block["trip_threshold"])
    return endpoints, options


def resolve_endpoints(
    specs: Optional[Sequence[str]] = None,
    fleet_file: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
) -> Tuple[List[FleetEndpoint], Dict[str, object]]:
    """Resolve the fleet configuration by precedence.

    ``--endpoint`` specs win, then an explicit ``--fleet-file``, then
    ``$REPRO_SERVICE_ENDPOINTS``, then ``$REPRO_FLEET_FILE``.  Returns an
    empty endpoint list (not an error) when nothing is configured, so
    callers can fall back to single-daemon behaviour.
    """
    if specs:
        return parse_endpoint_specs(specs), {}
    if fleet_file:
        return load_fleet_file(fleet_file)
    env = os.environ if env is None else env
    raw = env.get(ENDPOINTS_ENV, "").strip()
    if raw:
        return parse_endpoint_specs(
            item for item in raw.split(",") if item.strip()), {}
    file_path = env.get(FLEET_FILE_ENV, "").strip()
    if file_path:
        return load_fleet_file(file_path)
    return [], {}


# ----------------------------------------------------------------------
# Rendezvous hashing
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    # splitmix64 finalizer: FNV alone is too linear for fair weights.
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def rendezvous_score(fingerprint: str, endpoint_name: str) -> int:
    """The (fingerprint, endpoint) rendezvous weight.

    A pure function of the two strings -- every client computes the same
    routing table with no coordination, and it is stable across processes
    and Python versions (unlike builtin ``hash``).
    """
    return _mix64(fnv1a(("%s|%s" % (fingerprint, endpoint_name)).encode("utf-8")))


def rendezvous_order(fingerprint: str,
                     endpoints: Sequence[FleetEndpoint]) -> List[FleetEndpoint]:
    """Endpoints by descending preference for this fingerprint.

    This whole list *is* the failover chain: dropping any endpoint leaves
    the relative order of the others untouched, which is the no-scatter
    guarantee the chaos suite pins.
    """
    return sorted(
        endpoints,
        key=lambda endpoint: (rendezvous_score(fingerprint, endpoint.name),
                              endpoint.name),
        reverse=True,
    )


# ----------------------------------------------------------------------
# Health probing
# ----------------------------------------------------------------------
def probe_endpoint(endpoint: FleetEndpoint,
                   connect_timeout: float = PROBE_TIMEOUT) -> Dict[str, object]:
    """One cheap health probe: ``ping`` over a fresh connection.

    Returns a dict with ``alive`` plus, from a v1.1+ daemon, its
    ``protocol``, ``pid``, ``uptime_seconds`` and ``draining`` flag.  A
    pre-ping (v1.0) daemon answers ``unknown verb`` -- that still proves a
    live supervisor on the socket, so it reports alive with
    ``legacy: true`` instead of failing the probe (same-major tolerance,
    applied to verbs).
    """
    # (an armed ``error``-kind rule raises inside maybe_fire already; the
    # passive ``drop-connection`` kind is interpreted here as a dead probe)
    rule = faults.maybe_fire("fleet.probe")
    if rule is not None and rule.kind == "drop-connection":
        return {"endpoint": endpoint.name, "alive": False,
                "error": "injected probe fault"}
    client = ServiceClient(endpoint.socket, connect_timeout=connect_timeout,
                          read_timeout=max(connect_timeout, 1.0),
                          retry=RetryPolicy(attempts=1))
    try:
        with client:
            response = client.call("ping")
    except ServiceError as exc:
        return {"endpoint": endpoint.name, "alive": False, "error": str(exc)}
    if response.get("ok"):
        probe = {"endpoint": endpoint.name, "alive": True,
                 "draining": bool(response.get("draining", False))}
        for key in ("protocol", "pid", "uptime_seconds"):
            if key in response:
                probe[key] = response[key]
        return probe
    error = str(response.get("error", ""))
    if "unknown verb" in error:
        return {"endpoint": endpoint.name, "alive": True, "legacy": True,
                "draining": False}
    return {"endpoint": endpoint.name, "alive": False, "error": error}


# ----------------------------------------------------------------------
# Per-endpoint breaker state
# ----------------------------------------------------------------------
@dataclass
class EndpointState:
    """Mutable routing state the router keeps per endpoint."""

    endpoint: FleetEndpoint
    consecutive_failures: int = 0
    tripped_at: Optional[float] = None
    draining: bool = False
    jobs_routed: int = 0
    failures: int = 0
    failovers_away: int = 0
    last_error: Optional[str] = None

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.tripped_at = None
        self.draining = False
        self.last_error = None
        self.jobs_routed += 1

    def record_failure(self, error: str, trip_threshold: int) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        self.last_error = error
        if self.consecutive_failures >= trip_threshold:
            self.tripped_at = time.monotonic()

    def health(self, cooldown: float) -> str:
        """``up`` / ``tripped`` / ``half-open`` / ``draining``."""
        if self.draining:
            return "draining"
        if self.tripped_at is None:
            return "up"
        if time.monotonic() - self.tripped_at >= cooldown:
            return "half-open"
        return "tripped"

    def snapshot(self, cooldown: float) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.endpoint.to_dict())
        payload.update(
            health=self.health(cooldown),
            jobs_routed=self.jobs_routed,
            failures=self.failures,
            consecutive_failures=self.consecutive_failures,
            failovers_away=self.failovers_away,
        )
        if self.last_error:
            payload["last_error"] = self.last_error
        return payload


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class FleetRouter:
    """Routes check requests across a fleet of daemons (thread-safe)."""

    def __init__(
        self,
        endpoints: Sequence[FleetEndpoint],
        trip_threshold: int = DEFAULT_TRIP_THRESHOLD,
        cooldown: float = DEFAULT_COOLDOWN,
        retry: Optional[RetryPolicy] = None,
        read_timeout: Optional[float] = None,
        sync_on_failover: bool = False,
    ):
        if not endpoints:
            raise FleetError("a fleet needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.trip_threshold = max(1, int(trip_threshold))
        self.cooldown = float(cooldown)
        self.retry = retry
        self.read_timeout = read_timeout
        self.sync_on_failover = sync_on_failover
        self._states = {endpoint.name: EndpointState(endpoint)
                        for endpoint in self.endpoints}
        self._lock = threading.Lock()
        #: circuit ref cache key -> fingerprint, least recently used
        #: dropped first beyond the daemon route cache's bound.
        self._fingerprints: "OrderedDict[Tuple, str]" = OrderedDict()
        self._synced_pairs: set = set()
        self.counters: Dict[str, int] = {
            "jobs": 0, "failovers": 0, "fell_back": 0, "syncs": 0,
        }

    # -- routing table -------------------------------------------------
    def fingerprint_for(self, request: api.CheckRequest) -> str:
        """The request's routing key: its circuit structural fingerprint.

        Elaborates the design once per distinct circuit (same cache-key
        discipline as the daemon's route cache) -- the very fingerprint the
        target daemon will key its worker and KB entries by, which is what
        makes the sharding *sticky* rather than merely balanced.  The key
        and the elaborated design come from one read of the file.
        """
        from repro.kb.fingerprints import circuit_fingerprint
        from repro.service import supervisor

        cache_key, text = api.design_key(request.circuit)
        with self._lock:
            cached = self._fingerprints.get(cache_key)
            if cached is not None:
                self._fingerprints.move_to_end(cache_key)
                return cached
        resolved = api.load_design(request.circuit, text)
        fingerprint = "%016x" % circuit_fingerprint(resolved.circuit)
        with self._lock:
            self._fingerprints[cache_key] = fingerprint
            self._fingerprints.move_to_end(cache_key)
            while len(self._fingerprints) > supervisor.ROUTES_KEPT:
                self._fingerprints.popitem(last=False)
        return fingerprint

    def order_for(self, fingerprint: str) -> List[EndpointState]:
        ordered = rendezvous_order(fingerprint, self.endpoints)
        return [self._states[endpoint.name] for endpoint in ordered]

    def _usable(self, state: EndpointState) -> bool:
        """Breaker gate: up passes, tripped is skipped, half-open probes."""
        health = state.health(self.cooldown)
        if health == "up":
            return True
        if health in ("tripped",):
            return False
        # draining and half-open both earn one probe: SIGTERM drains end
        # with the daemon gone, and a respawned daemon should rejoin
        # without waiting for a job to fail first.
        probe = probe_endpoint(state.endpoint)
        if probe.get("alive") and not probe.get("draining"):
            state.consecutive_failures = 0
            state.tripped_at = None
            state.draining = False
            return True
        if probe.get("alive") and probe.get("draining"):
            state.draining = True
            return False
        state.record_failure(str(probe.get("error", "probe failed")),
                             self.trip_threshold)
        return False

    # -- single check --------------------------------------------------
    def check(self, request: api.CheckRequest,
              deadline: Optional[float] = None,
              timeout: Optional[float] = None,
              fallback: bool = True) -> api.CheckReport:
        """Route one request, with failover / fallback.

        Semantics: connection-level failures walk the rendezvous chain
        (reusing one ``submit_key``, so a daemon that actually received
        the earlier submit collapses the retry onto it); a ``draining``
        :class:`JobFailure` marks the endpoint and walks on; any other
        :class:`JobFailure` propagates -- a daemon answered, and the fleet
        never papers over an answer.  With the chain exhausted, the
        in-process fallback (deadline-clamped) runs iff ``fallback``.
        """
        if not request.circuit.serializable:
            if fallback:
                return check_in_process(request, deadline)
            raise FleetError("an inline circuit cannot be routed to a fleet")
        fingerprint = self.fingerprint_for(request)
        with self._lock:
            self.counters["jobs"] += 1
        chain = [state for state in self.order_for(fingerprint)
                 if self._usable(state)]
        rule = faults.maybe_fire("fleet.route")
        if rule is not None:
            if chain:
                # Injected route failure: the primary assignment is treated
                # as dead-on-arrival, exercising the failover path without
                # killing a daemon.
                skipped = chain.pop(0)
                skipped.record_failure("injected fleet.route fault",
                                       self.trip_threshold)
                skipped.failovers_away += 1
                with self._lock:
                    self.counters["failovers"] += 1
        if not chain:
            if fallback:
                with self._lock:
                    self.counters["fell_back"] += 1
                return check_in_process(request, deadline)
            raise ServiceUnavailable(
                "no fleet endpoint available for fingerprint %s (of %d)"
                % (fingerprint, len(self.endpoints)))
        submit_key = make_submit_key()
        return self._run_chain(chain, request, deadline, timeout,
                               fallback, submit_key)

    def _attempt(self, state: EndpointState, request: api.CheckRequest,
                 deadline: Optional[float], timeout: Optional[float],
                 submit_key: str) -> api.CheckReport:
        routed = request
        if state.endpoint.kb is not None and request.kb_path != state.endpoint.kb:
            # Each shard learns into its own store; anti-entropy merges
            # them later rather than sharing one file across daemons.
            routed = replace(request, kb_path=state.endpoint.kb)
        report = check_via_service(
            routed,
            socket_path=state.endpoint.socket,
            fallback=False,
            timeout=timeout,
            deadline=deadline,
            retry=self.retry,
            read_timeout=self.read_timeout,
            submit_key=submit_key,
        )
        service_block = dict(report.service or {})
        service_block["endpoint"] = state.endpoint.name
        return replace(report, service=service_block)

    def _run_chain(self, chain: List[EndpointState],
                   request: api.CheckRequest,
                   deadline: Optional[float], timeout: Optional[float],
                   fallback: bool, submit_key: str) -> api.CheckReport:
        """The sequential failover loop.

        Endpoints are tried one at a time in chain order; a connection-level
        failure or a ``draining`` answer moves on to the next.  The first
        success wins; any other :class:`JobFailure` propagates immediately.
        """
        failed: List[EndpointState] = []
        last_error: Optional[Exception] = None
        for state in chain:
            if failed:
                with self._lock:
                    self.counters["failovers"] += 1
            try:
                report = self._attempt(state, request, deadline, timeout,
                                       submit_key)
            except JobFailure as exc:
                if exc.cause != "draining":
                    raise
                state.draining = True
                state.last_error = str(exc)
                last_error = exc
            except Exception as exc:  # noqa: BLE001 - connection-level
                state.record_failure(str(exc), self.trip_threshold)
                last_error = exc
            else:
                state.record_success()
                if failed:
                    self._after_failover(failed, state)
                return report
            state.failovers_away += 1
            failed.append(state)
        if fallback:
            with self._lock:
                self.counters["fell_back"] += 1
            return check_in_process(request, deadline)
        if isinstance(last_error, Exception):
            raise last_error
        raise ServiceUnavailable("every fleet endpoint failed")

    def _after_failover(self, failed: List[EndpointState],
                        winner: EndpointState) -> None:
        """Router-triggered anti-entropy after a successful failover.

        The takeover shard inherits what the failed shard had learned: the
        failed endpoint's store is merged into the winner's (the commuting
        direction that helps the jobs now landing there).  Deduplicated
        per ordered endpoint pair for the router's lifetime -- anti-entropy
        is a convergence nudge, not a per-job tax.
        """
        if not self.sync_on_failover or winner.endpoint.kb is None:
            return
        for state in failed:
            source = state.endpoint.kb
            if source is None or source == winner.endpoint.kb:
                continue
            pair = (state.endpoint.name, winner.endpoint.name)
            with self._lock:
                if pair in self._synced_pairs:
                    continue
                self._synced_pairs.add(pair)
            try:
                from repro.kb import open_knowledge_base

                dest = open_knowledge_base(winner.endpoint.kb)
                dest.merge_many([open_knowledge_base(source)])
                with self._lock:
                    self.counters["syncs"] += 1
            except Exception:  # noqa: BLE001 - anti-entropy is best effort
                pass

    # -- batches -------------------------------------------------------
    def run_batch(
        self,
        requests: Sequence[api.CheckRequest],
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
        fallback: bool = True,
        max_workers: Optional[int] = None,
        on_item: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """Route a batch across the fleet; returns the fleet batch report.

        Every request produces exactly one item -- ``state: "done"`` with
        its verdicts, or ``state: "failed"`` with a typed ``cause`` -- so
        ``lost`` (requests with neither) is computable and asserted zero
        by the chaos suite even while a daemon is being killed mid-batch.
        """
        items: List[Optional[Dict[str, object]]] = [None] * len(requests)

        def run_one(index: int) -> None:
            request = requests[index]
            item: Dict[str, object] = {
                "index": index,
                "circuit": _circuit_label(request.circuit),
            }
            try:
                report = self.check(request, deadline=deadline,
                                    timeout=timeout, fallback=fallback)
            except JobFailure as exc:
                item.update(state="failed",
                            cause=exc.cause or "job-error",
                            error=str(exc))
            except ServiceError as exc:
                item.update(state="failed", cause="unavailable",
                            error=str(exc))
            else:
                item.update(
                    state="done",
                    source=report.source,
                    exit_code=report.exit_code,
                    verdicts=[
                        {"property": result.name, "status": result.status,
                         "conclusive": result.conclusive}
                        for result in report.results
                    ],
                )
                service = report.service or {}
                if "endpoint" in service:
                    item["endpoint"] = service["endpoint"]
            items[index] = item
            if on_item is not None:
                on_item(dict(item))

        workers = max_workers or min(8, max(1, len(requests)))
        started = time.monotonic()
        if requests:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_one, range(len(requests))))
        finished = [item for item in items if item is not None]
        done = sum(1 for item in finished if item["state"] == "done")
        failed = sum(1 for item in finished if item["state"] == "failed")
        return {
            "schema": FLEET_BATCH_SCHEMA,
            "total": len(requests),
            "done": done,
            "failed": failed,
            "lost": len(requests) - len(finished),
            "wall_seconds": round(time.monotonic() - started, 6),
            "fleet": self.describe(),
            "counters": dict(self.counters),
            "endpoints": [state.snapshot(self.cooldown)
                          for state in self._iter_states()],
            "items": finished,
        }

    # -- introspection -------------------------------------------------
    def _iter_states(self) -> List[EndpointState]:
        return [self._states[endpoint.name] for endpoint in self.endpoints]

    def describe(self) -> Dict[str, object]:
        """Static fleet configuration, for embedding in reports."""
        return {
            "endpoints": [endpoint.to_dict() for endpoint in self.endpoints],
            "trip_threshold": self.trip_threshold,
            "cooldown": self.cooldown,
            "sync_on_failover": self.sync_on_failover,
        }

    def status(self, probe: bool = True) -> Dict[str, object]:
        """Live per-endpoint status (``repro fleet status`` payload)."""
        blocks = []
        for state in self._iter_states():
            block = state.snapshot(self.cooldown)
            if probe:
                block["probe"] = probe_endpoint(state.endpoint)
            blocks.append(block)
        up = sum(1 for block in blocks
                 if not probe or block["probe"].get("alive"))
        return {
            "schema": FLEET_STATUS_SCHEMA,
            "endpoints": blocks,
            "up": up,
            "total": len(blocks),
            "counters": dict(self.counters),
        }


def _circuit_label(circuit: api.CircuitRef) -> str:
    if circuit.kind == "case":
        return str(circuit.case_id)
    if circuit.kind == "verilog":
        return str(circuit.path)
    if circuit.kind == "source":
        return "<source:%s>" % (circuit.top or "top")
    return "<inline>"


# ----------------------------------------------------------------------
# Anti-entropy
# ----------------------------------------------------------------------
def sync_stores(paths: Sequence[str]) -> List[Dict[str, object]]:
    """Pairwise-merge shard KB stores until all hold the union.

    Every store becomes a destination once and merges *all* the others in
    a single transaction (:meth:`repro.kb.KnowledgeBase.merge_many`) -- N
    write transactions total for N shards, not N*(N-1) pairwise merges.
    The merge rules commute (union cubes / max hits / add-only memos), so
    the result is independent of ordering and re-running is a no-op.
    """
    from repro.kb import open_knowledge_base

    unique: List[str] = []
    for path in paths:
        if path and path not in unique:
            unique.append(path)
    if len(unique) < 2:
        return [{"path": path, "sources": 0, "models": 0, "cubes": 0,
                 "fail_memos": 0} for path in unique]
    stores = [open_knowledge_base(path) for path in unique]
    results = []
    for dest in stores:
        merged = dest.merge_many([store for store in stores
                                  if store is not dest])
        merged_block: Dict[str, object] = {"path": dest.path}
        merged_block.update(merged)
        if dest.disabled:
            merged_block["disabled"] = True
            merged_block["reason"] = dest.disabled_reason
        results.append(merged_block)
    return results


__all__ = [
    "DEFAULT_COOLDOWN",
    "DEFAULT_TRIP_THRESHOLD",
    "ENDPOINTS_ENV",
    "FLEET_BATCH_SCHEMA",
    "FLEET_FILE_ENV",
    "FLEET_STATUS_SCHEMA",
    "EndpointState",
    "FleetEndpoint",
    "FleetError",
    "FleetRouter",
    "load_fleet_file",
    "parse_endpoint_spec",
    "parse_endpoint_specs",
    "probe_endpoint",
    "rendezvous_order",
    "rendezvous_score",
    "resolve_endpoints",
    "sync_stores",
]
