"""Deterministic, seeded fault injection for resilience testing.

The verification service (and everything it leans on -- the KB flush path,
the client I/O loop, the engine budgets) is instrumented with named *fault
sites*::

    from repro import faults
    ...
    faults.maybe_fire("worker.run")        # generic kinds handled inline
    rule = faults.maybe_fire("kb.flush")   # special kinds returned to the site

A site is inert (one dict lookup on an unarmed process) unless a **fault
plan** is armed, either programmatically (:func:`arm`) or through the
environment (``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED`` /
``REPRO_FAULT_STATE``), which is how a daemon arms its whole worker tree:
forked children inherit the plan and re-read it lazily after the fork.

Determinism is the point: whether a rule fires on the *n*-th hit of a site
is a pure function of ``(seed, site, n)``, so a chaos schedule replays
bit-identically under the same seed regardless of thread/process
interleaving.  Cross-process ``nth``/``limit`` accounting (a worker that
crashed must not re-fire the same one-shot fault after its respawn) uses a
shared *state directory* of append-only counter files.

Fault kinds:

========== ==========================================================
``crash``   ``os._exit(exit_code)`` -- a hard process death.
``sleep``   block the site for ``seconds`` (drives job timeouts).
``error``   raise :class:`InjectedFault` at the site.
``hang``    returned to the site: simulate a wedged process (the
            service worker also suspends its heartbeats).
``torn-write``   returned: the KB flush path truncates the store
            mid-write.
``fsync-fail``   returned: the KB flush path fails its write as if
            fsync had failed (store degrades fail-open).
``exhaust-budget``  returned: the worker clamps the job's engine
            budget to ~zero, forcing budget-exhaustion verdicts.
``drop-connection`` returned: the service client drops its daemon
            connection at the site (drives retry/backoff).
========== ==========================================================

Plan syntax (compact text; JSON with the same field names also accepted)::

    site:kind[:key=value]*[;site:kind...]
    worker.run:crash:nth=1;kb.flush:torn-write;client.send:drop-connection:p=0.5

See ``docs/resilience.md`` for the full contract.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.atpg.statehash import fnv1a

#: Environment variable carrying the fault plan (compact text or JSON).
PLAN_ENV = "REPRO_FAULT_PLAN"
#: Environment variable carrying the schedule seed (default 0).
SEED_ENV = "REPRO_FAULT_SEED"
#: Environment variable naming the cross-process counter directory.
STATE_ENV = "REPRO_FAULT_STATE"

#: Every fault kind a plan may name.
KINDS = (
    "crash",
    "sleep",
    "error",
    "hang",
    "torn-write",
    "fsync-fail",
    "exhaust-budget",
    "drop-connection",
)

#: Kinds :func:`maybe_fire` executes itself; the rest are returned to the
#: site, which implements the site-specific behaviour.
_GENERIC_KINDS = ("crash", "sleep", "error")


class FaultPlanError(ValueError):
    """A fault plan cannot be parsed."""


class InjectedFault(RuntimeError):
    """An ``error``-kind fault fired at a site."""

    def __init__(self, site: str):
        super().__init__("injected fault at %s" % (site,))
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One arm of a fault plan: what happens at a site, and when."""

    #: the site name this rule matches (exact, or a ``prefix.*`` glob).
    site: str
    #: one of :data:`KINDS`.
    kind: str
    #: fire with this probability per hit (deterministic per (seed, site, n)).
    probability: float = 1.0
    #: fire only on exactly the n-th hit of the site (1-based); overrides
    #: ``probability``.
    nth: Optional[int] = None
    #: stop firing after this many firings (``None`` = unlimited).
    limit: Optional[int] = None
    #: duration knob for ``sleep`` / ``hang``.
    seconds: float = 0.05
    #: exit status for ``crash``.
    exit_code: int = 17

    def matches(self, site: str) -> bool:
        """Whether this rule applies to ``site`` (exact or ``prefix.*``)."""
        if self.site == site:
            return True
        return self.site.endswith(".*") and site.startswith(self.site[:-1])

    def to_dict(self) -> Dict[str, object]:
        """JSON form (used by :meth:`FaultPlan.to_json`)."""
        payload: Dict[str, object] = {"site": self.site, "kind": self.kind}
        if self.probability != 1.0:
            payload["probability"] = self.probability
        if self.nth is not None:
            payload["nth"] = self.nth
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.seconds != 0.05:
            payload["seconds"] = self.seconds
        if self.exit_code != 17:
            payload["exit_code"] = self.exit_code
        return payload


_RULE_KEYS = {
    "p": ("probability", float),
    "probability": ("probability", float),
    "nth": ("nth", int),
    "limit": ("limit", int),
    "seconds": ("seconds", float),
    "exit_code": ("exit_code", int),
}


def _parse_rule_text(text: str) -> FaultRule:
    """``site:kind[:key=value]*`` -> :class:`FaultRule`."""
    parts = [part.strip() for part in text.split(":")]
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise FaultPlanError("fault rule needs site:kind, got %r" % (text,))
    site, kind = parts[0], parts[1]
    if kind not in KINDS:
        raise FaultPlanError(
            "unknown fault kind %r (known: %s)" % (kind, ", ".join(KINDS))
        )
    fields: Dict[str, object] = {}
    for extra in parts[2:]:
        if "=" not in extra:
            raise FaultPlanError("fault rule option needs key=value, got %r" % (extra,))
        key, value = extra.split("=", 1)
        spec = _RULE_KEYS.get(key.strip())
        if spec is None:
            raise FaultPlanError(
                "unknown fault rule option %r (known: %s)"
                % (key, ", ".join(sorted(_RULE_KEYS)))
            )
        name, cast = spec
        try:
            fields[name] = cast(value)
        except ValueError as exc:
            raise FaultPlanError("bad value for %s: %r" % (key, value)) from exc
    return FaultRule(site=site, kind=kind, **fields)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable set of fault rules plus the schedule seed."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the compact text syntax or a JSON object/list."""
        text = text.strip()
        if not text:
            return cls(seed=seed)
        if text[0] in "[{":
            try:
                payload = json.loads(text)
            except ValueError as exc:
                raise FaultPlanError("fault plan is not valid JSON: %s" % (exc,)) from exc
            if isinstance(payload, Mapping):
                seed = int(payload.get("seed", seed))
                payload = payload.get("rules") or []
            rules = []
            for item in payload:
                if not isinstance(item, Mapping):
                    raise FaultPlanError("JSON fault rules must be objects")
                spec = "%s:%s" % (item.get("site", ""), item.get("kind", ""))
                rule = _parse_rule_text(spec)
                overrides = {
                    name: cast(item[key])
                    for key, (name, cast) in _RULE_KEYS.items()
                    if key in item
                }
                rules.append(FaultRule(rule.site, rule.kind, **overrides))
            return cls(rules=tuple(rules), seed=seed)
        return cls(
            rules=tuple(
                _parse_rule_text(part)
                for part in text.split(";")
                if part.strip()
            ),
            seed=seed,
        )

    def to_json(self) -> str:
        """The JSON form (round-trips through :meth:`parse`)."""
        return json.dumps(
            {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}
        )


# ----------------------------------------------------------------------
# Deterministic schedule
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1


def _fnv64(*parts) -> int:
    """FNV-1a over the stringified parts (process-stable, like the KB keys)."""
    return fnv1a(b"".join(str(part).encode("utf-8") + b"\x1f" for part in parts))


def _mix64(value: int) -> int:
    """splitmix64 finalizer: avalanche the hash so all 64 bits are uniform.

    Raw FNV-1a concentrates small-input changes in its low bits, and the
    draw below keys off the high ones -- without this mix a probability
    rule would fire in long deterministic streaks.
    """
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _draw(seed: int, site: str, hit: int) -> float:
    """The deterministic uniform draw deciding hit ``hit`` of ``site``."""
    return _mix64(_fnv64(seed, site, hit)) / float(1 << 64)


_SAFE_NAME = re.compile(r"[^A-Za-z0-9_.-]")


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against live site hits.

    Hit counts are per-injector (per-process) unless a ``state_dir`` is
    given, in which case they are shared across every process pointing at
    the same directory via append-only counter files -- one byte per hit,
    so concurrent appends cannot tear.
    """

    def __init__(self, plan: FaultPlan, state_dir: Optional[str] = None):
        """Bind ``plan`` (and optionally a shared counter directory)."""
        self.plan = plan
        self.state_dir = state_dir
        if state_dir:
            os.makedirs(state_dir, exist_ok=True)
        self._hits: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    # -- counters ------------------------------------------------------
    def _counter_path(self, name: str) -> str:
        return os.path.join(self.state_dir or "", _SAFE_NAME.sub("_", name))

    def _bump(self, name: str) -> int:
        """Increment the named counter; returns the new (1-based) value."""
        if not self.state_dir:
            value = self._hits.get(name, 0) + 1
            self._hits[name] = value
            return value
        path = self._counter_path(name)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, b".")
            return os.fstat(fd).st_size
        finally:
            os.close(fd)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been hit so far."""
        if not self.state_dir:
            return self._hits.get(site, 0)
        try:
            return os.stat(self._counter_path(site)).st_size
        except OSError:
            return 0

    # -- evaluation ----------------------------------------------------
    def fire(self, site: str) -> Optional[FaultRule]:
        """Record one hit of ``site``; return the rule that fires, if any.

        Does not execute the fault -- :func:`maybe_fire` layers the generic
        actions on top.
        """
        rules = [rule for rule in self.plan.rules if rule.matches(site)]
        if not rules:
            return None
        hit = self._bump(site)
        for rule in rules:
            if rule.nth is not None:
                if hit != rule.nth:
                    continue
            elif rule.probability < 1.0:
                if _draw(self.plan.seed, site, hit) >= rule.probability:
                    continue
            if rule.limit is not None:
                fired_key = "%s@fired" % (site,)
                if self.hits(fired_key) >= rule.limit:
                    continue
                self._bump(fired_key)
            return rule
        return None


# ----------------------------------------------------------------------
# The per-process injector
# ----------------------------------------------------------------------
#: pid-guarded singleton: (owning pid, injector-or-None).  ``None`` after a
#: lookup means "checked the environment, nothing armed" -- the fast path.
_ARMED: Optional[Tuple[int, Optional[FaultInjector]]] = None


def arm(plan: FaultPlan, state_dir: Optional[str] = None) -> FaultInjector:
    """Programmatically arm fault injection for this process."""
    global _ARMED
    injector = FaultInjector(plan, state_dir=state_dir)
    _ARMED = (os.getpid(), injector)
    return injector


def disarm() -> None:
    """Drop any armed plan (environment arming re-evaluates lazily)."""
    global _ARMED
    _ARMED = None
    if PLAN_ENV in os.environ:
        # A disarm must win over the environment until the env changes.
        _ARMED = (os.getpid(), None)


def injector() -> Optional[FaultInjector]:
    """The process's armed injector, if any (lazily read from the env).

    The pid guard re-arms forked children from the inherited environment,
    so a daemon's fault plan covers its whole worker tree.
    """
    global _ARMED
    if _ARMED is not None and _ARMED[0] == os.getpid():
        return _ARMED[1]
    text = os.environ.get(PLAN_ENV)
    if not text:
        _ARMED = (os.getpid(), None)
        return None
    plan = FaultPlan.parse(text, seed=int(os.environ.get(SEED_ENV, "0") or "0"))
    armed = FaultInjector(plan, state_dir=os.environ.get(STATE_ENV) or None)
    _ARMED = (os.getpid(), armed)
    return armed


def maybe_fire(site: str) -> Optional[FaultRule]:
    """Evaluate ``site`` against the armed plan; execute generic kinds.

    ``crash`` exits the process, ``sleep`` blocks, ``error`` raises
    :class:`InjectedFault`.  Site-specific kinds (``hang``, ``torn-write``,
    ``fsync-fail``, ``exhaust-budget``, ``drop-connection``) are *returned*
    for the call site to implement; generic firings are returned too, for
    sites that want to log them.  Unarmed processes pay one lookup.
    """
    armed = injector()
    if armed is None:
        return None
    rule = armed.fire(site)
    if rule is None:
        return None
    if rule.kind == "crash":
        os._exit(rule.exit_code)
    elif rule.kind == "sleep":
        time.sleep(rule.seconds)
    elif rule.kind == "error":
        raise InjectedFault(site)
    return rule


def plan_environment(
    plan: FaultPlan, state_dir: Optional[str] = None
) -> Dict[str, str]:
    """The env-var triple that arms ``plan`` in a spawned process tree."""
    env = {PLAN_ENV: plan.to_json(), SEED_ENV: str(plan.seed)}
    if state_dir:
        env[STATE_ENV] = state_dir
    return env


#: The instrumented sites (documentation + a typo guard for tests).
SITES = (
    "supervisor.dispatch",
    "worker.run",
    "worker.budget",
    "client.connect",
    "client.send",
    "client.recv",
    "kb.flush",
    "fleet.route",
    "fleet.probe",
)

__all__ = [
    "KINDS",
    "PLAN_ENV",
    "SEED_ENV",
    "SITES",
    "STATE_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedFault",
    "arm",
    "disarm",
    "injector",
    "maybe_fire",
    "plan_environment",
]
