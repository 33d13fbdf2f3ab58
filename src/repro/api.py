"""The public check API: one serializable request type, one report type.

Before this module existed the same knobs (engines, bounds, budgets,
learning / knowledge-base / sim-width switches, seeds) were
spelled three times -- :class:`~repro.checker.engine.CheckerOptions`,
:class:`~repro.portfolio.batch.BatchOptions` and ad-hoc CLI plumbing -- and
none of those spellings could travel: there was no request type a job
protocol could carry.  This module collapses them into one frozen,
JSON-round-trippable :class:`CheckRequest`:

* the CLI (``repro check`` / ``repro submit``) parses its arguments into a
  single ``CheckRequest``;
* :class:`CheckerOptions`, :class:`BatchOptions`, :class:`EngineBudget` and
  :class:`AtpgEngine` expose ``from_request`` adapters, so the request is
  the *only* place the knob list lives;
* the verification service (:mod:`repro.service`) carries the request
  verbatim inside its ``repro-service/v1`` protocol -- no second schema.

The module is also the supported import surface for library users
(re-exported as :mod:`repro.api` and from :mod:`repro` itself):

.. code-block:: python

    from repro import api

    request = api.build_request(circuit, Assertion("safe", expr), max_frames=8)
    report = api.check(request)
    print(report.to_json())

Internal modules (``repro.checker.engine``, ``repro.portfolio.batch``) remain
importable but are not a stability contract; ``repro.api`` is.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.checker.engine import AssertionChecker, CheckerOptions
from repro.checker.incremental import shared_model_cache
from repro.checker.report import counterexample_to_dict, statistics_to_dict
from repro.checker.result import CheckResult, CheckStatus
from repro.netlist.circuit import Circuit
from repro.properties.environment import Environment
from repro.properties.parse import format_expression, parsed_expression
from repro.properties.spec import Assertion, Property, Witness

#: JSON schema tag of the serialised request (bump the major on breakage).
#: v1.1 retired three search fields (fresh unrolling, the interpreted
#: engine, cube-hit ordering); v1.0 payloads that still set them parse, and
#: the values are ignored.
REQUEST_SCHEMA = "repro-check-request/v1.1"
#: JSON schema tag of the serialised report.  v1.1 dropped the duplicate
#: ``stats["cpu_seconds"]`` of single-engine verdicts (the verdict's own
#: ``wall_seconds`` carries that value); v1.2 dropped the three solver-core
#: memo counters (``solver_cores_learned``, ``solver_core_hits``,
#: ``kb_solver_cores_loaded``).  Older reports still parse.
REPORT_SCHEMA = "repro-check-report/v1.2"

#: The engines a request may name, in canonical order.  The portfolio's
#: ``ENGINE_REGISTRY`` holds the same names in the same order; checking a
#: request against this tuple keeps the portfolio and its process machinery
#: off the single-engine path.
ENGINE_NAMES = ("atpg", "bdd", "sat", "random")


class RequestError(ValueError):
    """A request cannot be built, serialised or resolved."""


def _schema_compatible(schema: object, expected: str) -> bool:
    """Same-major schema check: ``<name>/v1`` accepts ``<name>/v1.3``.

    Messages written by a *newer minor* revision are readable by design
    (unknown fields are ignored); a different major means the layout
    changed incompatibly and must be rejected.
    """
    if schema is None:
        return True  # tolerate untagged payloads from older writers
    if not isinstance(schema, str):
        return False
    expected_name, _, expected_version = expected.rpartition("/")
    name, _, version = schema.rpartition("/")
    return (name == expected_name
            and version.split(".", 1)[0] == expected_version.split(".", 1)[0])


# ----------------------------------------------------------------------
# Circuit references
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CircuitRef:
    """Names the design a request runs against.

    Four kinds, three of them serialisable:

    * ``verilog`` -- a Verilog file on disk (``path`` + optional ``top``);
    * ``source`` -- inline Verilog text (``text`` + optional ``top``);
    * ``case`` -- one of the bundled benchmark cases (``p1`` .. ``p15``),
      which also supplies its default property, environment, initial state
      and bound;
    * ``inline`` -- a live :class:`~repro.netlist.circuit.Circuit` object.
      Only usable in-process: it cannot travel through JSON, so
      :meth:`to_dict` raises for it.
    """

    kind: str
    path: Optional[str] = None
    top: Optional[str] = None
    text: Optional[str] = None
    case_id: Optional[str] = None
    circuit: Optional[Circuit] = None

    KINDS = ("verilog", "source", "case", "inline")

    # -- constructors ------------------------------------------------
    @classmethod
    def verilog(cls, path: str, top: Optional[str] = None) -> "CircuitRef":
        """A design stored as a Verilog file."""
        return cls(kind="verilog", path=path, top=top)

    @classmethod
    def source(cls, text: str, top: Optional[str] = None) -> "CircuitRef":
        """A design shipped as inline Verilog text (self-contained requests)."""
        return cls(kind="source", text=text, top=top)

    @classmethod
    def case(cls, case_id: str) -> "CircuitRef":
        """One of the bundled benchmark property cases (``p1`` .. ``p15``)."""
        return cls(kind="case", case_id=case_id)

    @classmethod
    def inline(cls, circuit: Circuit) -> "CircuitRef":
        """A live circuit object (in-process checking only)."""
        return cls(kind="inline", circuit=circuit)

    # -- serialisation -----------------------------------------------
    @property
    def serializable(self) -> bool:
        """Whether this reference can travel through JSON."""
        return self.kind != "inline"

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form; raises :class:`RequestError` for ``inline``."""
        if self.kind == "verilog":
            payload: Dict[str, object] = {"kind": "verilog", "path": self.path}
        elif self.kind == "source":
            payload = {"kind": "source", "text": self.text}
        elif self.kind == "case":
            return {"kind": "case", "case_id": self.case_id}
        else:
            raise RequestError(
                "an inline circuit cannot be serialised; use a verilog, "
                "source or case reference for requests that travel"
            )
        if self.top is not None:
            payload["top"] = self.top
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CircuitRef":
        """Rebuild a reference, ignoring unknown fields."""
        kind = payload.get("kind")
        if kind == "verilog":
            if not payload.get("path"):
                raise RequestError("verilog circuit ref needs a 'path'")
            return cls.verilog(str(payload["path"]), _opt_str(payload.get("top")))
        if kind == "source":
            if not payload.get("text"):
                raise RequestError("source circuit ref needs 'text'")
            return cls.source(str(payload["text"]), _opt_str(payload.get("top")))
        if kind == "case":
            if not payload.get("case_id"):
                raise RequestError("case circuit ref needs a 'case_id'")
            return cls.case(str(payload["case_id"]))
        raise RequestError("unknown circuit ref kind %r" % (kind,))

    def cache_key(self) -> Tuple:
        """A hashable identity for design-resolution caches.

        File-backed refs include a digest of the file's bytes, as source
        refs do of their text, so an edited design is re-elaborated instead
        of served stale -- even a same-size rewrite within one mtime tick.
        """
        if self.kind == "inline":
            return ("inline", id(self.circuit))
        if self.kind == "case":
            return ("case", self.case_id)
        if self.kind == "source":
            digest = hashlib.sha256((self.text or "").encode("utf-8")).hexdigest()
            return ("source", digest, self.top)
        path = os.path.abspath(self.path or "")
        try:
            with open(path, "rb") as stream:
                digest: Optional[str] = hashlib.sha256(stream.read()).hexdigest()
        except OSError:
            digest = None
        return ("verilog", path, digest, self.top)


def _opt_str(value: object) -> Optional[str]:
    return None if value is None else str(value)


# ----------------------------------------------------------------------
# Property specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertySpec:
    """One property of a request, carried as a parseable expression string.

    ``max_frames`` / ``seed`` are optional per-property overrides of the
    request-level values (the batch-job shape).
    """

    kind: str  # "assert" | "witness"
    name: str
    expr: str
    max_frames: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_frames is not None and self.max_frames < 1:
            raise RequestError(
                "properties.max_frames must be >= 1, got %r" % (self.max_frames,)
            )

    @classmethod
    def assertion(cls, name: str, expr: Union[str, object], **overrides) -> "PropertySpec":
        """An assertion spec from an expression string or tree."""
        return cls(kind="assert", name=name, expr=_expr_text(expr), **overrides)

    @classmethod
    def witness(cls, name: str, expr: Union[str, object], **overrides) -> "PropertySpec":
        """A witness spec from an expression string or tree."""
        return cls(kind="witness", name=name, expr=_expr_text(expr), **overrides)

    @classmethod
    def from_property(cls, prop: Property, **overrides) -> "PropertySpec":
        """Serialise an in-memory :class:`Property` (renders its expression)."""
        return cls(
            kind="assert" if prop.is_assertion else "witness",
            name=prop.name,
            expr=format_expression(prop.expr),
            **overrides,
        )

    def to_property(self) -> Property:
        """Parse the expression back into a checker-ready property."""
        expr = parsed_expression(self.expr)
        factory = Assertion if self.kind == "assert" else Witness
        return factory(self.name, expr)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind, "name": self.name, "expr": self.expr,
        }
        if self.max_frames is not None:
            payload["max_frames"] = self.max_frames
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PropertySpec":
        if not isinstance(payload, Mapping):
            raise RequestError("properties must hold objects, got %r" % (payload,))
        kind = payload.get("kind")
        if kind not in ("assert", "witness"):
            raise RequestError("property kind must be 'assert' or 'witness', got %r" % (kind,))
        if not payload.get("name") or not payload.get("expr"):
            raise RequestError("property specs need 'name' and 'expr'")
        return cls(
            kind=str(kind),
            name=str(payload["name"]),
            expr=str(payload["expr"]),
            max_frames=_opt_int(payload.get("max_frames"), "properties.max_frames"),
            seed=_opt_int(payload.get("seed"), "properties.seed"),
        )


def _expr_text(expr: Union[str, object]) -> str:
    if isinstance(expr, str):
        parsed_expression(expr)  # validate eagerly; raises PropertyParseError
        return expr
    return format_expression(expr)


def _int(value: object, field: str) -> int:
    # bool is an int subclass and int() truncates floats: reject both
    # rather than read ``true`` as 1 or ``2.9`` as 2.
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise RequestError("%s must be an integer, got %r" % (field, value))
    try:
        return int(value)
    except (TypeError, ValueError):
        raise RequestError("%s must be an integer, got %r" % (field, value)) from None


def _opt_int(value: object, field: str) -> Optional[int]:
    return None if value is None else _int(value, field)


def _opt_float(value: object, field: str) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, bool):
        raise RequestError("%s must be a number, got %r" % (field, value))
    try:
        return float(value)
    except (TypeError, ValueError):
        raise RequestError("%s must be a number, got %r" % (field, value)) from None


# ----------------------------------------------------------------------
# The request
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckRequest:
    """Everything one verification job needs, in one serialisable value.

    The CLI, the batch runner and the service daemon all construct and
    consume this type; there is no second knob list anywhere.  ``None``
    defaults mean "use the target's default" (e.g. a bundled case supplies
    its own bound when ``max_frames`` is ``None``).
    """

    circuit: CircuitRef
    #: properties to check; empty falls back to the circuit ref's bundled
    #: default (case refs only).
    properties: Tuple[PropertySpec, ...] = ()
    # -- environment --------------------------------------------------
    pinned: Tuple[Tuple[str, int], ...] = ()
    one_hot: Tuple[Tuple[str, ...], ...] = ()
    assumptions: Tuple[str, ...] = ()
    initial_state: Optional[Tuple[Tuple[str, int], ...]] = None
    init_vectors: Tuple[Tuple[Tuple[str, int], ...], ...] = ()
    # -- engines and bounds -------------------------------------------
    engines: Tuple[str, ...] = ("atpg",)
    max_frames: Optional[int] = None
    # -- budgets ------------------------------------------------------
    time_budget: Optional[float] = None
    sim_width: Optional[int] = None
    seed: Optional[int] = None
    random_runs: Optional[int] = None
    random_cycles: Optional[int] = None
    bdd_iterations: Optional[int] = None
    bdd_node_limit: Optional[int] = None
    # -- search configuration -----------------------------------------
    learning: bool = True
    kb_path: Optional[str] = None
    fsm_guidance: bool = False
    # -- batch shape --------------------------------------------------
    jobs: int = 1
    compare: bool = False

    # ------------------------------------------------------------------
    def __post_init__(self):
        if not self.engines:
            raise RequestError("a request needs at least one engine")
        if len(set(self.engines)) != len(self.engines):
            raise RequestError("duplicate engines: %s" % (",".join(self.engines),))
        for name in ("jobs", "max_frames", "sim_width", "random_runs", "random_cycles",
                     "bdd_iterations", "bdd_node_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise RequestError("%s must be >= 1, got %d" % (name, value))
        if self.time_budget is not None and self.time_budget <= 0:
            raise RequestError("time_budget must be > 0, got %r" % (self.time_budget,))
        for group in self.one_hot:
            if len(group) < 2:
                raise RequestError(
                    "environment.one_hot group %r needs at least two signals"
                    % (list(group),)
                )

    @property
    def uses_portfolio(self) -> bool:
        """Whether this request routes through the portfolio/batch machinery.

        Mirrors the CLI contract: the default single-engine path is
        deterministic and keeps the classic report schema; any portfolio
        knob (extra engines, worker processes, wall-clock budgets,
        compare mode) reroutes.
        """
        return (
            tuple(self.engines) != ("atpg",)
            or self.jobs > 1
            or self.time_budget is not None
            or self.compare
        )

    # -- environment --------------------------------------------------
    def build_environment(self) -> Optional[Environment]:
        """Materialise the request's environment constraints (or ``None``)."""
        if not (self.pinned or self.one_hot or self.assumptions or self.init_vectors):
            return None
        environment = Environment()
        for name, value in self.pinned:
            environment.pin(name, value)
        for group in self.one_hot:
            environment.one_hot(list(group))
        for text in self.assumptions:
            environment.assume(parsed_expression(text))
        if self.init_vectors:
            environment.initialize_with([dict(v) for v in self.init_vectors])
        return environment

    def initial_state_mapping(self) -> Optional[Dict[str, int]]:
        """The explicit initial register state, as a mapping."""
        if self.initial_state is None:
            return None
        return dict(self.initial_state)

    # -- serialisation ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON layout (grouped, stable key order)."""
        return {
            "schema": REQUEST_SCHEMA,
            "circuit": self.circuit.to_dict(),
            "properties": [spec.to_dict() for spec in self.properties],
            "environment": {
                "pin": {name: value for name, value in self.pinned},
                "one_hot": [list(group) for group in self.one_hot],
                "assume": list(self.assumptions),
                "initial_state": (
                    None if self.initial_state is None else dict(self.initial_state)
                ),
                "init_vectors": [dict(v) for v in self.init_vectors],
            },
            "engines": list(self.engines),
            "bounds": {"max_frames": self.max_frames},
            "budget": {
                "time_seconds": self.time_budget,
                "sim_width": self.sim_width,
                "seed": self.seed,
                "random_runs": self.random_runs,
                "random_cycles": self.random_cycles,
                "bdd_iterations": self.bdd_iterations,
                "bdd_node_limit": self.bdd_node_limit,
            },
            "search": {
                "learning": self.learning,
                "kb_path": self.kb_path,
                "fsm_guidance": self.fsm_guidance,
            },
            "batch": {"jobs": self.jobs, "compare": self.compare},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CheckRequest":
        """Rebuild a request; unknown fields anywhere are ignored.

        Tolerates same-major newer minors of :data:`REQUEST_SCHEMA` (their
        additions are skipped); rejects different majors.  Fields retired by
        a minor bump (see :data:`REQUEST_SCHEMA`) are skipped the same way.
        """
        if not isinstance(payload, Mapping):
            raise RequestError("request payload must be a JSON object")
        if not _schema_compatible(payload.get("schema"), REQUEST_SCHEMA):
            raise RequestError(
                "incompatible request schema %r (expected %s)"
                % (payload.get("schema"), REQUEST_SCHEMA)
            )
        circuit_payload = payload.get("circuit")
        if not isinstance(circuit_payload, Mapping):
            raise RequestError("request needs a 'circuit' object")
        environment = payload.get("environment") or {}
        if not isinstance(environment, Mapping):
            raise RequestError("'environment' must be an object")
        bounds = _mapping(payload.get("bounds"))
        budget = _mapping(payload.get("budget"))
        search = _mapping(payload.get("search"))
        batch = _mapping(payload.get("batch"))
        initial_state = environment.get("initial_state")
        return cls(
            circuit=CircuitRef.from_dict(circuit_payload),
            properties=tuple(
                PropertySpec.from_dict(item)
                for item in _list(payload.get("properties"), "properties")
            ),
            pinned=_int_bindings(environment.get("pin"), "environment.pin"),
            one_hot=tuple(
                tuple(str(name) for name in _list(group, "environment.one_hot"))
                for group in _list(environment.get("one_hot"), "environment.one_hot")
            ),
            assumptions=tuple(
                str(a) for a in _list(environment.get("assume"), "environment.assume")
            ),
            initial_state=(
                None if initial_state is None
                else _int_bindings(initial_state, "environment.initial_state")
            ),
            init_vectors=tuple(
                _int_bindings(vector, "environment.init_vectors")
                for vector in _list(environment.get("init_vectors"), "environment.init_vectors")
            ),
            engines=tuple(
                str(e) for e in _list(payload.get("engines"), "engines") or ("atpg",)
            ),
            max_frames=_opt_int(bounds.get("max_frames"), "bounds.max_frames"),
            time_budget=_opt_float(budget.get("time_seconds"), "budget.time_seconds"),
            sim_width=_opt_int(budget.get("sim_width"), "budget.sim_width"),
            seed=_opt_int(budget.get("seed"), "budget.seed"),
            random_runs=_opt_int(budget.get("random_runs"), "budget.random_runs"),
            random_cycles=_opt_int(budget.get("random_cycles"), "budget.random_cycles"),
            bdd_iterations=_opt_int(budget.get("bdd_iterations"), "budget.bdd_iterations"),
            bdd_node_limit=_opt_int(budget.get("bdd_node_limit"), "budget.bdd_node_limit"),
            learning=_bool(search.get("learning", True), "search.learning"),
            kb_path=_opt_str(search.get("kb_path")),
            fsm_guidance=_bool(search.get("fsm_guidance", False), "search.fsm_guidance"),
            jobs=_int(batch.get("jobs", 1), "batch.jobs"),
            compare=_bool(batch.get("compare", False), "batch.compare"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckRequest":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise RequestError("request is not valid JSON: %s" % (exc,)) from exc
        return cls.from_dict(payload)


def _bool(value: object, field: str) -> bool:
    """A JSON boolean field; ``bool()`` would read ``"false"`` as true."""
    if not isinstance(value, bool):
        raise RequestError("%s must be true or false, got %r" % (field, value))
    return value


def _mapping(value: object) -> Mapping[str, object]:
    return value if isinstance(value, Mapping) else {}


def _list(value: object, field: str) -> Sequence[object]:
    """A JSON array field (``None`` reads as empty); strings are rejected."""
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)):
        raise RequestError("%s must be a list, got %r" % (field, value))
    return value


def _int_bindings(value: object, field: str) -> Tuple[Tuple[str, int], ...]:
    """A JSON ``{name: integer}`` object as sorted (name, value) pairs."""
    if value is None:
        return ()
    if not isinstance(value, Mapping):
        raise RequestError("%s must be an object of name: integer, got %r" % (field, value))
    return tuple(sorted(
        (str(name), _int(number, "%s.%s" % (field, name)))
        for name, number in value.items()
    ))


# ----------------------------------------------------------------------
# Request construction helpers
# ----------------------------------------------------------------------
def build_request(
    design: Union[Circuit, CircuitRef, str],
    properties: Union[Property, PropertySpec, str, Sequence] = (),
    *,
    environment: Optional[Environment] = None,
    initial_state: Optional[Mapping[str, int]] = None,
    **knobs,
) -> CheckRequest:
    """The convenient front door: normalise loose inputs into a request.

    ``design`` may be a live circuit, a ready-made :class:`CircuitRef` or a
    Verilog file path.  ``properties`` accepts a single item or a sequence
    of :class:`Property` / :class:`PropertySpec` / expression strings
    (strings become assertions named ``assert_<i>``).  An
    :class:`Environment` object is decomposed into the request's
    serialisable constraint fields.  Remaining keyword knobs go straight to
    :class:`CheckRequest`.
    """
    if isinstance(design, CircuitRef):
        ref = design
    elif isinstance(design, Circuit):
        ref = CircuitRef.inline(design)
    elif isinstance(design, str):
        ref = CircuitRef.verilog(design)
    else:
        raise RequestError("cannot build a circuit ref from %r" % (design,))

    if isinstance(properties, (Property, PropertySpec, str)):
        properties = (properties,)
    specs: List[PropertySpec] = []
    for index, item in enumerate(properties):
        if isinstance(item, PropertySpec):
            specs.append(item)
        elif isinstance(item, Property):
            specs.append(PropertySpec.from_property(item))
        elif isinstance(item, str):
            specs.append(PropertySpec.assertion("assert_%d" % index, item))
        else:
            raise RequestError("cannot build a property spec from %r" % (item,))

    env_fields: Dict[str, object] = {}
    if environment is not None:
        env_fields["pinned"] = tuple(sorted(environment.pinned.items()))
        env_fields["one_hot"] = tuple(
            tuple(group) for group in environment.one_hot_groups
        )
        env_fields["assumptions"] = tuple(
            format_expression(expr) for expr in environment.assumptions
        )
        if environment.initialization is not None:
            env_fields["init_vectors"] = tuple(
                tuple(sorted(vector.items()))
                for vector in environment.initialization.vectors
            )
    if initial_state is not None:
        env_fields["initial_state"] = tuple(sorted(initial_state.items()))

    return CheckRequest(circuit=ref, properties=tuple(specs), **env_fields, **knobs)


# ----------------------------------------------------------------------
# Design resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResolvedDesign:
    """A circuit ref resolved into live objects plus its bundled defaults.

    Resolved designs are shared by every request for the same ref, so
    treat them as read-only.
    """

    circuit: Circuit
    environment: Optional[Environment] = None
    initial_state: Optional[Dict[str, int]] = None
    default_properties: Tuple[PropertySpec, ...] = ()
    default_max_frames: Optional[int] = None
    #: held by the one request checking this design at a time.
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )


#: How many designs the process keeps resolved: the same bound as the
#: unrolled-model cache, whose models are keyed by these circuits.
DESIGN_CACHE_SIZE = 8

_designs: "OrderedDict[Tuple, ResolvedDesign]" = OrderedDict()
_designs_lock = threading.Lock()


def _forget_designs_in_child() -> None:
    # A forked child starts with no resolved designs: a service worker owns
    # one design and must not pin every circuit its parent resolved, and a
    # lock another parent thread held at fork time would never be released.
    global _designs_lock
    _designs.clear()
    _designs_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_designs_in_child)


def resolve_design(ref: CircuitRef) -> ResolvedDesign:
    """Turn a circuit ref into a live :class:`ResolvedDesign`, warm if it can.

    Every non-``inline`` ref is served from one process-wide LRU keyed by
    :meth:`CircuitRef.cache_key`.  Handing back the same circuit object is
    what makes repeated requests *warm*: the process-wide
    :class:`~repro.checker.incremental.UnrolledModelCache` (and the learned
    facts riding its models) keys by circuit identity.  A design that falls
    out of the LRU takes its models with it, so both caches stay bounded
    together.
    """
    if ref.kind == "inline":
        return load_design(ref)
    key = ref.cache_key()
    with _designs_lock:
        resolved = _designs.get(key)
        if resolved is not None:
            _designs.move_to_end(key)
            return resolved
    # Elaborate outside the lock.  A racing duplicate keeps the first
    # insert, so both callers share one circuit and its models.
    loaded = load_design(ref)
    with _designs_lock:
        resolved = _designs.setdefault(key, loaded)
        _designs.move_to_end(key)
        dropped = []
        while len(_designs) > DESIGN_CACHE_SIZE:
            dropped.append(_designs.popitem(last=False)[1])
    for stale in dropped:
        shared_model_cache().evict(stale.circuit)
    return resolved


def clear_design_cache() -> None:
    """Drop every cached design and its models (flushing KB facts)."""
    with _designs_lock:
        dropped = list(_designs.values())
        _designs.clear()
    for stale in dropped:
        shared_model_cache().evict(stale.circuit)


def designs_resident() -> int:
    """How many designs the process-wide cache holds."""
    with _designs_lock:
        return len(_designs)


def load_design(ref: CircuitRef) -> ResolvedDesign:
    """Elaborate a circuit ref without touching the design cache."""
    if ref.kind == "inline":
        if ref.circuit is None:
            raise RequestError("inline circuit ref carries no circuit")
        return ResolvedDesign(circuit=ref.circuit)
    if ref.kind == "case":
        from repro.circuits import build_case

        try:
            case = build_case(ref.case_id)
        except (KeyError, ValueError) as exc:
            raise RequestError("unknown benchmark case %r" % (ref.case_id,)) from exc
        return ResolvedDesign(
            circuit=case.circuit,
            environment=case.environment,
            initial_state=case.initial_state,
            default_properties=(PropertySpec.from_property(case.prop),),
            default_max_frames=case.max_frames,
        )
    from repro.hdl import compile_verilog

    if ref.kind == "source":
        text = ref.text or ""
    else:
        try:
            with open(ref.path or "") as stream:
                text = stream.read()
        except OSError as exc:
            raise RequestError("cannot read design %r: %s" % (ref.path, exc)) from exc
    circuit = compile_verilog(text, top=ref.top)
    circuit.validate()
    return ResolvedDesign(circuit=circuit)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertyVerdict:
    """One property's outcome inside a :class:`CheckReport`."""

    name: str
    kind: str  # "assertion" | "witness"
    status: str  # a CheckStatus value
    conclusive: bool
    winner: Optional[str] = None
    frames_explored: Optional[int] = None
    wall_seconds: float = 0.0
    trace: Optional[Dict[str, object]] = None
    stats: Dict[str, object] = field(default_factory=dict)
    engines: Tuple[Dict[str, object], ...] = ()
    seed: Optional[int] = None
    disagreement: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        """Whether this verdict makes the whole request fail (CLI contract):
        a violated assertion, or no conclusive answer at all."""
        return (
            (self.kind == "assertion" and self.status == CheckStatus.FAILS.value)
            or not self.conclusive
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "property": self.name,
            "kind": self.kind,
            "status": self.status,
            "conclusive": self.conclusive,
            "winner": self.winner,
            "wall_seconds": round(self.wall_seconds, 6),
            "stats": dict(self.stats),
        }
        if self.frames_explored is not None:
            payload["frames_explored"] = self.frames_explored
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.engines:
            payload["engines"] = [dict(engine) for engine in self.engines]
        if self.disagreement:
            payload["disagreement"] = list(self.disagreement)
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PropertyVerdict":
        return cls(
            name=str(payload.get("property", "")),
            kind=str(payload.get("kind", "assertion")),
            status=str(payload.get("status", CheckStatus.ABORTED.value)),
            conclusive=bool(payload.get("conclusive", False)),
            winner=_opt_str(payload.get("winner")),
            frames_explored=_opt_int(payload.get("frames_explored"), "frames_explored"),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            trace=dict(payload["trace"]) if payload.get("trace") is not None else None,
            stats=dict(_mapping(payload.get("stats"))),
            engines=tuple(dict(e) for e in payload.get("engines") or []),
            seed=_opt_int(payload.get("seed"), "seed"),
            disagreement=tuple(str(d) for d in payload.get("disagreement") or []),
        )


@dataclass(frozen=True)
class CheckReport:
    """The unified, serialisable outcome of one :class:`CheckRequest`.

    Produced identically by the in-process facade (:func:`check`) and the
    service daemon (whose ``result`` verb ships this very JSON), so a client
    can compare verdicts and counterexample traces bit-for-bit across the
    two paths.
    """

    results: Tuple[PropertyVerdict, ...]
    engines: Tuple[str, ...] = ("atpg",)
    wall_seconds: float = 0.0
    #: where the checking ran: ``in-process`` or ``daemon``.
    source: str = "in-process"
    #: service-side execution details (worker id, warm stats) when daemon-run.
    service: Optional[Dict[str, object]] = None

    @property
    def disagreements(self) -> Tuple[str, ...]:
        """Property names whose engines returned conflicting verdicts."""
        return tuple(r.name for r in self.results if r.disagreement)

    @property
    def exit_code(self) -> int:
        """The CLI exit-code contract: 1 on any failure or disagreement."""
        failing = any(r.failed for r in self.results)
        return 1 if failing or self.disagreements else 0

    def aggregate(self, key: str) -> int:
        """Sum an integer statistic over all results and engine details.

        The service layer uses this for warm-path accounting
        (``models_reused``, ``kb_hits``, ...) without caring which execution
        path produced the report.
        """
        total = 0
        for result in self.results:
            value = result.stats.get(key)
            if isinstance(value, (int, float)):
                total += int(value)
            for engine in result.engines:
                stats = engine.get("stats")
                if isinstance(stats, Mapping):
                    value = stats.get(key)
                    if isinstance(value, (int, float)):
                        total += int(value)
        return total

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema": REPORT_SCHEMA,
            "source": self.source,
            "engines": list(self.engines),
            "wall_seconds": round(self.wall_seconds, 6),
            "exit_code": self.exit_code,
            "disagreements": list(self.disagreements),
            "results": [result.to_dict() for result in self.results],
        }
        if self.service is not None:
            payload["service"] = dict(self.service)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CheckReport":
        if not _schema_compatible(payload.get("schema"), REPORT_SCHEMA):
            raise RequestError(
                "incompatible report schema %r (expected %s)"
                % (payload.get("schema"), REPORT_SCHEMA)
            )
        service = payload.get("service")
        return cls(
            results=tuple(
                PropertyVerdict.from_dict(item) for item in payload.get("results") or []
            ),
            engines=tuple(str(e) for e in payload.get("engines") or ()),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            source=str(payload.get("source", "in-process")),
            service=dict(service) if isinstance(service, Mapping) else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise RequestError("report is not valid JSON: %s" % (exc,)) from exc
        return cls.from_dict(payload)

    def summary(self) -> str:
        """A short human-readable rendering (used by ``repro submit``)."""
        lines = []
        for result in self.results:
            line = "property %s (%s): %s" % (result.name, result.kind, result.status)
            if result.winner:
                line += " [winner: %s]" % result.winner
            lines.append(line)
            if result.trace is not None:
                lines.append(
                    "  trace: %d frame(s), goal at frame %s"
                    % (len(result.trace.get("inputs", ())), result.trace.get("target_frame"))
                )
            if result.disagreement:
                lines.append("  ENGINES DISAGREE: %s" % ", ".join(result.disagreement))
        lines.append(
            "%d propert%s checked in %.3fs (%s)"
            % (
                len(self.results),
                "y" if len(self.results) == 1 else "ies",
                self.wall_seconds,
                self.source,
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class RequestOutcome:
    """The raw objects one executed request produced, plus the unified report.

    The CLI keeps printing its classic formats from ``results`` / ``batch``;
    everything else should use ``report``.
    """

    request: CheckRequest
    circuit: Circuit
    report: CheckReport
    #: single-engine path only: the checker's native results.
    results: Optional[List[CheckResult]] = None
    #: portfolio/batch path only: the batch runner's native report.
    batch: Optional[object] = None


def clamp_to_deadline(request: CheckRequest,
                      deadline_seconds: Optional[float]) -> CheckRequest:
    """Fold an end-to-end deadline into the request's engine time budget.

    The one clamp rule every execution path shares: the service worker
    applies it to forwarded jobs, and the client's in-process fallback
    applies it before running locally -- so ``--deadline`` bounds the
    solver itself no matter which path answers.  A request whose own
    ``time_budget`` is already tighter is returned unchanged.
    """
    if deadline_seconds is None:
        return request
    remaining = max(0.01, float(deadline_seconds))
    if request.time_budget is None or request.time_budget > remaining:
        return replace(request, time_budget=remaining)
    return request


def check(request: CheckRequest) -> CheckReport:
    """Check a request in-process and return the unified report.

    The stable public entry point: routes through the classic single-engine
    checker or the portfolio/batch machinery exactly as ``repro check``
    does, based on the request's own knobs.
    """
    return run_request(request).report


def check_batch(request: CheckRequest) -> CheckReport:
    """Check a request through the portfolio/batch machinery unconditionally.

    Use this when per-engine details, worker fan-out or compare mode are
    wanted even for a single default-engine request.
    """
    return run_request(request, force_batch=True).report


def run_request(
    request: CheckRequest,
    *,
    force_batch: bool = False,
) -> RequestOutcome:
    """Execute a request and return both raw and unified outcomes."""
    for name in request.engines:
        if name not in ENGINE_NAMES:
            raise RequestError(
                "unknown engine %r (available: %s)" % (name, ", ".join(ENGINE_NAMES))
            )
    resolved = resolve_design(request.circuit)
    if resolved.lock.acquire(blocking=False):
        try:
            return _run_resolved(request, resolved, force_batch)
        finally:
            resolved.lock.release()
    # Another thread is checking this design, and a circuit and its models
    # are not thread-safe: check a private cold copy instead.
    return _run_resolved(request, load_design(request.circuit), force_batch)


def _run_resolved(
    request: CheckRequest, resolved: ResolvedDesign, force_batch: bool
) -> RequestOutcome:
    environment = request.build_environment()
    if environment is None:
        environment = resolved.environment
    initial_state = request.initial_state_mapping()
    if initial_state is None and resolved.initial_state is not None:
        initial_state = dict(resolved.initial_state)
    specs = request.properties or resolved.default_properties
    if not specs:
        raise RequestError(
            "request has no properties and the circuit ref supplies no default"
        )
    _check_net_names(request, resolved.circuit)
    # The case's own bound when the request sets none.
    max_frames = request.max_frames
    if max_frames is None:
        max_frames = resolved.default_max_frames

    run = _run_batch if force_batch or request.uses_portfolio else _run_single
    return run(request, resolved.circuit, environment, initial_state, specs, max_frames)


def _check_net_names(request: CheckRequest, circuit: Circuit) -> None:
    """Reject a request that names a net the design does not have."""
    named = [("environment.pin", name) for name, _ in request.pinned]
    named += [("environment.one_hot", name) for group in request.one_hot for name in group]
    named += [
        ("environment.assume", name)
        for text in request.assumptions
        for name in parsed_expression(text).signals()
    ]
    named += [
        ("environment.init_vectors", name)
        for vector in request.init_vectors
        for name, _ in vector
    ]
    named += [("environment.initial_state", name) for name, _ in request.initial_state or ()]
    named += [
        ("property %s" % spec.name, name)
        for spec in request.properties
        for name in parsed_expression(spec.expr).signals()
    ]
    for field_name, name in named:
        if not circuit.has_net(name):
            raise RequestError(
                "%s: no net named %r in circuit %r" % (field_name, name, circuit.name)
            )
    registers = {ff.q.name for ff in circuit.flip_flops}
    for name, _ in request.initial_state or ():
        if name not in registers:
            raise RequestError(
                "environment.initial_state: %r is not a register output in circuit %r"
                % (name, circuit.name)
            )


def _run_single(
    request: CheckRequest,
    circuit: Circuit,
    environment: Optional[Environment],
    initial_state: Optional[Dict[str, int]],
    specs: Sequence[PropertySpec],
    max_frames: Optional[int],
) -> RequestOutcome:
    """The classic deterministic path: one checker, properties in order."""
    started = time.perf_counter()
    options = CheckerOptions.from_request(request)
    if max_frames is not None:
        options.max_frames = max_frames
    checker = AssertionChecker(
        circuit,
        environment=environment,
        initial_state=initial_state,
        options=options,
    )
    results = []
    for spec in specs:
        results.append(checker.check(spec.to_property(), max_frames=spec.max_frames))
    wall = time.perf_counter() - started
    verdicts = tuple(_verdict_from_result(result) for result in results)
    report = CheckReport(
        results=verdicts,
        engines=tuple(request.engines),
        wall_seconds=wall,
    )
    return RequestOutcome(
        request=request, circuit=circuit, report=report, results=results
    )


def _run_batch(
    request: CheckRequest,
    circuit: Circuit,
    environment: Optional[Environment],
    initial_state: Optional[Dict[str, int]],
    specs: Sequence[PropertySpec],
    max_frames: Optional[int],
) -> RequestOutcome:
    """The portfolio/batch path (mirrors the classic ``repro check`` flags)."""
    from repro.portfolio import BatchJob, BatchOptions, BatchRunner

    jobs = [
        BatchJob(
            spec.name,
            circuit,
            spec.to_property(),
            environment=environment,
            initial_state=initial_state,
            max_frames=spec.max_frames,
            seed=spec.seed,
        )
        for spec in specs
    ]
    options = BatchOptions.from_request(request)
    if max_frames is not None:
        options.budget = replace(options.budget, max_frames=max_frames)
    batch_report = BatchRunner(options).run(jobs)
    verdicts = tuple(_verdict_from_batch_item(item) for item in batch_report.items)
    report = CheckReport(
        results=verdicts,
        engines=tuple(batch_report.engines),
        wall_seconds=batch_report.wall_seconds,
    )
    return RequestOutcome(
        request=request, circuit=circuit, report=report, batch=batch_report
    )


def _verdict_from_result(result: CheckResult) -> PropertyVerdict:
    return PropertyVerdict(
        name=result.prop.name,
        kind="assertion" if result.prop.is_assertion else "witness",
        status=result.status.value,
        conclusive=result.status.is_conclusive,
        winner="atpg" if result.status.is_conclusive else None,
        frames_explored=result.frames_explored,
        wall_seconds=result.statistics.wall_seconds,
        trace=(
            counterexample_to_dict(result.counterexample)
            if result.counterexample is not None
            else None
        ),
        stats=statistics_to_dict(result.statistics),
    )


def _verdict_from_batch_item(item) -> PropertyVerdict:
    result = item.result
    return PropertyVerdict(
        name=result.prop_name,
        kind=result.kind,
        status=result.status.value,
        conclusive=result.conclusive,
        winner=result.winner,
        wall_seconds=result.wall_seconds,
        trace=(
            counterexample_to_dict(result.counterexample)
            if result.counterexample is not None
            else None
        ),
        stats={},
        engines=tuple(engine.to_dict() for engine in result.engine_results),
        seed=item.seed,
        disagreement=tuple(result.disagreement),
    )


__all__ = [
    "REQUEST_SCHEMA",
    "REPORT_SCHEMA",
    "ENGINE_NAMES",
    "CheckReport",
    "CheckRequest",
    "CheckStatus",
    "CircuitRef",
    "PropertySpec",
    "PropertyVerdict",
    "RequestError",
    "RequestOutcome",
    "ResolvedDesign",
    "build_request",
    "check",
    "check_batch",
    "clamp_to_deadline",
    "clear_design_cache",
    "designs_resident",
    "load_design",
    "resolve_design",
    "run_request",
]
