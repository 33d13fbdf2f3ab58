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

What a one-shot check never runs -- the JSON codecs, :func:`build_request`,
:func:`clamp_to_deadline`, :func:`check_batch` and report summaries -- lives
in :mod:`repro.api_extras`, which loads on first use.  Its names stay
reachable here and on the classes (``api.build_request``,
``CheckRequest.from_dict``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.checker.engine import AssertionChecker, CheckerOptions
from repro.checker.incremental import shared_model_cache
from repro.checker.report import counterexample_to_dict, statistics_to_dict
from repro.checker.result import CheckResult, CheckStatus
from repro.netlist.circuit import Circuit
from repro.properties.environment import Environment
from repro.properties.parse import format_expression, parsed_expression
from repro.properties.spec import Assertion, Property, Witness
from repro.records import Record, factory

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


# ----------------------------------------------------------------------
# Circuit references
# ----------------------------------------------------------------------
class CircuitRef(Record, frozen=True):
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

    def __init__(self, kind: str, path: Optional[str] = None, top: Optional[str] = None,
                 text: Optional[str] = None, case_id: Optional[str] = None,
                 circuit: Optional[Circuit] = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "case_id", case_id)
        object.__setattr__(self, "circuit", circuit)

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
        return _extras().circuit_ref_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CircuitRef":
        """Rebuild a reference, ignoring unknown fields."""
        return _extras().circuit_ref_from_dict(cls, payload)

    def cache_key(self) -> Tuple:
        """A hashable identity for design-resolution caches.

        File-backed refs include the file's text, as source refs do
        theirs, so an edited design is re-elaborated instead of served
        stale -- even a same-size rewrite within one mtime tick.
        :func:`design_key` also hands back that text; a file that cannot be
        read raises :class:`RequestError`.
        """
        return design_key(self)[0]


# ----------------------------------------------------------------------
# Property specifications
# ----------------------------------------------------------------------
class PropertySpec(Record, frozen=True):
    """One property of a request, carried as a parseable expression string.

    ``max_frames`` / ``seed`` are optional per-property overrides of the
    request-level values (the batch-job shape).
    """

    kind: str  # "assert" | "witness"
    name: str
    expr: str
    max_frames: Optional[int] = None
    seed: Optional[int] = None

    def __init__(self, kind: str, name: str, expr: str, max_frames: Optional[int] = None,
                 seed: Optional[int] = None):
        if max_frames is not None and max_frames < 1:
            raise RequestError("properties.max_frames must be >= 1, got %r" % (max_frames,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "max_frames", max_frames)
        object.__setattr__(self, "seed", seed)

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
        return _extras().property_spec_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PropertySpec":
        return _extras().property_spec_from_dict(cls, payload)


def _expr_text(expr: Union[str, object]) -> str:
    if isinstance(expr, str):
        parsed_expression(expr)  # validate eagerly; raises PropertyParseError
        return expr
    return format_expression(expr)


# ----------------------------------------------------------------------
# The request
# ----------------------------------------------------------------------
class CheckRequest(Record, frozen=True):
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
    def __init__(
        self,
        circuit: CircuitRef,
        properties: Tuple[PropertySpec, ...] = (),
        pinned: Tuple[Tuple[str, int], ...] = (),
        one_hot: Tuple[Tuple[str, ...], ...] = (),
        assumptions: Tuple[str, ...] = (),
        initial_state: Optional[Tuple[Tuple[str, int], ...]] = None,
        init_vectors: Tuple[Tuple[Tuple[str, int], ...], ...] = (),
        engines: Tuple[str, ...] = ("atpg",), max_frames: Optional[int] = None,
        time_budget: Optional[float] = None, sim_width: Optional[int] = None,
        seed: Optional[int] = None, random_runs: Optional[int] = None,
        random_cycles: Optional[int] = None, bdd_iterations: Optional[int] = None,
        bdd_node_limit: Optional[int] = None,
        learning: bool = True, kb_path: Optional[str] = None, fsm_guidance: bool = False,
        jobs: int = 1, compare: bool = False,
    ):
        if not engines:
            raise RequestError("a request needs at least one engine")
        if len(set(engines)) != len(engines):
            raise RequestError("duplicate engines: %s" % (",".join(engines),))
        for name, value in (
            ("jobs", jobs), ("max_frames", max_frames), ("sim_width", sim_width),
            ("random_runs", random_runs), ("random_cycles", random_cycles),
            ("bdd_iterations", bdd_iterations), ("bdd_node_limit", bdd_node_limit),
        ):
            if value is not None and value < 1:
                raise RequestError("%s must be >= 1, got %d" % (name, value))
        if time_budget is not None and time_budget <= 0:
            raise RequestError("time_budget must be > 0, got %r" % (time_budget,))
        for group in one_hot:
            if len(group) < 2:
                raise RequestError(
                    "environment.one_hot group %r needs at least two signals"
                    % (list(group),)
                )
        object.__setattr__(self, "circuit", circuit)
        object.__setattr__(self, "properties", properties)
        object.__setattr__(self, "pinned", pinned)
        object.__setattr__(self, "one_hot", one_hot)
        object.__setattr__(self, "assumptions", assumptions)
        object.__setattr__(self, "initial_state", initial_state)
        object.__setattr__(self, "init_vectors", init_vectors)
        object.__setattr__(self, "engines", engines)
        object.__setattr__(self, "max_frames", max_frames)
        object.__setattr__(self, "time_budget", time_budget)
        object.__setattr__(self, "sim_width", sim_width)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "random_runs", random_runs)
        object.__setattr__(self, "random_cycles", random_cycles)
        object.__setattr__(self, "bdd_iterations", bdd_iterations)
        object.__setattr__(self, "bdd_node_limit", bdd_node_limit)
        object.__setattr__(self, "learning", learning)
        object.__setattr__(self, "kb_path", kb_path)
        object.__setattr__(self, "fsm_guidance", fsm_guidance)
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(self, "compare", compare)

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
        return _extras().request_to_dict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CheckRequest":
        """Rebuild a request; unknown fields anywhere are ignored.

        Tolerates same-major newer minors of :data:`REQUEST_SCHEMA` (their
        additions are skipped); rejects different majors.  Fields retired by
        a minor bump (see :data:`REQUEST_SCHEMA`) are skipped the same way.
        """
        return _extras().request_from_dict(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> "CheckRequest":
        return cls.from_dict(_extras().load_json(text, "request"))


# ----------------------------------------------------------------------
# Design resolution
# ----------------------------------------------------------------------
class ResolvedDesign:
    """A circuit ref resolved into live objects plus its bundled defaults.

    Resolved designs are shared by every request for the same ref, so
    treat them as read-only.
    """

    __slots__ = ("circuit", "environment", "initial_state", "default_properties",
                 "default_max_frames", "lock")

    def __init__(
        self,
        circuit: Circuit,
        environment: Optional[Environment] = None,
        initial_state: Optional[Dict[str, int]] = None,
        default_properties: Tuple[PropertySpec, ...] = (),
        default_max_frames: Optional[int] = None,
        lock: Optional[threading.Lock] = None,
    ):
        self.circuit = circuit
        self.environment = environment
        self.initial_state = initial_state
        self.default_properties = default_properties
        self.default_max_frames = default_max_frames
        #: held by the one request checking this design at a time.
        self.lock = threading.Lock() if lock is None else lock


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
    key, text = design_key(ref)
    with _designs_lock:
        resolved = _designs.get(key)
        if resolved is not None:
            _designs.move_to_end(key)
            return resolved
    # Elaborate outside the lock.  A racing duplicate keeps the first
    # insert, so both callers share one circuit and its models.
    loaded = load_design(ref, text)
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


def design_key(ref: CircuitRef) -> Tuple[Tuple, Optional[str]]:
    """``ref``'s design-cache key, and the Verilog text it holds.

    A verilog or source ref is keyed by its text itself: Python hashes and
    compares a ``str`` key, so no digest is taken (the service's route
    table, which keeps far more refs, digests the text).  A design file is
    read once, here: :func:`load_design` given this text elaborates exactly
    the design the key names, even if the file changes right after.  The
    text is ``None`` for case and inline refs.
    """
    if ref.kind == "inline":
        return ("inline", id(ref.circuit)), None
    if ref.kind == "case":
        return ("case", ref.case_id), None
    text = _design_text(ref)
    if ref.kind == "source":
        return ("source", text, ref.top), text
    return ("verilog", os.path.abspath(ref.path or ""), text, ref.top), text


def _design_text(ref: CircuitRef) -> str:
    """The Verilog text of a source or verilog ref."""
    if ref.kind == "source":
        return ref.text or ""
    try:
        with open(ref.path or "") as stream:
            return stream.read()
    except OSError as exc:
        raise RequestError("cannot read design %r: %s" % (ref.path, exc)) from exc


def load_design(ref: CircuitRef, text: Optional[str] = None) -> ResolvedDesign:
    """Elaborate a circuit ref without touching the design cache.

    ``text`` is the design's Verilog as :func:`design_key` read it; without
    it a verilog ref's file is read here.
    """
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

    circuit = compile_verilog(_design_text(ref) if text is None else text, top=ref.top)
    circuit.validate()
    return ResolvedDesign(circuit=circuit)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class PropertyVerdict(Record, frozen=True):
    """One property's outcome inside a :class:`CheckReport`."""

    name: str
    kind: str  # "assertion" | "witness"
    status: str  # a CheckStatus value
    conclusive: bool
    winner: Optional[str] = None
    frames_explored: Optional[int] = None
    wall_seconds: float = 0.0
    trace: Optional[Dict[str, object]] = None
    stats: Dict[str, object] = factory(dict)
    engines: Tuple[Dict[str, object], ...] = ()
    seed: Optional[int] = None
    disagreement: Tuple[str, ...] = ()

    def __init__(
        self, name: str, kind: str, status: str, conclusive: bool,
        winner: Optional[str] = None, frames_explored: Optional[int] = None,
        wall_seconds: float = 0.0, trace: Optional[Dict[str, object]] = None,
        stats: Optional[Dict[str, object]] = None,
        engines: Tuple[Dict[str, object], ...] = (), seed: Optional[int] = None,
        disagreement: Tuple[str, ...] = (),
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "conclusive", conclusive)
        object.__setattr__(self, "winner", winner)
        object.__setattr__(self, "frames_explored", frames_explored)
        object.__setattr__(self, "wall_seconds", wall_seconds)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "stats", {} if stats is None else stats)
        object.__setattr__(self, "engines", engines)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "disagreement", disagreement)

    @property
    def failed(self) -> bool:
        """Whether this verdict makes the whole request fail (CLI contract):
        a violated assertion, or no conclusive answer at all."""
        return self.status == CheckStatus.FAILS.value or not self.conclusive

    def to_dict(self) -> Dict[str, object]:
        return _extras().verdict_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PropertyVerdict":
        return _extras().verdict_from_dict(cls, payload)


class CheckReport(Record, frozen=True):
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

    def __init__(self, results: Tuple[PropertyVerdict, ...], engines: Tuple[str, ...] = ("atpg",),
                 wall_seconds: float = 0.0, source: str = "in-process",
                 service: Optional[Dict[str, object]] = None):
        object.__setattr__(self, "results", results)
        object.__setattr__(self, "engines", engines)
        object.__setattr__(self, "wall_seconds", wall_seconds)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "service", service)

    @property
    def disagreements(self) -> Tuple[str, ...]:
        """Property names whose engines returned conflicting verdicts."""
        return tuple(r.name for r in self.results if r.disagreement)

    @property
    def exit_code(self) -> int:
        """The CLI exit-code contract: 1 on any failure or disagreement."""
        failing = any(r.failed for r in self.results)
        return 1 if failing or self.disagreements else 0

    def aggregate(self, key: str) -> float:
        """Sum a numeric statistic over all results and engine details.

        Integer counters sum to an ``int``; a float statistic such as
        ``compile_time_ms`` keeps its fraction.

        The service layer uses this for warm-path accounting
        (``models_reused``, ``kb_hits``, ...) without caring which execution
        path produced the report.
        """
        return _extras().report_aggregate(self, key)

    def to_dict(self) -> Dict[str, object]:
        return _extras().report_to_dict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CheckReport":
        return _extras().report_from_dict(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> "CheckReport":
        return cls.from_dict(_extras().load_json(text, "report"))

    def summary(self) -> str:
        """A short human-readable rendering (used by ``repro submit``)."""
        return _extras().report_summary(self)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class RequestOutcome:
    """The raw objects one executed request produced, plus the unified report.

    The CLI keeps printing its classic formats from ``results`` / ``batch``;
    everything else should use ``report``.
    """

    __slots__ = ("request", "circuit", "report", "results", "batch")

    def __init__(
        self,
        request: CheckRequest,
        circuit: Circuit,
        report: CheckReport,
        results: Optional[List[CheckResult]] = None,
        batch: Optional[object] = None,
    ):
        self.request = request
        self.circuit = circuit
        self.report = report
        #: single-engine path only: the checker's native results.
        self.results = results
        #: portfolio/batch path only: the batch runner's native report.
        self.batch = batch


def check(request: CheckRequest) -> CheckReport:
    """Check a request in-process and return the unified report.

    The stable public entry point: routes through the classic single-engine
    checker or the portfolio/batch machinery exactly as ``repro check``
    does, based on the request's own knobs.
    """
    return run_request(request).report


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
    # are not thread-safe: check a private cold copy instead, and drop its
    # model afterwards, since nothing checks the copy again.
    copy = load_design(request.circuit)
    try:
        return _run_resolved(request, copy, force_batch)
    finally:
        shared_model_cache().evict(copy.circuit)


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

    run = _extras().run_batch if force_batch or request.uses_portfolio else _run_single
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


def _extras():
    """The half of the API a one-shot check never runs, loaded on first use."""
    from repro import api_extras

    return api_extras


#: the public names :mod:`repro.api_extras` serves.
_EXTRAS = ("build_request", "check_batch", "clamp_to_deadline", "schema_compatible")


def __getattr__(name: str):
    if name in _EXTRAS:
        return getattr(_extras(), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# The names marked F822 are served by __getattr__ above.
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
    "build_request",  # noqa: F822
    "check",
    "check_batch",  # noqa: F822
    "clamp_to_deadline",  # noqa: F822
    "clear_design_cache",
    "design_key",
    "designs_resident",
    "load_design",
    "resolve_design",
    "run_request",
    "schema_compatible",  # noqa: F822
]
