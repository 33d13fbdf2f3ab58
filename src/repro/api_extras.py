"""The half of :mod:`repro.api` that a one-shot check never runs.

The JSON codecs of requests, circuit refs, property specs and reports with
their field readers; :func:`schema_compatible`, :func:`build_request`,
:func:`clamp_to_deadline` and :func:`check_batch` with the batch path
behind it; and the report's ``summary`` and ``aggregate``.

This module loads on first use.  Every name stays reachable where it always
was: ``repro.api.build_request``, ``from repro import check_batch``,
``CheckRequest.from_dict``, ``CheckReport.summary`` and so on are served
from here.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api import (
    REPORT_SCHEMA,
    REQUEST_SCHEMA,
    CheckReport,
    CheckRequest,
    CircuitRef,
    PropertySpec,
    PropertyVerdict,
    RequestError,
    RequestOutcome,
    run_request,
)
from repro.checker.report import counterexample_to_dict
from repro.checker.result import CheckStatus
from repro.netlist.circuit import Circuit
from repro.properties.environment import Environment
from repro.properties.parse import format_expression
from repro.properties.spec import Property


def schema_compatible(schema: object, expected: str) -> bool:
    """Same-major schema check: ``<name>/v1`` accepts ``<name>/v1.3``.

    Messages written by a *newer minor* revision are readable by design
    (unknown fields are ignored); a different major means the layout
    changed incompatibly and must be rejected.  Service messages follow it too.
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
# Field readers
# ----------------------------------------------------------------------
def _opt_str(value: object) -> Optional[str]:
    return None if value is None else str(value)


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


def load_json(text: str, what: str) -> object:
    """Parse one JSON document; a syntax error is a :class:`RequestError`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise RequestError("%s is not valid JSON: %s" % (what, exc)) from exc


# ----------------------------------------------------------------------
# Circuit references and property specs
# ----------------------------------------------------------------------
def circuit_ref_to_dict(ref: CircuitRef) -> Dict[str, object]:
    if ref.kind == "verilog":
        payload: Dict[str, object] = {"kind": "verilog", "path": ref.path}
    elif ref.kind == "source":
        payload = {"kind": "source", "text": ref.text}
    elif ref.kind == "case":
        return {"kind": "case", "case_id": ref.case_id}
    else:
        raise RequestError(
            "an inline circuit cannot be serialised; use a verilog, "
            "source or case reference for requests that travel"
        )
    if ref.top is not None:
        payload["top"] = ref.top
    return payload


def circuit_ref_from_dict(cls, payload: Mapping[str, object]) -> CircuitRef:
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


def property_spec_to_dict(spec: PropertySpec) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "kind": spec.kind, "name": spec.name, "expr": spec.expr,
    }
    if spec.max_frames is not None:
        payload["max_frames"] = spec.max_frames
    if spec.seed is not None:
        payload["seed"] = spec.seed
    return payload


def property_spec_from_dict(cls, payload: Mapping[str, object]) -> PropertySpec:
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


# ----------------------------------------------------------------------
# The request
# ----------------------------------------------------------------------
def request_to_dict(request: CheckRequest) -> Dict[str, object]:
    return {
        "schema": REQUEST_SCHEMA,
        "circuit": request.circuit.to_dict(),
        "properties": [spec.to_dict() for spec in request.properties],
        "environment": {
            "pin": {name: value for name, value in request.pinned},
            "one_hot": [list(group) for group in request.one_hot],
            "assume": list(request.assumptions),
            "initial_state": (
                None if request.initial_state is None else dict(request.initial_state)
            ),
            "init_vectors": [dict(v) for v in request.init_vectors],
        },
        "engines": list(request.engines),
        "bounds": {"max_frames": request.max_frames},
        "budget": {
            "time_seconds": request.time_budget,
            "sim_width": request.sim_width,
            "seed": request.seed,
            "random_runs": request.random_runs,
            "random_cycles": request.random_cycles,
            "bdd_iterations": request.bdd_iterations,
            "bdd_node_limit": request.bdd_node_limit,
        },
        "search": {
            "learning": request.learning,
            "kb_path": request.kb_path,
            "fsm_guidance": request.fsm_guidance,
        },
        "batch": {"jobs": request.jobs, "compare": request.compare},
    }


def request_from_dict(cls, payload: Mapping[str, object]) -> CheckRequest:
    if not isinstance(payload, Mapping):
        raise RequestError("request payload must be a JSON object")
    if not schema_compatible(payload.get("schema"), REQUEST_SCHEMA):
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


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def verdict_to_dict(verdict: PropertyVerdict) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "property": verdict.name,
        "kind": verdict.kind,
        "status": verdict.status,
        "conclusive": verdict.conclusive,
        "winner": verdict.winner,
        "wall_seconds": round(verdict.wall_seconds, 6),
        "stats": dict(verdict.stats),
    }
    if verdict.frames_explored is not None:
        payload["frames_explored"] = verdict.frames_explored
    if verdict.seed is not None:
        payload["seed"] = verdict.seed
    if verdict.engines:
        payload["engines"] = [dict(engine) for engine in verdict.engines]
    if verdict.disagreement:
        payload["disagreement"] = list(verdict.disagreement)
    if verdict.trace is not None:
        payload["trace"] = dict(verdict.trace)
    return payload


def verdict_from_dict(cls, payload: Mapping[str, object]) -> PropertyVerdict:
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


def report_to_dict(report: CheckReport) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "source": report.source,
        "engines": list(report.engines),
        "wall_seconds": round(report.wall_seconds, 6),
        "exit_code": report.exit_code,
        "disagreements": list(report.disagreements),
        "results": [result.to_dict() for result in report.results],
    }
    if report.service is not None:
        payload["service"] = dict(report.service)
    return payload


def report_from_dict(cls, payload: Mapping[str, object]) -> CheckReport:
    if not schema_compatible(payload.get("schema"), REPORT_SCHEMA):
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


def report_aggregate(report: CheckReport, key: str) -> int:
    total = 0
    for result in report.results:
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


def report_summary(report: CheckReport) -> str:
    lines = []
    for result in report.results:
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
            len(report.results),
            "y" if len(report.results) == 1 else "ies",
            report.wall_seconds,
            report.source,
        )
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The batch path
# ----------------------------------------------------------------------
def check_batch(request: CheckRequest) -> CheckReport:
    """Check a request through the portfolio/batch machinery unconditionally.

    Use this when per-engine details, worker fan-out or compare mode are
    wanted even for a single default-engine request.
    """
    return run_request(request, force_batch=True).report


def run_batch(
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
