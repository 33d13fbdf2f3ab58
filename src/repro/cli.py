"""Command-line interface: ``python -m repro <command>``.

Four commands cover the flows described in the paper:

``stats``
    Quick-synthesise a Verilog file and print the Table-1 style statistics
    together with the control/datapath structure report.

``analyze``
    Run the structural analyses (counter / shift-register recognition and
    local FSM extraction) on a Verilog file.

``check``
    Check assertion / witness properties (given as expression strings) on a
    Verilog file, with optional environment constraints, JSON output, VCD
    trace dumping and a persistent knowledge base (``--kb``).

``kb``
    Inspect and maintain persistent knowledge-base stores:
    ``kb stats`` / ``kb prune`` / ``kb merge``.

``serve`` / ``submit``
    Run the verification daemon (warm per-circuit workers behind a unix
    socket) and submit check jobs to it; ``submit`` degrades gracefully to
    in-process checking when no daemon is listening, and shards across a
    fleet of daemons when one is configured (``--endpoint`` / a fleet
    file / ``$REPRO_SERVICE_ENDPOINTS``).

``fleet``
    Operate a fleet of daemons: ``fleet status`` (health-checked probes),
    ``fleet sync`` (knowledge-base anti-entropy) and ``fleet batch``
    (route bundled cases across the shards with failover).

``table1`` / ``table2``
    Regenerate the paper's evaluation tables from the bundled benchmark
    designs.

Every checking command parses its flags into one
:class:`repro.api.CheckRequest` -- the same serialisable request type the
library facade and the daemon protocol use, so there is exactly one knob
list end to end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro import api
from repro.checker import (
    AssertionChecker,
    CheckerOptions,
    format_result,
    format_results_table,
    results_to_json,
)
from repro.hdl import compile_verilog
from repro.netlist.circuit import Circuit
from repro.properties.parse import PropertyParseError, parsed_expression


def _load_circuit(path: str, top: Optional[str] = None) -> Circuit:
    """Read and elaborate a Verilog file."""
    with open(path) as stream:
        source = stream.read()
    circuit = compile_verilog(source, top=top)
    circuit.validate()
    return circuit


def _parse_named_property(text: str) -> Tuple[Optional[str], str]:
    """Split ``name=expression``; the name part is optional.

    Returns the (possibly ``None``) name and the expression *text*, which
    is validated by parsing but kept as a string -- properties travel
    through :class:`repro.api.CheckRequest` in textual form.
    """
    if "=" in text and not text.split("=", 1)[0].strip().isdigit():
        candidate_name, expression_text = text.split("=", 1)
        # Avoid eating a leading comparison such as "a==b" or "a<=b".
        if not (candidate_name.rstrip().endswith(("!", "<", ">"))
                or expression_text.startswith("=")):
            name = candidate_name.strip()
            parsed_expression(expression_text)
            return name, expression_text
    parsed_expression(text)
    return None, text


def _kb_path(args: argparse.Namespace) -> Optional[str]:
    """Resolve the knowledge-base path for a ``check`` invocation.

    Precedence: ``--no-kb`` wins over everything; otherwise ``--kb PATH``;
    otherwise the ``REPRO_KB`` environment variable; otherwise no store.
    """
    if getattr(args, "no_kb", False):
        return None
    explicit = getattr(args, "kb", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_KB") or None


def _property_specs(args: argparse.Namespace) -> List[api.PropertySpec]:
    """The ``--assert`` / ``--witness`` flags as request property specs."""
    specs: List[api.PropertySpec] = []
    for index, text in enumerate(args.assertion or []):
        try:
            name, expression_text = _parse_named_property(text)
        except PropertyParseError as exc:
            raise SystemExit(str(exc))
        specs.append(api.PropertySpec.assertion(name or "assert_%d" % index, expression_text))
    for index, text in enumerate(args.witness or []):
        try:
            name, expression_text = _parse_named_property(text)
        except PropertyParseError as exc:
            raise SystemExit(str(exc))
        specs.append(api.PropertySpec.witness(name or "witness_%d" % index, expression_text))
    if not specs:
        raise SystemExit("no properties given; use --assert and/or --witness")
    return specs


def _request_from_args(args: argparse.Namespace) -> api.CheckRequest:
    """Build the one :class:`repro.api.CheckRequest` a checking command runs.

    This is the single place CLI flags meet the unified request schema;
    ``repro check`` and ``repro submit`` both go through it.
    """
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if not engines:
        raise SystemExit("--engines expects a comma-separated list, got %r" % (args.engines,))

    pinned = []
    for pin in args.pin or []:
        if "=" not in pin:
            raise SystemExit("--pin expects signal=value, got %r" % (pin,))
        name, value = pin.split("=", 1)
        try:
            pinned.append((name.strip(), int(value, 0)))
        except ValueError:
            raise SystemExit(
                "--pin expects signal=value with an integer value, got %r" % (pin,)
            ) from None
    one_hot = tuple(
        tuple(name.strip() for name in group.split(","))
        for group in args.one_hot or []
    )
    for assumption in args.assume or []:
        try:
            parsed_expression(assumption)
        except PropertyParseError as exc:
            raise SystemExit(str(exc))

    try:
        return api.CheckRequest(
            circuit=api.CircuitRef.verilog(args.design, top=args.top),
            properties=tuple(_property_specs(args)),
            pinned=tuple(pinned),
            one_hot=one_hot,
            assumptions=tuple(args.assume or []),
            engines=tuple(engines),
            max_frames=args.max_frames,
            time_budget=args.time_budget,
            sim_width=args.sim_width,
            seed=args.seed,
            learning=not args.no_learning,
            kb_path=_kb_path(args),
            fsm_guidance=args.fsm_guidance,
            jobs=args.jobs,
            compare=args.compare,
        )
    except api.RequestError as exc:
        raise SystemExit(str(exc))


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_structure

    circuit = _load_circuit(args.design, top=args.top)
    stats = circuit.stats()
    print(
        "%-14s %8s %8s %6s %6s %6s"
        % ("ckt name", "#lines", "#gates", "#FFs", "#ins", "#outs")
    )
    print(
        "%-14s %8d %8d %6d %6d %6d"
        % (stats.name, stats.lines, stats.gates, stats.flip_flops, stats.inputs, stats.outputs)
    )
    print()
    print(analyze_structure(circuit).format())
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_structure, extract_local_fsms, recognize_modules

    circuit = _load_circuit(args.design, top=args.top)
    print(analyze_structure(circuit).format())
    print()
    print(recognize_modules(circuit).format())
    fsms = extract_local_fsms(circuit, max_width=args.max_fsm_width)
    if fsms:
        print()
        for fsm in fsms:
            print(fsm.format())
    return 0


def _dump_first_trace(path: str, circuit: Circuit, traces) -> None:
    """Write the first available counterexample as VCD.

    ``traces`` yields ``(label, counterexample-or-None)`` pairs; the first
    pair with a trace wins.  The notice goes to stderr so that ``--json``
    output on stdout stays parseable.
    """
    from repro.simulation.vcd import trace_to_vcd

    for label, counterexample in traces:
        if counterexample is not None:
            with open(path, "w") as stream:
                stream.write(trace_to_vcd(circuit, counterexample.trace))
            print("trace of %s written to %s" % (label, path), file=sys.stderr)
            return
    print("no trace produced; %s not written" % (path,), file=sys.stderr)


def _command_check(args: argparse.Namespace) -> int:
    # All flags funnel into one CheckRequest; api.run_request routes it to
    # the classic single-engine path or the portfolio/batch machinery with
    # the same semantics (and output schemas) as before.
    request = _request_from_args(args)
    try:
        outcome = api.run_request(request)
    except api.RequestError as exc:
        raise SystemExit(str(exc))
    if outcome.results is not None:
        return _render_single_check(args, outcome)
    return _render_portfolio_check(args, outcome)


def _render_single_check(args: argparse.Namespace, outcome: api.RequestOutcome) -> int:
    """Classic output of the deterministic single-engine path."""
    results = outcome.results

    if args.json:
        print(results_to_json(results))
    else:
        for result in results:
            print(format_result(result))
            print()
        print(format_results_table(results))

    if args.vcd:
        _dump_first_trace(
            args.vcd,
            outcome.circuit,
            ((result.prop.name, result.counterexample) for result in results),
        )

    return outcome.report.exit_code


def _render_portfolio_check(args: argparse.Namespace, outcome: api.RequestOutcome) -> int:
    """Classic output of the multi-engine / multi-job path."""
    report = outcome.batch
    circuit = outcome.circuit

    if args.json:
        print(report.to_json())
    else:
        for item in report.items:
            result = item.result
            print(
                "property %s (%s): %s%s"
                % (
                    result.prop_name,
                    result.kind,
                    result.status.value,
                    " [winner: %s]" % result.winner if result.winner else "",
                )
            )
            for engine_result in result.engine_results:
                flags = []
                if engine_result.cancelled:
                    flags.append("cancelled")
                if engine_result.timed_out:
                    flags.append("timed out")
                if engine_result.error:
                    flags.append("error: %s" % engine_result.error)
                print(
                    "  %-8s %-18s %8.3fs%s"
                    % (
                        engine_result.engine,
                        engine_result.status.value,
                        engine_result.wall_seconds,
                        "  (%s)" % ", ".join(flags) if flags else "",
                    )
                )
            if result.disagreement:
                print("  ENGINES DISAGREE: %s" % ", ".join(result.disagreement))
            counterexample = result.counterexample
            if counterexample is not None:
                label = (
                    "counterexample" if result.kind == "assertion" else "witness trace"
                )
                print("  %s:" % (label,))
                for line in counterexample.summary().splitlines():
                    print("    " + line)
            print()
        if report.disagreements:
            print("disagreements on: %s" % ", ".join(report.disagreements))

    if args.vcd:
        _dump_first_trace(
            args.vcd,
            circuit,
            ((item.job_id, item.result.counterexample) for item in report.items),
        )

    return outcome.report.exit_code


def _command_kb(args: argparse.Namespace) -> int:
    """The ``repro kb stats|prune|merge`` maintenance sub-commands."""
    from repro.kb import KnowledgeBase

    if args.kb_command == "stats":
        store = KnowledgeBase(args.store)
        try:
            stats = store.stats()
        finally:
            store.close()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print("knowledge base: %s" % stats["path"])
        if stats.get("disabled"):
            print("  DISABLED: %s" % stats.get("reason"))
            return 1
        print("  schema version: %d" % stats["schema_version"])
        print(
            "  %d model(s), %d cube(s), %d proven-FAIL memo(s), %d recorded hit(s)"
            % (stats["models"], stats["cubes"], stats["fail_memos"], stats["hits"])
        )
        for row in stats["per_model"]:
            print(
                "  model %s (%s): %d cube(s), %d memo(s), %d hit(s)"
                % (
                    row["model_key"],
                    row["circuit"],
                    row["cubes"],
                    row["fail_memos"],
                    row["hits"],
                )
            )
        return 0

    if args.kb_command == "prune":
        store = KnowledgeBase(args.store)
        try:
            if store.disabled:
                print("cannot prune %s: %s" % (args.store, store.disabled_reason))
                return 1
            removed = store.prune(min_hits=args.min_hits, keep=args.keep)
        finally:
            store.close()
        print("pruned %d cube(s) from %s" % (removed, args.store))
        return 0

    if args.kb_command == "merge":
        # All sources land in ONE write transaction (merge_many): either the
        # destination gains every readable source or none of them, and N
        # sources cost one commit instead of N.
        dest = KnowledgeBase(args.dest)
        sources = []
        try:
            if dest.disabled:
                print("cannot merge into %s: %s" % (args.dest, dest.disabled_reason))
                return 1
            for source_path in args.sources:
                source = KnowledgeBase(source_path)
                sources.append(source)
                if source.disabled:
                    print("skipping %s: %s" % (source_path, source.disabled_reason))
            merged = dest.merge_many(sources)
        finally:
            for source in sources:
                source.close()
            dest.close()
        print(
            "merged %d source(s) in one transaction: %d model(s), %d cube(s), "
            "%d memo(s)"
            % (
                merged["sources"],
                merged["models"],
                merged["cubes"],
                merged["fail_memos"],
            )
        )
        return 0

    raise SystemExit("unknown kb sub-command %r" % (args.kb_command,))


def _command_table1(args: argparse.Namespace) -> int:
    from repro.circuits import circuit_statistics

    print(
        "%-14s %8s %8s %6s %6s %6s"
        % ("ckt name", "#lines", "#gates", "#FFs", "#ins", "#outs")
    )
    for stats in circuit_statistics():
        print(
            "%-14s %8d %8d %6d %6d %6d"
            % (stats.name, stats.lines, stats.gates, stats.flip_flops, stats.inputs, stats.outputs)
        )
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    from repro.circuits import all_case_ids, build_case

    case_ids = args.cases.split(",") if args.cases else all_case_ids()
    results = []
    labels = []
    for case_id in case_ids:
        case_id = case_id.strip()
        case = build_case(case_id)
        checker = AssertionChecker(
            case.circuit,
            environment=case.environment,
            initial_state=case.initial_state,
            options=CheckerOptions(max_frames=case.max_frames),
        )
        result = checker.check(case.prop)
        results.append(result)
        labels.append("%s (%s)" % (case_id, case.design))
        status = "ok" if result.status is case.expected_status else "UNEXPECTED"
        print("%s: %s [%s]" % (case_id, result.status.value, status))
    print()
    print(format_results_table(results, labels=labels))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Run the verification daemon until a shutdown verb arrives."""
    import asyncio

    from repro.service import ServiceOptions, Supervisor, default_socket_path
    from repro.service.protocol import PROTOCOL

    if args.fault_plan:
        # Arm through the environment so the forked worker tree inherits the
        # plan; the state dir shares nth/limit counters across respawns.
        import tempfile

        from repro import faults

        try:
            plan = faults.FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
        except faults.FaultPlanError as exc:
            raise SystemExit("bad --fault-plan: %s" % (exc,))
        state_dir = tempfile.mkdtemp(prefix="repro-faults-")
        os.environ.update(faults.plan_environment(plan, state_dir))
        print("fault plan armed (seed %d): %s" % (plan.seed, plan.to_json()),
              flush=True)

    def _mb(value: Optional[float]) -> Optional[int]:
        return None if value is None else int(value * 1024 * 1024)

    options = ServiceOptions(
        socket_path=args.socket or default_socket_path(),
        max_workers=args.max_workers,
        job_timeout=args.job_timeout,
        requeue_limit=args.requeue_limit,
        heartbeat_interval=args.heartbeat_interval,
        hang_timeout=args.hang_timeout if args.hang_timeout > 0 else None,
        quarantine_limit=args.quarantine_limit,
        rss_soft_bytes=_mb(args.rss_soft_mb),
        rss_hard_bytes=_mb(args.rss_hard_mb),
    )

    async def _serve() -> None:
        supervisor = Supervisor(options)
        await supervisor.start()
        print("%s listening on %s" % (PROTOCOL, options.socket_path), flush=True)
        try:
            await supervisor.shutdown_event.wait()
        finally:
            await supervisor.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    print("daemon shut down cleanly", flush=True)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    """Submit one check to the daemon, or manage it (--stats / --shutdown)."""
    from repro.service import (
        JobFailure,
        RetryPolicy,
        ServiceClient,
        ServiceError,
        check_via_service,
    )

    if args.stats or args.shutdown or args.drain:
        try:
            with ServiceClient(args.socket) as client:
                if args.stats:
                    print(json.dumps(client.stats(), indent=2, sort_keys=True))
                if args.drain:
                    client.shutdown(mode="drain")
                    print("drain requested (in-flight jobs finish first)")
                elif args.shutdown:
                    client.shutdown()
                    print("shutdown requested")
        except ServiceError as exc:
            print("error: %s" % (exc,), file=sys.stderr)
            return 1
        return 0

    if not args.design:
        raise SystemExit(
            "a design is required unless --stats/--shutdown/--drain is given")
    request = _request_from_args(args)
    retry = None
    if args.retries is not None:
        retry = RetryPolicy(attempts=max(1, args.retries + 1))
    try:
        router = _fleet_router_from_args(args, retry=retry)
        if router is not None:
            report = router.check(
                request,
                deadline=args.deadline,
                timeout=args.timeout,
                fallback=not args.no_fallback,
            )
        else:
            report = check_via_service(
                request,
                socket_path=args.socket,
                fallback=not args.no_fallback,
                timeout=args.timeout,
                deadline=args.deadline,
                retry=retry,
                read_timeout=args.read_timeout,
            )
    except JobFailure as exc:
        # Typed daemon-side failure: surface the machine-readable cause so
        # scripts can branch on it (and never silently re-run locally).
        print("error: %s" % (exc,), file=sys.stderr)
        if exc.cause:
            print("cause: %s" % (exc.cause,), file=sys.stderr)
        return 1
    except (ServiceError, api.RequestError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1

    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        worker = (report.service or {}).get("worker")
        if isinstance(worker, dict):
            print(
                "daemon worker %s: jobs=%s warm_hits=%s kb_cubes_loaded=%s "
                "cache_entries=%s"
                % (
                    str(worker.get("worker_key", "?"))[:8],
                    worker.get("jobs_done"),
                    worker.get("warm_hits"),
                    worker.get("kb_cubes_loaded"),
                    worker.get("cache_residency"),
                )
            )
    return report.exit_code


def _fleet_router_from_args(args: argparse.Namespace, retry=None):
    """Build a :class:`~repro.service.fleet.FleetRouter` when a fleet is
    configured (``--endpoint`` / ``--fleet-file`` / the environment);
    ``None`` means single-daemon behaviour."""
    from repro.service import fleet as fleet_mod

    try:
        endpoints, options = fleet_mod.resolve_endpoints(
            getattr(args, "endpoint", None), getattr(args, "fleet_file", None)
        )
    except fleet_mod.FleetError as exc:
        raise SystemExit(str(exc))
    if not endpoints:
        return None
    try:
        return fleet_mod.FleetRouter(
            endpoints,
            trip_threshold=int(options.get(
                "trip_threshold", fleet_mod.DEFAULT_TRIP_THRESHOLD)),
            cooldown=float(options.get("cooldown", fleet_mod.DEFAULT_COOLDOWN)),
            retry=retry,
            read_timeout=getattr(args, "read_timeout", None),
            sync_on_failover=getattr(args, "sync_on_failover", False),
        )
    except fleet_mod.FleetError as exc:
        raise SystemExit(str(exc))


def _command_fleet(args: argparse.Namespace) -> int:
    """The ``repro fleet status|sync|batch`` sub-commands."""
    from repro.service import fleet as fleet_mod

    if args.fleet_command == "sync":
        stores = list(args.stores or [])
        if not stores:
            try:
                endpoints, _ = fleet_mod.resolve_endpoints(
                    args.endpoint, args.fleet_file)
            except fleet_mod.FleetError as exc:
                raise SystemExit(str(exc))
            stores = [e.kb for e in endpoints if e.kb]
        if len(stores) < 2:
            print("nothing to sync: need at least two stores "
                  "(positional paths, --endpoint ...;kb=..., or a fleet file)",
                  file=sys.stderr)
            return 1
        results = fleet_mod.sync_stores(stores)
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
            return 0
        for row in results:
            if row.get("disabled"):
                print("%s: DISABLED (%s)" % (row["path"], row.get("reason")))
                continue
            print(
                "%s <- %d source(s): %d model(s), %d cube(s), %d memo(s)"
                % (row["path"], row["sources"], row["models"], row["cubes"],
                   row["fail_memos"])
            )
        return 1 if any(row.get("disabled") for row in results) else 0

    router = _fleet_router_from_args(args)
    if router is None:
        raise SystemExit(
            "no fleet configured; pass --endpoint/--fleet-file or set "
            "$%s" % (fleet_mod.ENDPOINTS_ENV,))

    if args.fleet_command == "status":
        status = router.status(probe=True)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            for block in status["endpoints"]:
                probe = block.get("probe", {})
                if probe.get("alive"):
                    detail = "up"
                    if probe.get("legacy"):
                        detail += " (legacy, pre-ping protocol)"
                    elif probe.get("draining"):
                        detail = "draining"
                    else:
                        detail += " pid=%s uptime=%.1fs" % (
                            probe.get("pid", "?"),
                            float(probe.get("uptime_seconds", 0.0)))
                else:
                    detail = "DOWN (%s)" % probe.get("error", "unreachable")
                print("%-12s %s %s" % (block["name"], block["socket"], detail))
                if block.get("kb"):
                    print("%-12s kb: %s" % ("", block["kb"]))
            print("%d/%d endpoint(s) up" % (status["up"], status["total"]))
        return 0 if status["up"] > 0 else 1

    if args.fleet_command == "batch":
        case_ids = [cid.strip() for cid in args.case or [] if cid.strip()]
        if not case_ids:
            raise SystemExit("fleet batch needs at least one --case")
        requests = [
            api.CheckRequest(circuit=api.CircuitRef.case(case_id))
            for case_id in case_ids
        ]
        report = router.run_batch(
            requests,
            deadline=args.deadline,
            timeout=args.timeout,
            fallback=not args.no_fallback,
            max_workers=args.jobs,
        )
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            for item in report["items"]:
                where = item.get("endpoint") or item.get("source", "?")
                if item["state"] == "done":
                    verdicts = ",".join(
                        "%s=%s" % (v["property"], v["status"])
                        for v in item["verdicts"])
                    print("%-6s done on %-12s %s"
                          % (item["circuit"], where, verdicts))
                else:
                    print("%-6s FAILED (%s): %s"
                          % (item["circuit"], item.get("cause"),
                             item.get("error")))
            print(
                "%d done, %d failed, %d lost of %d "
                "(failovers=%d fell_back=%d)"
                % (report["done"], report["failed"], report["lost"],
                   report["total"], report["counters"]["failovers"],
                   report["counters"]["fell_back"])
            )
        failing = report["failed"] or report["lost"] or any(
            item.get("exit_code") for item in report["items"])
        return 1 if failing else 0

    raise SystemExit("unknown fleet sub-command %r" % (args.fleet_command,))


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_check_arguments(parser: argparse.ArgumentParser,
                         design_optional: bool = False) -> None:
    """The one flag set shared by ``repro check`` and ``repro submit``.

    Both commands feed :func:`_request_from_args`, so the knob list exists
    exactly once (it mirrors :class:`repro.api.CheckRequest`).
    """
    if design_optional:
        parser.add_argument("design", nargs="?", help="Verilog source file")
    else:
        parser.add_argument("design", help="Verilog source file")
    parser.add_argument("--top", help="top module name")
    parser.add_argument(
        "--assert",
        dest="assertion",
        action="append",
        metavar="NAME=EXPR",
        help="assertion property (may be repeated)",
    )
    parser.add_argument(
        "--witness",
        action="append",
        metavar="NAME=EXPR",
        help="witness property (may be repeated)",
    )
    parser.add_argument("--max-frames", type=int, default=8, help="unrolling bound")
    parser.add_argument(
        "--one-hot",
        action="append",
        metavar="SIG1,SIG2,...",
        help="one-hot input group (may be repeated)",
    )
    parser.add_argument(
        "--pin", action="append", metavar="SIG=VALUE", help="pin an input to a constant"
    )
    parser.add_argument(
        "--assume", action="append", metavar="EXPR", help="environment assumption expression"
    )
    parser.add_argument(
        "--fsm-guidance",
        action="store_true",
        help="prune search states that local FSM analysis proves unreachable",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument(
        "--engines",
        default="atpg",
        metavar="NAME[,NAME...]",
        help="engine portfolio raced per property: atpg, bdd, sat, random "
        "(default: atpg only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes checking properties in parallel (default: 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="base RNG seed for reproducible portfolio/batch runs (no effect "
        "on the deterministic default engine alone)",
    )
    parser.add_argument(
        "--sim-width",
        type=int,
        metavar="K",
        help="bit-parallel lanes for the random-simulation engine: K vectors "
        "are evaluated per gate visit on the compiled kernel (default: 64; "
        "no effect on the deterministic default engine alone)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per engine (enforced by cancellation)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run every engine to completion and report disagreements "
        "instead of racing",
    )
    parser.add_argument(
        "--no-learning",
        action="store_true",
        help="disable cross-bound search learning (persistent illegal-state "
        "cubes and proven-FAIL target memoisation on the cached unrolled "
        "models); verdicts are unchanged, only speed (debug/ablation)",
    )
    parser.add_argument(
        "--kb",
        metavar="PATH",
        help="persistent knowledge-base store (sqlite): load previously "
        "learned cubes / proven-FAIL memos before checking and flush new "
        "facts afterwards; verdicts are unchanged, only speed "
        "(default: the REPRO_KB environment variable, if set)",
    )
    parser.add_argument(
        "--no-kb",
        action="store_true",
        help="ignore --kb and REPRO_KB; run with in-process learning only",
    )


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    """Fleet-configuration flags shared by ``submit`` and ``fleet ...``.

    Precedence (see :func:`repro.service.fleet.resolve_endpoints`):
    ``--endpoint`` flags, then ``--fleet-file``, then the
    ``REPRO_SERVICE_ENDPOINTS`` / ``REPRO_FLEET_FILE`` environment.
    """
    parser.add_argument(
        "--endpoint",
        action="append",
        metavar="[NAME=]SOCKET[;kb=STORE]",
        help="fleet endpoint (repeat for each daemon); jobs are sharded "
        "across endpoints by circuit fingerprint with health-checked "
        "failover",
    )
    parser.add_argument(
        "--fleet-file",
        metavar="FILE",
        help="TOML fleet file ([[endpoints]] tables plus an optional "
        "[fleet] options table)",
    )
    parser.add_argument(
        "--sync-on-failover",
        action="store_true",
        help="after a failover, merge the failed endpoint's KB store into "
        "the takeover endpoint's (anti-entropy nudge)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Word-level ATPG + modular arithmetic RTL assertion checking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="print circuit statistics for a Verilog file")
    stats.add_argument("design", help="Verilog source file")
    stats.add_argument("--top", help="top module name (default: last module)")
    stats.set_defaults(func=_command_stats)

    analyze = subparsers.add_parser("analyze", help="run structural analyses on a Verilog file")
    analyze.add_argument("design", help="Verilog source file")
    analyze.add_argument("--top", help="top module name")
    analyze.add_argument(
        "--max-fsm-width", type=int, default=4, help="register width limit for FSM extraction"
    )
    analyze.set_defaults(func=_command_analyze)

    check = subparsers.add_parser("check", help="check properties on a Verilog file")
    _add_check_arguments(check)
    check.add_argument("--vcd", metavar="FILE", help="dump the first trace as VCD")
    check.set_defaults(func=_command_check)

    serve = subparsers.add_parser(
        "serve", help="run the verification daemon (warm per-circuit workers)"
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="unix socket to listen on (default: $REPRO_SERVICE_SOCKET or a "
        "per-user path under the temp directory)",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=4,
        metavar="N",
        help="resident per-circuit workers before idle LRU eviction (default: 4)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock cap per job; exceeding it aborts the job and "
        "restarts its worker (default: none)",
    )
    serve.add_argument(
        "--requeue-limit",
        type=int,
        default=1,
        metavar="N",
        help="retries for a job orphaned by a worker crash (default: 1)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="how often running workers heartbeat to the supervisor "
        "(default: 1.0)",
    )
    serve.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="a running worker silent this long is killed as hung; 0 "
        "disables the watchdog (default: 30)",
    )
    serve.add_argument(
        "--quarantine-limit",
        type=int,
        default=3,
        metavar="N",
        help="a request that kills this many workers is quarantined "
        "instead of retried forever (default: 3)",
    )
    serve.add_argument(
        "--rss-soft-mb",
        type=float,
        metavar="MB",
        help="worker RSS soft watermark: above it the worker evicts its "
        "model caches and flushes its KB stores (default: none)",
    )
    serve.add_argument(
        "--rss-hard-mb",
        type=float,
        metavar="MB",
        help="worker RSS hard watermark: above it the worker is retired "
        "after the current job and respawned cold (default: none)",
    )
    serve.add_argument(
        "--fault-plan",
        metavar="PLAN",
        help="arm deterministic fault injection for the daemon and its "
        "workers (chaos testing; see docs/resilience.md for the syntax)",
    )
    serve.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the fault schedule (default: 0)",
    )
    serve.set_defaults(func=_command_serve)

    submit = subparsers.add_parser(
        "submit",
        help="submit a check to the daemon (falls back to in-process "
        "checking when none is listening)",
    )
    _add_check_arguments(submit, design_optional=True)
    submit.add_argument(
        "--socket", metavar="PATH", help="daemon unix socket (default: as for serve)"
    )
    submit.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail instead of checking in-process when no daemon answers",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="give up waiting for the job result after this long",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="end-to-end deadline for the job: propagated to the daemon "
        "and folded into the worker's engine time budget",
    )
    submit.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="connection-level retries with jittered exponential backoff "
        "(default: 2; daemon answers are never retried)",
    )
    submit.add_argument(
        "--read-timeout",
        type=float,
        metavar="SECONDS",
        help="per-protocol-read deadline on the daemon socket (default: 60)",
    )
    _add_fleet_arguments(submit)
    submit.add_argument(
        "--stats",
        action="store_true",
        help="print the daemon's live stats (JSON) and exit",
    )
    submit.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the daemon to flush its workers' KB state and exit",
    )
    submit.add_argument(
        "--drain",
        action="store_true",
        help="graceful shutdown: finish in-flight jobs, refuse new submits, "
        "flush every worker's KB state, then exit",
    )
    submit.set_defaults(func=_command_submit)

    fleet = subparsers.add_parser(
        "fleet",
        help="route jobs across several daemons (health-checked sharding, "
        "failover, KB anti-entropy)",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="probe every endpoint and print its health"
    )
    _add_fleet_arguments(fleet_status)
    fleet_status.add_argument("--json", action="store_true", help="emit JSON")
    fleet_status.set_defaults(func=_command_fleet)
    fleet_sync = fleet_sub.add_parser(
        "sync",
        help="anti-entropy: pairwise-merge shard KB stores until all hold "
        "the union of learned facts",
    )
    fleet_sync.add_argument(
        "stores",
        nargs="*",
        metavar="STORE",
        help="knowledge-base files to sync (default: the kb= paths of the "
        "configured endpoints)",
    )
    _add_fleet_arguments(fleet_sync)
    fleet_sync.add_argument("--json", action="store_true", help="emit JSON")
    fleet_sync.set_defaults(func=_command_fleet)
    fleet_batch = fleet_sub.add_parser(
        "batch", help="route a batch of bundled cases across the fleet"
    )
    _add_fleet_arguments(fleet_batch)
    fleet_batch.add_argument(
        "--case",
        action="append",
        metavar="ID",
        help="bundled benchmark case to check (may be repeated)",
    )
    fleet_batch.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="end-to-end deadline per job (engine budget included)",
    )
    fleet_batch.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="give up waiting for any single job after this long",
    )
    fleet_batch.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="jobs routed concurrently (default: min(8, batch size))",
    )
    fleet_batch.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail a job instead of checking in-process when every "
        "endpoint is down",
    )
    fleet_batch.add_argument("--json", action="store_true", help="emit JSON")
    fleet_batch.set_defaults(func=_command_fleet)

    kb = subparsers.add_parser(
        "kb", help="inspect / maintain a persistent knowledge-base store"
    )
    kb_sub = kb.add_subparsers(dest="kb_command", required=True)
    kb_stats = kb_sub.add_parser("stats", help="print store totals per model")
    kb_stats.add_argument("store", help="knowledge-base file (sqlite)")
    kb_stats.add_argument("--json", action="store_true", help="emit JSON")
    kb_stats.set_defaults(func=_command_kb)
    kb_prune = kb_sub.add_parser("prune", help="drop cold cubes from a store")
    kb_prune.add_argument("store", help="knowledge-base file (sqlite)")
    kb_prune.add_argument(
        "--min-hits",
        type=int,
        default=0,
        metavar="N",
        help="drop cubes with fewer than N recorded hits",
    )
    kb_prune.add_argument(
        "--keep",
        type=int,
        metavar="N",
        help="keep only the hottest N cubes per model",
    )
    kb_prune.set_defaults(func=_command_kb)
    kb_merge = kb_sub.add_parser(
        "merge", help="merge source stores into a destination store"
    )
    kb_merge.add_argument("dest", help="destination knowledge-base file")
    kb_merge.add_argument(
        "sources", nargs="+", metavar="SOURCE", help="source knowledge-base files"
    )
    kb_merge.set_defaults(func=_command_kb)

    table1 = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    table1.set_defaults(func=_command_table1)

    table2 = subparsers.add_parser("table2", help="regenerate the paper's Table 2")
    table2.add_argument("--cases", help="comma-separated property ids (default: all)")
    table2.set_defaults(func=_command_table2)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
