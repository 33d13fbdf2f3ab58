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

This module holds ``check``, the command a one-shot process runs most, and
the parser.  The parser lists every command with its help but builds the
arguments of the invoked command alone; every other command lives in
:mod:`repro.commands`, which loads only when one of them runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro import api
from repro.checker import format_result, format_results_table, results_to_json
from repro.netlist.circuit import Circuit
from repro.properties.parse import PropertyParseError, parsed_expression


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


def request_from_args(args: argparse.Namespace) -> api.CheckRequest:
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
def dump_first_trace(path: str, circuit: Circuit, traces) -> None:
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
    request = request_from_args(args)
    try:
        outcome = api.run_request(request)
    except api.RequestError as exc:
        raise SystemExit(str(exc))
    if outcome.results is not None:
        return _render_single_check(args, outcome)
    from repro.commands import render_portfolio_check

    return render_portfolio_check(args, outcome)


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
        dump_first_trace(
            args.vcd,
            outcome.circuit,
            ((result.prop.name, result.counterexample) for result in results),
        )

    return outcome.report.exit_code


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def add_check_arguments(parser: argparse.ArgumentParser,
                         design_optional: bool = False) -> None:
    """The one flag set shared by ``repro check`` and ``repro submit``.

    Both commands feed :func:`request_from_args`, so the knob list exists
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


def _check_arguments(check: argparse.ArgumentParser) -> None:
    add_check_arguments(check)
    check.add_argument("--vcd", metavar="FILE", help="dump the first trace as VCD")
    check.set_defaults(func=_command_check)


#: every command, in ``repro --help`` order, with its one-line help.
COMMANDS = (
    ("stats", "print circuit statistics for a Verilog file"),
    ("analyze", "run structural analyses on a Verilog file"),
    ("check", "check properties on a Verilog file"),
    ("serve", "run the verification daemon (warm per-circuit workers)"),
    ("submit", "submit a check to the daemon (falls back to in-process "
               "checking when none is listening)"),
    ("fleet", "route jobs across several daemons (health-checked sharding, "
              "failover, KB anti-entropy)"),
    ("kb", "inspect / maintain a persistent knowledge-base store"),
    ("table1", "regenerate the paper's Table 1"),
    ("table2", "regenerate the paper's Table 2"),
)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The top-level argument parser for ``argv`` (exposed for testing).

    Every command is listed with its help, but only the one ``argv`` invokes
    gets its arguments.  The top level takes no option with a value, so its
    first word that is not an option names the command.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Word-level ATPG + modular arithmetic RTL assertion checking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    invoked = next((word for word in argv if not word.startswith("-")), None)
    for name, help_text in COMMANDS:
        command = subparsers.add_parser(name, help=help_text)
        if name != invoked:
            continue
        if name == "check":
            _check_arguments(command)
        else:
            from repro.commands import ARGUMENTS

            ARGUMENTS[name](command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    return args.func(args)
