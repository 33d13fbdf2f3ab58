"""Ablation: local-FSM guidance of the ATPG search (paper Section 6 extension).

Local finite state machines are extracted up front, and each register's
locally unreachable states, merged into prime cubes, are asserted in every
time frame as constraint nodes.  A node conflicts once the register's value
lies inside its cube, and when one known bit of the cube is all that is
left open it implies that bit's complement.  So guidance both prunes
branches that enter an unreachable state and narrows register values
before the search decides them.  Every state it excludes is one the design
can never occupy, so guided and unguided searches reach the same verdicts;
the traces they find may differ.

The benchmark measures the effect on two representative checks:

* the alarm-clock "hour never shows 13" proof (p9, the hardest row of
  Table 2), whose hour/minute registers carry many unreachable BCD-style
  encodings, and
* a deep witness search on a protocol controller whose phase register has
  four dead encodings.

Reported columns: extraction overhead is included in the guided run's wall
time, so the comparison is end-to-end.
"""

import pytest
import reporting

from repro.checker import AssertionChecker, CheckerOptions
from repro.circuits import build_case
from repro.netlist import Circuit
from repro.properties import Signal, Witness

_ROWS = []


def _build_controller():
    """A small protocol controller with unreachable phase encodings."""
    circuit = Circuit("controller")
    start = circuit.input("start", 1)
    phase = circuit.state("phase", 3)  # only 0..3 used
    advance = circuit.input("advance", 1)

    next_from = circuit.mux(
        phase,
        circuit.mux(start, circuit.const(0, 3), circuit.const(1, 3)),
        circuit.const(2, 3),
        circuit.mux(advance, circuit.const(2, 3), circuit.const(3, 3)),
        circuit.const(0, 3),
    )
    circuit.dff_into(phase, next_from, init_value=0)
    circuit.output(circuit.eq(phase, 3), name="finishing")
    return circuit


def _run_case(case_id, guidance):
    case = build_case(case_id)
    options = CheckerOptions(
        max_frames=case.max_frames, use_local_fsm_guidance=guidance
    )
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=options,
    )
    result = checker.check(case.prop)
    return case, result


def _run_controller(guidance):
    circuit = _build_controller()
    options = CheckerOptions(max_frames=10, use_local_fsm_guidance=guidance)
    checker = AssertionChecker(circuit, options=options)
    result = checker.check(Witness("reach_finish", Signal("finishing") == 1))
    return result


@pytest.mark.parametrize("guidance", [False, True])
@pytest.mark.parametrize("case_id", ["p9", "p7"])
def test_fsm_guidance_on_paper_cases(benchmark, case_id, guidance):
    case, result = benchmark.pedantic(
        _run_case, args=(case_id, guidance), rounds=1, iterations=1
    )
    assert result.status is case.expected_status
    _ROWS.append(
        (
            case_id,
            "guided" if guidance else "baseline",
            result.status.value,
            result.statistics.decisions,
            result.statistics.backtracks,
            result.statistics.wall_seconds,
        )
    )


@pytest.mark.parametrize("guidance", [False, True])
def test_fsm_guidance_on_controller(benchmark, guidance):
    result = benchmark.pedantic(_run_controller, args=(guidance,), rounds=1, iterations=1)
    assert result.status.value == "witness_found"
    _ROWS.append(
        (
            "ctrl",
            "guided" if guidance else "baseline",
            result.status.value,
            result.statistics.decisions,
            result.statistics.backtracks,
            result.statistics.wall_seconds,
        )
    )


def test_fsm_guidance_report(benchmark):
    if len(_ROWS) < 6:
        pytest.skip("guidance rows did not all run")

    def _format():
        header = "%-6s %-10s %-16s %10s %12s %10s" % (
            "case", "config", "verdict", "decisions", "backtracks", "wall (s)",
        )
        lines = [header, "-" * len(header)]
        for row in sorted(_ROWS):
            lines.append("%-6s %-10s %-16s %10d %12d %10.3f" % row)
        return "\n".join(lines)

    table = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table("[Ablation] local FSM guidance (Section 6 extension)", table)
    print("\n[Ablation] local FSM guidance (Section 6 extension)\n" + table)
