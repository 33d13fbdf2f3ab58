"""Table 2 reproduction: CPU time and memory for properties p1-p14.

For every property of the paper's Table 2 the combined word-level ATPG +
modular arithmetic checker is run once; the table printed at the end reports
wall-clock seconds and peak heap megabytes (the paper reports seconds and
megabytes on an UltraSparc-5 -- absolute values differ, the relative shape
across properties is the reproduction target).  Each check runs under
``reporting.heap_tracing`` so its meter sees the heap.  Run with ``-s`` to
see it.
"""

import pytest
import reporting

from repro.checker import AssertionChecker, CheckerOptions
from repro.circuits import all_case_ids, build_case

_RESULTS = {}

#: CPU seconds reported in the paper's Table 2, for side-by-side printing.
PAPER_CPU_SECONDS = {
    "p1": 0.08, "p2": 0.09, "p3": 1.88, "p4": 1.45, "p5": 0.14, "p6": 0.59,
    "p7": 0.36, "p8": 1.31, "p9": 137.05, "p10": 14.79, "p11": 20.37,
    "p12": 1.25, "p13": 0.40, "p14": 0.03,
}

#: Memory megabytes reported in the paper's Table 2.
PAPER_MEMORY_MB = {
    "p1": 0.01, "p2": 0.01, "p3": 1.57, "p4": 1.53, "p5": 0.12, "p6": 0.20,
    "p7": 0.88, "p8": 2.74, "p9": 9.76, "p10": 54.66, "p11": 17.89,
    "p12": 2.85, "p13": 1.59, "p14": 0.02,
}


def _run_case(case_id):
    case = build_case(case_id)
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=case.max_frames),
    )
    with reporting.heap_tracing():
        return case, checker.check(case.prop)


@pytest.mark.parametrize("case_id", all_case_ids())
def test_table2_property(benchmark, case_id):
    """Check one property and record its cost row."""
    case, result = benchmark.pedantic(_run_case, args=(case_id,), rounds=1, iterations=1)
    assert result.status is case.expected_status
    assert result.statistics.peak_memory_mb > 0, "Table 2 lost its megabytes"
    _RESULTS[case_id] = (case, result)


def _format_table2() -> str:
    header = "%-12s %-5s %-18s %10s %10s %12s %12s" % (
        "ckt_name", "prop", "verdict", "wall (s)", "mem (MB)", "paper cpu", "paper mem",
    )
    lines = [header, "-" * len(header)]
    for case_id in all_case_ids():
        case, result = _RESULTS[case_id]
        lines.append(
            "%-12s %-5s %-18s %10.3f %10.2f %12.2f %12.2f"
            % (
                case.design,
                case_id,
                result.status.value,
                result.statistics.wall_seconds,
                result.statistics.peak_memory_mb,
                PAPER_CPU_SECONDS[case_id],
                PAPER_MEMORY_MB[case_id],
            )
        )
    return "\n".join(lines)


def test_table2_report(benchmark):
    """Print the assembled Table 2 after all property rows have run.

    Uses the benchmark fixture (measuring only the formatting) so the table
    is also emitted under ``--benchmark-only``.
    """
    if len(_RESULTS) < len(all_case_ids()):
        pytest.skip("property rows did not all run (e.g. -k filtering)")
    table = benchmark.pedantic(_format_table2, rounds=1, iterations=1)
    reporting.register_table(
        "[Table 2] per-property cost (this reproduction vs. paper)", table
    )
    print("\n[Table 2] per-property cost (this reproduction vs. paper)\n" + table)
