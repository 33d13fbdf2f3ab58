"""Decision-ordering and ESTG ablations.

DESIGN.md calls out two search heuristics of Section 3.2 for ablation:

1. ordering decision candidates by legal-assignment bias (and trying the
   complement of the bias first when proving) versus plain fanout ordering,
2. learning illegal states in the extended state transition graph (ESTG),
   switched by ``CheckerOptions.learning``: conflict-lifted cubes on the
   cached model's store.

Both are measured on the alarm-clock p9 assertion (the hardest proof of
Table 2) and on an arbiter witness search, reporting decisions/backtracks.
"""

import pytest
import reporting

from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.result import CheckStatus
from repro.circuits import build_case

_ROWS = []


def _run(case_id, use_bias, learning=True):
    case = build_case(case_id)
    options = CheckerOptions(max_frames=case.max_frames, use_bias=use_bias, learning=learning)
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=options,
    )
    result = checker.check(case.prop)
    return case, result


@pytest.mark.parametrize("use_bias", [True, False])
@pytest.mark.parametrize("case_id", ["p9", "p6"])
def test_bias_ordering_ablation(benchmark, case_id, use_bias):
    case, result = benchmark.pedantic(
        _run, args=(case_id, use_bias), rounds=1, iterations=1
    )
    assert result.status is case.expected_status
    _ROWS.append(
        (
            case_id,
            "bias ordering" if use_bias else "fanout ordering",
            result.statistics.decisions,
            result.statistics.backtracks,
            result.statistics.wall_seconds,
        )
    )


@pytest.mark.parametrize("learning", [False, True])
def test_estg_ablation(benchmark, learning):
    """ESTG learning on the hardest proof.  Learning is prune-only and
    sound, so the verdict is the same either way."""
    case, result = benchmark.pedantic(
        _run, args=("p9", True, learning), rounds=1, iterations=1
    )
    assert result.status is CheckStatus.HOLDS
    _ROWS.append(
        (
            "p9",
            "learning=%s" % learning,
            result.statistics.decisions,
            result.statistics.backtracks,
            result.statistics.wall_seconds,
        )
    )


def test_ablation_report(benchmark):
    """Assemble the ablation table (benchmarked so it also runs under
    ``--benchmark-only`` and lands in the bench log)."""
    if not _ROWS:
        pytest.skip("no ablation rows ran")

    def _format():
        header = "%-5s %-18s %10s %12s %10s" % (
            "prop", "configuration", "decisions", "backtracks", "wall (s)",
        )
        lines = [header, "-" * len(header)]
        for row in _ROWS:
            lines.append("%-5s %-18s %10d %12d %10.3f" % row)
        return "\n".join(lines)

    table = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table("[Ablation] decision ordering and ESTG learning", table)
    print("\n[Ablation] decision ordering and ESTG learning\n" + table)
