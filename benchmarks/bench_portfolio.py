"""Portfolio racing vs. best single engine on the circuit zoo.

The portfolio's pitch is that complementary engines have complementary
blow-up cases: BDD reachability is instant on small controllers (p3, p5) but
explodes on the wide addr_decoder datapath (p1), where the word-level ATPG
engine answers in milliseconds.  Racing them with
first-conclusive-result-wins cancellation should therefore track the best
single engine on *every* case without knowing which engine that is.

This benchmark runs each engine solo (under a wall-clock budget, so the
diverging BDD run on p1 is cut off rather than waited out) and then the full
race, and reports the portfolio's wall time against the best and worst solo
engine per case.  The table is registered with the shared reporting harness;
when ``REPRO_PORTFOLIO_REPORT`` is set the raw measurements are also written
there as JSON (the CI benchmark-smoke job uploads that file as an artifact).

Run:  python -m pytest benchmarks/bench_portfolio.py -q
"""

import json
import os

import reporting

from repro.circuits import build_case
from repro.portfolio import EngineBudget, PortfolioChecker, PortfolioOptions

#: Cases chosen so no single engine is best everywhere: the BDD engine
#: explodes on p1 but beats ATPG on the p3/p5 controllers.
CASES = ("p1", "p3", "p5")
ENGINES = ("atpg", "bdd", "random")
#: Wall-clock cap per engine; solo runs that hit it count as timeouts.
TIME_BUDGET_SECONDS = 3.0


def _budget(case) -> EngineBudget:
    return EngineBudget(
        time_seconds=TIME_BUDGET_SECONDS, max_frames=case.max_frames, seed=2000
    )


def _run(case_id, engines, run_all=False):
    """One portfolio run (fresh circuit); the time budget selects process mode."""
    case = build_case(case_id)
    checker = PortfolioChecker(
        case.circuit,
        engines=engines,
        environment=case.environment,
        initial_state=case.initial_state,
        options=PortfolioOptions(budget=_budget(case), run_all=run_all),
    )
    return case, checker.check(case.prop)


def _measure_all():
    """Solo runs for every (case, engine) pair plus the full race per case."""
    rows = []
    for case_id in CASES:
        solo = {}
        for engine in ENGINES:
            _, result = _run(case_id, (engine,))
            engine_result = result.engine_results[0]
            solo[engine] = {
                "wall_seconds": engine_result.wall_seconds,
                "status": engine_result.status.value,
                "conclusive": engine_result.verdict is not None,
                "timed_out": engine_result.timed_out,
            }
        case, race = _run(case_id, ENGINES)
        expected = case.expected_status.value
        rows.append(
            {
                "case": case_id,
                "design": case.design,
                "expected": expected,
                "solo": solo,
                "portfolio": {
                    "wall_seconds": race.wall_seconds,
                    "status": race.status.value,
                    "winner": race.winner,
                    "agrees_with_expected": race.status.value == expected,
                },
            }
        )
    return rows


def _format_table(rows):
    header = "%-6s %-12s" % ("case", "winner")
    for engine in ENGINES:
        header += " %12s" % ("%s (s)" % engine)
    header += " %12s %10s" % ("race (s)", "verdict")
    lines = [header, "-" * len(header)]
    for row in rows:
        line = "%-6s %-12s" % (row["case"], row["portfolio"]["winner"] or "-")
        for engine in ENGINES:
            entry = row["solo"][engine]
            if entry["timed_out"]:
                cell = "timeout"
            elif not entry["conclusive"]:
                cell = "(%.3f)" % entry["wall_seconds"]
            else:
                cell = "%.3f" % entry["wall_seconds"]
            line += " %12s" % cell
        line += " %12.3f %10s" % (
            row["portfolio"]["wall_seconds"],
            row["portfolio"]["status"],
        )
        lines.append(line)
    lines.append("")
    lines.append(
        "(parenthesised solo times are inconclusive runs; 'timeout' means the"
    )
    lines.append(
        " %.0fs budget expired -- the race cancels those engines instead)"
        % TIME_BUDGET_SECONDS
    )
    return "\n".join(lines)


def test_portfolio_tracks_best_single_engine(benchmark):
    """Race the portfolio on the zoo and compare against solo engine runs."""
    rows = _measure_all()
    # The benchmarked quantity: one full race on the case where the engine
    # choice matters most (p1: BDD explodes, ATPG answers instantly).
    benchmark.pedantic(lambda: _run("p1", ENGINES), rounds=1, iterations=1)

    for row in rows:
        # Every race must settle on the paper's expected verdict.
        assert row["portfolio"]["agrees_with_expected"], row
        # The race must never degenerate to the blow-up engine's timeout;
        # deliberately loose so a loaded CI runner cannot flake the job.
        assert row["portfolio"]["wall_seconds"] < TIME_BUDGET_SECONDS, row

    table = _format_table(rows)
    reporting.register_table("[Portfolio] race vs. solo engines", table)
    print("\n[Portfolio] race vs. solo engines\n" + table)

    report_path = os.environ.get("REPRO_PORTFOLIO_REPORT")
    if report_path:
        with open(report_path, "w") as stream:
            json.dump(
                {
                    "schema": "repro-portfolio-bench/v1",
                    "engines": list(ENGINES),
                    "time_budget_seconds": TIME_BUDGET_SECONDS,
                    "rows": rows,
                },
                stream,
                indent=2,
            )
