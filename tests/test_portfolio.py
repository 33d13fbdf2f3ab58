"""Tests for the engine portfolio: adapters, racing, batching, CLI wiring."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import api
from repro.checker.result import CheckStatus, Counterexample
from repro.netlist import Circuit
import repro.portfolio.checker as portfolio_checker
from repro.portfolio import (
    ENGINE_REGISTRY,
    AtpgEngine,
    BatchJob,
    BatchOptions,
    BatchRunner,
    BddEngine,
    EngineBudget,
    EngineResult,
    PortfolioChecker,
    PortfolioOptions,
    RandomSimEngine,
    SatEngine,
    detect_disagreement,
    make_engine,
)
from repro.properties import Assertion, Signal, Witness


def build_counter(limit: int = 9) -> Circuit:
    """A saturating-to-zero counter: count wraps after ``limit``."""
    circuit = Circuit("counter")
    enable = circuit.input("en", 1)
    count = circuit.state("count", 4)
    wrapped = circuit.mux(
        circuit.eq(count, limit), circuit.add(count, circuit.const(1, 4)), circuit.const(0, 4)
    )
    advanced = circuit.mux(enable, count, wrapped)
    circuit.dff_into(count, advanced, init_value=0)
    circuit.output(count)
    return circuit


BOUNDED = Assertion("bounded", Signal("count") <= 9)
REACH_TWO = Witness("reach_two", Signal("count") == 2)


# ----------------------------------------------------------------------
# Engine adapters: result normalisation
# ----------------------------------------------------------------------
def test_atpg_adapter_normalises_result():
    result = AtpgEngine().run(build_counter(), REACH_TWO, None, None, EngineBudget())
    assert result.engine == "atpg"
    assert result.status is CheckStatus.WITNESS_FOUND
    assert result.conclusive and result.verdict == "reachable"
    assert result.bound == 8
    assert result.counterexample is not None and result.counterexample.validated
    assert result.counterexample.target_frame == 2
    assert {"frames_explored", "decisions", "backtracks"} <= set(result.stats)
    assert result.wall_seconds > 0


def test_bdd_adapter_is_unbounded_and_traceless():
    result = BddEngine().run(build_counter(), BOUNDED, None, None, EngineBudget())
    assert result.engine == "bdd"
    assert result.status is CheckStatus.HOLDS
    assert result.verdict == "unreachable"
    assert result.bound is None  # a fixed point is an unbounded proof
    assert result.counterexample is None
    assert {"iterations", "peak_nodes", "reachable_states"} <= set(result.stats)


def test_sat_adapter_replays_trace_through_simulator():
    result = SatEngine().run(build_counter(), REACH_TWO, None, None, EngineBudget())
    assert result.engine == "sat"
    assert result.verdict == "reachable"
    trace = result.counterexample
    assert trace is not None and trace.validated
    assert trace.trace[trace.target_frame]["count"] == 2
    assert {"clauses", "variables", "decisions"} <= set(result.stats)


def test_random_adapter_not_found_is_inconclusive():
    budget = EngineBudget(random_runs=4, random_cycles=4, seed=7)
    result = RandomSimEngine().run(build_counter(), BOUNDED, None, None, budget)
    # Nothing found: status says HOLDS for comparability, but that is not a
    # proof, so normalisation must refuse to call it conclusive.
    assert result.status is CheckStatus.HOLDS
    assert not result.conclusive and result.verdict is None
    assert result.stats["seed"] == 7


def test_random_adapter_seed_reproducibility():
    budget = EngineBudget(random_runs=16, random_cycles=8, seed=123)
    first = RandomSimEngine().run(build_counter(), REACH_TWO, None, None, budget)
    second = RandomSimEngine().run(build_counter(), REACH_TWO, None, None, budget)
    assert first.verdict == second.verdict == "reachable"
    assert first.counterexample.inputs == second.counterexample.inputs


def test_engine_registry():
    assert list(ENGINE_REGISTRY) == list(api.ENGINE_NAMES) == ["atpg", "bdd", "sat", "random"]
    assert make_engine("bdd").name == "bdd"
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine("z3")


def test_fork_context_loads_the_solver_before_any_fork():
    """Engine racers, batch workers and daemon workers all fork from a
    context taken here, so no child compiles the lazily imported datapath
    solver inside its job."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys\n"
        "from repro.portfolio.checker import fork_context\n"
        "print('repro.modsolver.extract' in sys.modules)\n"
        "fork_context()\n"
        "print('repro.modsolver.extract' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_engine_result_json_round_trip():
    result = SatEngine().run(build_counter(), REACH_TWO, None, None, EngineBudget())
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["engine"] == "sat"
    assert payload["verdict"] == "reachable"
    assert payload["trace"]["validated"] is True


# ----------------------------------------------------------------------
# Disagreement detection
# ----------------------------------------------------------------------
def _result(engine, status, conclusive=True, bound=None, target_frame=None):
    counterexample = None
    if target_frame is not None:
        counterexample = Counterexample(
            initial_state={}, inputs=[{}] * (target_frame + 1),
            trace=[{}] * (target_frame + 1), target_frame=target_frame,
            monitor_name="m", validated=True,
        )
    return EngineResult(
        engine=engine, status=status, conclusive=conclusive,
        counterexample=counterexample, bound=bound,
    )


def test_disagreement_proof_vs_trace_conflicts():
    results = [
        _result("bdd", CheckStatus.HOLDS),  # unbounded proof of absence
        _result("atpg", CheckStatus.FAILS, target_frame=2, bound=8),
    ]
    assert detect_disagreement(results) == ["bdd", "atpg"]


def test_disagreement_respects_bounded_verdicts():
    # ATPG searched 4 frames and found nothing; BDD proves the state *is*
    # reachable but has no trace -- the witness may lie beyond the bound, so
    # this is not a soundness conflict.
    results = [
        _result("atpg", CheckStatus.WITNESS_NOT_FOUND, bound=4),
        _result("bdd", CheckStatus.WITNESS_FOUND),
    ]
    assert detect_disagreement(results) == []
    # But a validated trace *inside* the bound is a genuine conflict.
    results = [
        _result("atpg", CheckStatus.WITNESS_NOT_FOUND, bound=4),
        _result("sat", CheckStatus.WITNESS_FOUND, target_frame=2, bound=8),
    ]
    assert detect_disagreement(results) == ["atpg", "sat"]
    # A deeper trace than the bound is expected behaviour.
    results = [
        _result("atpg", CheckStatus.WITNESS_NOT_FOUND, bound=4),
        _result("sat", CheckStatus.WITNESS_FOUND, target_frame=6, bound=8),
    ]
    assert detect_disagreement(results) == []


def test_disagreement_ignores_inconclusive_results():
    results = [
        _result("bdd", CheckStatus.ABORTED, conclusive=False),
        _result("random", CheckStatus.HOLDS, conclusive=False),
        _result("atpg", CheckStatus.FAILS, target_frame=0, bound=8),
    ]
    assert detect_disagreement(results) == []


def test_real_engines_agree_in_compare_mode(monkeypatch):
    monkeypatch.setattr(portfolio_checker, "can_spawn_engines", lambda: False)
    checker = PortfolioChecker(
        build_counter(),
        engines=("atpg", "bdd", "sat"),
        options=PortfolioOptions(run_all=True),
    )
    result = checker.check(REACH_TWO)
    assert [r.engine for r in result.engine_results] == ["atpg", "bdd", "sat"]
    assert all(r.verdict == "reachable" for r in result.engine_results)
    assert result.disagreement == []
    assert result.status is CheckStatus.WITNESS_FOUND


# ----------------------------------------------------------------------
# Racing: cancellation, timeout, sequential early-stop
# ----------------------------------------------------------------------
class SleepyEngine:
    """A stub engine that stalls forever (until cancelled or timed out)."""

    name = "sleepy"
    can_prove = True

    def run(self, circuit, prop, environment, initial_state, budget):
        time.sleep(60.0)
        return EngineResult(  # pragma: no cover - must never be reached
            engine=self.name, status=CheckStatus.HOLDS, conclusive=True
        )


class InstantEngine:
    """A stub engine that answers immediately."""

    name = "instant"
    can_prove = True

    def run(self, circuit, prop, environment, initial_state, budget):
        return EngineResult(
            engine=self.name, status=CheckStatus.HOLDS, conclusive=True,
            wall_seconds=0.001,
        )


def test_process_race_cancels_losers():
    checker = PortfolioChecker(
        build_counter(),
        engines=(SleepyEngine(), InstantEngine()),
    )
    started = time.perf_counter()
    result = checker.check(BOUNDED)
    assert time.perf_counter() - started < 30.0  # nowhere near the 60s sleep
    assert result.winner == "instant"
    assert result.status is CheckStatus.HOLDS
    by_name = {r.engine: r for r in result.engine_results}
    assert by_name["sleepy"].cancelled
    assert by_name["sleepy"].status is CheckStatus.ABORTED
    assert not by_name["instant"].cancelled


def test_process_race_times_out_stuck_engines():
    checker = PortfolioChecker(
        build_counter(),
        engines=(SleepyEngine(),),
        options=PortfolioOptions(budget=EngineBudget(time_seconds=0.3)),
    )
    result = checker.check(BOUNDED)
    assert result.winner is None
    assert result.status is CheckStatus.ABORTED
    assert result.engine_results[0].timed_out
    assert not result.conclusive


def test_sequential_race_stops_after_first_conclusive(monkeypatch):
    monkeypatch.setattr(portfolio_checker, "can_spawn_engines", lambda: False)
    checker = PortfolioChecker(
        build_counter(),
        engines=(InstantEngine(), SleepyEngine()),
    )
    result = checker.check(BOUNDED)
    assert result.winner == "instant"
    by_name = {r.engine: r for r in result.engine_results}
    assert by_name["sleepy"].cancelled  # never started


class AnswerEngine:
    """A stub engine with a canned answer and a canned wall time."""

    can_prove = True

    def __init__(self, name, status, wall_seconds, bound=None, trace=False):
        self.name = name
        self.answer = EngineResult(
            engine=name, status=status, conclusive=True, wall_seconds=wall_seconds,
            bound=bound,
            counterexample=Counterexample({}, [{}], [{}], 0, "m", validated=True)
            if trace else None,
        )

    def run(self, circuit, prop, environment, initial_state, budget):
        return self.answer


@pytest.mark.parametrize("engines, winner", [
    # The fastest answer is bounded; the unbounded proof wins.
    ((("fast", CheckStatus.HOLDS, 0.001, 3), ("slow", CheckStatus.HOLDS, 9.0, None)),
     "slow"),
    # A counterexample beats an unbounded proof (a disagreement, reported).
    ((("proof", CheckStatus.HOLDS, 0.001, None), ("trace", CheckStatus.FAILS, 9.0, 2, True)),
     "trace"),
    # Among bounded answers the largest bound wins; ties go in engine order.
    ((("b3", CheckStatus.HOLDS, 0.001, 3), ("b5", CheckStatus.HOLDS, 9.0, 5),
      ("b5too", CheckStatus.HOLDS, 0.002, 5)),
     "b5"),
])
def test_compare_picks_the_winner_by_answer_not_by_time(monkeypatch, engines, winner):
    monkeypatch.setattr(portfolio_checker, "can_spawn_engines", lambda: False)
    checker = PortfolioChecker(
        build_counter(),
        engines=tuple(AnswerEngine(*spec) for spec in engines),
        options=PortfolioOptions(run_all=True),
    )
    assert checker.check(BOUNDED).winner == winner


def test_compare_names_the_same_winner_on_every_run():
    """p14 holds: ATPG proves it within 5 frames and BDD without a bound.
    Which of them finishes first varies; the reported winner must not."""
    request = api.CheckRequest(
        circuit=api.CircuitRef.case("p14"), engines=("atpg", "bdd", "random"),
        compare=True,
    )
    winners = [api.check(request).results[0].winner for _ in range(10)]
    assert winners == ["bdd"] * 10


def test_portfolio_rejects_bad_configuration():
    with pytest.raises(ValueError, match="at least one engine"):
        PortfolioChecker(build_counter(), engines=())
    with pytest.raises(ValueError, match="duplicate"):
        PortfolioChecker(build_counter(), engines=("atpg", "atpg"))


def test_race_keeps_parent_circuit_pristine():
    circuit = build_counter()
    gates_before = len(list(circuit.topological_order()))
    PortfolioChecker(circuit, engines=("atpg", "sat")).check(BOUNDED)
    # Monitor compilation happens in the forked racers, never on the input.
    assert len(list(circuit.topological_order())) == gates_before


def test_sequential_engines_check_the_circuit_itself(monkeypatch):
    """Without a race, every engine checks the portfolio's own circuit: the
    monitor is compiled into it once, and a second check reuses the ATPG
    model and answers as the first did."""
    monkeypatch.setattr(portfolio_checker, "can_spawn_engines", lambda: False)
    circuit = build_counter()
    gates_before = len(circuit.topological_order())
    checker = PortfolioChecker(
        circuit, engines=("atpg", "sat"), options=PortfolioOptions(run_all=True)
    )
    first = checker.check(BOUNDED)
    gates_after = len(circuit.topological_order())
    second = checker.check(BOUNDED)
    assert len(circuit.topological_order()) == gates_after > gates_before
    atpg = [result.engine_results[0].stats["models_reused"] for result in (first, second)]
    assert atpg == [0, 1]
    assert [r.status for r in second.engine_results] == [
        r.status for r in first.engine_results
    ]
    sat = [dict(result.engine_results[1].stats) for result in (first, second)]
    for stats in sat:
        stats.pop("peak_memory_mb")
    assert sat[0] == sat[1]


# ----------------------------------------------------------------------
# Batch runner
# ----------------------------------------------------------------------
def _batch_jobs():
    return [
        BatchJob("j_bounded", build_counter(), BOUNDED),
        BatchJob("j_reach", build_counter(), REACH_TWO),
        BatchJob("j_pinned", build_counter(), REACH_TWO, seed=999),
    ]


def test_batch_runner_deterministic_order_and_seeds():
    report = BatchRunner(
        BatchOptions(engines=("atpg",), jobs=2, budget=EngineBudget(seed=100))
    ).run(_batch_jobs())
    assert [item.job_id for item in report.items] == ["j_bounded", "j_reach", "j_pinned"]
    assert [item.seed for item in report.items] == [100, 101, 999]
    assert report.disagreements == []
    assert report.inconclusive == []


def test_batch_report_json_schema():
    report = BatchRunner(BatchOptions(engines=("atpg", "bdd"), jobs=1)).run(
        _batch_jobs()[:2]
    )
    payload = json.loads(report.to_json())
    assert payload["schema"] == "repro-batch-report/v1"
    assert payload["engines"] == ["atpg", "bdd"]
    assert payload["jobs"] == 2
    statuses = {r["job_id"]: r["status"] for r in payload["results"]}
    assert statuses == {"j_bounded": "holds", "j_reach": "witness_found"}


def test_batch_runs_are_reproducible():
    def snapshot():
        report = BatchRunner(
            BatchOptions(engines=("random",), jobs=2,
                         budget=EngineBudget(random_runs=32, random_cycles=8,
                                             seed=42))
        ).run([BatchJob("w%d" % i, build_counter(), REACH_TWO) for i in range(3)])
        return [
            (item.job_id, item.seed, item.result.status.value,
             item.result.counterexample.inputs
             if item.result.counterexample else None)
            for item in report.items
        ]

    assert snapshot() == snapshot()


def test_batch_base_seed_derives_from_budget_seed():
    # The budget's seed is the batch base seed.
    report = BatchRunner(
        BatchOptions(engines=("atpg",), budget=EngineBudget(seed=42))
    ).run(_batch_jobs()[:2])
    assert report.base_seed == 42
    assert [item.seed for item in report.items] == [42, 43]


def test_batch_rejects_bad_job_count():
    with pytest.raises(ValueError, match="jobs must be"):
        BatchRunner(BatchOptions(jobs=0))


def test_batch_enforces_time_budget_with_parallel_jobs():
    # Workers are non-daemonic, so each job still races its engines in
    # processes and the wall-clock budget is enforced by cancellation even
    # under jobs > 1.
    started = time.perf_counter()
    report = BatchRunner(
        BatchOptions(
            engines=(SleepyEngine(), "atpg"),
            budget=EngineBudget(time_seconds=5.0),
            jobs=2,
        )
    ).run([BatchJob("a", build_counter(), BOUNDED), BatchJob("b", build_counter(), BOUNDED)])
    assert time.perf_counter() - started < 30.0  # nowhere near the 60s sleep
    for item in report.items:
        assert item.result.winner == "atpg"
        by_name = {r.engine: r for r in item.result.engine_results}
        assert by_name["sleepy"].cancelled or by_name["sleepy"].timed_out


def test_batch_accepts_configured_engine_objects():
    from repro.checker import CheckerOptions
    from repro.portfolio import AtpgEngine

    engine = AtpgEngine(CheckerOptions(use_local_fsm_guidance=True))
    report = BatchRunner(BatchOptions(engines=(engine,), jobs=2)).run(
        [BatchJob("a", build_counter(), BOUNDED), BatchJob("b", build_counter(), REACH_TWO)]
    )
    assert report.engines == ["atpg"]
    assert [item.result.status.value for item in report.items] == [
        "holds", "witness_found",
    ]


def test_batch_surfaces_job_level_failures():
    class ExplodingEngine:
        name = "boom"
        can_prove = True

        def run(self, circuit, prop, environment, initial_state, budget):
            raise RuntimeError("kaput")

    report = BatchRunner(BatchOptions(engines=(ExplodingEngine(), "atpg"))).run(
        [BatchJob("a", build_counter(), BOUNDED)]
    )
    item = report.items[0]
    # The adapter contract is "never raise", but even a hostile engine must
    # not take down the batch: the job completes on the surviving engine.
    assert item.result.winner == "atpg"


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
COUNTER_VERILOG = """
module counter(input clk, input en, output [3:0] count);
  reg [3:0] count;
  always @(posedge clk) begin
    if (en) begin
      if (count == 9)
        count <= 0;
      else
        count <= count + 1;
    end
  end
endmodule
"""


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter.v"
    path.write_text(COUNTER_VERILOG)
    return str(path)


def test_cli_portfolio_json(counter_file, capsys):
    from repro.cli import main

    code = main([
        "check", counter_file,
        "--assert", "bounded=count <= 9",
        "--engines", "atpg,bdd",
        "--jobs", "2",
        "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == "repro-batch-report/v1"
    assert payload["disagreements"] == []
    (result,) = payload["results"]
    assert result["status"] == "holds"
    assert {entry["engine"] for entry in result["engines"]} == {"atpg", "bdd"}


def test_cli_portfolio_compare_text(counter_file, capsys):
    from repro.cli import main

    code = main([
        "check", counter_file,
        "--witness", "hit=count == 2",
        "--engines", "atpg,sat",
        "--compare",
        "--seed", "11",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "winner:" in out
    assert "atpg" in out and "sat" in out
    assert "DISAGREE" not in out


def test_cli_rejects_unknown_engine(counter_file):
    from repro.cli import main

    with pytest.raises(SystemExit, match="unknown engine"):
        main(["check", counter_file, "--assert", "count <= 9", "--engines", "cvc5"])
