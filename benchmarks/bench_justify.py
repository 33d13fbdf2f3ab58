"""Compiled vs. interpreted implication kernel on search-heavy sweeps.

The justification hot path was lowered onto flat slot-indexed lanes
(:mod:`repro.implication.compiled`): ternary cubes live in parallel
``known``/``value`` int arrays, watcher lists are indexed by slot, rule
refinements are memoised as int tuples, and savepoint/rollback walk a slot
trail.  The interpreted engine is kept as a bit-identical oracle, reached
through ``UnrolledModelCache(compiled=False)``.

This benchmark drives both engines through the two workloads that dominate
checker time on the p5/p12/p15 zoo cases, and gates the headline claim:
**>= 3x median speedup across the sweep suite**.  The p12 search sweep
makes no decisions: its reflexive ``broadcast != broadcast`` comparators
fold to constants, so every target is refuted by propagation alone.

* **search sweeps** -- the full branch-and-bound justification search,
  re-run on a warm incremental model with learning disabled so every round
  performs the complete decision/propagate/backtrack sweep (the
  daemon-warm-worker shape; FAIL memos would otherwise short-circuit it).
  p15, the wide-datapath certificate sweep, is where interpreted cube
  hashing hurts most.
* **fixpoint sweeps** -- enqueue every node and drain the worklist to a
  fixpoint on a warm model (the extend/resync shape: pure evaluation-loop
  throughput, memo-hit dominated).

Verdicts, frame counts and evaluation counters are asserted equal between
the modes in every sweep -- the speedup must never cost bit-identity.
"""

import statistics as stats_module

import pytest
import reporting

from repro.atpg.timeframe import UnrolledModel
from repro.bitvector import BV3
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.circuits import build_case

#: the warm sweeps are short; collector pauses from the cold interpreted
#: runs land disproportionately inside them (same rationale as
#: bench_incremental.py).
pytestmark = pytest.mark.benchmark(disable_gc=True)

#: (case_id, bound) for the full justification search sweeps.  Bounds keep
#: each warm round well under a second so the suite stays smoke-sized.
SEARCH_SWEEPS = [("p5", 6), ("p12", 3), ("p15", 3)]
#: (case_id, unroll depth) for the fixpoint propagation sweeps.
FIXPOINT_SWEEPS = [("p5", 12), ("p12", 6), ("p15", 6)]
#: worklist drains per timed round (single drains are sub-millisecond).
FIXPOINT_DRAINS = 50
#: headline acceptance threshold: median speedup across all six sweeps.
KERNEL_SPEEDUP = 3.0
#: timing rounds per configuration; minima feed the speedup ratios.
ROUNDS = 3

#: (sweep label, mode) -> (digest tuple, min elapsed seconds)
_RESULTS = {}


# ----------------------------------------------------------------------
# Search sweeps: warm re-justification with learning off
# ----------------------------------------------------------------------
def _search_checker(case_id, bound, compiled):
    case = build_case(case_id)
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(
            max_frames=bound,
            learning=False,
        ),
        model_cache=UnrolledModelCache(compiled=compiled),
    )
    return checker, case.prop


@pytest.mark.parametrize("case_id,bound", SEARCH_SWEEPS)
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_search_sweep(benchmark, case_id, bound, mode):
    checker, prop = _search_checker(case_id, bound, mode == "compiled")
    # The cold check unrolls the model and fills the rule memos; the timed
    # rounds then measure the pure warm search sweep.
    cold = checker.check(prop)
    result = benchmark.pedantic(
        checker.check, args=(prop,), rounds=ROUNDS, iterations=1
    )
    assert result.status == cold.status
    _RESULTS[("search %s@%d" % (case_id, bound), mode)] = (
        (result.status.value, result.frames_explored, result.statistics.decisions),
        benchmark.stats.stats.min,
    )


# ----------------------------------------------------------------------
# Fixpoint sweeps: enqueue-all worklist drains on a warm model
# ----------------------------------------------------------------------
def _fixpoint_model(case_id, depth, compiled):
    case = build_case(case_id)
    model = UnrolledModel(case.circuit, depth, compiled=compiled)
    engine = model.engine
    # Pin frame-0 inputs so the drains propagate real implications.
    for net in case.circuit.inputs:
        engine.assign(model.key(net, 0), BV3.from_int(net.width, 1))
    nodes = list(model.active_nodes())
    engine.enqueue(nodes)
    engine.propagate()  # warm the rule memos
    return engine, nodes


def _drain(engine, nodes):
    for _ in range(FIXPOINT_DRAINS):
        engine.enqueue(nodes)
        engine.propagate()


@pytest.mark.parametrize("case_id,depth", FIXPOINT_SWEEPS)
@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_fixpoint_sweep(benchmark, case_id, depth, mode):
    engine, nodes = _fixpoint_model(case_id, depth, mode == "compiled")
    before = engine.node_evaluations
    benchmark.pedantic(_drain, args=(engine, nodes), rounds=ROUNDS, iterations=1)
    evaluations = engine.node_evaluations - before
    _RESULTS[("fixpoint %s@%d" % (case_id, depth), mode)] = (
        (len(nodes), evaluations),
        benchmark.stats.stats.min,
    )


# ----------------------------------------------------------------------
# Report + acceptance assertion
# ----------------------------------------------------------------------
def test_justify_speedup_report(benchmark):
    labels = ["search %s@%d" % pair for pair in SEARCH_SWEEPS]
    labels += ["fixpoint %s@%d" % pair for pair in FIXPOINT_SWEEPS]
    needed = [(label, mode) for label in labels for mode in ("interpreted", "compiled")]
    if any(key not in _RESULTS for key in needed):
        pytest.skip("not all justify benchmark rows ran")

    def _format():
        lines = [
            "%-16s %10s %10s %8s"
            % ("sweep", "interp(s)", "compiled(s)", "speedup")
        ]
        lines.append("-" * len(lines[0]))
        speedups = []
        for label in labels:
            digest_i, time_i = _RESULTS[(label, "interpreted")]
            digest_c, time_c = _RESULTS[(label, "compiled")]
            # Bit-identical behaviour is part of the contract: same verdict,
            # frames and decisions (search), same evaluation counts (fixpoint).
            assert digest_i == digest_c, (label, digest_i, digest_c)
            speedup = time_i / time_c if time_c > 0 else float("inf")
            speedups.append(speedup)
            lines.append(
                "%-16s %10.4f %10.4f %7.2fx" % (label, time_i, time_c, speedup)
            )
        median = stats_module.median(speedups)
        lines.append("")
        lines.append(
            "median kernel speedup: %.2fx (threshold %.1fx)"
            % (median, KERNEL_SPEEDUP)
        )
        return "\n".join(lines), median

    table, median = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table(
        "[Justify] compiled vs interpreted implication kernel", table
    )
    print("\n[Justify] compiled vs interpreted implication kernel\n" + table)
    assert median >= KERNEL_SPEEDUP, (
        "compiled kernel regressed: median speedup %.2fx (expected >= %.1fx)"
        % (median, KERNEL_SPEEDUP)
    )
