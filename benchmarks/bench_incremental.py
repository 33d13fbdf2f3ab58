"""Incremental vs. fresh time-frame expansion across check bounds.

The paper's outer loop re-unrolls the design for every target frame, which
makes a bound-``k`` check pay O(k^2) frame constructions before any search
starts.  The checker instead appends frames to one live implication network
and retracts per-bound goals through engine savepoints, for O(k)
constructions total.  The fresh path is the test oracle in
``tests/fresh_unroll.py``.

This benchmark runs both paths on implication-dominated zoo assertions
(addr_decoder p2, token_ring p3, alarm_clock p7 -- all HOLD, so every bound
is explored) at bounds {4, 8, 16}, checks the verdicts agree bit-for-bit,
and asserts the headline claim: **>= 3x median speedup at bound 16**.  A
second experiment measures the multi-property batch shape, where the cached
skeleton is additionally reused across properties.
"""

import statistics as stats_module

import pytest
import reporting

from fresh_unroll import fresh_check
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache
from repro.circuits import build_case, build_token_ring
from repro.properties import Assertion, AtMostOneHot, OneHot, Signal, Witness

#: The incremental runs are short (7-300 ms); garbage-collection pauses from
#: the heap the *fresh* runs build up land disproportionately inside them and
#: made the regression gate flaky.  Timing with the collector off removes
#: that cross-test coupling.
pytestmark = pytest.mark.benchmark(disable_gc=True)

CASES = ["p2", "p3", "p7"]
BOUNDS = [4, 8, 16]
#: headline acceptance threshold: median speedup across CASES at bound 16.
SPEEDUP_AT_16 = 3.0
#: multi-property batches must show a measurable win as well.
BATCH_SPEEDUP = 1.2

#: timing rounds per configuration; the minimum is used for speedup
#: ratios (noise-robust), while the regression gate keeps the median.
#: Five rounds keeps the min stable on noisy shared CI runners (the
#: workloads here are 20-500 ms, where transient load skews single shots).
ROUNDS = 5

#: (case_id, bound, mode) -> (status value, frames, min elapsed seconds)
_RESULTS = {}


def _run_case(case_id, bound, incremental):
    case = build_case(case_id)
    if not incremental:
        return fresh_check(
            case.circuit, case.prop, environment=case.environment,
            initial_state=case.initial_state, max_frames=bound,
        )
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=bound),
        model_cache=UnrolledModelCache(),
    )
    return checker.check(case.prop)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("case_id", CASES)
def test_fresh_unrolling(benchmark, case_id, bound):
    result = benchmark.pedantic(
        _run_case, args=(case_id, bound, False), rounds=ROUNDS, iterations=1
    )
    _RESULTS[(case_id, bound, "fresh")] = (
        result.status.value, result.frames_explored, benchmark.stats.stats.min
    )


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("case_id", CASES)
def test_incremental_unrolling(benchmark, case_id, bound):
    result = benchmark.pedantic(
        _run_case, args=(case_id, bound, True), rounds=ROUNDS, iterations=1
    )
    assert result.statistics.frames_built == bound
    _RESULTS[(case_id, bound, "incremental")] = (
        result.status.value, result.frames_explored, benchmark.stats.stats.min
    )


# ----------------------------------------------------------------------
# Multi-property batches: skeleton reuse across properties
# ----------------------------------------------------------------------
def _batch_properties(ports):
    grants = [Signal(net.name) for net in ports.grants]
    return [
        Assertion("one_hot", OneHot(*grants)),
        Assertion("at_most_one", AtMostOneHot(*grants)),
        Witness("first_grant", grants[0] == 1),
        Witness("last_grant", grants[-1] == 1),
    ]


def _run_batch(incremental, bound=8):
    ports = build_token_ring()
    if not incremental:
        return [
            fresh_check(ports.circuit, prop, max_frames=bound)
            for prop in _batch_properties(ports)
        ]
    options = CheckerOptions(max_frames=bound)
    # One checker per batch, as the batch runner does per (circuit, env) job
    # group; the incremental path shares its unrolled skeleton across all
    # four properties through the model cache.
    checker = AssertionChecker(
        ports.circuit, options=options, model_cache=UnrolledModelCache()
    )
    return [checker.check(prop) for prop in _batch_properties(ports)]


@pytest.mark.parametrize("mode", ["fresh", "incremental"])
def test_multi_property_batch(benchmark, mode):
    results = benchmark.pedantic(
        _run_batch, args=(mode == "incremental",), rounds=ROUNDS, iterations=1
    )
    _RESULTS[("batch", 8, mode)] = (
        "/".join(r.status.value for r in results),
        sum(r.frames_explored for r in results),
        benchmark.stats.stats.min,
    )


# ----------------------------------------------------------------------
# Report + acceptance assertions
# ----------------------------------------------------------------------
def test_incremental_speedup_report(benchmark):
    needed = [(c, b, m) for c in CASES for b in BOUNDS for m in ("fresh", "incremental")]
    needed += [("batch", 8, "fresh"), ("batch", 8, "incremental")]
    if any(key not in _RESULTS for key in needed):
        pytest.skip("not all incremental benchmark rows ran")

    def _format():
        lines = [
            "%-6s %6s %-14s %-14s %10s %10s %8s"
            % ("case", "bound", "fresh", "incremental", "fresh(s)", "incr(s)", "speedup")
        ]
        lines.append("-" * len(lines[0]))
        speedups_at_16 = []
        for case_id in CASES:
            for bound in BOUNDS:
                status_f, frames_f, time_f = _RESULTS[(case_id, bound, "fresh")]
                status_i, frames_i, time_i = _RESULTS[(case_id, bound, "incremental")]
                # Bit-identical verdicts are part of the contract.
                assert status_i == status_f, (case_id, bound)
                assert frames_i == frames_f, (case_id, bound)
                speedup = time_f / time_i if time_i > 0 else float("inf")
                if bound == 16:
                    speedups_at_16.append(speedup)
                lines.append(
                    "%-6s %6d %-14s %-14s %10.3f %10.3f %7.2fx"
                    % (case_id, bound, status_f, status_i, time_f, time_i, speedup)
                )
        status_f, _, batch_f = _RESULTS[("batch", 8, "fresh")]
        status_i, _, batch_i = _RESULTS[("batch", 8, "incremental")]
        assert status_i == status_f
        batch_speedup = batch_f / batch_i if batch_i > 0 else float("inf")
        lines.append(
            "%-6s %6d %-14s %-14s %10.3f %10.3f %7.2fx"
            % ("batch", 8, "4 props", "4 props", batch_f, batch_i, batch_speedup)
        )
        median_16 = stats_module.median(speedups_at_16)
        lines.append("")
        lines.append(
            "median speedup at bound 16: %.2fx (threshold %.1fx); "
            "multi-property batch: %.2fx (threshold %.1fx)"
            % (median_16, SPEEDUP_AT_16, batch_speedup, BATCH_SPEEDUP)
        )
        return "\n".join(lines), median_16, batch_speedup

    table, median_16, batch_speedup = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table(
        "[Incremental] fresh vs incremental time-frame expansion", table
    )
    print("\n[Incremental] fresh vs incremental time-frame expansion\n" + table)
    assert median_16 >= SPEEDUP_AT_16, (
        "incremental unrolling regressed: median speedup at bound 16 is "
        "%.2fx (expected >= %.1fx)" % (median_16, SPEEDUP_AT_16)
    )
    assert batch_speedup >= BATCH_SPEEDUP, (
        "multi-property model reuse regressed: batch speedup %.2fx "
        "(expected >= %.1fx)" % (batch_speedup, BATCH_SPEEDUP)
    )
