"""Fresh unrolling: the reference the incremental checker is pinned against.

The paper's outer loop re-unrolls the design for every target frame.  The
checker instead grows one cached model frame by frame and retracts each
bound's goals through engine savepoints (:mod:`repro.checker.incremental`).
:func:`fresh_check` keeps the paper's shape as a test and benchmark oracle:
for every target frame ``t`` it builds a new ``UnrolledModel(circuit, t + 1)``
and runs the checker's own requirement assertion and justifier on it,
without cross-bound learning.  ``tests/test_incremental.py`` and
``benchmarks/bench_incremental.py`` compare both paths bit for bit.
"""

from repro.atpg.justify import JustifyOutcome
from repro.atpg.timeframe import UnrolledModel
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.result import CheckResult, CheckStatus
from repro.checker.stats import CheckStatistics
from repro.implication.assignment import ImplicationConflict


def fresh_check(circuit, prop, environment=None, initial_state=None, max_frames=8):
    """Check ``prop`` on a freshly built unrolled model per target frame."""
    checker = AssertionChecker(
        circuit,
        environment=environment,
        initial_state=initial_state,
        options=CheckerOptions(max_frames=max_frames, learning=False),
    )
    compiled = checker.compiler.compile(prop)
    statistics = CheckStatistics()
    trace = None
    aborted = False
    for target_frame in range(compiled.warmup_frames, max_frames):
        statistics.frames_explored = target_frame + 1
        model = UnrolledModel(
            circuit, target_frame + 1, initial_state=checker.initial_state,
            compiled=True,
        )
        statistics.frames_built += model.frames_constructed
        try:
            checker._assert_requirements(model, compiled, target_frame)
        except ImplicationConflict:
            continue
        search = checker._run_justifier(model, compiled, None)
        statistics.accumulate_search(search)
        if search.outcome is JustifyOutcome.SUCCESS:
            trace = checker._extract_trace(compiled, model, target_frame)
            break
        if search.outcome is JustifyOutcome.ABORT:
            aborted = True
            break
    status, counterexample = CheckStatus.of_search(prop, trace, aborted)
    return CheckResult(
        prop=prop,
        status=status,
        frames_explored=statistics.frames_explored,
        counterexample=counterexample,
        statistics=statistics,
    )
