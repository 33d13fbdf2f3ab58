"""library-sweep: ``repro.api.check`` on fresh case requests, in one process.

This is how a library script calls the checker: a new request per check and
no ``design_cache``.  The cases are the search-heavy zoo cases at their
bundled bounds, shuffled per pass with the seed, so search dominates and
import is paid once, in set-up.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import sys
import time

import harness
from harness import Ledger
from layers import Tracer, install
from repro import api

#: known answers: the verdicts the paper reports for these cases.
CASES = {
    "p2": "holds", "p5": "holds", "p9": "holds", "p10": "holds",
    "p12": "holds", "p14": "holds", "p15": "holds",
}
#: fresh interpreters timed to find the set-up time.
SETUP_REPEATS = 9
#: the discarded warm-up check, the same for every seed.
WARMUP_CASE = "p5"
#: passes over the cases per pass of the traced run.
TRACE_PASSES = 2

#: set-up as a library script pays it: start, import, one warm-up check.
SETUP_PROBE = (
    "import sys; from repro import api; "
    "report = api.check(api.CheckRequest(circuit=api.CircuitRef.case(sys.argv[1]))); "
    "sys.exit(0 if report.results[0].status == 'holds' else 3)"
)


def one_check(ledger, case_id, tracer=None):
    gc.collect()
    ledger.calibrate()
    request = api.CheckRequest(circuit=api.CircuitRef.case(case_id))
    cpu_before = time.process_time()
    started = time.perf_counter()
    try:
        if tracer is None:
            report = api.check(request)
        else:
            with tracer.requesting():
                report = api.check(request)
    except Exception as exc:  # scored as a failed check, the loop goes on
        ledger.record(case_id, 0.0, 0.0, "%s: %s" % (type(exc).__name__, exc))
        return
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_before
    failure = harness.report_failure(report, CASES[case_id])
    ledger.record(case_id, elapsed, cpu, failure, [v.stats for v in report.results])


def measure(seed, seconds):
    order = harness.schedule(sorted(CASES), random.Random(seed))
    ledger, setup = Ledger(), []
    for _ in range(SETUP_REPEATS):
        ledger.calibrate()
        started = time.perf_counter()
        harness.run_child([sys.executable, "-c", SETUP_PROBE, WARMUP_CASE]).check_returncode()
        setup.append(ledger.scaled(time.perf_counter() - started))
    api.check(api.CheckRequest(circuit=api.CircuitRef.case(WARMUP_CASE)))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        one_check(ledger, next(order))
    values = ledger.end_to_end(
        statistics.median(setup), harness.peak_rss_mb(resource.RUSAGE_SELF)
    )
    return ledger.failed == 0, ledger.attempted, ledger.failed, values


def trace(seed):
    order = harness.schedule(sorted(CASES), random.Random(seed))
    checks = [next(order) for _ in range(TRACE_PASSES * len(CASES))]
    # Warm every case once, so first-use costs do not land in the untraced
    # pass and hide the tracing overhead.
    for case_id in sorted(CASES):
        api.check(api.CheckRequest(circuit=api.CircuitRef.case(case_id)))
    untraced = Ledger()
    for case_id in checks:
        one_check(untraced, case_id)
    tracer = Tracer()
    install(tracer)
    passes = []
    for _ in range(2):
        tracer.records = []
        ledger = Ledger()
        for case_id in checks:
            one_check(ledger, case_id, tracer)
        passes.append((ledger, tracer.records))
    return harness.traced_result(untraced, passes[0], passes[1], {})
