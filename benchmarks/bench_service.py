"""Warm daemon submits vs. cold in-process checks on the circuit zoo.

The verification daemon's pitch is amortisation: a per-circuit worker keeps
the parsed design, the unrolled model cache, the persistent ESTG, and an
open knowledge-base handle resident across jobs, so everything after the
first submit skips straight to the search.  This benchmark quantifies that
on the p5 and p15 zoo cases:

* **cold in-process** -- ``repro.api.check`` on a fresh request each round,
  the cost every one-shot CLI invocation pays.  The process-wide design
  and model caches are cleared before every round, so no round inherits
  what an earlier one resolved or learned;
* **warm daemon** -- the same request submitted over the unix socket to an
  already-warm worker;
* **warm in-process** (reported, not gated) -- ``repro.api.check`` again
  in this process once the caches are warm, as a library script sees it.

The gate asserts the warm median is at least ``SPEEDUP_FLOOR`` times faster
per case, that the worker actually reported warm-model hits, and that the
daemon's verdicts and counterexample traces are bit-identical to the
in-process path (the daemon must never buy speed with drift).  Neither arm
traces the heap.  On a 2-CPU VM four runs printed 10-17x on p5 and 20-37x
on p15.

Run:  python -m pytest benchmarks/bench_service.py -q
"""

import asyncio
import contextlib
import copy
import os
import statistics
import tempfile
import threading
import time

import pytest
import reporting

from repro import api
from repro.checker.incremental import shared_model_cache
from repro.service.client import (
    ServiceClient,
    ServiceError,
    check_via_service,
    service_available,
)
from repro.service.supervisor import ServiceOptions, serve

pytestmark = pytest.mark.benchmark(disable_gc=True)

CASES = ("p5", "p15")
ROUNDS = 5
#: acceptance floor: warm daemon submits must beat cold in-process checks
#: by at least this factor on every measured case.
SPEEDUP_FLOOR = 5.0


@contextlib.contextmanager
def _daemon():
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as scratch:
        socket_path = os.path.join(scratch, "service.sock")
        thread = threading.Thread(
            target=lambda: asyncio.run(serve(ServiceOptions(socket_path=socket_path))),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            if os.path.exists(socket_path) and service_available(socket_path):
                break
            time.sleep(0.05)
        else:
            raise RuntimeError("service daemon did not come up")
        try:
            yield socket_path
        finally:
            with contextlib.suppress(ServiceError):
                with ServiceClient(socket_path) as client:
                    client.shutdown()
            thread.join(timeout=30.0)


def _normalized(report: api.CheckReport) -> dict:
    """The report dict minus timing/transport fields (identity compare)."""
    payload = copy.deepcopy(report.to_dict())
    payload.pop("wall_seconds", None)
    payload.pop("source", None)
    payload.pop("service", None)
    for result in payload.get("results", []):
        result.pop("wall_seconds", None)
        result.pop("stats", None)
        for engine in result.get("engines", []):
            engine.pop("wall_seconds", None)
            engine.pop("stats", None)
    return payload


def _measure(socket_path):
    rows = []
    for case_id in CASES:
        request = api.CheckRequest(circuit=api.CircuitRef.case(case_id))

        cold_times = []
        for _ in range(ROUNDS):
            api.clear_design_cache()
            shared_model_cache().clear()
            started = time.perf_counter()
            cold_report = api.check(request)
            cold_times.append(time.perf_counter() - started)

        local_times = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            api.check(request)
            local_times.append(time.perf_counter() - started)

        # First submit pays the worker's cold start; everything after is warm.
        check_via_service(request, socket_path=socket_path, fallback=False)
        warm_times = []
        hops = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            warm_report = check_via_service(
                request, socket_path=socket_path, fallback=False
            )
            warm_times.append(time.perf_counter() - started)
            hops.append(_hops(warm_report, warm_times[-1]))

        rows.append(
            {
                "case": case_id,
                "cold_median": statistics.median(cold_times),
                "warm_median": statistics.median(warm_times),
                "local_median": statistics.median(local_times),
                "warm_hits": warm_report.service["worker"]["warm_hits"],
                "hops_ms": [1000.0 * statistics.median(column) for column in zip(*hops)],
                "identical": _normalized(warm_report) == _normalized(cold_report),
                "status": warm_report.results[0].status,
            }
        )
    return rows


def _hops(report: api.CheckReport, round_trip: float):
    """One warm round split into (queue wait, pipe + worker overhead,
    reply-to-client remainder), in seconds, from the result's job block."""
    job = report.service["job"]
    queued = job["started_at"] - job["submitted_at"]
    pipe = job["finished_at"] - job["started_at"] - report.wall_seconds
    return (queued, pipe, round_trip - (job["finished_at"] - job["submitted_at"]))


def _format_hops(rows):
    lines = ["%-6s %14s %18s %14s" % ("case", "queue (ms)", "pipe+worker (ms)",
                                      "reply (ms)")]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("%-6s %14.3f %18.3f %14.3f" % ((row["case"],) + tuple(row["hops_ms"])))
    lines.append("")
    lines.append("(medians of the warm rounds, not gated: queue = started_at -"
                 " submitted_at; pipe+worker = finished_at - started_at - the")
    lines.append(" report's wall_seconds; reply = the client's round trip minus"
                 " finished_at - submitted_at)")
    return "\n".join(lines)


def _format_table(rows):
    header = "%-6s %12s %12s %9s %10s %10s %14s" % (
        "case", "cold (s)", "warm (s)", "speedup", "warm hits", "identical",
        "warm local (s)",
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "%-6s %12.4f %12.4f %8.1fx %10d %10s %14.4f"
            % (
                row["case"],
                row["cold_median"],
                row["warm_median"],
                row["cold_median"] / row["warm_median"],
                row["warm_hits"],
                "yes" if row["identical"] else "NO",
                row["local_median"],
            )
        )
    lines.append("")
    lines.append(
        "(cold = in-process api.check with the design and model caches"
        " cleared; warm = submit to a resident"
    )
    lines.append(
        " daemon worker over the unix socket; warm local = in-process"
        " api.check on warm caches, not gated;"
    )
    lines.append(
        " medians of %d rounds; no arm traces the heap)" % ROUNDS
    )
    return "\n".join(lines)


def test_warm_daemon_beats_cold_in_process(benchmark):
    """Warm submits are >=%.0fx faster and bit-identical.""" % SPEEDUP_FLOOR
    with _daemon() as socket_path:
        rows = _measure(socket_path)
        # The benchmarked quantity for the regression gate: one warm p5
        # submit against the already-warm worker.
        request = api.CheckRequest(circuit=api.CircuitRef.case(CASES[0]))
        benchmark.pedantic(
            lambda: check_via_service(request, socket_path=socket_path,
                                      fallback=False),
            rounds=ROUNDS,
            iterations=1,
        )

    for row in rows:
        assert row["identical"], (
            "daemon verdict for %s drifted from the in-process path" % row["case"]
        )
        assert row["warm_hits"] > 0, row
        speedup = row["cold_median"] / row["warm_median"]
        assert speedup >= SPEEDUP_FLOOR, (
            "warm daemon submit on %s only %.1fx faster than cold in-process "
            "(floor %.0fx): cold %.4fs vs warm %.4fs"
            % (row["case"], speedup, SPEEDUP_FLOOR,
               row["cold_median"], row["warm_median"])
        )

    table = _format_table(rows)
    reporting.register_table("[Service] warm daemon vs. cold in-process", table)
    print("\n[Service] warm daemon vs. cold in-process\n" + table)
    print("\n[Service] warm daemon hop breakdown\n" + _format_hops(rows))
