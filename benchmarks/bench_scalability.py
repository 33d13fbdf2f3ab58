"""Scalability / memory ablation: word-level ATPG vs. BDD and SAT baselines.

The paper's central systems claim is that the word-level engine is memory
efficient (linear in circuit size x time frames) and "much less sensitive to
the exponential growth of the state space" than BDD-based symbolic model
checking; it also cites SAT-based bounded model checking (Biere et al.) as
the memory-lean bit-level alternative.  This benchmark checks the one-hot
bus-select assertion (p3-style) on token rings of growing size with all
three engines and reports run time, peak heap (each check runs under
``reporting.heap_tracing``) and the size of the representation each engine
builds (search decisions, CNF clauses, or BDD nodes).

The expected shape: the BDD engine's node count / memory blows up (or hits
its node budget and aborts) as the ring grows, while the word-level engine
and the SAT BMC baseline grow smoothly.
"""

import pytest
import reporting

from repro.baselines.bdd_checker import BddSymbolicChecker
from repro.baselines.sat_checker import SATBoundedChecker
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.result import CheckStatus
from repro.circuits import build_token_ring
from repro.properties import Assertion, OneHot, Signal

_ROWS = []

SIZES = [3, 4, 6, 8, 10, 12]
MAX_FRAMES = 2
#: BDD node budget; exceeding it is reported as the "memory explosion" row.
BDD_NODE_LIMIT = 150_000


def _one_hot_property(ports):
    return Assertion(
        "one_hot_grants", OneHot(*[Signal(net.name) for net in ports.grants])
    )


def _run_word_level(num_clients):
    ports = build_token_ring(num_clients=num_clients, data_width=8)
    checker = AssertionChecker(
        ports.circuit, options=CheckerOptions(max_frames=MAX_FRAMES)
    )
    with reporting.heap_tracing():
        result = checker.check(_one_hot_property(ports))
    return ports, result


def _run_sat(num_clients):
    ports = build_token_ring(num_clients=num_clients, data_width=8)
    checker = SATBoundedChecker(ports.circuit, max_frames=MAX_FRAMES)
    with reporting.heap_tracing():
        result = checker.check(_one_hot_property(ports))
    return ports, result


def _run_bdd(num_clients):
    ports = build_token_ring(num_clients=num_clients, data_width=8)
    checker = BddSymbolicChecker(ports.circuit, node_limit=BDD_NODE_LIMIT)
    with reporting.heap_tracing():
        result = checker.check(_one_hot_property(ports))
    return ports, result


@pytest.mark.parametrize("num_clients", SIZES)
def test_scalability_word_level(benchmark, num_clients):
    ports, result = benchmark.pedantic(_run_word_level, args=(num_clients,), rounds=1, iterations=1)
    assert result.status is CheckStatus.HOLDS
    _ROWS.append(
        (
            num_clients,
            "word-level ATPG",
            result.status.value,
            result.statistics.wall_seconds,
            result.statistics.peak_memory_mb,
            result.statistics.decisions,
        )
    )


@pytest.mark.parametrize("num_clients", SIZES)
def test_scalability_sat_bmc(benchmark, num_clients):
    ports, result = benchmark.pedantic(_run_sat, args=(num_clients,), rounds=1, iterations=1)
    assert result.status is CheckStatus.HOLDS
    _ROWS.append(
        (
            num_clients,
            "SAT BMC (bit-level)",
            result.status.value,
            result.wall_seconds,
            result.peak_memory_mb,
            result.clauses,
        )
    )


@pytest.mark.parametrize("num_clients", SIZES)
def test_scalability_bdd_symbolic(benchmark, num_clients):
    ports, result = benchmark.pedantic(_run_bdd, args=(num_clients,), rounds=1, iterations=1)
    # The BDD engine is allowed to abort on its node budget -- that outcome
    # *is* the memory-explosion data point; it must never report a violation.
    assert result.status in (CheckStatus.HOLDS, CheckStatus.ABORTED)
    _ROWS.append(
        (
            num_clients,
            "BDD symbolic MC",
            result.status.value,
            result.wall_seconds,
            result.peak_memory_mb,
            result.peak_nodes,
        )
    )


def test_scalability_report(benchmark):
    """Assemble the comparison table (benchmarked so it also runs under
    ``--benchmark-only`` and lands in the bench log)."""
    if len(_ROWS) < 3 * len(SIZES):
        pytest.skip("scalability rows did not all run")

    def _format():
        header = "%10s %-22s %-10s %10s %10s %22s" % (
            "clients", "engine", "verdict", "wall (s)", "mem (MB)",
            "decisions/clauses/nodes",
        )
        lines = [header, "-" * len(header)]
        for row in sorted(_ROWS):
            lines.append("%10d %-22s %-10s %10.3f %10.2f %22d" % row)
        return "\n".join(lines)

    table = benchmark.pedantic(_format, rounds=1, iterations=1)
    reporting.register_table(
        "[Scalability] one-hot bus-select assertion on growing token rings", table
    )
    print("\n[Scalability] one-hot bus-select assertion on growing token rings\n" + table)
