"""Throughput of the bit-parallel lane program vs. the interpreted oracle.

Interpreter overhead -- dict lookups and dynamic dispatch per gate per
vector -- dominates random-simulation cost.  :func:`repro.sim.compile_circuit`
removes the dispatch (one generated straight-line step function per circuit,
from the shared word-to-bit lowering), and K-wide lanes amortise what is
left K ways.  This benchmark sweeps K over {1, 64, 256, 1024} on
representative circuit-zoo designs and reports vectors/second against the
vector-at-a-time reference simulator.  Code generation happens once, before
the timed rounds.

The acceptance bar: >= 10x vectors/sec at K=1024 on every measured design.
The report test asserts it, so a simulator regression fails the suite, not
just the perf gate.

Run:  python -m pytest benchmarks/bench_bitparallel.py -q
"""

import random
import time

import pytest
import reporting

from repro.circuits import build_case
from repro.sim import BitParallelSim, RandomLaneSampler, compile_circuit
from repro.simulation.simulator import Simulator

#: One design per structure class: wide datapath decode (p1), counter/compare
#: control (p7), tri-state bus fabric (p11).
CASES = ("p1", "p7", "p11")
WIDTHS = (1, 64, 256, 1024)
#: vectors per interpreted measurement round.
REFERENCE_VECTORS = 384
ROUNDS = 3


def _parallel_cycles(width):
    """Cycles per bit-parallel round: keep at least ~1k vectors per round so
    small-K measurements are not sub-millisecond timer noise for the CI gate."""
    return max(6, 1024 // width)

#: (case_id, "interpreted" | K) -> best observed vectors/second.
_RATES = {}


def _prepared(case_id):
    case = build_case(case_id)
    sampler = RandomLaneSampler(case.circuit, case.environment)
    return case, sampler


def _record(key, rate):
    _RATES[key] = max(_RATES.get(key, 0.0), rate)


@pytest.mark.parametrize("case_id", CASES)
def test_interpreted_reference(benchmark, case_id):
    case, sampler = _prepared(case_id)
    rng = random.Random(2000)
    vectors = [
        sampler.scalar_vector(sampler.sample(rng, 1), 0)
        for _ in range(REFERENCE_VECTORS)
    ]

    def run():
        simulator = Simulator(case.circuit, initial_state=case.initial_state)
        started = time.perf_counter()
        for vector in vectors:
            simulator.step(vector)
        _record((case_id, "interpreted"),
                REFERENCE_VECTORS / (time.perf_counter() - started))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("case_id", CASES)
def test_bitparallel_kernel(benchmark, case_id, width):
    case, sampler = _prepared(case_id)
    plan = compile_circuit(case.circuit)
    rng = random.Random(2000)
    cycles = _parallel_cycles(width)
    stimuli = [sampler.sample(rng, width) for _ in range(cycles)]

    def run():
        simulator = BitParallelSim(plan, lanes=width, initial_state=case.initial_state)
        started = time.perf_counter()
        for stimulus in stimuli:
            simulator.step(stimulus)
        _record((case_id, width),
                cycles * width / (time.perf_counter() - started))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


def test_bitparallel_speedup_report(benchmark):
    """Assemble the sweep table and enforce the >= 10x acceptance bar."""
    missing = [case_id for case_id in CASES if (case_id, "interpreted") not in _RATES]
    if missing:
        pytest.skip("reference rows did not run: %s" % (missing,))

    def _format():
        header = "%-6s %-14s %14s" % ("case", "design", "interp (v/s)")
        for width in WIDTHS:
            header += " %14s" % ("K=%d (v/s)" % width)
        header += " %10s" % "best x"
        lines = [header, "-" * len(header)]
        for case_id in CASES:
            case = build_case(case_id)
            reference = _RATES[(case_id, "interpreted")]
            line = "%-6s %-14s %14.0f" % (case_id, case.design, reference)
            best = 0.0
            for width in WIDTHS:
                rate = _RATES.get((case_id, width), 0.0)
                best = max(best, rate / reference)
                line += " %14.0f" % rate
            line += " %10.1f" % best
            lines.append(line)
        return "\n".join(lines)

    table = benchmark.pedantic(_format, rounds=1, iterations=1)
    title = (
        "[Kernel] bit-parallel vs interpreted simulation throughput "
        "(K = lanes per gate visit)"
    )
    reporting.register_table(title, table)
    print("\n" + title + "\n" + table)

    for case_id in CASES:
        reference = _RATES[(case_id, "interpreted")]
        at_1024 = _RATES.get((case_id, 1024), 0.0)
        speedup = at_1024 / reference
        assert speedup >= 10.0, (
            "bit-parallel kernel only %.1fx the interpreted simulator on %s "
            "at K=1024 (acceptance bar is 10x)" % (speedup, case_id)
        )
