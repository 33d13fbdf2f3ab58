"""Motivation experiment: random simulation vs. deterministic generation.

The paper's introduction argues that test benches derived randomly "usually
fail to detect some tricky corner-case bugs", which is what motivates the
constraint-solving engine.  This benchmark quantifies the claim on planted
corner-case bugs of increasing rarity: a bug that only fires for one specific
``width``-bit input value.

For each width we measure

* whether a fixed random-simulation budget finds the bug (and how long the
  simulation takes), and
* the time the word-level ATPG engine needs to derive the triggering input
  deterministically.

The expected shape: random simulation degrades from "sometimes finds it" to
"practically never finds it" as the value space grows, while the
deterministic engine's cost stays flat.
"""

import pytest
import reporting
from interpreted_random import interpreted_check

from repro.baselines import RandomSimulationChecker, RandomSimulationOptions
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.result import CheckStatus
from repro.netlist import Circuit
from repro.properties import Assertion, Signal

_ROWS = []

WIDTHS = [8, 12, 16, 20]
RANDOM_BUDGET_VECTORS = 2048


def _build_corner_case(width):
    """A design whose ``bug`` output rises only for one magic input value."""
    circuit = Circuit("corner_%d" % width)
    key = circuit.input("key", width)
    magic = (0xA5A5A5A5A5 >> 3) & ((1 << width) - 1)
    circuit.output(circuit.eq(key, magic), name="bug")
    return circuit


def _run_random(width, backend):
    """The random engine (``bitparallel``) or its ``interpreted`` oracle."""
    circuit = _build_corner_case(width)
    options = RandomSimulationOptions(
        num_runs=RANDOM_BUDGET_VECTORS // 16, cycles_per_run=16, seed=width,
    )
    prop = Assertion("no_bug", Signal("bug") == 0)
    if backend == "interpreted":
        result = interpreted_check(circuit, prop, options=options)
        return result, result.frames_explored
    checker = RandomSimulationChecker(circuit, options=options)
    return checker.check(prop), checker.vectors_simulated


def _run_atpg(width):
    circuit = _build_corner_case(width)
    checker = AssertionChecker(circuit, options=CheckerOptions(max_frames=1))
    return checker.check(Assertion("no_bug", Signal("bug") == 0))


@pytest.mark.parametrize("backend", ["interpreted", "bitparallel"])
@pytest.mark.parametrize("width", WIDTHS)
def test_random_simulation_budget(benchmark, width, backend):
    result, vectors = benchmark.pedantic(
        _run_random, args=(width, backend), rounds=1, iterations=1
    )
    found = result.status is CheckStatus.FAILS
    _ROWS.append(
        (width, "random (%s)" % backend, "found" if found else "missed", vectors,
         result.statistics.wall_seconds)
    )


@pytest.mark.parametrize("width", WIDTHS)
def test_deterministic_engine(benchmark, width):
    result = benchmark.pedantic(_run_atpg, args=(width,), rounds=1, iterations=1)
    assert result.status is CheckStatus.FAILS, "the ATPG engine must find the planted bug"
    _ROWS.append(
        (width, "word-level ATPG", "found", 1, result.statistics.wall_seconds)
    )


def test_corner_case_report(benchmark):
    """Assemble the comparison table."""
    if len(_ROWS) < 3 * len(WIDTHS):
        pytest.skip("corner-case rows did not all run")

    def _format():
        header = "%8s %-20s %-8s %10s %10s" % (
            "width", "engine", "outcome", "vectors", "wall (s)",
        )
        lines = [header, "-" * len(header)]
        for row in sorted(_ROWS):
            lines.append("%8d %-20s %-8s %10d %10.3f" % row)
        return "\n".join(lines)

    table = benchmark.pedantic(_format, rounds=1, iterations=1)
    title = (
        "[Motivation] corner-case bug (single magic value in a 2**width space), "
        "random budget %d vectors" % (RANDOM_BUDGET_VECTORS,)
    )
    reporting.register_table(title, table)
    print("\n" + title + "\n" + table)
