"""Interpreted random simulation: the reference the bit-parallel engine is pinned against.

:class:`~repro.baselines.random_sim.RandomSimulationChecker` simulates K
runs at once on the compiled bit-parallel kernel.  :func:`interpreted_check`
keeps the original vector-at-a-time loop on the reference
:class:`~repro.simulation.Simulator` as a test and benchmark oracle: one run
after another, one input vector per cycle, rejection-sampled until the
lowered environment's pins and constraint nets hold.
``tests/test_bitparallel.py`` and ``benchmarks/bench_random_sim.py`` compare
both paths.
"""

import random
import time

from repro.baselines.random_sim import RandomSimulationOptions
from repro.checker.result import CheckResult, CheckStatus
from repro.checker.stats import CheckStatistics
from repro.properties.convert import PropertyCompiler
from repro.simulation import Simulator, replay_trace

#: vectors drawn per cycle before a run is abandoned as unsatisfiable.
ENVIRONMENT_RETRIES = 32


def interpreted_check(circuit, prop, environment=None, initial_state=None, options=None):
    """Random-simulate ``prop`` one vector at a time; frames_explored counts vectors."""
    options = options if options is not None else RandomSimulationOptions()
    compiler = PropertyCompiler(circuit)
    lowered = compiler.compile_environment(environment, initial_state)
    compiled = compiler.compile(prop)
    monitor, goal = compiled.monitor.name, compiled.goal_value
    rng = random.Random(options.seed)
    started = time.perf_counter()
    vectors = 0
    counterexample = None
    for _ in range(options.num_runs):
        simulator = Simulator(circuit, initial_state=lowered.initial_state)
        inputs = []
        for cycle in range(options.cycles_per_run):
            vector = _draw_vector(circuit, simulator, lowered, rng)
            if vector is None:
                break
            inputs.append(vector)
            vectors += 1
            if simulator.step(vector)[monitor] == goal:
                counterexample = replay_trace(
                    circuit, lowered.initial_state, inputs, cycle, monitor, goal, lowered
                )
                break
        if counterexample is not None:
            break
    statistics = CheckStatistics()
    statistics.wall_seconds = time.perf_counter() - started
    statistics.frames_explored = vectors
    if counterexample is None:
        status = CheckStatus.HOLDS if prop.is_assertion else CheckStatus.WITNESS_NOT_FOUND
    else:
        status = CheckStatus.FAILS if prop.is_assertion else CheckStatus.WITNESS_FOUND
    return CheckResult(
        prop=prop,
        status=status,
        frames_explored=vectors,
        counterexample=counterexample,
        statistics=statistics,
    )


def _draw_vector(circuit, simulator, lowered, rng):
    """One random input vector under which the environment holds, or None."""
    for _ in range(ENVIRONMENT_RETRIES):
        vector = {
            net.name: lowered.pins[net.name] if net.name in lowered.pins
            else rng.randrange(1 << net.width)
            for net in circuit.inputs
        }
        values = simulator.evaluate_combinational(vector)
        if all(values[net] == 1 for net in lowered.constraints):
            return vector
    return None
