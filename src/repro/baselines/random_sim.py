"""Random-simulation baseline (the verification flow the paper improves on).

The introduction of the paper motivates deterministic engines by the
weakness of (pseudo-)random simulation: corner-case behaviours need an
exhaustive or lucky stimulus, so coverage saturates and tricky bugs are
missed.  This baseline implements exactly that flow -- drive the design with
random input vectors that respect the environment, watch the compiled
property monitor -- so the benchmark harness can measure how often random
simulation finds the counterexamples / witnesses that the word-level ATPG
engine generates deterministically.

The circuit is compiled once into a lane program (:mod:`repro.sim`: the
shared word-to-bit lowering generated as straight-line code, kept until the
circuit gains gates) and simulated ``sim_width`` independent runs per batch,
one run per bit lane.  Pins and one-hot groups hold by construction of the
sampled stimulus; every lane also carries a running *valid* mask that ANDs
the lowered environment's pins and constraint nets cycle by cycle, so a lane
that ever violates an assumption can never report a hit.  All randomness
is drawn from the per-check RNG (seeded from the per-job derived seed), so
CI runs are bit-for-bit reproducible.  A hit is replayed through
:func:`~repro.simulation.replay_trace`, which builds (and independently
validates) the reported counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.checker.result import CheckResult, CheckStatus, Counterexample
from repro.checker.stats import CheckStatistics, ResourceMeter
from repro.netlist.circuit import Circuit
from repro.properties.convert import PropertyCompiler
from repro.properties.environment import Environment
from repro.properties.spec import Assertion, Property
from repro.sim import BitParallelSim, RandomLaneSampler, compile_circuit
from repro.simulation.replay import replay_trace


@dataclass
class RandomSimulationOptions:
    """Configuration of the random simulation baseline."""

    #: number of independent simulation runs (each from the initial state).
    num_runs: int = 64
    #: number of clock cycles per run.
    cycles_per_run: int = 16
    #: RNG seed for reproducible experiments.
    seed: int = 2000
    #: lanes per bit-parallel batch (K); each lane is an independent run.
    sim_width: int = 64


class RandomSimulationChecker:
    """Checks properties by random simulation of the compiled monitor.

    The API mirrors :class:`~repro.checker.engine.AssertionChecker` so the
    two engines are interchangeable in the benchmark harness.  For an
    :class:`~repro.properties.spec.Assertion` the checker searches for a cycle
    where the monitor is low (a counterexample); for a witness it searches
    for a cycle where the monitor is high.  Not finding one is *inconclusive*
    (unlike the ATPG engine, random simulation can never prove absence), which
    is reported as ``HOLDS`` / ``WITNESS_NOT_FOUND`` purely for comparability.
    """

    def __init__(
        self,
        circuit: Circuit,
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        options: Optional[RandomSimulationOptions] = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.environment = environment if environment is not None else Environment()
        self.options = options if options is not None else RandomSimulationOptions()
        self.compiler = PropertyCompiler(circuit)
        self.lowered = self.compiler.compile_environment(self.environment, initial_state)
        self.initial_state = self.lowered.initial_state
        #: total vectors simulated by the last :meth:`check` call.
        self.vectors_simulated = 0

    # ------------------------------------------------------------------
    def check(
        self,
        prop: Property,
        num_runs: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> CheckResult:
        """Simulate random stimulus and report whether the goal was hit.

        ``seed`` overrides :attr:`RandomSimulationOptions.seed` for this call
        only; callers that fan checks out (the portfolio batch runner, CI)
        thread an explicit per-job seed through here so every run is
        reproducible.  All randomness -- including the bit-parallel lane
        stimulus -- is drawn from this one RNG.
        """
        compiled = self.compiler.compile(prop)
        goal_value = compiled.goal_value
        rng = random.Random(self.options.seed if seed is None else seed)
        runs = num_runs if num_runs is not None else self.options.num_runs
        statistics = CheckStatistics()
        self.vectors_simulated = 0

        with ResourceMeter() as meter:
            counterexample = self._simulate(compiled.monitor.name, goal_value, rng, runs)

        statistics.wall_seconds = meter.elapsed_seconds
        statistics.peak_memory_mb = meter.peak_memory_mb
        statistics.frames_explored = self.vectors_simulated

        if counterexample is not None and not counterexample.validated:
            # The replay refuted the simulator's hit: the verdict cannot
            # be trusted (same demotion the ATPG and SAT engines apply to
            # traces that fail concrete validation).
            return CheckResult(
                prop=prop,
                status=CheckStatus.ABORTED,
                frames_explored=self.vectors_simulated,
                counterexample=None,
                statistics=statistics,
            )
        if counterexample is not None:
            status = (
                CheckStatus.FAILS if isinstance(prop, Assertion) else CheckStatus.WITNESS_FOUND
            )
        else:
            status = (
                CheckStatus.HOLDS
                if isinstance(prop, Assertion)
                else CheckStatus.WITNESS_NOT_FOUND
            )
        return CheckResult(
            prop=prop,
            status=status,
            frames_explored=self.vectors_simulated,
            counterexample=counterexample,
            statistics=statistics,
        )

    # ------------------------------------------------------------------
    def _simulate(
        self, monitor_name: str, goal_value: int, rng: random.Random, runs: int
    ) -> Optional[Counterexample]:
        plan = compile_circuit(self.circuit)
        sampler = RandomLaneSampler(self.circuit, self.environment)
        remaining = runs
        sim: Optional[BitParallelSim] = None
        while remaining > 0:
            lanes = min(self.options.sim_width, remaining)
            remaining -= lanes
            if sim is None or sim.lanes != lanes:
                sim = BitParallelSim(plan, lanes=lanes, initial_state=self.initial_state)
            else:
                sim.reset(self.initial_state)
            hit = self._simulate_batch(sim, sampler, monitor_name, goal_value, rng)
            if hit is not None:
                return hit
        return None

    def _simulate_batch(
        self,
        sim: BitParallelSim,
        sampler: RandomLaneSampler,
        monitor_name: str,
        goal_value: int,
        rng: random.Random,
    ) -> Optional[Counterexample]:
        lanes = sim.lanes
        full = sim.full
        valid = full
        inputs_per_cycle: List[Dict[str, List[int]]] = []
        for cycle in range(self.options.cycles_per_run):
            stimulus = sampler.sample(rng, lanes)
            inputs_per_cycle.append(stimulus)
            sim.step(stimulus)
            self.vectors_simulated += lanes
            for name, value in self.lowered.pins.items():
                for position, bits in enumerate(sim.peek(name)):
                    valid &= bits if (value >> position) & 1 else bits ^ full
            for net in self.lowered.constraints:
                valid &= sim.peek(net.name)[0]
            monitor = sim.peek(monitor_name)[0]
            hits = (monitor if goal_value else monitor ^ full) & valid
            if hits:
                lane = (hits & -hits).bit_length() - 1
                return self._replay_lane(
                    sampler, inputs_per_cycle, lane, cycle, monitor_name, goal_value
                )
        return None

    def _replay_lane(
        self,
        sampler: RandomLaneSampler,
        inputs_per_cycle: List[Dict[str, List[int]]],
        lane: int,
        target_frame: int,
        monitor_name: str,
        goal_value: int,
    ) -> Counterexample:
        """Replay one hit lane: the full per-net trace, independently validated."""
        inputs = [
            sampler.scalar_vector(stimulus, lane) for stimulus in inputs_per_cycle
        ]
        return replay_trace(
            self.circuit, self.initial_state, inputs, target_frame,
            monitor_name, goal_value, self.lowered,
        )
