"""Engine protocol and adapters wrapping the four checking backends.

The repo grew four independent ways to decide a property -- the paper's
word-level ATPG checker, BDD symbolic reachability, SAT bounded model
checking and random simulation -- each with its own constructor signature and
result type.  This module puts them behind one small protocol:

.. code-block:: python

    class Engine(Protocol):
        name: str
        can_prove: bool
        def run(circuit, prop, environment, initial_state, budget) -> EngineResult

The four adapters share one ``run``: it times the check, captures a backend
exception into ``EngineResult.error`` (so one broken engine cannot take down
a portfolio race) and derives ``conclusive`` from the checker's
:attr:`~repro.checker.result.CheckStatus.reached` and the adapter's
``can_prove``.  Each adapter keeps only how it calls its checker, whether
its verdicts are bounded by the unrolling depth, and its native counters.
Budgets are normalised by :class:`EngineBudget` and mapped onto each
backend's native knobs (unrolling bound, BDD iteration/node limits, random
run counts and seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Protocol

# Engines run in worker processes forked from this one.  Loading the search
# here, before any fork, spares every ATPG worker loading it on its own.
import repro.atpg.justify  # noqa: F401
from repro.checker.engine import AssertionChecker, CheckerOptions
from repro.netlist.circuit import Circuit
from repro.portfolio.result import EngineResult
from repro.properties.environment import Environment
from repro.properties.spec import Property


@dataclass(frozen=True)
class EngineBudget:
    """Per-engine resource budget, mapped onto each backend's native knobs.

    ``time_seconds`` is enforced by the portfolio's process-mode race (the
    engine is terminated when it expires); the step-style limits below are
    enforced inside the engines themselves.
    """

    #: wall-clock cap per engine; ``None`` means no cap.
    time_seconds: Optional[float] = None
    #: unrolling bound for the bounded engines (ATPG, SAT).
    max_frames: int = 8
    #: fixed-point iteration cap for the BDD engine.
    bdd_iterations: int = 256
    #: BDD node allocation cap (the memory-explosion guard).
    bdd_node_limit: int = 2_000_000
    #: independent runs for the random-simulation engine.
    random_runs: int = 64
    #: cycles per random-simulation run.
    random_cycles: int = 16
    #: lanes per bit-parallel batch (K) for the random-simulation engine;
    #: each lane is an independent run of the circuit's lane program.
    sim_width: int = 64
    #: RNG seed threaded through the stochastic engines for reproducibility.
    seed: int = 2000

    @classmethod
    def from_request(cls, request) -> "EngineBudget":
        """Adapter over the unified :class:`repro.api.CheckRequest`.

        ``None`` request fields keep the budget's own defaults (duck-typed,
        like :meth:`repro.checker.engine.CheckerOptions.from_request`).
        """
        overrides = {}
        for name in ("max_frames", "seed", "sim_width", "random_runs",
                     "random_cycles", "bdd_iterations", "bdd_node_limit"):
            value = getattr(request, name, None)
            if value is not None:
                overrides[name] = value
        return cls(time_seconds=request.time_budget, **overrides)


class Engine(Protocol):
    """What the portfolio needs from a checking backend."""

    #: registry name (``atpg``, ``bdd``, ``sat``, ``random``).
    name: str
    #: whether an "unreachable" answer from this engine is a proof.  Random
    #: simulation can only ever find violations, never prove their absence.
    can_prove: bool

    def run(
        self,
        circuit: Circuit,
        prop: Property,
        environment: Optional[Environment],
        initial_state: Optional[Mapping[str, int]],
        budget: EngineBudget,
    ) -> EngineResult:
        """Decide ``prop`` on ``circuit`` within ``budget``; never raises."""
        ...


class _Adapter:
    """The ``run`` every adapter shares.

    It times the check, records an exception as ``error`` and builds the
    :class:`EngineResult`: a result is conclusive when the engine reached
    the goal, or did not reach it and ``can_prove``.  A subclass says only
    how it calls its checker (:meth:`_check`, which returns the checker's
    result and its native counters) and whether its verdicts cover
    ``budget.max_frames`` frames (``bounded``).
    """

    can_prove = True
    bounded = False

    def run(self, circuit, prop, environment, initial_state, budget) -> EngineResult:
        started = time.perf_counter()
        try:
            result, stats = self._check(circuit, prop, environment, initial_state, budget)
        except Exception as exc:  # pragma: no cover - defensive
            return EngineResult.unanswered(
                self.name, time.perf_counter() - started,
                error="%s: %s" % (type(exc).__name__, exc),
            )
        reached = result.status.reached
        return EngineResult(
            engine=self.name,
            status=result.status,
            conclusive=reached is not None and (reached or self.can_prove),
            wall_seconds=time.perf_counter() - started,
            counterexample=result.counterexample,
            bound=budget.max_frames if self.bounded else None,
            stats=stats,
        )


class AtpgEngine(_Adapter):
    """Adapter for the paper's word-level ATPG :class:`AssertionChecker`.

    ``options`` configures the checker (learning, knowledge base, FSM
    guidance, ...); only its ``max_frames`` is replaced by the budget's.
    Consecutive ``run`` calls on the *same circuit object* reuse its cached
    model and learned cubes: the jobs of one batch group, or the budgeted
    jobs of one daemon worker.
    """

    name = "atpg"
    bounded = True

    def __init__(self, options: Optional[CheckerOptions] = None):
        self.options = options if options is not None else CheckerOptions()

    @classmethod
    def from_request(cls, request) -> "AtpgEngine":
        """A fully configured adapter from the unified request type."""
        return cls(CheckerOptions.from_request(request))

    def _check(self, circuit, prop, environment, initial_state, budget):
        from repro.checker.report import statistics_to_dict

        options = replace(self.options, max_frames=budget.max_frames)
        result = AssertionChecker(
            circuit, environment=environment, initial_state=initial_state,
            options=options,
        ).check(prop)
        stats = {"frames_explored": result.frames_explored,
                 "learning": options.learning}
        stats.update(statistics_to_dict(result.statistics))
        return result, stats


class BddEngine(_Adapter):
    """Adapter for the BDD symbolic reachability baseline."""

    name = "bdd"

    def _check(self, circuit, prop, environment, initial_state, budget):
        from repro.baselines.bdd_checker import BddSymbolicChecker

        result = BddSymbolicChecker(
            circuit, environment=environment, initial_state=initial_state,
            max_iterations=budget.bdd_iterations, node_limit=budget.bdd_node_limit,
        ).check(prop)
        return result, {
            "iterations": result.iterations,
            "peak_nodes": result.peak_nodes,
            "reachable_nodes": result.reachable_nodes,
            "reachable_states": result.reachable_states,
            "peak_memory_mb": round(result.peak_memory_mb, 4),
        }


class SatEngine(_Adapter):
    """Adapter for the bit-blasting SAT bounded model checker."""

    name = "sat"
    bounded = True

    def _check(self, circuit, prop, environment, initial_state, budget):
        from repro.baselines.sat_checker import SATBoundedChecker

        result = SATBoundedChecker(
            circuit, environment=environment, initial_state=initial_state,
            max_frames=budget.max_frames,
        ).check(prop)
        return result, {
            "frames_explored": result.frames_explored,
            "clauses": result.clauses,
            "variables": result.variables,
            "decisions": result.decisions,
            "peak_memory_mb": round(result.peak_memory_mb, 4),
        }


class RandomSimEngine(_Adapter):
    """Adapter for the random-simulation baseline on the bit-parallel simulator.

    A found violation/witness is conclusive (the trace is concrete), but an
    exhausted budget proves nothing (``can_prove`` is false), so in a race
    this engine can win reachable cases but never unreachable ones.
    ``budget.sim_width`` sets the lane count K of each call of the circuit's
    generated lane program (``repro check --sim-width``).
    """

    name = "random"
    can_prove = False

    def _check(self, circuit, prop, environment, initial_state, budget):
        from repro.baselines.random_sim import (
            RandomSimulationChecker,
            RandomSimulationOptions,
        )

        result = RandomSimulationChecker(
            circuit, environment=environment, initial_state=initial_state,
            options=RandomSimulationOptions(
                num_runs=budget.random_runs,
                cycles_per_run=budget.random_cycles,
                sim_width=budget.sim_width,
            ),
        ).check(prop, seed=budget.seed)
        return result, {
            "vectors_simulated": result.frames_explored,
            "seed": budget.seed,
            "sim_width": budget.sim_width,
            "peak_memory_mb": round(result.statistics.peak_memory_mb, 4),
        }


#: Engine registry: name -> zero-argument adapter factory.  Its names, in
#: order, are :data:`repro.api.ENGINE_NAMES`, which requests are checked
#: against without importing the portfolio.
ENGINE_REGISTRY = {
    AtpgEngine.name: AtpgEngine,
    BddEngine.name: BddEngine,
    SatEngine.name: SatEngine,
    RandomSimEngine.name: RandomSimEngine,
}


def make_engine(name: str) -> Engine:
    """Instantiate an engine adapter by registry name."""
    try:
        factory = ENGINE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown engine %r (available: %s)" % (name, ", ".join(ENGINE_REGISTRY))
        ) from None
    return factory()
