"""Racing a portfolio of engines on one property.

Complementary engines have complementary failure modes: BDD reachability is
instant on small state spaces but explodes on wide datapaths, the word-level
ATPG engine shines exactly there, SAT is robust but slow on deep UNSAT
unrollings, and random simulation stumbles on easy violations in
microseconds.  Rather than picking one heuristic up front, a
:class:`PortfolioChecker` runs several engines on the same property and
returns the first conclusive answer.

Two execution modes, derived from the race rather than configured:

* ``process`` -- every engine runs in its own forked worker; the first
  conclusive result wins and the losers are terminated immediately.  This is
  real cancellation (a diverging BDD traversal is killed mid-flight) and also
  enforces the per-engine wall-clock budget.  Used whenever more than one
  engine races or a time budget is set, and the process may fork
  (:func:`can_spawn_engines`).
* ``sequential`` -- engines run in order in the current process, stopping at
  the first conclusive answer.  Used otherwise, e.g. on platforms without
  ``fork`` or inside a daemonic process.  Every engine checks the
  portfolio's own circuit, so the ATPG engine reuses the circuit's cached
  model and learned facts from earlier checks.  A running engine cannot be
  preempted in this mode: an inconclusive engine that overran its
  per-engine cap is merely flagged ``timed_out`` after the fact (which is
  why a time budget selects ``process`` even for a single engine); the
  step budgets (:class:`~repro.portfolio.engines.EngineBudget`) still apply
  inside each engine.  Batch-runner workers are plain non-daemonic processes, so even
  nested portfolios resolve to ``process`` mode and stay budget-enforced.

With ``run_all=True`` every engine runs to completion (no early cancel) so
the per-engine results can be compared -- that is the differential-testing /
benchmarking configuration, where
:attr:`~repro.portfolio.result.PortfolioResult.disagreement` flags soundness
bugs.  Its winner does not depend on which engine finished first.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.checker.result import CheckStatus
from repro.netlist.circuit import Circuit
from repro.portfolio.engines import Engine, EngineBudget, make_engine
from repro.portfolio.result import EngineResult, PortfolioResult
from repro.properties.environment import Environment
from repro.properties.spec import Property


@dataclass
class PortfolioOptions:
    """Configuration of a portfolio race."""

    budget: EngineBudget = field(default_factory=EngineBudget)
    #: run every engine to completion instead of cancelling after the first
    #: conclusive answer (for disagreement detection and benchmarking).
    run_all: bool = False


def fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unsupported.

    Every process this package and the service fork takes its context from
    here.  The checker loads the datapath solver only on first use, so load
    it now, before any fork: no child (an engine racer, a batch worker, a
    daemon worker respawned after retirement) compiles it inside a job.
    """
    import repro.modsolver.extract  # noqa: F401

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def can_spawn_engines() -> bool:
    """Whether this process may fork engine-race children.

    Daemonic processes (e.g. the verification service's per-circuit
    workers) are forbidden children by multiprocessing; a budgeted check
    running inside one must race sequentially instead of crashing.
    """
    return fork_context() is not None and not multiprocessing.current_process().daemon


def _run_engine_to_queue(result_queue, index, engine, circuit, prop,
                         environment, initial_state, budget):
    """Worker body: run one engine and ship its result to the parent."""
    result = engine.run(circuit, prop, environment, initial_state, budget)
    result_queue.put((index, result))


def drain_queue(result_queue, collected: Dict[int, object]) -> None:
    """Collect whatever complete results are sitting in a queue, non-blocking.

    Must only be called while the writers are alive or have exited cleanly:
    a worker killed mid-write leaves a truncated pickle in the pipe, and
    reading it can block or raise.  Any deserialisation error therefore just
    stops the drain -- one broken payload must not take down the layer.
    """
    while True:
        try:
            index, result = result_queue.get_nowait()
        except queue_module.Empty:
            return
        except Exception:  # truncated/corrupt payload, closed queue, ...
            return
        collected.setdefault(index, result)


class PortfolioChecker:
    """Checks properties by racing several engines (first answer wins).

    ``engines`` accepts registry names (``"atpg"``, ``"bdd"``, ``"sat"``,
    ``"random"``) or ready-made :class:`~repro.portfolio.engines.Engine`
    objects; results are always reported in the given engine order,
    regardless of finishing order.
    """

    def __init__(
        self,
        circuit: Circuit,
        engines: Sequence[Union[str, Engine]] = ("atpg", "bdd"),
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        options: Optional[PortfolioOptions] = None,
    ):
        circuit.validate()
        if not engines:
            raise ValueError("portfolio needs at least one engine")
        self.circuit = circuit
        self.engines: List[Engine] = [
            make_engine(engine) if isinstance(engine, str) else engine
            for engine in engines
        ]
        names = [engine.name for engine in self.engines]
        if len(set(names)) != len(names):
            raise ValueError("duplicate engines in portfolio: %s" % (names,))
        self.environment = environment
        self.initial_state = dict(initial_state) if initial_state else None
        self.options = options if options is not None else PortfolioOptions()

    # ------------------------------------------------------------------
    def check(self, prop: Property) -> PortfolioResult:
        """Race the configured engines on one property."""
        started = time.perf_counter()
        mode = self._resolve_mode()
        if mode == "process":
            results = self._race_processes(prop)
        else:
            results = self._run_sequential(prop)
        winner = self._pick_winner(results)
        return PortfolioResult(
            prop_name=prop.name,
            kind="assertion" if prop.is_assertion else "witness",
            status=winner.status if winner is not None else CheckStatus.ABORTED,
            winner=winner.engine if winner is not None else None,
            engine_results=results,
            wall_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def _resolve_mode(self) -> str:
        needs_process = (
            len(self.engines) > 1
            # A wall-clock budget is only enforceable by terminating the
            # worker, so a budgeted single-engine run still forks.
            or self.options.budget.time_seconds is not None
        )
        if needs_process and can_spawn_engines():
            return "process"
        return "sequential"

    def _pick_winner(self, results: List[EngineResult]) -> Optional[EngineResult]:
        """The conclusive engine whose answer the portfolio reports.

        A race reports the first to finish.  With ``run_all`` the choice
        reads the answers, never the clock: a counterexample first, then an
        unbounded proof, then the largest bound.  Ties go in engine order.
        """
        conclusive = [r for r in results if r.verdict is not None]
        if not conclusive:
            return None
        if not self.options.run_all:
            return min(conclusive, key=lambda r: r.wall_seconds)
        return min(conclusive, key=lambda r: (
            r.counterexample is None, r.bound is not None, -(r.bound or 0),
        ))

    # ------------------------------------------------------------------
    def _run_sequential(self, prop: Property) -> List[EngineResult]:
        budget = self.options.budget
        results: List[EngineResult] = []
        finished = False
        for engine in self.engines:
            if finished:
                results.append(EngineResult.unanswered(engine.name, cancelled=True))
                continue
            result = engine.run(
                self.circuit, prop, self.environment, self.initial_state, budget
            )
            # This mode cannot preempt a running engine; flag an
            # inconclusive overrun of the per-engine cap after the fact (a
            # conclusive answer is kept -- discarding it would be worse).
            if (
                budget.time_seconds is not None
                and result.verdict is None
                and result.wall_seconds > budget.time_seconds
            ):
                result.timed_out = True
            results.append(result)
            if result.verdict is not None and not self.options.run_all:
                finished = True
        return results

    # ------------------------------------------------------------------
    def _race_processes(self, prop: Property) -> List[EngineResult]:
        ctx = fork_context()
        budget = self.options.budget
        result_queue = ctx.Queue()
        processes = []
        for index, engine in enumerate(self.engines):
            process = ctx.Process(
                target=_run_engine_to_queue,
                args=(
                    result_queue, index, engine, self.circuit, prop,
                    self.environment, self.initial_state, budget,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)

        started = time.perf_counter()
        deadline = (
            started + budget.time_seconds if budget.time_seconds is not None else None
        )
        collected: Dict[int, EngineResult] = {}
        winner_seen = False
        timed_out = False
        while len(collected) < len(self.engines):
            if deadline is not None and time.perf_counter() >= deadline:
                timed_out = True
                break
            try:
                index, result = result_queue.get(timeout=0.05)
            except queue_module.Empty:
                if all(not process.is_alive() for process in processes):
                    # Every worker exited; drain whatever is still in flight.
                    drain_queue(result_queue, collected)
                    break
                continue
            collected[index] = result
            if result.verdict is not None and not self.options.run_all:
                winner_seen = True
                break

        # Pick up results that completed in the same window BEFORE stopping
        # anyone -- after terminate() the pipe may hold a truncated pickle
        # and must not be read again.
        drain_queue(result_queue, collected)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)
        result_queue.close()
        result_queue.cancel_join_thread()

        if winner_seen:
            missing = {"cancelled": True}
        elif timed_out:
            missing = {"timed_out": True}
        else:
            missing = {"error": "engine worker exited without reporting a result"}
        waited = time.perf_counter() - started
        return [
            collected[index] if index in collected
            else EngineResult.unanswered(engine.name, waited, **missing)
            for index, engine in enumerate(self.engines)
        ]
