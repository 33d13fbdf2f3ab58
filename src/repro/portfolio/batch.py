"""Fanning (circuit, property) jobs across a worker pool.

The checker loop in :mod:`repro.checker.engine` decides one property on one
circuit; a verification run in practice is hundreds of such jobs.
:class:`BatchRunner` spreads a job list across a ``multiprocessing`` pool
(one portfolio per job) and produces a structured, JSON-serialisable
:class:`BatchReport`:

* result ordering is deterministic -- reports always follow the submission
  order, regardless of which worker finished first;
* per-job RNG seeds are derived from the budget's seed
  (``budget.seed + job index``) unless the job pins its own, so a batch is
  bit-for-bit reproducible in CI;
* workers are plain (non-daemonic) processes fed from a task queue -- not a
  ``multiprocessing.Pool``, whose daemonic workers may not fork children --
  so every job's portfolio can still race its engines in separate processes
  and wall-clock budgets stay enforced by cancellation under ``jobs > 1``.
"""

from __future__ import annotations

import json
import queue as queue_module
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.checker.result import CheckStatus
from repro.netlist.circuit import Circuit
from repro.portfolio.checker import (
    PortfolioChecker,
    PortfolioOptions,
    drain_queue,
    fork_context,
)
from repro.portfolio.engines import AtpgEngine, Engine, EngineBudget
from repro.portfolio.result import EngineResult, PortfolioResult
from repro.properties.environment import Environment
from repro.properties.spec import Property

#: JSON schema tag of the batch report (bump on incompatible change).
REPORT_SCHEMA = "repro-batch-report/v1"


@dataclass
class BatchJob:
    """One (circuit, property) work item."""

    job_id: str
    circuit: Circuit
    prop: Property
    environment: Optional[Environment] = None
    initial_state: Optional[Mapping[str, int]] = None
    #: per-job unrolling bound; ``None`` inherits the batch budget.
    max_frames: Optional[int] = None
    #: per-job RNG seed; ``None`` derives one from the batch budget's seed.
    seed: Optional[int] = None


@dataclass
class BatchOptions:
    """Configuration of a batch run.

    Job ``i`` runs with seed ``budget.seed + i`` unless it pins its own.
    ATPG checker settings (learning, knowledge base, FSM guidance) ride on
    a configured :class:`~repro.portfolio.engines.AtpgEngine` in
    ``engines``.
    """

    #: registry names or ready-made :class:`Engine` adapters.
    engines: Sequence[Union[str, Engine]] = ("atpg",)
    budget: EngineBudget = field(default_factory=EngineBudget)
    #: worker processes; 1 runs inline (and lets the portfolio race).
    jobs: int = 1
    #: run every engine to completion for cross-engine comparison.
    run_all: bool = False

    @classmethod
    def from_request(cls, request) -> "BatchOptions":
        """Adapter over the unified :class:`repro.api.CheckRequest`.

        The request carries the only authoritative knob list; this maps it
        onto the batch runner's shape, replacing every ``"atpg"`` name with
        an :class:`~repro.portfolio.engines.AtpgEngine` configured from the
        same request.  Duck-typed to keep layering one-way.
        """
        configured = tuple(
            AtpgEngine.from_request(request) if name == "atpg" else name
            for name in request.engines
        )
        return cls(
            engines=configured,
            budget=EngineBudget.from_request(request),
            jobs=request.jobs,
            run_all=request.compare,
        )


@dataclass
class BatchItem:
    """One job's portfolio outcome inside a batch report."""

    job_id: str
    seed: int
    result: PortfolioResult

    def to_dict(self) -> Dict[str, object]:
        payload = self.result.to_dict()
        payload["job_id"] = self.job_id
        payload["seed"] = self.seed
        return payload


@dataclass
class BatchReport:
    """Structured outcome of a whole batch, ordered by submission."""

    engines: List[str]
    items: List[BatchItem]
    wall_seconds: float = 0.0
    #: the batch budget's seed, from which unpinned job seeds derive.
    base_seed: int = 2000
    #: resilience counters of the run (additive to ``repro-batch-report/v1``):
    #: ``worker_deaths`` (pool workers that exited nonzero), ``requeued``
    #: (jobs re-run inline after their worker died without reporting) and
    #: ``lost`` (jobs that still produced no result -- always 0 unless the
    #: inline requeue itself was impossible).
    resilience: Dict[str, int] = field(default_factory=dict)

    @property
    def disagreements(self) -> List[str]:
        """Job ids where engines returned conflicting verdicts."""
        return [item.job_id for item in self.items if item.result.disagreement]

    @property
    def inconclusive(self) -> List[str]:
        """Job ids where no engine reached a verdict."""
        return [item.job_id for item in self.items if not item.result.conclusive]

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": REPORT_SCHEMA,
            "engines": list(self.engines),
            "base_seed": self.base_seed,
            "jobs": len(self.items),
            "wall_seconds": round(self.wall_seconds, 6),
            "disagreements": self.disagreements,
            "inconclusive": self.inconclusive,
            "resilience": dict(self.resilience),
            "results": [item.to_dict() for item in self.items],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ----------------------------------------------------------------------
def _job_budget(budget: EngineBudget, job: BatchJob, seed: int) -> EngineBudget:
    """Specialise the batch budget with the job's bound and derived seed."""
    from dataclasses import replace

    overrides: Dict[str, object] = {"seed": seed}
    if job.max_frames is not None:
        overrides["max_frames"] = job.max_frames
    return replace(budget, **overrides)


def _engine_names(engines: Sequence[Union[str, Engine]]) -> List[str]:
    return [e if isinstance(e, str) else e.name for e in engines]


def _run_batch_job(payload: Tuple[int, BatchJob, Sequence[Union[str, Engine]],
                                  EngineBudget, int, bool]) -> BatchItem:
    """Run one job's portfolio (in the worker or inline) and wrap the outcome."""
    _index, job, engines, budget, seed, run_all = payload
    try:
        checker = PortfolioChecker(
            job.circuit,
            engines=engines,
            environment=job.environment,
            initial_state=job.initial_state,
            options=PortfolioOptions(
                budget=_job_budget(budget, job, seed),
                run_all=run_all,
            ),
        )
        result = checker.check(job.prop)
    except Exception as exc:
        # One broken job must not take down the batch; surface the failure
        # in the report instead.
        return _error_item(job, engines, seed, "%s: %s" % (type(exc).__name__, exc))
    return BatchItem(job_id=job.job_id, seed=seed, result=result)


def _error_item(job: BatchJob, engines: Sequence[Union[str, Engine]],
                seed: int, message: str) -> BatchItem:
    """A placeholder item for a job that produced no portfolio result."""
    return BatchItem(
        job_id=job.job_id,
        seed=seed,
        result=PortfolioResult(
            prop_name=job.prop.name,
            kind="assertion" if job.prop.is_assertion else "witness",
            status=CheckStatus.ABORTED,
            winner=None,
            engine_results=[
                EngineResult.unanswered(name, error=message)
                for name in _engine_names(engines)
            ],
        ),
    )


def _batch_worker(task_queue, result_queue) -> None:
    """Worker loop: pop payload *groups* until the ``None`` sentinel.

    Each task is the list of payloads sharing one circuit, pickled in one
    message, so the circuit is unpickled once per group and the group's
    jobs reuse its model and learned facts.
    """
    from repro.kb import flush_attached_stores

    while True:
        group = task_queue.get()
        if group is None:
            return
        for payload in group:
            result_queue.put((payload[0], _run_batch_job(payload)))
        # Group-completion flush: a circuit group's learned facts land on
        # disk before the next group starts (no-op without a knowledge
        # base); merge-on-write means concurrent workers cannot clobber
        # each other's flushes.
        flush_attached_stores()


class BatchRunner:
    """Runs a list of :class:`BatchJob` items and collects a report."""

    def __init__(self, options: Optional[BatchOptions] = None):
        self.options = options if options is not None else BatchOptions()
        if self.options.jobs < 1:
            raise ValueError("jobs must be >= 1")

    def run(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Execute every job and return the ordered report."""
        options = self.options
        started = time.perf_counter()
        base_seed = options.budget.seed
        payloads = [
            (
                index,
                job,
                tuple(options.engines),
                options.budget,
                job.seed if job.seed is not None else base_seed + index,
                options.run_all,
            )
            for index, job in enumerate(jobs)
        ]
        pool_size = self._pool_size(jobs)
        resilience = {"worker_deaths": 0, "requeued": 0, "lost": 0}
        if pool_size > 1:
            collected, deaths = self._run_workers(payloads, pool_size)
            resilience["worker_deaths"] = deaths
            for payload in payloads:
                if payload[0] in collected:
                    continue
                # A worker died without reporting this job; re-run it inline
                # once so a single crash never punches a hole in the report.
                resilience["requeued"] += 1
                collected[payload[0]] = _run_batch_job(payload)
        else:
            collected = {p[0]: _run_batch_job(p) for p in payloads}
        resilience["lost"] = sum(
            1 for index in range(len(payloads)) if collected.get(index) is None
        )
        items = [
            collected.get(index) or self._lost_item(payloads[index])
            for index in range(len(payloads))
        ]
        return BatchReport(
            engines=_engine_names(options.engines),
            items=items,
            wall_seconds=time.perf_counter() - started,
            base_seed=base_seed,
            resilience=resilience,
        )

    @staticmethod
    def _group_by_circuit(payloads, pool_size: int = 1) -> List[List[tuple]]:
        """Partition payloads into per-circuit task chunks (submission order).

        Jobs sharing a circuit ship together, so a worker unpickles the
        circuit once per chunk and runs the jobs back-to-back on one warm
        model.  Oversized groups are *chunked* so a batch dominated by one
        circuit (the common shape) still spreads across all ``pool_size``
        workers instead of serialising on one; each chunk keeps the
        single-pickle circuit sharing, and a worker crash loses at most one
        chunk.
        Report ordering is unaffected: results are reassembled by payload
        index.
        """
        groups: Dict[int, List[tuple]] = {}
        ordered: List[List[tuple]] = []
        for payload in payloads:
            circuit_id = id(payload[1].circuit)
            group = groups.get(circuit_id)
            if group is None:
                group = groups[circuit_id] = []
                ordered.append(group)
            group.append(payload)
        if pool_size <= 1:
            return ordered
        # Even chunking: enough tasks to occupy every worker, while keeping
        # chunks as large as possible (one circuit unpickle per chunk).
        chunk_size = max(1, -(-len(payloads) // pool_size))
        chunked: List[List[tuple]] = []
        for group in ordered:
            for start in range(0, len(group), chunk_size):
                chunked.append(group[start:start + chunk_size])
        return chunked

    # ------------------------------------------------------------------
    def _run_workers(
        self, payloads, pool_size: int
    ) -> Tuple[Dict[int, BatchItem], int]:
        """Fan payload groups across non-daemonic worker processes.

        Results are drained while the workers run (never after join: a child
        blocks on exit until its queue buffer is read), and submission order
        is restored from the payload index afterwards.  Returns the collected
        items plus the number of workers that died (nonzero exit codes).
        """
        ctx = fork_context()
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        for group in self._group_by_circuit(payloads, pool_size):
            task_queue.put(group)
        for _ in range(pool_size):
            task_queue.put(None)  # one stop sentinel per worker
        workers = [
            ctx.Process(target=_batch_worker, args=(task_queue, result_queue))
            for _ in range(pool_size)
        ]
        for worker in workers:
            worker.start()

        collected: Dict[int, BatchItem] = {}
        while len(collected) < len(payloads):
            try:
                index, item = result_queue.get(timeout=0.1)
            except queue_module.Empty:
                if not any(worker.is_alive() for worker in workers):
                    # Workers are gone (crash or clean exit); pick up results
                    # flushed in the race window, then report what we have.
                    drain_queue(result_queue, collected)
                    break
                continue
            collected[index] = item
        # Never read from the queue after a terminate() below: a worker
        # killed mid-write leaves a truncated payload behind.
        deaths = 0
        for worker in workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                deaths += 1
            elif worker.exitcode not in (0, None):
                deaths += 1
        return collected, deaths

    @staticmethod
    def _lost_item(payload) -> BatchItem:
        """Placeholder for a job whose worker died without reporting."""
        job, engines, seed = payload[1], payload[2], payload[4]
        return _error_item(
            job, engines, seed, "batch worker died before reporting a result"
        )

    def _pool_size(self, jobs: Sequence[BatchJob]) -> int:
        if fork_context() is None:  # pragma: no cover - non-POSIX platforms
            return 1
        return max(1, min(self.options.jobs, len(jobs)))
