"""Engine portfolio: race diverse checkers, batch jobs across workers.

The repo contains four complementary decision procedures for the same
question ("can this property be violated?"):

* the paper's word-level ATPG + modular arithmetic checker
  (:mod:`repro.checker.engine`),
* BDD symbolic reachability (:mod:`repro.baselines.bdd_checker`),
* SAT bounded model checking (:mod:`repro.baselines.sat_checker`),
* constrained random simulation (:mod:`repro.baselines.random_sim`).

This package wraps them behind one :class:`~repro.portfolio.engines.Engine`
protocol with a normalised :class:`~repro.portfolio.result.EngineResult`,
races them per property (:class:`~repro.portfolio.checker.PortfolioChecker`,
first conclusive answer wins, losers are cancelled) and fans many
(circuit, property) jobs across a process pool
(:class:`~repro.portfolio.batch.BatchRunner`) with deterministic ordering,
per-job seeds derived from the budget's seed and structured JSON reports.
ATPG checker settings (learning, knowledge base, FSM guidance) ride on the
engine itself: pass ``AtpgEngine(CheckerOptions(...))`` in place of the
``"atpg"`` name.

Quickstart::

    from repro.portfolio import BatchJob, BatchOptions, BatchRunner

    report = BatchRunner(BatchOptions(engines=("atpg", "bdd"), jobs=4)).run([
        BatchJob("overflow", circuit, Assertion("no_overflow", expr)),
        ...
    ])
    print(report.to_json())
"""

from repro.portfolio.batch import (
    REPORT_SCHEMA,
    BatchItem,
    BatchJob,
    BatchOptions,
    BatchReport,
    BatchRunner,
)
from repro.portfolio.checker import PortfolioChecker, PortfolioOptions
from repro.portfolio.engines import (
    ENGINE_REGISTRY,
    AtpgEngine,
    BddEngine,
    Engine,
    EngineBudget,
    RandomSimEngine,
    SatEngine,
    available_engines,
    make_engine,
)
from repro.portfolio.result import (
    EngineResult,
    PortfolioResult,
    detect_disagreement,
)

__all__ = [
    "REPORT_SCHEMA",
    "BatchItem",
    "BatchJob",
    "BatchOptions",
    "BatchReport",
    "BatchRunner",
    "PortfolioChecker",
    "PortfolioOptions",
    "ENGINE_REGISTRY",
    "AtpgEngine",
    "BddEngine",
    "Engine",
    "EngineBudget",
    "RandomSimEngine",
    "SatEngine",
    "available_engines",
    "make_engine",
    "EngineResult",
    "PortfolioResult",
    "detect_disagreement",
]
