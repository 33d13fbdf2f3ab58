"""Normalized results for the engine portfolio.

Every backend engine (word-level ATPG, BDD reachability, SAT bounded model
checking, random simulation) reports its own result dataclass with its own
cost counters.  The portfolio layer needs one shape it can race, compare and
serialise, so the adapters in :mod:`repro.portfolio.engines` normalise each
backend verdict into an :class:`EngineResult`:

* ``status`` uses the shared :class:`~repro.checker.result.CheckStatus`,
  and :attr:`EngineResult.verdict` reads its ``reached``;
* ``conclusive`` is the *engine-aware* notion of a final answer -- random
  simulation reports ``HOLDS`` when its budget runs out, but that is not a
  proof, so the shared adapter ``run`` marks the result inconclusive;
* an engine that gave no answer -- cancelled, timed out or failed -- is
  built by :meth:`EngineResult.unanswered`;
* ``counterexample`` is always a validated
  :class:`~repro.checker.result.Counterexample` (SAT traces are replayed
  through the concrete simulator first);
* ``stats`` is a flat JSON-friendly dict of the engine's native counters.

:class:`PortfolioResult` aggregates the per-engine results of one property
together with the winning engine and cross-engine disagreement detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checker.report import counterexample_to_dict
from repro.checker.result import CheckStatus, Counterexample


@dataclass
class EngineResult:
    """One engine's verdict on one property, in portfolio-normalised form."""

    #: registry name of the engine that produced this result.
    engine: str
    status: CheckStatus
    #: whether the engine considers this a final answer (see module docstring).
    conclusive: bool
    wall_seconds: float = 0.0
    counterexample: Optional[Counterexample] = None
    #: engine-native cost counters (decisions, BDD nodes, clauses, vectors...).
    stats: Dict[str, object] = field(default_factory=dict)
    #: the engine exceeded its wall-clock budget and was stopped.
    timed_out: bool = False
    #: another engine answered first and this one was cancelled.
    cancelled: bool = False
    #: the engine raised; the message is recorded instead of propagating.
    error: Optional[str] = None
    #: for an "unreachable" verdict: the number of frames it covers (the
    #: engine only searched counterexamples with ``target_frame < bound``).
    #: ``None`` means the verdict is an unbounded proof (BDD fixed point).
    bound: Optional[int] = None

    @classmethod
    def unanswered(
        cls,
        engine: str,
        wall_seconds: float = 0.0,
        *,
        timed_out: bool = False,
        cancelled: bool = False,
        error: Optional[str] = None,
    ) -> "EngineResult":
        """The result of an engine that gave no answer: it was cancelled,
        timed out or failed with ``error``."""
        return cls(
            engine=engine,
            status=CheckStatus.ABORTED,
            conclusive=False,
            wall_seconds=wall_seconds,
            timed_out=timed_out,
            cancelled=cancelled,
            error=error,
        )

    @property
    def verdict(self) -> Optional[str]:
        """``"reachable"`` / ``"unreachable"``, or ``None`` if inconclusive."""
        if not self.conclusive or self.error is not None:
            return None
        reached = self.status.reached
        if reached is None:
            return None
        return "reachable" if reached else "unreachable"

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly description of this engine run."""
        payload: Dict[str, object] = {
            "engine": self.engine,
            "status": self.status.value,
            "conclusive": self.conclusive,
            "verdict": self.verdict,
            "wall_seconds": round(self.wall_seconds, 6),
            "stats": dict(self.stats),
        }
        if self.bound is not None:
            payload["bound"] = self.bound
        if self.timed_out:
            payload["timed_out"] = True
        if self.cancelled:
            payload["cancelled"] = True
        if self.error is not None:
            payload["error"] = self.error
        if self.counterexample is not None:
            payload["trace"] = counterexample_to_dict(self.counterexample)
        return payload


def detect_disagreement(results: List[EngineResult]) -> List[str]:
    """Names of engines whose conclusive verdicts genuinely conflict.

    Only conclusive results participate: a timed-out BDD run or an
    inconclusive random-simulation sweep cannot disagree with anything.
    Bounded and unbounded engines are compared soundly:

    * an unbounded "unreachable" proof (``bound is None``) conflicts with
      *any* "reachable" claim;
    * a bounded "unreachable within k frames" verdict only conflicts with a
      "reachable" result whose witness trace lands inside those k frames --
      an exact engine finding a deeper witness is expected, not a bug;
    * a "reachable" claim without a trace (the BDD engine decides state
      *sets*, not traces) cannot contradict a bounded verdict either way.

    Returns the conflicting engine names in portfolio order, or an empty
    list when every conclusive verdict is consistent.
    """
    reachable = [r for r in results if r.verdict == "reachable"]
    unreachable = [r for r in results if r.verdict == "unreachable"]
    conflicting = set()
    for absent in unreachable:
        for present in reachable:
            depth = (
                present.counterexample.target_frame
                if present.counterexample is not None
                else None
            )
            if absent.bound is None:
                # A proof of absence contradicts every claimed hit.
                conflict = True
            else:
                conflict = depth is not None and depth < absent.bound
            if conflict:
                conflicting.add(absent.engine)
                conflicting.add(present.engine)
    return [r.engine for r in results if r.engine in conflicting]


@dataclass
class PortfolioResult:
    """The outcome of racing a portfolio of engines on one property."""

    prop_name: str
    #: ``"assertion"`` or ``"witness"``.
    kind: str
    #: overall verdict: the winner's status, or ``ABORTED`` if nobody won.
    status: CheckStatus
    #: engine that produced the first conclusive answer, if any.
    winner: Optional[str]
    #: per-engine results, in the portfolio's configured engine order.
    engine_results: List[EngineResult] = field(default_factory=list)
    #: wall-clock time of the whole race (first conclusive answer wins).
    wall_seconds: float = 0.0

    @property
    def conclusive(self) -> bool:
        return self.winner is not None

    @property
    def counterexample(self) -> Optional[Counterexample]:
        """The winning engine's trace, or any available validated trace."""
        ranked = sorted(
            self.engine_results, key=lambda r: r.engine != self.winner
        )
        for result in ranked:
            if result.counterexample is not None and result.counterexample.validated:
                return result.counterexample
        return None

    @property
    def disagreement(self) -> List[str]:
        """Engines with conflicting conclusive verdicts (soundness alarm)."""
        return detect_disagreement(self.engine_results)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly description of the race."""
        return {
            "property": self.prop_name,
            "kind": self.kind,
            "status": self.status.value,
            "winner": self.winner,
            "wall_seconds": round(self.wall_seconds, 6),
            "disagreement": self.disagreement,
            "engines": [result.to_dict() for result in self.engine_results],
        }
