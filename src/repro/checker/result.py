"""Check results, verdicts and counterexample traces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checker.stats import CheckStatistics
from repro.properties.spec import Property


class CheckStatus(enum.Enum):
    """Verdict of a property check."""

    #: The assertion holds for every explored unrolling depth.
    HOLDS = "holds"
    #: A counterexample violating the assertion was found (and validated).
    FAILS = "fails"
    #: A witness sequence satisfying the goal was found (witness properties).
    WITNESS_FOUND = "witness_found"
    #: No witness exists within the explored unrolling depth.
    WITNESS_NOT_FOUND = "witness_not_found"
    #: A resource limit was reached before a conclusion.
    ABORTED = "aborted"

    @classmethod
    def of(cls, prop: Property, reached: Optional[bool]) -> "CheckStatus":
        """The verdict on ``prop`` of a check that ``reached`` its goal.

        The goal is a violation of an assertion or the witness state;
        ``reached`` is ``None`` when the check gave no answer.  Every engine
        decides its status here.
        """
        if reached is None:
            return cls.ABORTED
        if prop.is_assertion:
            return cls.FAILS if reached else cls.HOLDS
        return cls.WITNESS_FOUND if reached else cls.WITNESS_NOT_FOUND

    @classmethod
    def of_search(
        cls, prop: Property, trace: Optional["Counterexample"], aborted: bool = False
    ) -> Tuple["CheckStatus", Optional["Counterexample"]]:
        """The verdict and reported trace of a search that ended in ``trace``.

        A trace that fails replay is no verdict: the search over-approximated,
        so the check is aborted and the trace dropped.  No trace means the
        search was exhausted within its bound, unless it ``aborted``.
        """
        if trace is None:
            return cls.of(prop, None if aborted else False), None
        if not trace.validated:
            return cls.ABORTED, None
        return cls.of(prop, True), trace

    @property
    def reached(self) -> Optional[bool]:
        """Whether the check reached its goal; ``None`` when ``ABORTED``."""
        if self is CheckStatus.ABORTED:
            return None
        return self is CheckStatus.FAILS or self is CheckStatus.WITNESS_FOUND

    @property
    def is_conclusive(self) -> bool:
        return self is not CheckStatus.ABORTED


@dataclass
class Counterexample:
    """A concrete trace demonstrating a property violation (or a witness).

    ``inputs`` holds one input vector per time frame; ``initial_state`` the
    register values at frame 0; ``trace`` the full simulated net values per
    frame; ``target_frame`` the frame in which the (inverted) property goal
    is met.
    """

    initial_state: Dict[str, int]
    inputs: List[Dict[str, int]]
    trace: List[Dict[str, int]]
    target_frame: int
    monitor_name: str
    validated: bool = False

    @property
    def length(self) -> int:
        """Number of time frames in the trace."""
        return len(self.inputs)

    def value(self, frame: int, net_name: str) -> int:
        """Value of a net in a given frame of the simulated trace."""
        return self.trace[frame][net_name]

    def summary(self) -> str:
        """A short human-readable description of the trace."""
        lines = ["%d-cycle trace, goal at frame %d" % (self.length, self.target_frame)]
        for frame, vector in enumerate(self.inputs):
            interesting = ", ".join(
                "%s=%d" % (name, value) for name, value in sorted(vector.items())
            )
            lines.append("  frame %d: %s" % (frame, interesting))
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Verdict, trace (when one exists) and statistics of one property check."""

    prop: Property
    status: CheckStatus
    frames_explored: int
    counterexample: Optional[Counterexample] = None
    statistics: CheckStatistics = field(default_factory=CheckStatistics)

    @property
    def holds(self) -> bool:
        """True when the assertion holds (bounded) / the witness search is
        conclusive in the expected direction."""
        return self.status in (CheckStatus.HOLDS, CheckStatus.WITNESS_FOUND)

    def __repr__(self) -> str:
        memory = self.statistics.peak_memory_mb
        return "CheckResult(%s: %s, frames=%d, wall=%.3fs, mem=%s)" % (
            self.prop.name,
            self.status.value,
            self.frames_explored,
            self.statistics.wall_seconds,
            "%.2fMB" % (memory,) if memory else "not measured",
        )
