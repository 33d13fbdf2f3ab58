"""A SAT-based bounded model checker (bit-level baseline).

This follows the approach the paper cites as the SAT alternative (Biere et
al., DAC 1999): unroll the design over ``k`` frames, bit-blast it into CNF,
constrain the negated property at the last frame and call a SAT solver.  It
is used by the scalability benchmark to compare clause-database size / memory
and run time against the word-level ATPG engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.baselines.bitblast import CircuitBitBlaster
from repro.baselines.dpll import DPLLSolver, SATResult
from repro.checker.result import CheckStatus, Counterexample
from repro.checker.stats import ResourceMeter
from repro.netlist.circuit import Circuit
from repro.properties.convert import PropertyCompiler, check_scope
from repro.properties.environment import Environment
from repro.properties.spec import Property
from repro.simulation.replay import replay_trace


@dataclass
class SATCheckResult:
    """Verdict and cost statistics of the SAT baseline."""

    prop: Property
    status: CheckStatus
    frames_explored: int
    wall_seconds: float = 0.0
    peak_memory_mb: float = 0.0
    clauses: int = 0
    variables: int = 0
    decisions: int = 0
    #: the SAT model replayed through the concrete simulator.
    counterexample: Optional[Counterexample] = None

    @property
    def trace_inputs(self) -> Optional[List[Dict[str, int]]]:
        """Per-frame input vectors of the counterexample, if any."""
        return None if self.counterexample is None else self.counterexample.inputs


class SATBoundedChecker:
    """Bounded model checking via bit-blasting + DPLL."""

    def __init__(
        self,
        circuit: Circuit,
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        max_frames: int = 8,
        max_decisions: int = 2_000_000,
    ):
        circuit.validate()
        self.circuit = circuit
        self.max_frames = max_frames
        self.max_decisions = max_decisions
        self.compiler = PropertyCompiler(circuit)
        self.lowered = self.compiler.compile_environment(environment, initial_state)

    # ------------------------------------------------------------------
    def check(self, prop: Property, max_frames: Optional[int] = None) -> SATCheckResult:
        """Check one property with increasing unrolling depth."""
        compiled = self.compiler.compile(prop)
        scope = check_scope(self.circuit, compiled.monitor, self.lowered)
        bound = max_frames if max_frames is not None else self.max_frames
        total_clauses = 0
        total_variables = 0
        total_decisions = 0
        trace: Optional[Counterexample] = None
        aborted = False
        frames_explored = 0

        with ResourceMeter() as meter:
            for target_frame in range(compiled.warmup_frames, bound):
                frames_explored = target_frame + 1
                blaster = CircuitBitBlaster(
                    self.circuit, target_frame + 1,
                    initial_state=self.lowered.initial_state, scope=scope,
                )
                self._constrain_environment(blaster, target_frame + 1)
                blaster.constrain_bit(compiled.monitor, target_frame, compiled.goal_value)

                solver = DPLLSolver(blaster.formula, max_decisions=self.max_decisions)
                answer = solver.solve()
                total_clauses = max(total_clauses, len(blaster.formula))
                total_variables = max(total_variables, blaster.formula.num_variables)
                total_decisions += solver.stats.decisions

                if answer is SATResult.SAT:
                    trace = self._replay_model(blaster, solver, compiled, target_frame)
                    break
                if answer is SATResult.UNKNOWN:
                    aborted = True
                    break

        status, counterexample = CheckStatus.of_search(prop, trace, aborted)
        return SATCheckResult(
            prop=prop,
            status=status,
            frames_explored=frames_explored,
            wall_seconds=meter.elapsed_seconds,
            peak_memory_mb=meter.peak_memory_mb,
            clauses=total_clauses,
            variables=total_variables,
            decisions=total_decisions,
            counterexample=counterexample,
        )

    # ------------------------------------------------------------------
    def _constrain_environment(self, blaster: CircuitBitBlaster, num_frames: int) -> None:
        for frame in range(num_frames):
            for name, value in self.lowered.pins.items():
                blaster.constrain_value(self.circuit.net(name), frame, value)
            for net in self.lowered.constraints:
                blaster.constrain_bit(net, frame, 1)

    def _replay_model(
        self, blaster: CircuitBitBlaster, solver: DPLLSolver, compiled, target_frame: int
    ) -> Counterexample:
        """Replay the model's frame-0 state and inputs through the simulator."""
        initial_state = {
            ff.q.name: blaster.model_value(solver, ff.q, 0)
            for ff in blaster.scope.flip_flops
        }
        inputs = [
            {net.name: blaster.model_value(solver, net, frame) for net in self.circuit.inputs}
            for frame in range(target_frame + 1)
        ]
        return replay_trace(
            self.circuit, initial_state, inputs, target_frame,
            compiled.monitor.name, compiled.goal_value, self.lowered,
        )
