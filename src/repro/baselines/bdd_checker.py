"""BDD-based symbolic reachability checking (the paper's comparison target).

The paper's scalability argument is made against BDD-based symbolic model
checking: "the set of reachable states may grow exponentially as the number
of registers increases" and "the BDD techniques may still suffer from the
memory explosion problem".  This module provides that baseline so the
benchmark harness can measure it:

1. every net bit the check sees (the design plus the property's own monitor
   and environment logic, :func:`~repro.properties.convert.check_scope`) is
   turned into a BDD over the current-state and input variables (a direct
   bit-level symbolic simulation of the word-level netlist),
2. the transition relation ``TR = AND_i (next_i <-> f_i)`` is built over an
   interleaved current/next variable order,
3. reachable states are computed by a breadth-first fixed point with image
   computation (relational product), and
4. a safety property fails iff a reachable state admits an input valuation
   that drives the compiled property monitor low (witnesses dually).

The checker reports peak BDD node counts along with run time and memory, so
the scalability benchmark can show the growth the paper talks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.baselines.bdd import FALSE, TRUE, BddLimitExceeded, BddManager
from repro.netlist.lowering import BitAlgebra
from repro.checker.result import CheckStatus
from repro.checker.stats import ResourceMeter
from repro.netlist.circuit import Circuit
from repro.netlist.nets import Net
from repro.netlist.seq import DFF
from repro.properties.convert import CheckScope, PropertyCompiler, check_scope
from repro.properties.environment import Environment
from repro.properties.spec import Assertion, Property


class _BddAlgebra(BitAlgebra):
    """The shared word-to-bit lowering over one manager's BDD nodes."""

    def __init__(self, manager: BddManager):
        self.manager = manager

    def constant(self, value: bool) -> int:
        return TRUE if value else FALSE

    def and_gate(self, inputs) -> int:
        return self.manager.and_all(inputs)

    def or_gate(self, inputs) -> int:
        return self.manager.or_all(inputs)

    def xor_gate(self, a: int, b: int) -> int:
        return self.manager.xor(a, b)

    def not_gate(self, a: int) -> int:
        return self.manager.not_(a)

    def mux_gate(self, select: int, when_zero: int, when_one: int) -> int:
        return self.manager.ite(select, when_one, when_zero)


@dataclass
class BddCheckResult:
    """Verdict and cost statistics of the BDD symbolic baseline."""

    prop: Property
    status: CheckStatus
    iterations: int
    wall_seconds: float = 0.0
    peak_memory_mb: float = 0.0
    #: total BDD nodes allocated by the manager (the memory-explosion proxy).
    peak_nodes: int = 0
    #: nodes in the final reachable-set BDD.
    reachable_nodes: int = 0
    #: number of reachable states (over the state variables).
    reachable_states: Optional[int] = None


class BddSymbolicChecker:
    """Safety/reachability checking by BDD-based symbolic traversal."""

    def __init__(
        self,
        circuit: Circuit,
        environment: Optional[Environment] = None,
        initial_state: Optional[Mapping[str, int]] = None,
        max_iterations: int = 256,
        node_limit: int = 2_000_000,
    ):
        circuit.validate()
        self.circuit = circuit
        self.max_iterations = max_iterations
        self.node_limit = node_limit
        self.compiler = PropertyCompiler(circuit)
        self.lowered = self.compiler.compile_environment(environment, initial_state)
        self.initial_state = self.lowered.initial_state or {}

    # ------------------------------------------------------------------
    # Variable allocation and symbolic simulation
    # ------------------------------------------------------------------
    def _allocate_variables(self, manager: BddManager, scope: CheckScope) -> None:
        """Interleave current/next state bits, then the input bits."""
        self._current_levels: List[int] = []
        self._next_levels: List[int] = []
        self._state_bits: List[Tuple[DFF, int]] = []
        self._flip_flops = scope.flip_flops
        level = 0
        for ff in self._flip_flops:
            for bit in range(ff.q.width):
                self._current_levels.append(level)
                self._next_levels.append(level + 1)
                self._state_bits.append((ff, bit))
                level += 2
        self._input_levels: Dict[Tuple[Net, int], int] = {}
        for net in self.circuit.inputs:
            for bit in range(net.width):
                self._input_levels[(net, bit)] = level
                level += 1
        manager.num_variables = level

    def _leaf_functions(self, manager: BddManager) -> Dict[Net, List[int]]:
        functions: Dict[Net, List[int]] = {}
        for index, (ff, bit) in enumerate(self._state_bits):
            functions.setdefault(ff.q, [FALSE] * ff.q.width)
            functions[ff.q][bit] = manager.variable(self._current_levels[index])
        for net in self.circuit.inputs:
            functions[net] = [
                manager.variable(self._input_levels[(net, bit)]) for bit in range(net.width)
            ]
        return functions

    def _symbolic_simulate(
        self, manager: BddManager, scope: CheckScope
    ) -> Dict[Net, List[int]]:
        """One BDD per net bit in scope, over current-state and input variables."""
        functions = self._leaf_functions(manager)
        algebra = _BddAlgebra(manager)
        for gate in scope.topological_order():
            algebra.lower_gate(gate, functions)
        return functions

    # ------------------------------------------------------------------
    # Transition relation, initial states and environment
    # ------------------------------------------------------------------
    def _next_state_functions(self, manager: BddManager, functions) -> List[int]:
        """Next-state BDD of every state bit, in ``_state_bits`` order."""
        algebra = _BddAlgebra(manager)
        return [
            bit for ff in self._flip_flops for bit in algebra.next_state(ff, functions)
        ]

    def _transition_relation(self, manager: BddManager, next_functions: List[int]) -> int:
        relation = TRUE
        for index, function in enumerate(next_functions):
            next_var = manager.variable(self._next_levels[index])
            relation = manager.and_(relation, manager.xnor(next_var, function))
        return relation

    def _initial_states(self, manager: BddManager) -> int:
        init = TRUE
        for index, (ff, bit) in enumerate(self._state_bits):
            value = self.initial_state.get(ff.q.name, ff.init_value)
            if value is None:
                continue  # unknown power-up: both values allowed
            var = manager.variable(self._current_levels[index])
            literal = var if (value >> bit) & 1 else manager.not_(var)
            init = manager.and_(init, literal)
        return init

    def _environment_constraint(self, manager: BddManager, functions) -> int:
        constraint = TRUE
        for name, value in self.lowered.pins.items():
            net = self.circuit.net(name)
            for bit, function in enumerate(functions[net]):
                desired = (value >> bit) & 1
                literal = function if desired else manager.not_(function)
                constraint = manager.and_(constraint, literal)
        for net in self.lowered.constraints:
            constraint = manager.and_(constraint, functions[net][0])
        return constraint

    # ------------------------------------------------------------------
    def check(self, prop: Property, max_iterations: Optional[int] = None) -> BddCheckResult:
        """Compute the reachable states and evaluate the property on them."""
        compiled = self.compiler.compile(prop)
        scope = check_scope(self.circuit, compiled.monitor, self.lowered)
        bound = max_iterations if max_iterations is not None else self.max_iterations

        with ResourceMeter() as meter:
            manager = BddManager(max_nodes=self.node_limit)
            reachable = FALSE
            status = CheckStatus.ABORTED
            iterations = 0
            try:
                self._allocate_variables(manager, scope)
                functions = self._symbolic_simulate(manager, scope)
                next_functions = self._next_state_functions(manager, functions)
                environment = self._environment_constraint(manager, functions)
                relation = manager.and_(
                    self._transition_relation(manager, next_functions), environment
                )
                monitor = functions[compiled.monitor][0]
                goal = monitor if compiled.goal_value else manager.not_(monitor)
                goal = manager.and_(goal, environment)

                quantified = list(self._input_levels.values()) + self._current_levels
                rename_map = {
                    next_level: current_level
                    for next_level, current_level in zip(
                        self._next_levels, self._current_levels
                    )
                }

                reachable = self._initial_states(manager)
                frontier = reachable
                found = manager.and_(reachable, goal) != FALSE

                while not found and iterations < bound:
                    iterations += 1
                    image = manager.exists(
                        manager.and_(relation, frontier), quantified
                    )
                    image = manager.rename(image, rename_map)
                    new_states = manager.and_(image, manager.not_(reachable))
                    if new_states == FALSE:
                        status = (
                            CheckStatus.HOLDS
                            if isinstance(prop, Assertion)
                            else CheckStatus.WITNESS_NOT_FOUND
                        )
                        break
                    reachable = manager.or_(reachable, new_states)
                    frontier = new_states
                    if manager.and_(new_states, goal) != FALSE:
                        found = True
                if found:
                    status = (
                        CheckStatus.FAILS
                        if isinstance(prop, Assertion)
                        else CheckStatus.WITNESS_FOUND
                    )
            except BddLimitExceeded:
                status = CheckStatus.ABORTED

        num_state_bits = len(self._state_bits)
        try:
            state_only = manager.exists(reachable, list(self._input_levels.values()))
            reachable_count = (
                manager.count_solutions(state_only, manager.num_variables)
                >> (manager.num_variables - num_state_bits)
                if num_state_bits <= manager.num_variables
                else None
            )
        except BddLimitExceeded:
            reachable_count = None
        return BddCheckResult(
            prop=prop,
            status=status,
            iterations=iterations,
            wall_seconds=meter.elapsed_seconds,
            peak_memory_mb=meter.peak_memory_mb,
            peak_nodes=manager.total_nodes,
            reachable_nodes=manager.node_count(reachable),
            reachable_states=reachable_count,
        )
