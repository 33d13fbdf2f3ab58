"""BDD-based symbolic reachability checking (the paper's comparison target).

The paper's scalability argument is made against BDD-based symbolic model
checking: "the set of reachable states may grow exponentially as the number
of registers increases" and "the BDD techniques may still suffer from the
memory explosion problem".  This module provides that baseline so the
benchmark harness can measure it:

1. every net bit of the design is turned into a BDD over the current-state
   and input variables (a direct bit-level symbolic simulation of the
   word-level netlist),
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
from repro.checker.result import CheckStatus
from repro.checker.stats import ResourceMeter
from repro.netlist.arith import Adder, Multiplier, ShiftLeft, ShiftRight, Subtractor
from repro.netlist.circuit import Circuit
from repro.netlist.compare import Comparator
from repro.netlist.gates import (
    AndGate,
    BufGate,
    ConcatGate,
    ConstGate,
    NandGate,
    NorGate,
    NotGate,
    OrGate,
    ReduceAnd,
    ReduceOr,
    ReduceXor,
    SliceGate,
    XnorGate,
    XorGate,
    ZeroExtendGate,
)
from repro.netlist.mux import Mux
from repro.netlist.nets import Net
from repro.netlist.seq import DFF
from repro.netlist.tristate import BusResolver, TristateBuffer
from repro.properties.convert import PropertyCompiler
from repro.properties.environment import Environment
from repro.properties.spec import Assertion, Property


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
    def _allocate_variables(self, manager: BddManager) -> None:
        """Interleave current/next state bits, then the input bits."""
        self._current_levels: List[int] = []
        self._next_levels: List[int] = []
        self._state_bits: List[Tuple[DFF, int]] = []
        level = 0
        for ff in self.circuit.flip_flops:
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

    def _symbolic_simulate(self, manager: BddManager) -> Dict[Net, List[int]]:
        """One BDD per net bit, over current-state and input variables."""
        functions = self._leaf_functions(manager)
        for gate in self.circuit.topological_order():
            self._evaluate_gate(manager, functions, gate)
        return functions

    # ------------------------------------------------------------------
    def _evaluate_gate(self, manager: BddManager, functions, gate) -> None:
        m = manager
        ins = [functions[net] for net in gate.inputs]

        if isinstance(gate, ConstGate):
            functions[gate.output] = [
                TRUE if (gate.value >> bit) & 1 else FALSE for bit in range(gate.output.width)
            ]
        elif isinstance(gate, BufGate):
            functions[gate.output] = list(ins[0])
        elif isinstance(gate, NotGate):
            functions[gate.output] = [m.not_(bit) for bit in ins[0]]
        elif isinstance(gate, (AndGate, NandGate)):
            result = list(ins[0])
            for operand in ins[1:]:
                result = [m.and_(a, b) for a, b in zip(result, operand)]
            if isinstance(gate, NandGate):
                result = [m.not_(bit) for bit in result]
            functions[gate.output] = result
        elif isinstance(gate, (OrGate, NorGate)):
            result = list(ins[0])
            for operand in ins[1:]:
                result = [m.or_(a, b) for a, b in zip(result, operand)]
            if isinstance(gate, NorGate):
                result = [m.not_(bit) for bit in result]
            functions[gate.output] = result
        elif isinstance(gate, (XorGate, XnorGate)):
            result = list(ins[0])
            for operand in ins[1:]:
                result = [m.xor(a, b) for a, b in zip(result, operand)]
            if isinstance(gate, XnorGate):
                result = [m.not_(bit) for bit in result]
            functions[gate.output] = result
        elif isinstance(gate, ReduceAnd):
            functions[gate.output] = [m.and_all(ins[0])]
        elif isinstance(gate, ReduceOr):
            functions[gate.output] = [m.or_all(ins[0])]
        elif isinstance(gate, ReduceXor):
            parity = FALSE
            for bit in ins[0]:
                parity = m.xor(parity, bit)
            functions[gate.output] = [parity]
        elif isinstance(gate, SliceGate):
            functions[gate.output] = list(ins[0][gate.lsb : gate.msb + 1])
        elif isinstance(gate, ConcatGate):
            bits: List[int] = []
            for operand in reversed(ins):
                bits.extend(operand)
            functions[gate.output] = bits
        elif isinstance(gate, ZeroExtendGate):
            padding = [FALSE] * (gate.output.width - len(ins[0]))
            functions[gate.output] = list(ins[0]) + padding
        elif isinstance(gate, Adder):
            carry = (
                functions[gate.carry_in][0] if gate.carry_in is not None else FALSE
            )
            total, carry_out = self._word_add(m, functions[gate.a], functions[gate.b], carry)
            functions[gate.output] = total
            if gate.carry_out is not None:
                functions[gate.carry_out] = [carry_out]
        elif isinstance(gate, Subtractor):
            negated = [m.not_(bit) for bit in functions[gate.b]]
            total, _ = self._word_add(m, functions[gate.a], negated, TRUE)
            functions[gate.output] = total
        elif isinstance(gate, Multiplier):
            functions[gate.output] = self._word_mul(
                m, functions[gate.a], functions[gate.b], gate.output.width
            )
        elif isinstance(gate, (ShiftLeft, ShiftRight)):
            functions[gate.output] = self._word_shift(m, gate, functions)
        elif isinstance(gate, Comparator):
            functions[gate.output] = [self._comparator_bit(m, gate, functions)]
        elif isinstance(gate, Mux):
            functions[gate.output] = self._word_mux_tree(m, gate, functions)
        elif isinstance(gate, TristateBuffer):
            functions[gate.output] = list(functions[gate.data])
        elif isinstance(gate, BusResolver):
            width = gate.output.width
            result = [FALSE] * width
            for data, enable in gate.drivers:
                enable_bit = functions[enable][0]
                result = [
                    m.or_(acc, m.and_(bit, enable_bit))
                    for acc, bit in zip(result, functions[data])
                ]
            functions[gate.output] = result
        elif isinstance(gate, DFF):
            pass  # handled by the transition relation
        else:
            raise TypeError("BDD checker has no encoding for %s" % (type(gate).__name__,))

    # ------------------------------------------------------------------
    @staticmethod
    def _word_add(manager: BddManager, a: List[int], b: List[int], carry: int):
        total: List[int] = []
        for bit_a, bit_b in zip(a, b):
            partial = manager.xor(bit_a, bit_b)
            total.append(manager.xor(partial, carry))
            carry = manager.or_(
                manager.and_(bit_a, bit_b), manager.and_(partial, carry)
            )
        return total, carry

    def _word_mul(self, manager: BddManager, a: List[int], b: List[int], width: int):
        result = [FALSE] * width
        for shift, control in enumerate(b):
            if shift >= width:
                break
            addend = [FALSE] * shift + [
                manager.and_(bit, control) for bit in a[: width - shift]
            ]
            result, _ = self._word_add(manager, result, addend, FALSE)
        return result

    def _word_shift(self, manager: BddManager, gate, functions) -> List[int]:
        a = functions[gate.a]
        width = gate.output.width
        if gate.amount is None:
            amount = gate.constant
            bits = []
            for i in range(width):
                src = i - amount if isinstance(gate, ShiftLeft) else i + amount
                bits.append(a[src] if 0 <= src < len(a) else FALSE)
            return bits
        current = list(a)
        for stage, control in enumerate(functions[gate.amount]):
            shift = 1 << stage
            if shift >= width * 2:
                break
            shifted = []
            for i in range(width):
                src = i - shift if isinstance(gate, ShiftLeft) else i + shift
                shifted.append(current[src] if 0 <= src < width else FALSE)
            current = [
                manager.ite(control, s, c) for c, s in zip(current, shifted)
            ]
        return current

    def _comparator_bit(self, manager: BddManager, gate: Comparator, functions) -> int:
        a = functions[gate.a]
        b = functions[gate.b]
        equal = TRUE
        less = FALSE
        for bit_a, bit_b in zip(reversed(a), reversed(b)):
            bit_less = manager.and_(manager.not_(bit_a), bit_b)
            less = manager.or_(less, manager.and_(equal, bit_less))
            equal = manager.and_(equal, manager.xnor(bit_a, bit_b))
        if gate.op == "==":
            return equal
        if gate.op == "!=":
            return manager.not_(equal)
        if gate.op == "<":
            return less
        if gate.op == ">=":
            return manager.not_(less)
        if gate.op == ">":
            return manager.and_(manager.not_(less), manager.not_(equal))
        return manager.or_(less, equal)  # "<="

    def _word_mux_tree(self, manager: BddManager, gate: Mux, functions) -> List[int]:
        select_bits = functions[gate.select]
        data = [functions[net] for net in gate.data]
        padded = list(data)
        target = 1 << len(select_bits)
        while len(padded) < target:
            padded.append(data[-1])
        level = padded
        for control in select_bits:
            next_level = []
            for i in range(0, len(level), 2):
                pair = level[i + 1] if i + 1 < len(level) else level[i]
                next_level.append(
                    [manager.ite(control, hi, lo) for lo, hi in zip(level[i], pair)]
                )
            level = next_level
        return level[0]

    # ------------------------------------------------------------------
    # Transition relation, initial states and environment
    # ------------------------------------------------------------------
    def _next_state_functions(self, manager: BddManager, functions) -> List[int]:
        next_functions: List[int] = []
        for index, (ff, bit) in enumerate(self._state_bits):
            value = functions[ff.d][bit]
            current = manager.variable(self._current_levels[index])
            if ff.enable is not None:
                enable = functions[ff.enable][0]
                value = manager.ite(enable, value, current)
            if ff.set is not None:
                value = manager.ite(functions[ff.set][0], TRUE, value)
            if ff.reset is not None:
                reset_bit = TRUE if (ff.reset_value >> bit) & 1 else FALSE
                value = manager.ite(functions[ff.reset][0], reset_bit, value)
            next_functions.append(value)
        return next_functions

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
        bound = max_iterations if max_iterations is not None else self.max_iterations

        with ResourceMeter() as meter:
            manager = BddManager(max_nodes=self.node_limit)
            reachable = FALSE
            status = CheckStatus.ABORTED
            iterations = 0
            try:
                self._allocate_variables(manager)
                functions = self._symbolic_simulate(manager)
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
