"""Extraction of arithmetic constraints from the unrolled datapath.

After the word-level ATPG has satisfied the control constraints, the
remaining requirements sit on arithmetic primitives whose operands are not
yet fully determined.  This module walks those primitives and produces an
:class:`ArithmeticProblem`: a set of linear equations (adders, subtractors,
constant-operand multipliers, constant shifts) plus non-linear constraints
(general multipliers, variable shifts), over ``(net, frame)`` variables,
grouped by bit width.

Partial knowledge from implication is preserved in two ways: fully known
operands become constants in the equations, and partially known operands
carry their cube so that a solution breaking the already-implied bits is
answered :class:`~repro.modsolver.result.Unknown` (the justifier then
branches on those bits).

:func:`close_leaf` is the justifier's one call into the solver.  The gates
the solver takes are one table, ``DatapathConstraintExtractor._BY_GATE``,
read by both the leaf's seed selection and the extraction closure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple, Union

from repro.bitvector import BV3
from repro.implication.engine import ImplicationEngine, ImplicationNode
from repro.modsolver.linear import ModularLinearSystem
from repro.modsolver.nonlinear import NonlinearConstraint, NonlinearSolver
from repro.modsolver.result import Infeasible, Solution, Unknown
from repro.netlist.arith import Adder, Multiplier, ShiftLeft, ShiftRight, Subtractor
from repro.netlist.gates import BufGate, ConstGate

@dataclass
class ArithmeticProblem:
    """Arithmetic constraints over unrolled-model variables, grouped by width.

    Every extracted constraint is tagged with the engine keys whose
    *implied values* it encodes (operands folded to constants, plus the
    keys pinned from fully known cubes at solve time), so an infeasible
    answer carries a certificate expressed in engine keys -- exactly what
    conflict analysis needs to lift the clash back to its external roots.
    """

    linear_by_width: Dict[int, ModularLinearSystem] = field(default_factory=dict)
    nonlinear: List[NonlinearConstraint] = field(default_factory=list)
    cubes: Dict[Hashable, BV3] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when no arithmetic constraint was extracted."""
        return not self.nonlinear and all(
            not system.constraints for system in self.linear_by_width.values()
        )

    def variables(self) -> List[Hashable]:
        """All variables that appear in some constraint."""
        seen: List[Hashable] = []
        for system in self.linear_by_width.values():
            for var in system.variables:
                if var not in seen:
                    seen.append(var)
        for constraint in self.nonlinear:
            for var in constraint.variables():
                if var not in seen:
                    seen.append(var)
        return seen

    def solve(self, budget: int = 256) -> Union[Solution, Infeasible, Unknown]:
        """Solve every extracted constraint group (typed result).

        Widths are solved independently; the non-linear constraints of each
        width are handled by :class:`NonlinearSolver`.  Returns

        * :class:`~repro.modsolver.result.Solution` with one combined
          assignment when every group is satisfiable,
        * :class:`~repro.modsolver.result.Infeasible` with an engine-key
          core when some group is *proved* contradictory (any single
          infeasible group certifies the whole problem), or
        * :class:`~repro.modsolver.result.Unknown` when a group ran out of
          budget or its solution broke a partially implied cube -- never
          a proof, so callers must not learn from it.
        """
        solver = NonlinearSolver(budget=budget)
        combined: Dict[Hashable, int] = {}
        unknown: Optional[Unknown] = None
        widths = sorted(set(self.linear_by_width) | {c.width for c in self.nonlinear})
        for width in widths:
            linear = self.linear_by_width.get(width, ModularLinearSystem(width))
            nonlinear = [c for c in self.nonlinear if c.width == width]
            result = self._solve_width(solver, linear, nonlinear, width)
            if isinstance(result, Infeasible):
                # A certificate beats an Unknown from an earlier group.
                return result
            if isinstance(result, Unknown):
                unknown = result
                continue
            combined.update(result.assignment)
        if unknown is not None:
            return unknown
        return Solution(combined)

    def _solve_width(
        self,
        solver: NonlinearSolver,
        linear: ModularLinearSystem,
        nonlinear: List[NonlinearConstraint],
        width: int,
    ) -> Union[Solution, Infeasible, Unknown]:
        # Pin fully known variables; partially known ones are checked
        # against the solution.
        fixed: Dict[Hashable, int] = {}
        partial: List[Hashable] = []
        for var in set(linear.variables) | {
            v for c in nonlinear for v in c.variables()
        }:
            cube = self.cubes.get(var)
            if cube is None:
                continue
            if cube.is_fully_known():
                fixed[var] = cube.to_int()
            elif not cube.is_fully_unknown():
                partial.append(var)

        # Only implication-forced pins are present here, so an Infeasible
        # answer is a genuine certificate of the extracted system.
        result = solver.solve(linear, nonlinear, fixed=fixed)
        if not isinstance(result, Solution):
            return result
        if any(not self.cubes[var].contains_int(result.assignment[var])
               for var in partial if var in result.assignment):
            # The justifier branches on the partially known words instead.
            return Unknown("solution violates a partially implied cube")
        return result


class DatapathConstraintExtractor:
    """Builds an :class:`ArithmeticProblem` from unjustified arithmetic nodes."""

    def __init__(self, engine: ImplicationEngine):
        self.engine = engine

    def extract(self, nodes: Iterable[ImplicationNode]) -> ArithmeticProblem:
        """Extract constraints from the given (unjustified) nodes.

        Only arithmetic primitives contribute constraints; other node types
        are ignored (their requirements are handled by implication and by the
        justifier's leaf branching).

        The extraction closes over the *connected arithmetic network*: any
        arithmetic node sharing a still-undetermined variable with an already
        extracted constraint is pulled in as well.  Without this closure a
        solution for one equation could silently violate a neighbouring
        arithmetic gate (e.g. ``diff = scaled - a`` solved while ignoring
        ``scaled = 3 * a``), which is exactly the false-negative effect the
        paper's combined solver avoids.
        """
        problem = ArithmeticProblem()
        worklist = deque(nodes)
        processed: set = set()
        while worklist:
            node = worklist.popleft()
            if id(node) in processed:
                continue
            processed.add(id(node))
            gate = _gate_of(node)
            extractor = self._extractor(gate)
            if extractor is None:
                continue
            extractor(self, problem, node, gate)
            # Pull in neighbouring arithmetic nodes (and the word-level
            # buffers gluing them together) connected through any variable
            # that is not yet fully determined.
            for key in node.keys:
                cube = self.engine.assignment.get(key)
                if cube.is_fully_known():
                    continue
                for neighbour in self.engine.watchers(key):
                    if id(neighbour) not in processed and self._extractor(_gate_of(neighbour)):
                        worklist.append(neighbour)
        return problem

    @classmethod
    def _extractor(cls, gate):
        """The method extracting ``gate``, or None for gates the solver ignores.

        Word-level buffers (assign aliases from HDL elaboration) are pure
        equalities: without them, arithmetic constraints on either side of
        the alias land on *different* solver variables and the system
        degenerates to a satisfiable relaxation -- no solution respects the
        real netlist and no infeasibility can ever be certified.  They join
        only through the closure: no leaf is seeded by a buffer.
        """
        if isinstance(gate, BufGate) and gate.output.width > 1:
            return cls._extract_buffer
        return cls._BY_GATE.get(type(gate))

    # ------------------------------------------------------------------
    def _linear_system(self, problem: ArithmeticProblem, width: int) -> ModularLinearSystem:
        system = problem.linear_by_width.get(width)
        if system is None:
            system = ModularLinearSystem(width)
            problem.linear_by_width[width] = system
        return system

    def _term(
        self, problem: ArithmeticProblem, key: Hashable
    ) -> Tuple[Optional[Hashable], int, FrozenSet[Hashable]]:
        """Return (variable or None, constant part, provenance) for a pin key.

        A pin folded to a constant contributes its key as provenance: the
        constant is an *implied value*, and any certificate using the
        constraint must be traceable back through that key's trail entries.
        Pins kept as variables carry no assumption and stay untagged.
        """
        cube = self.engine.assignment.get(key)
        problem.cubes[key] = cube
        if cube.is_fully_known():
            return None, cube.to_int(), frozenset((key,))
        return key, 0, frozenset()

    def _add_signed_constraint(
        self,
        problem: ArithmeticProblem,
        width: int,
        signed_keys: Iterable[Tuple[Hashable, int]],
    ) -> None:
        """Fold ``sum(sign * pin) = 0`` into the width's linear system.

        Fully known pins become constants (contributing their keys to the
        constraint's provenance tags); the rest stay solver variables.
        """
        system = self._linear_system(problem, width)
        coefficients: Dict[Hashable, int] = {}
        constant = 0
        tags: FrozenSet[Hashable] = frozenset()
        for key, sign in signed_keys:
            var, const, term_tags = self._term(problem, key)
            tags |= term_tags
            if var is None:
                constant += sign * const
            else:
                coefficients[var] = coefficients.get(var, 0) + sign
        # sum(sign * pin) = 0  ->  sum(coeff * var) = -constant
        system.add_constraint(coefficients, -constant, tags)

    def _extract_adder(self, problem: ArithmeticProblem, node: ImplicationNode, gate: Adder) -> None:
        pins = node.keys  # a, b, [cin], out, [cout]
        carry = gate.carry_in is not None
        signed = [(pins[0], 1), (pins[1], 1), (pins[2 + carry], -1)]
        if carry:
            signed.append((pins[2], 1))
        self._add_signed_constraint(problem, gate.output.width, signed)

    def _extract_buffer(
        self, problem: ArithmeticProblem, node: ImplicationNode, gate: BufGate
    ) -> None:
        a, out = node.keys
        self._add_signed_constraint(problem, gate.output.width, [(a, 1), (out, -1)])

    def _extract_subtractor(
        self, problem: ArithmeticProblem, node: ImplicationNode, gate: Subtractor
    ) -> None:
        a, b, out = node.keys
        self._add_signed_constraint(problem, gate.output.width, [(a, 1), (b, -1), (out, -1)])

    def _extract_multiplier(
        self, problem: ArithmeticProblem, node: ImplicationNode, gate: Multiplier
    ) -> None:
        width = gate.output.width
        keys = dict(zip(("a", "b", "out"), node.keys))
        a_var, a_const, a_tags = self._term(problem, keys["a"])
        b_var, b_const, b_tags = self._term(problem, keys["b"])
        out_var, out_const, out_tags = self._term(problem, keys["out"])
        tags = a_tags | b_tags | out_tags

        constant_operand = None
        if isinstance(gate.a.driver, ConstGate):
            constant_operand = "a"
        elif isinstance(gate.b.driver, ConstGate):
            constant_operand = "b"

        if a_var is None or b_var is None or constant_operand is not None:
            # Linear: at least one operand is a known constant.
            system = self._linear_system(problem, width)
            if a_var is None and b_var is None:
                product = (a_const * b_const) % (1 << width)
                if out_var is None:
                    system.add_constraint({}, product - out_const, tags)
                else:
                    system.add_constraint({out_var: 1}, product, tags)
            else:
                known = a_const if a_var is None else b_const
                variable = b_var if a_var is None else a_var
                coefficients = {variable: known}
                if out_var is None:
                    system.add_constraint(coefficients, out_const, tags)
                else:
                    coefficients[out_var] = coefficients.get(out_var, 0) - 1
                    system.add_constraint(coefficients, 0, tags)
            return

        problem.nonlinear.append(
            NonlinearConstraint(
                kind="mul",
                a=a_var if a_var is not None else a_const,
                b=b_var if b_var is not None else b_const,
                product=out_var if out_var is not None else out_const,
                width=width,
                tags=tags,
            )
        )

    def _extract_shift(
        self, problem: ArithmeticProblem, node: ImplicationNode, gate
    ) -> None:
        width = gate.output.width
        kind = "shl" if isinstance(gate, ShiftLeft) else "shr"
        if gate.amount is None:
            # Constant shift: left shift is a linear multiplication by 2**k;
            # right shift is handled as a non-linear constraint only when the
            # operand is unknown (division is not linear in the modular ring).
            keys = dict(zip(("a", "out"), node.keys))
            a_var, a_const, a_tags = self._term(problem, keys["a"])
            out_var, out_const, out_tags = self._term(problem, keys["out"])
            tags = a_tags | out_tags
            if kind == "shl":
                system = self._linear_system(problem, width)
                factor = (1 << gate.constant) % (1 << width)
                coefficients: Dict[Hashable, int] = {}
                constant = 0
                if a_var is None:
                    constant += factor * a_const
                else:
                    coefficients[a_var] = factor
                if out_var is None:
                    constant -= out_const
                else:
                    coefficients[out_var] = coefficients.get(out_var, 0) - 1
                system.add_constraint(coefficients, -constant, tags)
            else:
                problem.nonlinear.append(
                    NonlinearConstraint(
                        kind="shr",
                        a=a_var if a_var is not None else a_const,
                        b=gate.constant,
                        product=out_var if out_var is not None else out_const,
                        width=width,
                        tags=tags,
                    )
                )
            return
        keys = dict(zip(("a", "amount", "out"), node.keys))
        a_var, a_const, a_tags = self._term(problem, keys["a"])
        amount_var, amount_const, amount_tags = self._term(problem, keys["amount"])
        out_var, out_const, out_tags = self._term(problem, keys["out"])
        problem.nonlinear.append(
            NonlinearConstraint(
                kind=kind,
                a=a_var if a_var is not None else a_const,
                b=amount_var if amount_var is not None else amount_const,
                product=out_var if out_var is not None else out_const,
                width=width,
                tags=a_tags | amount_tags | out_tags,
            )
        )

    #: the solver's gate set, each gate type with its extraction method.
    _BY_GATE = {
        Adder: _extract_adder,
        Subtractor: _extract_subtractor,
        Multiplier: _extract_multiplier,
        ShiftLeft: _extract_shift,
        ShiftRight: _extract_shift,
    }


def _gate_of(node: ImplicationNode):
    tag = node.tag
    return tag[0] if isinstance(tag, tuple) else None


def close_leaf(
    engine: ImplicationEngine, nodes: Iterable[ImplicationNode], budget: int
) -> Optional[Union[Solution, Infeasible, Unknown]]:
    """Solve the datapath left at a search leaf: ``nodes`` are its unjustified
    datapath nodes, and those the solver takes seed the extraction.

    None when no node seeds it, otherwise the solver's typed answer within
    ``budget`` (every seed extracts at least one constraint).
    """
    solver_gates = DatapathConstraintExtractor._BY_GATE
    seeds = [node for node in nodes if type(_gate_of(node)) in solver_gates]
    if not seeds:
        return None
    return DatapathConstraintExtractor(engine).extract(seeds).solve(budget=budget)
