"""CNF formulas and Tseitin encoding helpers for the bit-level baseline."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.lowering import BitAlgebra


class CNFFormula:
    """A CNF formula over positive integer variables (DIMACS-style literals)."""

    def __init__(self):
        self.num_variables = 0
        self.clauses: List[Tuple[int, ...]] = []

    def new_variable(self) -> int:
        """Allocate a fresh variable and return its (positive) literal."""
        self.num_variables += 1
        return self.num_variables

    def new_variables(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_variable() for _ in range(count)]

    def add_clause(self, *literals: int) -> None:
        """Add one clause (a disjunction of non-zero literals)."""
        if not literals:
            raise ValueError("empty clause added (formula is trivially UNSAT)")
        if any(lit == 0 for lit in literals):
            raise ValueError("0 is not a valid literal")
        self.clauses.append(tuple(literals))

    def add_unit(self, literal: int) -> None:
        """Constrain a single literal to be true."""
        self.add_clause(literal)

    def __len__(self) -> int:
        return len(self.clauses)

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint of the clause database (for the comparison
        against the ATPG engine's memory usage)."""
        return sum(8 * (len(clause) + 2) for clause in self.clauses)

    def __repr__(self) -> str:
        return "CNFFormula(%d vars, %d clauses)" % (self.num_variables, len(self.clauses))


class TseitinEncoder(BitAlgebra):
    """Gate-level Tseitin encodings into a :class:`CNFFormula`.

    Supplies the primitives of :class:`~repro.baselines.lowering.BitAlgebra`
    over CNF literals, so every gate and word helper encodes through them.
    """

    def __init__(self, formula: Optional[CNFFormula] = None):
        self.formula = formula if formula is not None else CNFFormula()
        self._true_literal: Optional[int] = None

    # ------------------------------------------------------------------
    def constant(self, value: bool) -> int:
        """A literal that is constrained to the given Boolean constant."""
        if self._true_literal is None:
            self._true_literal = self.formula.new_variable()
            self.formula.add_unit(self._true_literal)
        return self._true_literal if value else -self._true_literal

    def and_gate(self, inputs: Sequence[int]) -> int:
        """``out <-> AND(inputs)``."""
        out = self.formula.new_variable()
        for lit in inputs:
            self.formula.add_clause(-out, lit)
        self.formula.add_clause(out, *[-lit for lit in inputs])
        return out

    def or_gate(self, inputs: Sequence[int]) -> int:
        """``out <-> OR(inputs)``."""
        out = self.formula.new_variable()
        for lit in inputs:
            self.formula.add_clause(out, -lit)
        self.formula.add_clause(-out, *list(inputs))
        return out

    def xor_gate(self, a: int, b: int) -> int:
        """``out <-> a XOR b``."""
        out = self.formula.new_variable()
        self.formula.add_clause(-out, a, b)
        self.formula.add_clause(-out, -a, -b)
        self.formula.add_clause(out, -a, b)
        self.formula.add_clause(out, a, -b)
        return out

    def not_gate(self, a: int) -> int:
        """Negation is free: just flip the literal."""
        return -a

    def mux_gate(self, select: int, when_zero: int, when_one: int) -> int:
        """``out <-> select ? when_one : when_zero``."""
        out = self.formula.new_variable()
        self.formula.add_clause(-out, -select, when_one)
        self.formula.add_clause(-out, select, when_zero)
        self.formula.add_clause(out, -select, -when_one)
        self.formula.add_clause(out, select, -when_zero)
        return out

    def assert_equal(self, a: int, b: int) -> None:
        """Constrain two literals to be equal."""
        self.formula.add_clause(-a, b)
        self.formula.add_clause(a, -b)

    def word_assert_equal(self, a: Sequence[int], b: Sequence[int]) -> None:
        for x, y in zip(a, b):
            self.assert_equal(x, y)
