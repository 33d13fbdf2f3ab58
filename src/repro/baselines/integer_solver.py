"""A rational (non-modular) linear solver -- the false-negative baseline.

Section 4 of the paper argues that solving datapath constraints over the
integers / rationals instead of modulo ``2**n`` misses solutions that only
exist because of bit-vector wrap-around, producing *false negatives* (missed
counterexamples).  This baseline solves ``A·x = b`` by fraction-exact
Gaussian elimination and only accepts solutions whose components are integers
inside the representable range; the false-negative benchmark counts how often
it disagrees with the modular solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence


class RationalLinearSolver:
    """Solves linear systems over the rationals and filters to in-range integers."""

    def __init__(self, width: int):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width

    # ------------------------------------------------------------------
    def solve_matrix(
        self, rows: Sequence[Sequence[int]], rhs: Sequence[int]
    ) -> Optional[List[int]]:
        """Solve ``rows · x = rhs`` over the rationals.

        Returns an assignment only when the rational solution is unique,
        integral and within ``[0, 2**width)`` for every variable -- the
        behaviour of a solver that ignores modulation.  Returns ``None``
        otherwise (which is where the false negatives come from).

        The coefficients are used *as given* (signed, un-modulated) -- that is
        the whole point of this baseline.  Routing them through the modular
        system first would silently reduce them modulo ``2**width`` and make
        the baseline behave like the modular solver.
        """
        if not rows:
            return []
        num_vars = len(rows[0])
        fraction_rows = [[Fraction(value) for value in row] for row in rows]
        fraction_rhs = [Fraction(value) for value in rhs]
        solution = self._gaussian_elimination(fraction_rows, fraction_rhs, num_vars)
        if solution is None:
            return None
        result: List[int] = []
        for value in solution:
            if value.denominator != 1:
                return None
            integer = int(value)
            if not 0 <= integer < (1 << self.width):
                return None
            result.append(integer)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _gaussian_elimination(
        rows: List[List[Fraction]], rhs: List[Fraction], num_vars: int
    ) -> Optional[List[Fraction]]:
        """Exact Gaussian elimination; ``None`` when there is no unique,
        consistent solution."""
        matrix = [row + [b] for row, b in zip(rows, rhs)]
        pivot_row = 0
        pivot_columns: List[int] = []
        for col in range(num_vars):
            pivot = None
            for r in range(pivot_row, len(matrix)):
                if matrix[r][col] != 0:
                    pivot = r
                    break
            if pivot is None:
                continue
            matrix[pivot_row], matrix[pivot] = matrix[pivot], matrix[pivot_row]
            factor = matrix[pivot_row][col]
            matrix[pivot_row] = [value / factor for value in matrix[pivot_row]]
            for r in range(len(matrix)):
                if r != pivot_row and matrix[r][col] != 0:
                    scale = matrix[r][col]
                    matrix[r] = [
                        value - scale * pivot_value
                        for value, pivot_value in zip(matrix[r], matrix[pivot_row])
                    ]
            pivot_columns.append(col)
            pivot_row += 1
        # Inconsistent rows => no solution at all.
        for r in range(pivot_row, len(matrix)):
            if matrix[r][num_vars] != 0 and all(v == 0 for v in matrix[r][:num_vars]):
                return None
        # Under-determined systems: fix the free variables at zero (a solver
        # that reasons integrally would have to pick *some* value; zero keeps
        # the comparison deterministic).
        solution = [Fraction(0)] * num_vars
        for row_index, col in enumerate(pivot_columns):
            value = matrix[row_index][num_vars]
            for other in range(col + 1, num_vars):
                value -= matrix[row_index][other] * solution[other]
            solution[col] = value
        return solution
