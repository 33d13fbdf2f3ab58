"""Complete solution of linear bit-vector systems ``A·x = b (mod 2**n)``.

The paper's linear constraint solver finds *all* solutions of a linear
datapath constraint system under the modular number system and expresses
them in the closed form

    ``x = x0 + N · f``

where ``x0`` is a particular solution, ``N`` the *null matrix* and ``f`` a
column of free variables.  Different values of ``f`` enumerate every
solution -- crucially including the solutions that only exist because of
value wrap-around, which an integral/rational solver would miss.

Implementation: the integer coefficient matrix is diagonalised with
unimodular row/column transformations (a Smith-normal-form style reduction,
exact over Python integers), which reduces the system to independent scalar
congruences ``d_i · y_i = c_i (mod 2**n)``.  Each scalar congruence is solved
with the multiplicative-inverse-with-product machinery of
:mod:`repro.modsolver.modular` (the paper's Theorems 1 and 2), and the
results are transformed back to the original variables.  The overall cost is
O(max(m, n)^3) ring operations, matching the complexity claim in Section 4.1.

Infeasibility certificates: an unsolvable scalar congruence sits in row
``i`` of ``D = U·A·V``; row ``i`` of the left multiplier ``U`` records the
(unimodular) combination of *original* constraints that produced it, so the
constraints with a non-zero entry in that row form a genuine unsatisfiable
core.  :meth:`ModularLinearSystem.solve` returns their provenance tags in
:class:`~repro.modsolver.result.Infeasible` instead of a bare ``None``; the
linear solver is exact, so it never answers
:class:`~repro.modsolver.result.Unknown`.
"""

from __future__ import annotations

from itertools import product as cartesian_product
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.modsolver.modular import solve_scalar_congruence
from repro.modsolver.result import Infeasible
from repro.records import Record, factory


class LinearConstraint(Record):
    """One linear equation ``sum(coeff_i * var_i) = rhs (mod 2**width)``.

    ``tags`` carries the constraint's provenance (opaque hashables -- the
    datapath extractor stores the implication-engine keys whose implied
    values the equation encodes).  Certificates report the union of the
    tags of the clashing constraints.
    """

    coefficients: Dict[Hashable, int]
    rhs: int
    tags: FrozenSet[Hashable] = factory(frozenset)

    def __init__(self, coefficients: Dict[Hashable, int], rhs: int,
                 tags: Optional[FrozenSet[Hashable]] = None):
        self.coefficients = coefficients
        self.rhs = rhs
        self.tags = frozenset() if tags is None else tags

    def evaluate(self, assignment: Mapping[Hashable, int], width: int) -> int:
        """Left-hand side value under ``assignment`` (mod ``2**width``)."""
        modulus = 1 << width
        total = 0
        for var, coeff in self.coefficients.items():
            total += coeff * assignment[var]
        return total % modulus

    def is_satisfied(self, assignment: Mapping[Hashable, int], width: int) -> bool:
        """True when the assignment satisfies this constraint mod ``2**width``."""
        return self.evaluate(assignment, width) == self.rhs % (1 << width)


class ModularSolutionSet:
    """The closed-form solution set ``x = x0 + N·f (mod 2**width)``.

    Attributes
    ----------
    width:
        Bit width of every variable.
    variables:
        Variable identifiers, in the column order of ``null_matrix``.
    particular:
        The particular solution ``x0`` as a mapping variable -> value.
    null_matrix:
        List of *columns*; column ``j`` gives the coefficient of free
        variable ``f_j`` for every variable (mapping variable -> int).
    free_counts:
        For each free variable the number of distinct useful values
        (letting ``f_j`` range over all of ``Z_{2**width}`` yields the same
        set, only with repetitions).
    """

    def __init__(
        self,
        width: int,
        variables: Sequence[Hashable],
        particular: Dict[Hashable, int],
        null_columns: List[Dict[Hashable, int]],
        free_counts: List[int],
    ):
        self.width = width
        self.variables = list(variables)
        self.particular = dict(particular)
        self.null_matrix = [dict(col) for col in null_columns]
        self.free_counts = list(free_counts)

    # ------------------------------------------------------------------
    @property
    def num_free_variables(self) -> int:
        """Number of free variables in the closed form."""
        return len(self.null_matrix)

    def solution_count(self) -> int:
        """Total number of distinct solutions (product of free counts)."""
        count = 1
        for c in self.free_counts:
            count *= c
        return count

    def substitute(self, free_values: Sequence[int]) -> Dict[Hashable, int]:
        """Instantiate the closed form for specific free-variable values."""
        if len(free_values) != self.num_free_variables:
            raise ValueError(
                "expected %d free values, got %d" % (self.num_free_variables, len(free_values))
            )
        modulus = 1 << self.width
        result = dict(self.particular)
        for column, value in zip(self.null_matrix, free_values):
            for var, coeff in column.items():
                result[var] = (result[var] + coeff * value) % modulus
        return result

    def enumerate(self, limit: int = 4096) -> Iterator[Dict[Hashable, int]]:
        """Yield distinct solutions (at most ``limit``)."""
        if self.num_free_variables == 0:
            yield dict(self.particular)
            return
        produced = 0
        seen = set()
        ranges = [range(c) for c in self.free_counts]
        for combo in cartesian_product(*ranges):
            solution = self.substitute(list(combo))
            key = tuple(solution[v] for v in self.variables)
            if key in seen:
                continue
            seen.add(key)
            yield solution
            produced += 1
            if produced >= limit:
                return

    def contains(self, assignment: Mapping[Hashable, int], system: "ModularLinearSystem") -> bool:
        """Convenience: check a full assignment against the original system."""
        return system.is_solution(assignment)

    def __repr__(self) -> str:
        return "ModularSolutionSet(%d vars, %d free, width=%d)" % (
            len(self.variables),
            self.num_free_variables,
            self.width,
        )


class ModularLinearSystem:
    """A system of linear constraints over ``width``-bit bit-vectors."""

    def __init__(self, width: int, variables: Optional[Iterable[Hashable]] = None):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self.variables: List[Hashable] = list(variables) if variables is not None else []
        self._var_index: Dict[Hashable, int] = {v: i for i, v in enumerate(self.variables)}
        self.constraints: List[LinearConstraint] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix(
        cls, rows: Sequence[Sequence[int]], rhs: Sequence[int], width: int
    ) -> "ModularLinearSystem":
        """Build a system from an explicit coefficient matrix (paper examples)."""
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged coefficient matrix")
        num_vars = len(rows[0]) if rows else 0
        variables = ["x%d" % i for i in range(num_vars)]
        system = cls(width, variables)
        for row, b in zip(rows, rhs):
            system.add_constraint({variables[j]: row[j] for j in range(num_vars) if row[j]}, b)
        return system

    def add_variable(self, var: Hashable) -> None:
        """Register a variable (no-op when already present)."""
        if var not in self._var_index:
            self._var_index[var] = len(self.variables)
            self.variables.append(var)

    def add_constraint(
        self,
        coefficients: Mapping[Hashable, int],
        rhs: int,
        tags: Iterable[Hashable] = (),
    ) -> None:
        """Add ``sum(coeff * var) = rhs``; unknown variables are registered.

        ``tags`` is the constraint's provenance, reported in infeasibility
        cores (see :class:`LinearConstraint`).
        """
        clean: Dict[Hashable, int] = {}
        modulus = 1 << self.width
        for var, coeff in coefficients.items():
            coeff %= modulus
            self.add_variable(var)
            if coeff:
                clean[var] = coeff
        self.constraints.append(LinearConstraint(clean, rhs % modulus, frozenset(tags)))

    def is_solution(self, assignment: Mapping[Hashable, int]) -> bool:
        """True when ``assignment`` satisfies every constraint."""
        return all(c.is_satisfied(assignment, self.width) for c in self.constraints)

    def _core_of_row(self, left: Sequence[Sequence[int]], row: int, modulus: int) -> Infeasible:
        """The certificate of an unsolvable congruence in row ``row``.

        The congruence is the ``U``-row combination of the original
        constraints; every constraint entering it with a non-zero multiplier
        (mod ``2**width`` -- a multiplier that vanishes in the ring truly
        contributes nothing) is a core member.
        """
        core: set = set()
        for k, constraint in enumerate(self.constraints):
            if left[row][k] % modulus != 0:
                core |= constraint.tags
        return Infeasible(core=frozenset(core))

    # ------------------------------------------------------------------
    def solve(self) -> Union[ModularSolutionSet, Infeasible]:
        """Find all solutions, or the certificate of why none exist.

        Returns the closed-form :class:`ModularSolutionSet` when the system
        is satisfiable and :class:`~repro.modsolver.result.Infeasible`
        (with the clashing constraints' provenance tags as ``core``)
        otherwise.  The linear solver is exact: it never returns
        :class:`~repro.modsolver.result.Unknown`.
        """
        num_vars = len(self.variables)
        num_rows = len(self.constraints)
        modulus = 1 << self.width

        if num_vars == 0:
            for constraint in self.constraints:
                if constraint.rhs % modulus != 0:
                    return Infeasible(core=constraint.tags)
            return ModularSolutionSet(self.width, [], {}, [], [])

        matrix = [
            [c.coefficients.get(var, 0) for var in self.variables] for c in self.constraints
        ]
        rhs = [c.rhs for c in self.constraints]

        diagonal, left, right = _diagonalize(matrix, num_rows, num_vars, modulus)

        # c = U * b  (exact integer arithmetic, reduced mod 2**width).
        transformed_rhs = [
            sum(left[i][k] * rhs[k] for k in range(num_rows)) % modulus for i in range(num_rows)
        ]

        particular_y = [0] * num_vars
        free_steps: List[Tuple[int, int, int]] = []  # (y index, step, count)

        limit = min(num_rows, num_vars)
        for i in range(num_vars):
            diag = diagonal[i][i] if i < limit else 0
            c_i = transformed_rhs[i] if i < num_rows else 0
            scalar = solve_scalar_congruence(diag, c_i, self.width)
            if scalar is None:
                return self._core_of_row(left, i, modulus)
            particular_y[i] = scalar.base
            if scalar.count > 1:
                free_steps.append((i, scalar.step if scalar.step else 1, scalar.count))
        # Remaining rows (more constraints than variables) must be trivially satisfied.
        for i in range(num_vars, num_rows):
            if transformed_rhs[i] % modulus != 0:
                return self._core_of_row(left, i, modulus)

        # x = V * y
        particular_x = {
            self.variables[r]: sum(right[r][j] * particular_y[j] for j in range(num_vars)) % modulus
            for r in range(num_vars)
        }
        null_columns: List[Dict[Hashable, int]] = []
        free_counts: List[int] = []
        for y_index, step, count in free_steps:
            column = {
                self.variables[r]: (right[r][y_index] * step) % modulus for r in range(num_vars)
            }
            if any(column.values()):
                null_columns.append(column)
                free_counts.append(count)

        return ModularSolutionSet(
            self.width, self.variables, particular_x, null_columns, free_counts
        )

    def __repr__(self) -> str:
        return "ModularLinearSystem(width=%d, %d vars, %d constraints)" % (
            self.width,
            len(self.variables),
            len(self.constraints),
        )


# ----------------------------------------------------------------------
# Integer diagonalisation (Smith-normal-form style, no divisibility chain)
# ----------------------------------------------------------------------
def _symmetric_residue(value: int, modulus: int) -> int:
    """The representative of ``value`` modulo ``modulus`` in
    ``[-modulus/2, modulus/2)``; keeps intermediate entries small."""
    value %= modulus
    if value >= modulus // 2:
        value -= modulus
    return value


def _diagonalize(
    matrix: Sequence[Sequence[int]], num_rows: int, num_cols: int, modulus: int
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Diagonalise an integer matrix with unimodular transformations.

    Returns ``(D, U, V)`` with ``D = U · A · V (mod modulus)``, ``U`` a product
    of row operations (``num_rows`` square) and ``V`` a product of column
    operations (``num_cols`` square).  ``D`` is diagonal but the diagonal
    entries are not required to satisfy the divisibility chain of the true
    Smith normal form -- for solving congruences that refinement is
    unnecessary.

    Because the system is only ever interpreted modulo ``modulus`` (a power of
    two), every entry of ``A``, ``U`` and ``V`` is kept as a small symmetric
    residue.  Without that reduction the transformation matrices can grow
    exponentially large integers on bigger systems, which is where the
    O(n^3) complexity claim of Section 4.1 would otherwise be lost.
    """
    a = [[_symmetric_residue(x, modulus) for x in row] for row in matrix]
    u = [[1 if i == j else 0 for j in range(num_rows)] for i in range(num_rows)]
    v = [[1 if i == j else 0 for j in range(num_cols)] for i in range(num_cols)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, factor: int) -> None:
        a[dst] = [
            _symmetric_residue(x + factor * y, modulus) for x, y in zip(a[dst], a[src])
        ]
        u[dst] = [
            _symmetric_residue(x + factor * y, modulus) for x, y in zip(u[dst], u[src])
        ]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in a:
            row[dst] = _symmetric_residue(row[dst] + factor * row[src], modulus)
        for row in v:
            row[dst] = _symmetric_residue(row[dst] + factor * row[src], modulus)

    size = min(num_rows, num_cols)
    for t in range(size):
        # Find a non-zero pivot in the remaining submatrix.
        pivot = None
        for i in range(t, num_rows):
            for j in range(t, num_cols):
                if a[i][j] != 0:
                    if pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Clear the pivot column with Euclidean row reductions.
            progressed = False
            for i in range(t + 1, num_rows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    swap_rows(i, t)
                progressed = True
            # Clear the pivot row with Euclidean column reductions.
            for j in range(t + 1, num_cols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    swap_cols(j, t)
                progressed = True
            column_clear = all(a[i][t] == 0 for i in range(t + 1, num_rows))
            row_clear = all(a[t][j] == 0 for j in range(t + 1, num_cols))
            if column_clear and row_clear:
                break
            if not progressed:  # pragma: no cover - defensive
                raise RuntimeError("diagonalisation failed to make progress")
    return a, u, v
