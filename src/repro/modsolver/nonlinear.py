"""Heuristic handling of non-linear datapath constraints.

Non-linear constraints arise from multipliers with two variable operands and
from shifters with a variable shift amount.  Completely solving them is hard,
so -- following the paper -- we *enumerate* candidate values analytically
(prime/power-of-two factoring of the product, shift-amount enumeration),
substitute each candidate to make the remaining constraint system linear, and
let the linear solver finish the job.
"""

from __future__ import annotations

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

from repro.modsolver.linear import ModularLinearSystem
from repro.modsolver.modular import solve_scalar_congruence
from repro.modsolver.result import Infeasible, Solution, Unknown
from repro.records import Record, factory


class NonlinearConstraint(Record):
    """A constraint ``a * b = product (mod 2**width)`` or a variable shift.

    ``kind`` is ``"mul"`` or ``"shl"``/``"shr"``.  Each operand is either a
    variable identifier or an ``int`` constant; ``product`` likewise.
    ``tags`` is the constraint's provenance (see
    :class:`~repro.modsolver.linear.LinearConstraint`), folded into any
    infeasibility core whose refutation used this constraint.
    """

    kind: str
    a: Hashable
    b: Hashable
    product: Hashable
    width: int
    tags: FrozenSet[Hashable] = factory(frozenset)

    def __init__(self, kind: str, a: Hashable, b: Hashable, product: Hashable, width: int,
                 tags: Optional[FrozenSet[Hashable]] = None):
        self.kind = kind
        self.a = a
        self.b = b
        self.product = product
        self.width = width
        self.tags = frozenset() if tags is None else tags

    def operands(self) -> Tuple[Hashable, Hashable, Hashable]:
        return (self.a, self.b, self.product)

    def variables(self) -> List[Hashable]:
        """The non-constant operands."""
        return [op for op in self.operands() if not isinstance(op, int)]

    def is_satisfied(self, assignment: Mapping[Hashable, int]) -> bool:
        """Check the constraint under a full assignment."""
        modulus = 1 << self.width

        def value(op: Hashable) -> int:
            return op % modulus if isinstance(op, int) else assignment[op] % modulus

        a, b, product = value(self.a), value(self.b), value(self.product)
        if self.kind == "mul":
            return (a * b) % modulus == product
        if self.kind == "shl":
            return (a << b) % modulus == product if b < self.width else product == 0
        if self.kind == "shr":
            return (a >> b) % modulus == product
        raise ValueError("unknown nonlinear constraint kind %r" % (self.kind,))


def enumerate_factor_pairs(
    product: int, width: int, limit: int = 256
) -> Iterator[Tuple[int, int]]:
    """Enumerate pairs ``(a, b)`` with ``a * b = product (mod 2**width)``.

    The enumeration is heuristic but sound: every yielded pair satisfies the
    congruence.  It walks candidate values of ``a`` in a factor-first order
    (divisors of the product and of its small modular representatives, then
    odd values, then the remaining even values) and solves for ``b`` with the
    multiplicative-inverse-with-product machinery.  At most ``limit`` pairs
    are produced.
    """
    modulus = 1 << width
    product %= modulus
    produced = 0
    seen = set()

    for a in _candidate_factors(product, width):
        solutions = solve_scalar_congruence(a, product, width)
        if solutions is None:
            continue
        for b in solutions.values():
            if (a, b) in seen:
                continue
            seen.add((a, b))
            yield a, b
            produced += 1
            if produced >= limit:
                return


def _candidate_factors(product: int, width: int) -> Iterator[int]:
    """Candidate values for one multiplier operand, best-first."""
    modulus = 1 << width
    emitted = set()

    def emit(value: int) -> Iterator[int]:
        value %= modulus
        if value not in emitted:
            emitted.add(value)
            yield value

    # Divisors of small modular representatives of the product first: these
    # are the "prime factoring" candidates of the paper.
    for representative in (product, product + modulus, product + 2 * modulus):
        if representative == 0:
            continue
        for divisor in _divisors(representative):
            if divisor < modulus:
                yield from emit(divisor)
    # Then every odd value (each has a unique partner), then the rest.
    for a in range(1, modulus, 2):
        yield from emit(a)
    for a in range(0, modulus, 2):
        yield from emit(a)


def _divisors(value: int) -> List[int]:
    """All positive divisors of ``value`` (small values only)."""
    value = abs(value)
    result = []
    d = 1
    while d * d <= value:
        if value % d == 0:
            result.append(d)
            result.append(value // d)
        d += 1
    return sorted(set(result))


class _CandidatePlan(Record):
    """The substitutions linearising one non-linear constraint.

    ``candidates`` yields ``(substitution, tags)`` pairs, where ``tags`` is
    the provenance of the known values the substitution was derived from.
    ``complete`` is True only when the enumeration covers *every* value the
    substituted variables could take -- the precondition for turning "all
    branches refuted" into an infeasibility certificate.  ``base_tags``
    carries the provenance that already refutes the constraint when the
    plan is complete and empty (e.g. an unsolvable scalar congruence).
    """

    candidates: Iterable[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]]
    complete: bool
    base_tags: FrozenSet[Hashable] = frozenset()

    def __init__(self,
                 candidates: Iterable[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]],
                 complete: bool, base_tags: FrozenSet[Hashable] = frozenset()):
        self.candidates = candidates
        self.complete = complete
        self.base_tags = base_tags


#: solutions of the linear part tried against the remaining nonlinear
#: constraints in one branch.
ENUMERATION_LIMIT = 64


class NonlinearSolver:
    """Solve a mixed linear / non-linear constraint system by enumeration.

    The solver repeatedly picks candidate substitutions for the non-linear
    constraints (factor pairs for multipliers, shift amounts for shifters),
    adds the induced linear equations to a copy of the linear system, solves
    it modulo ``2**width`` and checks the remaining constraints.  The number
    of candidate substitutions explored is bounded by ``budget``.

    Results are typed (see :mod:`repro.modsolver.result`):

    * :class:`~repro.modsolver.result.Solution` -- a satisfying assignment;
    * :class:`~repro.modsolver.result.Infeasible` -- proved unsatisfiable.
      The proof obligation is real: every branch of a *complete*
      substitution enumeration must have been closed by a linear
      infeasibility certificate (or a substitution clash with an existing
      pin); the reported core is the union of the branch cores and the
      constraint's own provenance.
    * :class:`~repro.modsolver.result.Unknown` -- the budget ran out, the
      enumeration was incomplete (factor sampling, shift-amount classes) or
      some branch was closed heuristically.  Never a proof.
    """

    def __init__(self, budget: int = 512):
        self.budget = budget

    def solve(
        self,
        linear: ModularLinearSystem,
        nonlinear: Sequence[NonlinearConstraint],
        fixed: Optional[Mapping[Hashable, int]] = None,
        fixed_tags: Optional[Mapping[Hashable, FrozenSet[Hashable]]] = None,
    ) -> Union[Solution, Infeasible, Unknown]:
        """Solve the system with ``fixed`` variables pinned to known values.

        ``fixed_tags`` optionally maps pinned variables to their provenance
        (default: the variable itself), so pins forced by implication can
        enter infeasibility cores under their engine keys.  For purely
        linear systems the answer is exact (never ``Unknown``).
        """
        fixed = dict(fixed or {})
        tags: Dict[Hashable, FrozenSet[Hashable]] = {
            var: frozenset(ts) for var, ts in (fixed_tags or {}).items()
        }
        for var in fixed:
            tags.setdefault(var, frozenset((var,)))
        base = self._with_fixed(linear, fixed, tags)
        # An operand in no linear row must still be a variable of the
        # system, or a solution would leave it unassigned once a
        # substitution pins only its partner.
        for constraint in nonlinear:
            for var in constraint.variables():
                if var not in fixed:
                    base.add_variable(var)
        if not nonlinear:
            return self._solve_linear(base, fixed, ())
        return self._solve_recursive(base, list(nonlinear), fixed, tags, self.budget)

    # ------------------------------------------------------------------
    def _with_fixed(
        self,
        linear: ModularLinearSystem,
        fixed: Mapping[Hashable, int],
        fixed_tags: Mapping[Hashable, FrozenSet[Hashable]],
    ) -> ModularLinearSystem:
        system = ModularLinearSystem(linear.width, linear.variables)
        for constraint in linear.constraints:
            system.add_constraint(constraint.coefficients, constraint.rhs, constraint.tags)
        for var, value in fixed.items():
            if var in system._var_index or any(
                var in c.coefficients for c in linear.constraints
            ):
                system.add_constraint({var: 1}, value, fixed_tags.get(var, (var,)))
        return system

    def _solve_linear(
        self,
        system: ModularLinearSystem,
        fixed: Mapping[Hashable, int],
        remaining_nonlinear: Sequence[NonlinearConstraint],
    ) -> Union[Solution, Infeasible, Unknown]:
        solutions = system.solve()
        if isinstance(solutions, Infeasible):
            return solutions
        for candidate in solutions.enumerate(limit=ENUMERATION_LIMIT):
            assignment = dict(fixed)
            assignment.update(candidate)
            if all(c.is_satisfied(assignment) for c in remaining_nonlinear):
                return Solution(assignment)
        return Unknown("enumeration")

    def _solve_recursive(
        self,
        system: ModularLinearSystem,
        nonlinear: List[NonlinearConstraint],
        fixed: Dict[Hashable, int],
        fixed_tags: Dict[Hashable, FrozenSet[Hashable]],
        budget: int,
    ) -> Union[Solution, Infeasible, Unknown]:
        if budget <= 0:
            return Unknown("budget")
        if not nonlinear:
            return self._solve_linear(system, fixed, ())

        constraint = nonlinear[0]
        rest = nonlinear[1:]
        # Values forced by unit rows of the linear system (e.g. pins added
        # by earlier substitutions, or extracted single-variable equations)
        # are just as "known" as explicit fixes; folding them in lets the
        # exact congruence plans fire -- and certify -- more often.
        effective_fixed, effective_tags = self._implied_pins(system)
        effective_fixed.update(fixed)
        effective_tags.update(fixed_tags)
        plan = self._candidate_substitutions(constraint, effective_fixed, effective_tags)
        spent = 0
        cores: List[FrozenSet[Hashable]] = []
        certified = True
        for substitution, sub_tags in plan.candidates:
            if spent >= budget:
                return Unknown("budget")
            spent += 1
            extended = ModularLinearSystem(system.width, system.variables)
            for c in system.constraints:
                extended.add_constraint(c.coefficients, c.rhs, c.tags)
            new_fixed = dict(fixed)
            new_tags = dict(fixed_tags)
            pin_tags = sub_tags | constraint.tags
            clash: Optional[Hashable] = None
            for var, value in substitution.items():
                if var in new_fixed and new_fixed[var] != value:
                    clash = var
                    break
                new_fixed[var] = value
                new_tags[var] = pin_tags
                extended.add_constraint({var: 1}, value, pin_tags)
            if clash is not None:
                # The substituted value is forced by the constraint, the pin
                # by its own provenance; their disagreement closes the branch
                # with a certificate.
                cores.append(
                    pin_tags | new_tags.get(clash, frozenset((clash,)))
                )
                continue
            result = self._solve_recursive(extended, rest, new_fixed, new_tags, budget - spent)
            if isinstance(result, Solution):
                if constraint.is_satisfied(result.assignment):
                    return result
                # The linearised system is a relaxation (e.g. a pinned shift
                # amount without the shift relation): a solution violating
                # the constraint closes the branch heuristically only.
                certified = False
                continue
            if isinstance(result, Unknown):
                certified = False
                continue
            cores.append(result.core)
        if not plan.complete:
            return Unknown("enumeration")
        if not certified:
            return Unknown("heuristic")
        core = plan.base_tags | constraint.tags
        for branch_core in cores:
            core |= branch_core
        return Infeasible(core=frozenset(core))

    @staticmethod
    def _implied_pins(
        system: ModularLinearSystem,
    ) -> Tuple[Dict[Hashable, int], Dict[Hashable, FrozenSet[Hashable]]]:
        """Variables uniquely determined by single-variable linear rows.

        A row ``coeff * var = rhs`` with a unique modular solution pins
        ``var``; the pin inherits the row's provenance tags.
        """
        pins: Dict[Hashable, int] = {}
        tags: Dict[Hashable, FrozenSet[Hashable]] = {}
        for constraint in system.constraints:
            if len(constraint.coefficients) != 1:
                continue
            (var, coeff), = constraint.coefficients.items()
            if var in pins:
                continue
            scalar = solve_scalar_congruence(coeff, constraint.rhs, system.width)
            if scalar is not None and scalar.count == 1:
                pins[var] = scalar.base
                tags[var] = constraint.tags
        return pins, tags

    def _candidate_substitutions(
        self,
        constraint: NonlinearConstraint,
        fixed: Mapping[Hashable, int],
        fixed_tags: Mapping[Hashable, FrozenSet[Hashable]],
    ) -> _CandidatePlan:
        """The substitutions linearising one constraint, with provenance."""
        modulus = 1 << constraint.width

        def known(op: Hashable) -> Optional[int]:
            if isinstance(op, int):
                return op % modulus
            return fixed.get(op)

        def tags_of(op: Hashable) -> FrozenSet[Hashable]:
            if isinstance(op, int):
                return frozenset()
            return fixed_tags.get(op, frozenset((op,)))

        a, b, product = known(constraint.a), known(constraint.b), known(constraint.product)

        if constraint.kind == "mul":
            if a is not None and b is not None:
                base = tags_of(constraint.a) | tags_of(constraint.b)
                value = (a * b) % modulus
                if isinstance(constraint.product, int):
                    # Fully determined: the single candidate either matches
                    # the required product or refutes the constraint outright.
                    if value == product:
                        return _CandidatePlan([({}, base)], True, base)
                    return _CandidatePlan([], True, base)
                return _CandidatePlan(
                    [({constraint.product: value}, base)], True, base
                )
            if product is not None and a is not None:
                return self._factor_plan(
                    tags_of(constraint.a) | tags_of(constraint.product),
                    a, constraint.b, product, constraint.width,
                )
            if product is not None and b is not None:
                return self._factor_plan(
                    tags_of(constraint.b) | tags_of(constraint.product),
                    b, constraint.a, product, constraint.width,
                )
            base = tags_of(constraint.product)
            if product is not None:
                def factor_pairs() -> Iterator[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]]:
                    for fa, fb in enumerate_factor_pairs(product, constraint.width):
                        combined = self._bind(constraint.a, fa)
                        combined.update(self._bind(constraint.b, fb))
                        yield combined, base

                # Factor sampling is bounded: never a complete enumeration.
                return _CandidatePlan(factor_pairs(), False, base)

            def small_values() -> Iterator[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]]:
                # Nothing known: try small operand values for one side.
                for value in range(min(modulus, 16)):
                    yield self._bind(constraint.a, value), frozenset()

            return _CandidatePlan(small_values(), False, frozenset())
        if constraint.kind in ("shl", "shr"):
            def amounts() -> Iterator[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]]:
                # Enumerate the shift amount; each choice makes the
                # constraint linear (a power-of-two multiply / divide).
                for amount in range(constraint.width + 1):
                    yield self._bind(constraint.b, amount), frozenset()

            # Amounts >= width collapse into one behavioural class but are
            # distinct pin values, so the enumeration is not complete in the
            # certificate sense.
            return _CandidatePlan(amounts(), False, frozenset())
        raise ValueError("unknown nonlinear constraint kind %r" % (constraint.kind,))

    def _factor_plan(
        self,
        base: FrozenSet[Hashable],
        known_value: int,
        other_op: Hashable,
        product: int,
        width: int,
    ) -> _CandidatePlan:
        """All solutions of ``known_value * other = product`` (Theorems 1-2).

        The scalar congruence solver is exact: its solution set is complete,
        and an empty one refutes the constraint under the known values'
        provenance (``base``).
        """
        scalar = solve_scalar_congruence(known_value, product, width)
        if scalar is None:
            return _CandidatePlan([], True, base)

        def values() -> Iterator[Tuple[Dict[Hashable, int], FrozenSet[Hashable]]]:
            for value in scalar.values():
                yield self._bind(other_op, value), base

        return _CandidatePlan(values(), True, base)

    @staticmethod
    def _bind(op: Hashable, value: int) -> Dict[Hashable, int]:
        if isinstance(op, int):
            return {}
        return {op: value}
