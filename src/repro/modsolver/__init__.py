"""Modular arithmetic constraint solving (Section 4 of the paper).

Datapath constraints are solved in the modulo-``2**n`` number system rather
than over the integers, because hardware signals are fixed-width bit-vectors
and solutions that arise from value wrap-around ("modulation") must not be
missed -- otherwise the checker would report *false negatives* (missed
counterexamples).

* :mod:`repro.modsolver.modular` -- multiplicative inverses of bit-vectors,
  plain and *with product k* (paper Definitions 3-4, Theorems 1-2).
* :mod:`repro.modsolver.linear` -- complete solution of linear systems
  ``A·x = b (mod 2**n)`` in the closed form ``x = x0 + N·f`` of the paper.
* :mod:`repro.modsolver.nonlinear` -- heuristic factoring-based enumeration
  for multiplier / shifter constraints, which are substituted to make the
  remaining system linear.
* :mod:`repro.modsolver.extract` -- extraction of arithmetic constraints from
  the datapath portion of a (time-frame expanded) netlist.
* :mod:`repro.modsolver.result` -- the typed solver results
  (:class:`Solution` / :class:`Infeasible` with an unsatisfiable-core
  certificate / :class:`Unknown` for exhausted budgets), which keep
  "proved infeasible" strictly apart from "gave up" so the search-learning
  layer only ever learns from proofs.

The re-exports below resolve lazily, each loading only its own submodule on
first use.  The package itself is imported on the first datapath leaf or
scalar-congruence rule of a check, so a check that never reaches the
datapath never compiles the solver.
"""

#: re-exported name -> the submodule defining it.
_EXPORTS = {
    "multiplicative_inverse": "modular",
    "multiplicative_inverse_with_product": "modular",
    "solve_scalar_congruence": "modular",
    "odd_part": "modular",
    "two_adic_valuation": "modular",
    "ScalarSolutions": "modular",
    "ModularLinearSystem": "linear",
    "ModularSolutionSet": "linear",
    "LinearConstraint": "linear",
    "NonlinearConstraint": "nonlinear",
    "enumerate_factor_pairs": "nonlinear",
    "NonlinearSolver": "nonlinear",
    "DatapathConstraintExtractor": "extract",
    "ArithmeticProblem": "extract",
    "Solution": "result",
    "Infeasible": "result",
    "Unknown": "result",
}


def __getattr__(name: str):
    if name in _EXPORTS:
        from importlib import import_module

        return getattr(import_module("repro.modsolver." + _EXPORTS[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = list(_EXPORTS)
