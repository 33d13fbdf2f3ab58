"""Baseline engines used by the ablation and scalability benchmarks.

The paper argues that (a) the word-level ATPG approach is far less memory
hungry than BDD-based symbolic model checking, (b) modular rather than
integral arithmetic reasoning avoids false negatives, and (c) deterministic
constraint solving finds the corner cases random simulation misses.  To turn
those claims into measurable experiments we provide:

* :mod:`repro.baselines.bdd` / :mod:`repro.baselines.bdd_checker` -- an ROBDD
  manager and a symbolic reachability checker, the state-set technique the
  paper's scalability argument is made against;
* :mod:`repro.baselines.cnf` / :mod:`repro.baselines.bitblast` /
  :mod:`repro.baselines.dpll` / :mod:`repro.baselines.sat_checker` -- a
  bit-blasting bounded model checker in the style of Biere et al. (SAT-BMC),
  the bit-level alternative the paper cites;
* :mod:`repro.baselines.lowering` -- the one word-to-bit lowering of every
  gate and register both bit-level checkers build on, each over its own
  kind of bit (BDD nodes, CNF literals).  The two keep separate solvers, so
  a lowering bug still shows as a disagreement with the word-level ATPG
  engine or as a SAT trace that fails concrete replay;
* :mod:`repro.baselines.integer_solver` -- a rational (non-modular) linear
  solver that misses wrap-around solutions, demonstrating the false-negative
  effect of Section 4;
* :mod:`repro.baselines.random_sim` -- the plain random-simulation flow the
  paper's introduction motivates against (corner cases need lucky stimulus).
"""

from repro.baselines.cnf import CNFFormula, TseitinEncoder
from repro.baselines.dpll import DPLLSolver, SATResult
from repro.baselines.bitblast import CircuitBitBlaster
from repro.baselines.sat_checker import SATBoundedChecker
from repro.baselines.integer_solver import RationalLinearSolver
from repro.baselines.random_sim import RandomSimulationChecker, RandomSimulationOptions
from repro.baselines.bdd import BddManager
from repro.baselines.bdd_checker import BddSymbolicChecker, BddCheckResult

__all__ = [
    "CNFFormula",
    "TseitinEncoder",
    "DPLLSolver",
    "SATResult",
    "CircuitBitBlaster",
    "SATBoundedChecker",
    "RationalLinearSolver",
    "RandomSimulationChecker",
    "RandomSimulationOptions",
    "BddManager",
    "BddSymbolicChecker",
    "BddCheckResult",
]
