"""repro -- word-level ATPG + modular arithmetic assertion checking.

A from-scratch Python reproduction of

    Huang & Cheng, "Assertion Checking by Combined Word-level ATPG and
    Modular Arithmetic Constraint-Solving Techniques", DAC 2000.

The package provides:

* a word-level RTL netlist and builder API (:mod:`repro.netlist`),
* a Verilog-subset front end (:mod:`repro.hdl`),
* three-valued word-level implication (:mod:`repro.implication`) over the
  cube/interval domain of :mod:`repro.bitvector`,
* the branch-and-bound word-level ATPG (:mod:`repro.atpg`),
* the modular arithmetic constraint solver (:mod:`repro.modsolver`),
* assertion / witness properties and environments (:mod:`repro.properties`),
* the top-level checker (:mod:`repro.checker`),
* baseline engines for comparison (:mod:`repro.baselines`),
* a compiled bit-parallel simulation kernel (:mod:`repro.sim`),
* the paper's benchmark designs and properties (:mod:`repro.circuits`).

The supported import surface for library users is the facade
(:mod:`repro.api`), re-exported here: build one serialisable
:class:`CheckRequest`, run it with :func:`check` / :func:`check_batch`, and
read the unified :class:`CheckReport`.  Internal modules such as
``repro.checker.engine`` stay importable but are not a stability contract.

Quickstart::

    from repro import Circuit, Assertion, Signal, build_request, check

    c = Circuit("demo")
    a = c.input("a", 4)
    b = c.input("b", 4)
    c.output(c.add(a, b), name="total")

    request = build_request(c, Assertion("no_overflow", Signal("total") >= Signal("a")))
    report = check(request)
"""

from repro import api
from repro.api import (
    CheckReport,
    CheckRequest,
    CircuitRef,
    PropertySpec,
    PropertyVerdict,
    RequestError,
    check,
)
from repro.bitvector import BV3, ValueRange
from repro.netlist import Circuit, NetKind
from repro.properties import (
    Assertion,
    Witness,
    Signal,
    Const,
    And,
    Or,
    Not,
    Implies,
    Delayed,
    OneHot,
    AtMostOneHot,
    Environment,
)
from repro.checker import AssertionChecker, CheckerOptions, CheckResult, CheckStatus
from repro.simulation import Simulator

__version__ = "0.3.0"


def __getattr__(name: str):
    # repro.sim and the half of repro.api that a one-shot check never runs
    # load on first use, keeping them off the `repro check` path.
    if name in ("BitParallelSim", "compile_circuit"):
        from repro import sim

        return getattr(sim, name)
    if name in ("build_request", "check_batch"):
        return getattr(api, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

__all__ = [
    "api",
    "CheckReport",
    "CheckRequest",
    "CircuitRef",
    "PropertySpec",
    "PropertyVerdict",
    "RequestError",
    "build_request",
    "check",
    "check_batch",
    "BV3",
    "ValueRange",
    "Circuit",
    "NetKind",
    "Assertion",
    "Witness",
    "Signal",
    "Const",
    "And",
    "Or",
    "Not",
    "Implies",
    "Delayed",
    "OneHot",
    "AtMostOneHot",
    "Environment",
    "AssertionChecker",
    "CheckerOptions",
    "CheckResult",
    "CheckStatus",
    "Simulator",
    "BitParallelSim",
    "compile_circuit",
    "__version__",
]
