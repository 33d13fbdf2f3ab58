"""The bit-level baselines are pinned: CNF, SAT, BDD and random simulation.

The SAT bit-blaster, the BDD checker and the bit-parallel simulator of the
random baseline all lower every gate of a bundled case to per-bit Boolean
functions.  The goldens in ``bitlevel_goldens.json`` pin, for every bundled
case (p1-p15):

* the blaster's CNF at ``min(max_frames, 6)`` frames: variable count,
  clause count and a digest of the clause list;
* ``SATBoundedChecker`` with at most 3 frames and a small decision budget:
  status, frames explored, clauses, variables, decisions and trace inputs
  (p2, p9 and p15 take seconds there and are left out);
* ``BddSymbolicChecker`` under a small node limit: status, iterations,
  reachable-state count and reachable-set size;
* ``RandomSimulationChecker`` at its default options and seed: status,
  vectors simulated, and the target frame and inputs of any trace.

``peak_nodes`` counts every node the BDD manager ever allocated, so it
depends on how a gate is built, not only on what it computes; it is not
pinned.  A change to the lowering that is meant to keep behaviour must keep
every golden.  A change meant to move them regenerates the file with
``PYTHONPATH=src python tests/test_bitlevel_goldens.py`` and says why.
"""

import hashlib
import json
import os

import pytest

from repro.baselines import (
    BddSymbolicChecker,
    CircuitBitBlaster,
    RandomSimulationChecker,
    SATBoundedChecker,
)
from repro.circuits.properties import all_case_ids, build_case, extended_case_ids

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "bitlevel_goldens.json")
CASES = all_case_ids() + extended_case_ids()
#: cases whose bounded SAT run takes seconds even at 3 frames.
SAT_SLOW = ("p2", "p9", "p15")
BLAST_FRAMES = 6
SAT_FRAMES = 3
SAT_DECISIONS = 1000
BDD_NODE_LIMIT = 40_000


def _blast(case_id):
    case = build_case(case_id)
    blaster = CircuitBitBlaster(
        case.circuit, min(case.max_frames, BLAST_FRAMES), initial_state=case.initial_state
    )
    formula = blaster.formula
    return {
        "variables": formula.num_variables,
        "clauses": len(formula),
        "digest": hashlib.sha256(repr(formula.clauses).encode()).hexdigest(),
    }


def _sat(case_id):
    case = build_case(case_id)
    result = SATBoundedChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        max_frames=min(case.max_frames, SAT_FRAMES),
        max_decisions=SAT_DECISIONS,
    ).check(case.prop)
    return {
        "status": result.status.value,
        "frames_explored": result.frames_explored,
        "clauses": result.clauses,
        "variables": result.variables,
        "decisions": result.decisions,
        "trace_inputs": result.trace_inputs,
    }


def _bdd(case_id):
    case = build_case(case_id)
    result = BddSymbolicChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        node_limit=BDD_NODE_LIMIT,
    ).check(case.prop)
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "reachable_states": result.reachable_states,
        "reachable_nodes": result.reachable_nodes,
    }


def _random(case_id):
    case = build_case(case_id)
    checker = RandomSimulationChecker(
        case.circuit, environment=case.environment, initial_state=case.initial_state
    )
    result = checker.check(case.prop)
    trace = result.counterexample
    return {
        "status": result.status.value,
        "vectors_simulated": checker.vectors_simulated,
        "target_frame": None if trace is None else trace.target_frame,
        "trace_inputs": None if trace is None else trace.inputs,
    }


def capture():
    """Every pinned run, keyed by ``engine/case``."""
    runs = {}
    for case_id in CASES:
        runs["blast/" + case_id] = _blast(case_id)
        if case_id not in SAT_SLOW:
            runs["sat/" + case_id] = _sat(case_id)
        runs["bdd/" + case_id] = _bdd(case_id)
        runs["random/" + case_id] = _random(case_id)
    return runs


@pytest.fixture(scope="module")
def observed():
    return capture()


def _expected():
    # Missing only while the file is being generated; the coverage test
    # below fails on an empty golden set.
    if not os.path.exists(GOLDENS):
        return {}
    with open(GOLDENS) as stream:
        return json.load(stream)


EXPECTED = _expected()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bit_level_run_matches_golden(observed, name):
    assert observed[name] == EXPECTED[name]


def test_goldens_cover_every_case(observed):
    assert sorted(observed) == sorted(EXPECTED)


if __name__ == "__main__":
    with open(GOLDENS, "w") as stream:
        json.dump(capture(), stream, indent=1, sort_keys=True)
        stream.write("\n")
