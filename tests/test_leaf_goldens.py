"""Datapath-leaf searches are pinned: verdict, trace and search counters.

``test_datapath_fuzz`` checks verdicts only.  The goldens in
``leaf_goldens.json`` also pin the trace and the counters a datapath leaf
moves (decisions, backtracks, conflicts, solver calls, solver cores and
unproven leaves) for:

* p15 -- the zoo case that reaches the solver -- cold, with learning on
  and with learning off;
* the committed datapath designs under ``designs/``;
* a fixed slice of the datapath fuzz seeds.

A change to the leaf procedure that is meant to keep behaviour must keep
every one of them.  A change meant to move them regenerates the file with
``PYTHONPATH=src python tests/test_leaf_goldens.py`` and says why.
"""

import json
import os
import random

import pytest

from repro import api
from repro.checker import AssertionChecker, CheckerOptions
from repro.checker.incremental import UnrolledModelCache, shared_model_cache
from repro.checker.report import result_to_dict

from test_datapath_fuzz import NO_BAD, comparator_design, operator_design

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "leaf_goldens.json")
DESIGNS = ("mul_lt_const.v", "self_ne.v", "sum_gt_const.v", "y_range.v")
#: (generator, seed, cases): the first cases of two fuzz seeds.
FUZZ_SLICES = ((comparator_design, 1, 40), (operator_design, 4, 40))

COUNTERS = (
    "decisions", "backtracks", "conflicts", "arithmetic_calls",
    "solver_cores", "unproven_leaves",
)


def _pin(payload, stats):
    pinned = {"status": payload["status"], "trace": payload.get("trace")}
    pinned.update((name, stats[name]) for name in COUNTERS)
    return pinned


def _api_case(request):
    api.clear_design_cache()
    shared_model_cache().clear()
    payload = api.check(request).results[0].to_dict()
    return _pin(payload, payload["stats"])


def capture():
    """Every pinned case, keyed by name."""
    cases = {}
    for learning in (True, False):
        cases["p15/learning=%s" % learning] = _api_case(
            api.CheckRequest(circuit=api.CircuitRef.case("p15"), learning=learning)
        )
    for design in DESIGNS:
        cases["designs/" + design] = _api_case(api.CheckRequest(
            circuit=api.CircuitRef.verilog(os.path.join(HERE, "designs", design)),
            properties=(api.PropertySpec.assertion("nobad", "bad == 0"),),
            max_frames=1,
        ))
    for generator, seed, count in FUZZ_SLICES:
        rng = random.Random(seed)
        for case in range(count):
            width = rng.randint(3, 5)
            design_seed = rng.getrandbits(32)
            result = AssertionChecker(
                generator(random.Random(design_seed), width),
                options=CheckerOptions(max_frames=1),
                model_cache=UnrolledModelCache(),
            ).check(NO_BAD)
            payload = result_to_dict(result)
            cases["%s/%d/%d" % (generator.__name__, seed, case)] = _pin(payload, payload)
    return cases


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
def test_leaf_search_matches_golden(observed, name):
    assert observed[name] == EXPECTED[name]


def test_goldens_cover_every_case(observed):
    assert sorted(observed) == sorted(EXPECTED)


if __name__ == "__main__":
    with open(GOLDENS, "w") as stream:
        json.dump(capture(), stream, indent=1, sort_keys=True)
        stream.write("\n")
