"""The cli-oneshot corpus verdicts agree with an independent engine.

The benchmark scores every ``repro check`` invocation against the verdicts
written by hand in ``corpus/expected.json``.  This test confirms each of
them with the bit-level SAT baseline rather than the word-level checker the
benchmark measures, so a wrong known answer cannot hide a checker bug.

Run:  PYTHONPATH=src python -m pytest perfbench/test_corpus.py -q
"""

import json
import os

import pytest

from repro.baselines import SATBoundedChecker
from repro.hdl import compile_verilog
from repro.properties.parse import parse_expression
from repro.properties.spec import Assertion, Witness

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

with open(os.path.join(CORPUS, "expected.json")) as _stream:
    KINDS = json.load(_stream)["kinds"]


def test_corpus_covers_every_verdict_and_design():
    assert {kind["status"] for kind in KINDS} == {
        "holds", "fails", "witness_found", "witness_not_found",
    }
    assert {kind["design"] for kind in KINDS} == {
        "counter.v", "decoder.v", "alu.v", "credits.v",
    }
    assert len({kind["name"] for kind in KINDS}) == len(KINDS)


@pytest.mark.parametrize("kind", KINDS, ids=[kind["name"] for kind in KINDS])
def test_expected_verdict_matches_sat_baseline(kind):
    with open(os.path.join(CORPUS, kind["design"])) as stream:
        circuit = compile_verilog(stream.read())
    factory = Assertion if kind["kind"] == "assert" else Witness
    prop = factory(kind["name"], parse_expression(kind["expr"]))
    result = SATBoundedChecker(circuit, max_frames=kind["max_frames"]).check(prop)
    assert result.status.value == kind["status"]
