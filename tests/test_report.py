"""Tests for the result reporting helpers (text and JSON)."""

import dataclasses
import json

import pytest

from repro.checker import (
    AssertionChecker,
    CheckerOptions,
    format_result,
    format_results_table,
    result_to_dict,
    results_to_json,
)
from repro.netlist import Circuit
from repro.properties import Assertion, Signal, Witness


def build_counter(limit=5, width=3):
    circuit = Circuit("counter")
    cnt = circuit.state("cnt", width)
    at_max = circuit.eq(cnt, limit)
    circuit.dff_into(
        cnt, circuit.mux(at_max, circuit.add(cnt, 1), circuit.const(0, width)), init_value=0
    )
    circuit.output(cnt)
    return circuit


@pytest.fixture(scope="module")
def sample_results():
    circuit = build_counter()
    checker = AssertionChecker(circuit, options=CheckerOptions(max_frames=8))
    holds = checker.check(Assertion("never_seven", Signal("cnt") != 7))
    witness = checker.check(Witness("reach_three", Signal("cnt") == 3))
    fails = checker.check(Assertion("never_two", Signal("cnt") != 2))
    return holds, witness, fails


def test_result_to_dict_fields(sample_results):
    holds, witness, fails = sample_results
    payload = result_to_dict(holds)
    assert payload["property"] == "never_seven"
    assert payload["kind"] == "assertion"
    assert payload["status"] == "holds"
    assert payload["wall_seconds"] >= 0
    assert "trace" not in payload

    failing = result_to_dict(fails)
    assert failing["status"] == "fails"
    assert failing["trace"]["validated"] is True
    assert len(failing["trace"]["inputs"]) == failing["trace"]["length"]

    found = result_to_dict(witness)
    assert found["kind"] == "witness"
    assert found["status"] == "witness_found"


def test_results_to_json_round_trips(sample_results):
    text = results_to_json(sample_results)
    decoded = json.loads(text)
    assert len(decoded) == 3
    assert {entry["property"] for entry in decoded} == {
        "never_seven",
        "reach_three",
        "never_two",
    }


def test_format_result_mentions_verdict_and_trace(sample_results):
    holds, witness, fails = sample_results
    text = format_result(fails)
    assert "never_two" in text
    assert "fails" in text
    assert "counterexample" in text
    assert "frame" in text

    no_trace = format_result(fails, include_trace=False)
    assert "counterexample" not in no_trace

    witness_text = format_result(witness)
    assert "witness trace" in witness_text


def test_format_results_table_shape(sample_results):
    holds, witness, fails = sample_results
    table = format_results_table([holds, witness, fails])
    lines = table.splitlines()
    assert len(lines) == 2 + 3  # header, separator, one row per result
    assert "never_seven" in lines[2]
    assert "holds" in lines[2]


def test_format_results_table_with_paper_columns(sample_results):
    holds, witness, fails = sample_results
    table = format_results_table(
        [holds, fails],
        labels=["p1", "p2"],
        paper_cpu={"p1": 0.08, "p2": 0.09},
        paper_memory={"p1": 0.01},
    )
    assert "paper cpu" in table
    assert "0.08" in table
    # Missing paper data renders as a dash.
    assert " -" in table.splitlines()[3]


def test_format_results_table_label_mismatch(sample_results):
    holds, _, _ = sample_results
    with pytest.raises(ValueError):
        format_results_table([holds], labels=["a", "b"])


def _with_memory(result, peak_memory_mb):
    statistics = dataclasses.replace(result.statistics, peak_memory_mb=peak_memory_mb)
    return dataclasses.replace(result, statistics=statistics)


def test_unmeasured_memory_does_not_read_as_a_measurement(sample_results):
    holds = _with_memory(sample_results[0], 0.0)
    assert "peak memory     : not measured" in format_result(holds)
    assert format_results_table([holds]).splitlines()[2].split()[3] == "-"
    assert "mem=not measured" in repr(holds)
    assert result_to_dict(holds)["peak_memory_mb"] == 0.0


def test_measured_memory_prints_megabytes(sample_results):
    holds = _with_memory(sample_results[0], 1.5)
    assert "peak memory     : 1.50 MB" in format_result(holds)
    assert format_results_table([holds]).splitlines()[2].split()[3] == "1.50"
    assert "mem=1.50MB" in repr(holds)
