"""Tests for the command-line interface (``python -m repro``)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

COUNTER_VERILOG = """
module counter(input clk, input rst, input en, output [3:0] count);
  reg [3:0] count;
  always @(posedge clk) begin
    if (rst)
      count <= 0;
    else if (en) begin
      if (count == 9)
        count <= 0;
      else
        count <= count + 1;
    end
  end
endmodule
"""

DECODER_VERILOG = """
module decoder(input [1:0] sel, output [3:0] line);
  wire [3:0] line;
  assign line = 1 << sel;
endmodule
"""


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter.v"
    path.write_text(COUNTER_VERILOG)
    return str(path)


@pytest.fixture()
def decoder_file(tmp_path):
    path = tmp_path / "decoder.v"
    path.write_text(DECODER_VERILOG)
    return str(path)


# ----------------------------------------------------------------------
# stats / analyze
# ----------------------------------------------------------------------
def test_stats_command_prints_table1_row(counter_file, capsys):
    assert main(["stats", counter_file]) == 0
    out = capsys.readouterr().out
    assert "ckt name" in out
    assert "counter" in out
    assert "partition:" in out


def test_analyze_command_reports_counter(counter_file, capsys):
    assert main(["analyze", counter_file]) == 0
    out = capsys.readouterr().out
    assert "recognised modules" in out
    assert "counter count" in out
    assert "local FSM count" in out
    assert "unreachable" in out  # values 10..15 are never reached


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def test_check_command_holding_assertion(counter_file, capsys):
    exit_code = main(
        [
            "check",
            counter_file,
            "--pin",
            "rst=0",
            "--assert",
            "no_overflow=count != 12",
            "--max-frames",
            "6",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "no_overflow" in out
    assert "holds" in out


def test_check_command_failing_assertion_sets_exit_code(counter_file, capsys, tmp_path):
    vcd_path = tmp_path / "trace.vcd"
    exit_code = main(
        [
            "check",
            counter_file,
            "--pin",
            "rst=0",
            "--assert",
            "never_three=count != 3",
            "--max-frames",
            "8",
            "--vcd",
            str(vcd_path),
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "fails" in out
    assert vcd_path.exists()
    assert "$enddefinitions" in vcd_path.read_text()


def test_check_command_witness_and_json(counter_file, capsys):
    exit_code = main(
        [
            "check",
            counter_file,
            "--pin",
            "rst=0",
            "--witness",
            "reach_two=count == 2",
            "--json",
            "--max-frames",
            "6",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    decoded = json.loads(out)
    assert decoded[0]["property"] == "reach_two"
    assert decoded[0]["status"] == "witness_found"
    assert decoded[0]["trace"]["length"] >= 3


@pytest.mark.parametrize(
    "engine_flags", [[], ["--engines", "atpg,bdd"]], ids=["single", "portfolio"]
)
def test_check_json_stays_parseable_with_vcd(counter_file, capsys, tmp_path, engine_flags):
    vcd_path = tmp_path / "trace.vcd"
    exit_code = main(
        [
            "check",
            counter_file,
            "--pin",
            "rst=0",
            "--assert",
            "never_three=count != 3",
            "--max-frames",
            "8",
            "--json",
            "--vcd",
            str(vcd_path),
        ]
        + engine_flags
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    json.loads(captured.out)
    # The VCD notice (written, or not written when the winning engine
    # produced no trace) goes to stderr.
    assert str(vcd_path) in captured.err


def test_check_command_one_hot_environment(decoder_file, capsys):
    exit_code = main(
        [
            "check",
            decoder_file,
            "--assert",
            "sel_small=sel <= 3",
            "--max-frames",
            "1",
        ]
    )
    assert exit_code == 0
    assert "holds" in capsys.readouterr().out


def test_check_requires_a_property(counter_file):
    with pytest.raises(SystemExit):
        main(["check", counter_file])


def test_named_property_split_keeps_comparisons():
    from repro.cli import _parse_named_property

    assert _parse_named_property("count == 9") == (None, "count == 9")
    assert _parse_named_property("count<=9") == (None, "count<=9")
    assert _parse_named_property("nine=count == 9") == ("nine", "count == 9")


def test_check_rejects_bad_expression(counter_file):
    with pytest.raises(SystemExit):
        main(["check", counter_file, "--assert", "count ==="])


def test_check_rejects_bad_pin(counter_file):
    with pytest.raises(SystemExit):
        main(["check", counter_file, "--assert", "count != 3", "--pin", "rst"])


# ----------------------------------------------------------------------
# paper tables
# ----------------------------------------------------------------------
def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "addr_decoder" in out
    assert "industy_01" in out or "industry_01" in out


def test_table2_command_subset(capsys):
    assert main(["table2", "--cases", "p1,p2"]) == 0
    out = capsys.readouterr().out
    assert "p1" in out and "p2" in out
    assert "ok" in out


# ----------------------------------------------------------------------
# check --engines / --sim-width (the portfolio path)
# ----------------------------------------------------------------------
def test_check_random_engine_with_sim_width(counter_file, capsys):
    exit_code = main(
        [
            "check",
            counter_file,
            "--pin",
            "rst=0",
            "--pin",
            "en=1",
            "--witness",
            "reach_two=count == 2",
            "--engines",
            "random",
            "--sim-width",
            "16",
            "--seed",
            "3",
            "--json",
        ]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    decoded = json.loads(out)
    result = decoded["results"][0]
    assert result["status"] == "witness_found"
    engine = result["engines"][0]
    assert engine["engine"] == "random"
    assert engine["stats"]["sim_width"] == 16


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--engines", "random", "--sim-width", "0"], "sim_width must be >= 1"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--engines", "atpg,atpg"], "duplicate engines"),
    ],
    ids=["sim-width", "jobs", "duplicate-engines"],
)
def test_check_rejects_bad_sim_width(counter_file, flags, message):
    # The request's own validation reports these; the CLI only wraps it.
    with pytest.raises(SystemExit, match=message):
        main(["check", counter_file, "--assert", "count <= 9"] + flags)


def test_cli_import_leaves_sim_and_analysis_unloaded():
    """``repro.sim`` and ``repro.analysis`` load on first use, not on the
    ``repro check`` start-up path; the top-level re-exports still resolve."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in ('repro.sim', 'repro.analysis') if m in sys.modules))\n"
        "import repro\n"
        "print(repro.BitParallelSim.__name__, repro.compile_circuit.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "BitParallelSim compile_circuit"]
