"""Tests for the command-line interface (``python -m repro``).

``cli_help_goldens.json`` pins every help screen of the CLI.  A change that
means to alter the CLI surface regenerates it with
``PYTHONPATH=src python tests/test_cli.py`` and says why.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from unittest import mock

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


# ----------------------------------------------------------------------
# the one-shot start-up path
# ----------------------------------------------------------------------
DESIGNS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "designs")

#: standard-library modules no one-shot check runs: ``dataclasses`` (and
#: its ``inspect`` and ``copy``) loads only when a ``dataclasses`` function
#: is called on a record, OpenSSL's ``hashlib`` only on the daemon path.
STDLIB_UNLOADED = ("dataclasses", "inspect", "copy", "hashlib", "_hashlib")

#: modules of this package (and the process machinery) a default
#: single-engine check must not load: each one loads on first use by the
#: path that needs it.
PACKAGE_UNLOADED = (
    "repro.portfolio", "repro.modsolver", "repro.baselines", "repro.kb",
    "repro.service", "repro.simulation.vcd", "repro.netlist.lowering", "repro.sim",
    "repro.commands", "multiprocessing", "tracemalloc",
)

#: modules a default single-engine ``repro check`` must not load.
ONE_SHOT_UNLOADED = PACKAGE_UNLOADED + STDLIB_UNLOADED


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_with_modules(script_args, body, watched=ONE_SHOT_UNLOADED):
    """Run ``body`` in a fresh interpreter; return (process, loaded guards).

    The interpreter prints which ``watched`` modules it holds at exit,
    after whatever ``body`` printed or exited with.
    """
    script = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('LOADED', sorted(m for m in %r if m in sys.modules),"
        " file=sys.stderr))\n" % (tuple(watched),)
    ) + body
    proc = subprocess.run(
        [sys.executable, "-c", script] + list(script_args),
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    loaded = [line for line in proc.stderr.splitlines() if line.startswith("LOADED ")]
    assert len(loaded) == 1, proc.stderr
    return proc, loaded[0][len("LOADED "):]


def test_one_shot_check_loads_only_what_it_runs():
    """A default ``python -m repro check`` that never reaches the datapath
    loads neither the solver nor the portfolio and its process machinery,
    the KB, the service, the baselines, the bit-level lowering, the lane
    simulator, the VCD writer, tracemalloc, dataclasses (and its inspect
    and copy) nor hashlib."""
    design = os.path.join(DESIGNS, "y_range.v")
    proc, loaded = _run_with_modules(
        ["check", design, "--witness", "hit=bad == 1", "--json"],
        "import runpy\n"
        "sys.argv = ['repro'] + sys.argv[1:]\n"
        "runpy.run_module('repro', run_name='__main__')\n",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)[0]
    assert result["status"] == "witness_found"
    assert result["arithmetic_calls"] == 0
    assert loaded == "[]"


#: the body of a fresh ``python -m repro`` run under :func:`_run_with_modules`.
RUN_REPRO = (
    "import runpy\n"
    "sys.argv = ['repro'] + sys.argv[1:]\n"
    "runpy.run_module('repro', run_name='__main__')\n"
)

#: the search: the justifier and its decision ranking.
SEARCH_MODULES = ("repro.atpg.justify", "repro.atpg.decisions", "repro.atpg.probability")


@pytest.mark.parametrize(
    "design, prop, searches",
    [("self_ne.v", ["--assert", "ok=bad == 0"], False),
     ("y_range.v", ["--witness", "hit=bad == 1"], True)],
    ids=["fixpoint", "search"],
)
def test_one_shot_check_loads_the_justifier_only_to_search(design, prop, searches):
    """``x != x`` holds at the requirement fixpoint: that check never loads
    the search.  ``y_range.v`` needs a decision, and loads it.  Neither
    loads the request codecs and batch half of ``repro.api``."""
    proc, loaded = _run_with_modules(
        ["check", os.path.join(DESIGNS, design)] + prop + ["--json"],
        RUN_REPRO,
        watched=SEARCH_MODULES + ("repro.api_extras",),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)[0]
    assert (result["decisions"] > 0) == searches
    assert loaded == str(sorted(SEARCH_MODULES) if searches else [])


#: the record types a one-shot check defines as dataclasses: the public ones
#: callers ``dataclasses.replace`` or compare by value.  They are plain
#: classes whose dataclass fields are built when first read, as this test's
#: ``is_dataclass`` does; internal records are no dataclasses at all.
PUBLIC_RECORDS = [
    "repro.api.CheckReport", "repro.api.CheckRequest", "repro.api.CircuitRef",
    "repro.api.PropertySpec", "repro.api.PropertyVerdict",
    "repro.atpg.estg.LearnedCube", "repro.bitvector.intervals.ValueRange",
    "repro.checker.engine.CheckerOptions", "repro.checker.result.CheckResult",
    "repro.checker.result.Counterexample", "repro.checker.stats.CheckStatistics",
    "repro.properties.spec.Assertion", "repro.properties.spec.Property",
    "repro.properties.spec.Witness",
]


def test_one_shot_check_through_the_solver_loads_no_dataclasses():
    """A check that reaches the modular solver builds its records without
    ``dataclasses``, and reads no digest."""
    proc, loaded = _run_with_modules(
        ["check", os.path.join(DESIGNS, "mul_lt_const.v"), "--assert", "nobad=bad == 0",
         "--max-frames", "1", "--json"],
        RUN_REPRO,
        watched=STDLIB_UNLOADED + ("repro.modsolver",),
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout)[0]
    assert result["status"] == "fails"
    assert result["arithmetic_calls"] > 0
    assert loaded == "['repro.modsolver']"


def test_one_shot_check_builds_only_the_public_dataclasses():
    """Every dataclass the modules of a searching one-shot check define."""
    script = (
        "import atexit, dataclasses, sys\n"
        "def report():\n"
        "    found = sorted(\n"
        "        '%s.%s' % (name, value.__qualname__)\n"
        "        for name, module in list(sys.modules.items()) if name.startswith('repro')\n"
        "        for value in vars(module).values()\n"
        "        if isinstance(value, type) and value.__module__ == name\n"
        "        and dataclasses.is_dataclass(value))\n"
        "    print('DATACLASSES', found, file=sys.stderr)\n"
        "atexit.register(report)\n"
    ) + RUN_REPRO
    proc = subprocess.run(
        [sys.executable, "-c", script, "check", os.path.join(DESIGNS, "y_range.v"),
         "--witness", "hit=bad == 1", "--json"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["decisions"] > 0
    found = [line for line in proc.stderr.splitlines() if line.startswith("DATACLASSES ")]
    assert found == ["DATACLASSES %s" % (sorted(PUBLIC_RECORDS),)]


def test_closed_stdout_ends_the_output_quietly():
    """``repro table1 | head -n 1``: the reader leaves after one line.  The
    process entry takes that as the end of the output: no traceback, and
    exit status 141 (a shell's status for SIGPIPE), which no verdict uses.

    The child prints the header, then waits until the reader has closed
    the pipe before it builds the rows, so the next write always finds the
    pipe closed."""
    script = (
        "import select, sys\n"
        "import repro.circuits\n"
        "rows = repro.circuits.circuit_statistics\n"
        "def rows_after_the_reader_left():\n"
        "    poller = select.poll()\n"
        "    poller.register(sys.stdout.fileno(), select.POLLERR)\n"
        "    poller.poll(60_000)\n"
        "    return rows()\n"
        "repro.circuits.circuit_statistics = rows_after_the_reader_left\n"
    ) + RUN_REPRO
    env = _src_env()
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "table1"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141, stderr
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first.split()[:2] == [b"ckt", b"name"]
    assert "Traceback" not in stderr


def test_datapath_check_loads_the_solver_and_counts_alike():
    """p15 reaches the solver: a fresh interpreter loads it on demand and
    reports the verdict and search counters of a process that had it."""
    import repro.modsolver.extract  # noqa: F401  (this process has the solver)
    from repro import api
    from repro.checker.incremental import shared_model_cache

    counters = ("decisions", "backtracks", "conflicts", "implications",
                "arithmetic_calls", "solver_cores", "unproven_leaves",
                "cubes_learned", "datapath_cubes_learned", "cube_hits",
                "targets_skipped")
    proc, loaded = _run_with_modules(
        [],
        "import json\n"
        "from repro import api\n"
        "report = api.check(api.CheckRequest(circuit=api.CircuitRef.case('p15')))\n"
        "print(json.dumps(report.results[0].to_dict()))\n",
        # The bundled cases are dataclasses: a case ref loads ``dataclasses``.
        watched=PACKAGE_UNLOADED,
    )
    assert proc.returncode == 0, proc.stderr
    assert loaded == "['repro.modsolver']"
    fresh = json.loads(proc.stdout)

    api.clear_design_cache()
    shared_model_cache().clear()
    here = api.check(api.CheckRequest(circuit=api.CircuitRef.case("p15"))).results[0]
    assert fresh["status"] == here.status == "holds"
    assert fresh["stats"]["arithmetic_calls"] > 0
    assert {k: fresh["stats"][k] for k in counters} == {k: here.stats[k] for k in counters}


def test_engine_names_are_the_portfolio_registry(counter_file, capsys):
    from repro import api
    from repro.portfolio.engines import ENGINE_REGISTRY

    assert api.ENGINE_NAMES == tuple(ENGINE_REGISTRY)
    exit_code = main(["check", counter_file, "--assert", "count <= 9",
                      "--engines", "atpg,sat", "--max-frames", "3", "--json"])
    assert exit_code == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert result["status"] == "holds"
    assert sorted(engine["engine"] for engine in result["engines"]) == ["atpg", "sat"]
    unknown = r"unknown engine 'warp' \(available: atpg, bdd, sat, random\)"
    with pytest.raises(SystemExit, match=unknown):
        main(["check", counter_file, "--assert", "count <= 9", "--engines", "atpg,warp"])


# ----------------------------------------------------------------------
# the process entry: python -m repro and the console script
# ----------------------------------------------------------------------
def _repro(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(args),
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )


def test_in_process_main_never_freezes(counter_file):
    frozen = gc.get_freeze_count()
    assert main(["check", counter_file, "--assert", "count <= 9", "--max-frames", "2"]) == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_freezes_before_exit_hooks_run():
    """The entry freezes the heap once the command is done, and the
    interpreter still runs every ``atexit`` hook afterwards."""
    design = os.path.join(DESIGNS, "y_range.v")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import atexit, gc, runpy, sys\n"
         "atexit.register(lambda: print('FROZEN', gc.get_freeze_count() > 0, file=sys.stderr))\n"
         "sys.argv = ['repro'] + sys.argv[1:]\n"
         "runpy.run_module('repro', run_name='__main__')\n",
         "check", design, "--witness", "hit=bad == 1", "--json"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["status"] == "witness_found"
    assert proc.stderr.splitlines() == ["FROZEN True"]


def test_one_shot_check_stores_its_model_for_the_next_process(counter_file, tmp_path):
    store = str(tmp_path / "kb.sqlite")
    checked = _repro("check", counter_file, "--assert", "count <= 9",
                     "--max-frames", "4", "--kb", store)
    assert checked.returncode == 0, checked.stderr
    listed = _repro("kb", "stats", store, "--json")
    assert listed.returncode == 0, listed.stderr
    stats = json.loads(listed.stdout)
    assert stats["models"] == 1
    assert [row["circuit"] for row in stats["per_model"]] == ["counter"]
    assert stats["fail_memos"] > 0


def test_one_shot_portfolio_check_reports_every_engine(counter_file):
    proc = _repro("check", counter_file, "--assert", "count <= 9", "--max-frames", "3",
                  "--engines", "atpg,sat", "--json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["results"][0]
    assert result["status"] == "holds"
    assert sorted(engine["engine"] for engine in result["engines"]) == ["atpg", "sat"]


# ----------------------------------------------------------------------
# malformed environment inputs end in one line, not a traceback
# ----------------------------------------------------------------------
UNKNOWN_NET_FLAGS = [
    (["--assert", "count <= 9", "--pin", "nosuch=1"], "environment.pin"),
    (["--assert", "count <= 9", "--one-hot", "count,nosuch"], "environment.one_hot"),
    (["--assert", "count <= 9", "--assume", "nosuch == 1"], "environment.assume"),
    (["--assert", "a=nosuch <= 9"], "property a"),
]


@pytest.mark.parametrize("flags, field", UNKNOWN_NET_FLAGS,
                         ids=[field for _, field in UNKNOWN_NET_FLAGS])
def test_check_rejects_an_unknown_net(counter_file, flags, field):
    with pytest.raises(SystemExit, match="^%s: no net named 'nosuch'" % field):
        main(["check", counter_file] + flags)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--one-hot", "count"], r"environment.one_hot group \['count'\] needs at least two"),
        (["--pin", "rst=abc"],
         "^--pin expects signal=value with an integer value, got 'rst=abc'$"),
    ],
    ids=["one-hot-of-one", "pin-not-integer"],
)
def test_check_rejects_malformed_environment(counter_file, flags, message):
    with pytest.raises(SystemExit, match=message):
        main(["check", counter_file, "--assert", "count <= 9"] + flags)


def test_check_reports_an_unknown_net_in_one_line(counter_file):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", counter_file,
         "--assert", "count <= 9", "--pin", "nosuch=1"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "environment.pin: no net named 'nosuch' in circuit 'counter'"
    ]


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
HELP_GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_help_goldens.json")
#: every help screen: the top level, each command, and each ``fleet`` and
#: ``kb`` sub-command.
HELP_SCREENS = (
    (), ("stats",), ("analyze",), ("check",), ("serve",), ("submit",),
    ("fleet",), ("fleet", "status"), ("fleet", "sync"), ("fleet", "batch"),
    ("kb",), ("kb", "stats"), ("kb", "prune"), ("kb", "merge"),
    ("table1",), ("table2",),
)


def capture_help_screens():
    """``repro ... --help`` of every screen, at a fixed 80-column width."""
    screens = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for command in HELP_SCREENS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exited:
                main(list(command) + ["--help"])
            assert exited.value.code == 0
            screens[" ".join(("repro",) + command)] = out.getvalue()
    return {"python": "%d.%d" % sys.version_info[:2], "screens": screens}


def test_help_screens_are_unchanged():
    with open(HELP_GOLDENS) as stream:
        golden = json.load(stream)
    # argparse's layout differs between Python releases.
    if golden["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip("help screens were captured with Python %s" % golden["python"])
    assert capture_help_screens() == golden


if __name__ == "__main__":
    with open(HELP_GOLDENS, "w") as stream:
        json.dump(capture_help_screens(), stream, indent=1)
        stream.write("\n")
