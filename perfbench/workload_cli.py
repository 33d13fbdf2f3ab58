"""cli-oneshot: every check is a fresh ``python -m repro check`` process.

The loop cycles over the corpus kinds of ``corpus/expected.json`` in a
seeded order.  Interpreter start, import, elaboration, cold checker
construction and the default memory tracing dominate; search is a small
share.  Every invocation is scored against the known verdict and exit code,
and every trace is replayed through :class:`repro.simulation.Simulator`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import harness
from harness import Ledger
from layers import load_records
from repro.hdl import compile_verilog
from repro.properties.convert import PropertyCompiler
from repro.properties.parse import parse_expression
from repro.properties.spec import Assertion, Witness
from repro.simulation import Simulator

#: one-shot checks timed to find the set-up time.
SETUP_REPEATS = 9
#: corpus cycles per pass of the traced run.
TRACE_CYCLES = 2


def load_kinds():
    with open(os.path.join(harness.CORPUS, "expected.json")) as stream:
        return json.load(stream)["kinds"]


def check_args(kind):
    flag = "--assert" if kind["kind"] == "assert" else "--witness"
    return [
        "check", os.path.join("perfbench", "corpus", kind["design"]),
        flag, "%s=%s" % (kind["name"], kind["expr"]),
        "--max-frames", str(kind["max_frames"]), "--json",
    ]


def check_argv(kind):
    return [sys.executable, "-m", "repro"] + check_args(kind)


class Verifier:
    """Scores one invocation against its known answer."""

    def __init__(self):
        self._monitors = {}

    def __call__(self, kind, done):
        """``(failure or None, report statistics)`` of a finished process."""
        expected_code = 1 if kind["kind"] == "assert" and kind["status"] == "fails" else 0
        if done.returncode != expected_code:
            return ("exit code %d, expected %d: %s"
                    % (done.returncode, expected_code, done.stderr.strip()[-300:])), []
        try:
            results = json.loads(done.stdout)
        except ValueError:
            return "output is not JSON", []
        if len(results) != 1:
            return "%d results, expected 1" % len(results), []
        result = results[0]
        if result.get("status") != kind["status"]:
            return "verdict %s, expected %s" % (result.get("status"), kind["status"]), []
        return self._trace_failure(kind, result.get("trace")), [result]

    def _trace_failure(self, kind, trace):
        expects_trace = kind["status"] in ("fails", "witness_found")
        if trace is None:
            return "no trace" if expects_trace else None
        if not expects_trace:
            return "a %s verdict carries a trace" % kind["status"]
        circuit, monitor, goal = self._monitor(kind)
        inputs, frame = trace["inputs"], trace["target_frame"]
        if not 0 <= frame < len(inputs):
            return "target frame %d outside a %d-cycle trace" % (frame, len(inputs))
        cycles = Simulator(circuit, initial_state=trace["initial_state"]).run(inputs)
        if cycles.value(frame, monitor) != goal:
            return "trace does not replay in the simulator"
        return None

    def _monitor(self, kind):
        """The design with the property's monitor compiled in (cached)."""
        if kind["name"] not in self._monitors:
            with open(os.path.join(harness.CORPUS, kind["design"])) as stream:
                circuit = compile_verilog(stream.read())
            factory = Assertion if kind["kind"] == "assert" else Witness
            compiled = PropertyCompiler(circuit).compile(
                factory(kind["name"], parse_expression(kind["expr"]))
            )
            self._monitors[kind["name"]] = (
                circuit, compiled.monitor.name, compiled.goal_value,
            )
        return self._monitors[kind["name"]]


def one_check(ledger, verify, kind, argv):
    gc.collect()
    ledger.calibrate()
    cpu_before = harness.children_cpu_seconds()
    started = time.perf_counter()
    try:
        done = harness.run_child(argv)
    except subprocess.TimeoutExpired:
        ledger.record(kind["name"], 0.0, 0.0, "timed out")
        return
    elapsed = time.perf_counter() - started
    cpu = harness.children_cpu_seconds() - cpu_before
    failure, stats = verify(kind, done)
    ledger.record(kind["name"], elapsed, cpu, failure, stats)


def measure(seed, seconds):
    kinds = load_kinds()
    rng = random.Random(seed)
    verify = Verifier()
    order = harness.schedule(kinds, rng)
    # The one-shot path has no set-up of its own: set-up is the cost of
    # one discarded check, which also fills the bytecode and page caches.
    # The same kind every time, so set-up does not depend on the seed.
    warmup = kinds[0]
    ledger, setup = Ledger(), []
    for _ in range(SETUP_REPEATS):
        ledger.calibrate()
        started = time.perf_counter()
        done = harness.run_child(check_argv(warmup))
        setup.append(ledger.scaled(time.perf_counter() - started))
        failure, _ = verify(warmup, done)
        if failure is not None:
            raise RuntimeError("warm-up check failed: %s" % failure)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind = next(order)
        one_check(ledger, verify, kind, check_argv(kind))
    values = ledger.end_to_end(
        statistics.median(setup), harness.peak_rss_mb(resource.RUSAGE_CHILDREN)
    )
    return ledger.failed == 0, ledger.attempted, ledger.failed, values


def trace(seed):
    kinds = load_kinds()
    order = harness.schedule(kinds, random.Random(seed))
    checks = [next(order) for _ in range(TRACE_CYCLES * len(kinds))]
    verify = Verifier()
    untraced = Ledger()
    for kind in checks:
        one_check(untraced, verify, kind, check_argv(kind))
    passes = []
    with harness.scratch_dir() as scratch:
        for index in range(2):
            ledger, records = Ledger(), []
            for number, kind in enumerate(checks):
                out = os.path.join(scratch, "spans-%d-%d.json" % (index, number))
                argv = [sys.executable, harness.TRACED_ENTRY, "cli", out] + check_args(kind)
                one_check(ledger, verify, kind, argv)
                if os.path.exists(out):
                    records.extend(load_records(out))
            passes.append((ledger, records))
    return harness.traced_result(untraced, passes[0], passes[1], {})
