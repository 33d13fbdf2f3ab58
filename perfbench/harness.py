"""Shared machinery of the workloads: samples, metrics, child processes.

Every timing is a wall-clock interval around one call into the system under
test; bookkeeping (verification, garbage collection) happens between those
intervals, never inside one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(BENCH, "corpus")
TRACED_ENTRY = os.path.join(BENCH, "traced_entry.py")

#: report statistics summed over a traced pass (exact, run to run).
COUNTERS = {
    "atpg.decisions": "decisions",
    "atpg.backtracks": "backtracks",
    "atpg.conflicts": "conflicts",
    "implication.implications": "implications",
    "modsolver.arithmetic_calls": "arithmetic_calls",
    "atpg.cubes_learned": "cubes_learned",
    "atpg.cube_hits": "cube_hits",
    "atpg.targets_skipped": "targets_skipped",
    "atpg.models_reused": "models_reused",
    "atpg.frames_built": "frames_built",
    "kb.cubes_loaded": "kb_cubes_loaded",
    "kb.hits": "kb_hits",
}
#: layers reported as mean milliseconds per check of a traced pass.
TIMED_LAYERS = (
    "hdl.compile", "properties.compile", "api.resolve", "checker.init",
    "checker.acquire", "atpg.extend", "checker.check", "implication.propagate",
    "modsolver.solve", "simulation.validate", "kb.attach", "kb.flush",
)
#: layers whose outermost call counts are exact, run to run.
COUNTED_LAYERS = {
    "implication.propagate_calls": "implication.propagate",
    "modsolver.solve_calls": "modsolver.solve",
}


#: Seconds :func:`calibration_loop` takes at the reference machine speed
#: (its median on the 2-core VM the benchmark was tuned on).
REFERENCE_SECONDS = 0.003
#: Least wall time between two calibrations.
CALIBRATION_INTERVAL_S = 0.25
#: Calibrations (the latest ones) whose median scales the next sample.
CALIBRATION_WINDOW = 5


def calibration_loop() -> int:
    """A fixed piece of pure-Python work whose time tracks machine speed."""
    total = 0
    for number in range(40000):
        total += number * number % 7
    return total


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory inside the checkout, removed afterwards.

    Yields a path relative to the checkout root (the working directory), so
    unix socket paths inside it stay short.
    """
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        yield os.path.relpath(path, ROOT)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def run_child(argv: List[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(who: int) -> float:
    """Largest ``ru_maxrss`` of ``RUSAGE_SELF`` or of every reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``, what ``ru_maxrss`` reports) of a live process."""
    with open("/proc/%d/status" % pid) as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc``."""
    with open("/proc/%d/stat" % pid) as stream:
        data = stream.read()
    fields = data[data.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Ledger:
    """Time-to-verdict samples, CPU time and failures of one pass.

    Every sample is scaled to the reference machine speed as it is
    recorded, by the median of the latest calibrations.
    """

    def __init__(self):
        #: scaled time-to-verdict samples per kind, seconds.
        self.latency_s: Dict[str, List[float]] = defaultdict(list)
        #: the same samples as measured.
        self.measured_s: Dict[str, List[float]] = defaultdict(list)
        self.cpu_s = 0.0  # scaled
        self.attempted = 0
        self.failed = 0
        #: report statistics of every verified check, in order.
        self.stats: List[Mapping[str, object]] = []
        self.calibration_s: List[float] = []
        self._calibrated_at = -math.inf

    @property
    def checks(self) -> int:
        return sum(len(samples) for samples in self.latency_s.values())

    def calibrate(self) -> None:
        """Time the calibration loop; call between checks, never inside one."""
        if time.perf_counter() - self._calibrated_at < CALIBRATION_INTERVAL_S:
            return
        started = time.perf_counter()
        calibration_loop()
        self._calibrated_at = time.perf_counter()
        self.calibration_s.append(self._calibrated_at - started)

    def slowdown(self) -> float:
        """Recent machine speed relative to the reference (2.0: half as fast)."""
        recent = self.calibration_s[-CALIBRATION_WINDOW:]
        return statistics.median(recent) / REFERENCE_SECONDS

    def scaled(self, seconds: float) -> float:
        """A time just measured, at the reference machine speed."""
        return seconds / self.slowdown()

    def add_cpu(self, seconds: float) -> None:
        """CPU time spread over the whole pass, scaled by its median speed."""
        self.cpu_s += seconds * REFERENCE_SECONDS / statistics.median(self.calibration_s)

    def record(self, kind: str, seconds: float, cpu_seconds: float,
               failure: Optional[str], stats: Iterable[Mapping] = ()) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            log("check failed [%s]: %s" % (kind, failure))
            return
        slowdown = self.slowdown()
        self.measured_s[kind].append(seconds)
        self.latency_s[kind].append(seconds / slowdown)
        self.cpu_s += cpu_seconds / slowdown
        self.stats.extend(stats)

    def p50_gmean_ms(self, samples=None) -> float:
        """Median time-to-verdict per kind, combined by geometric mean."""
        medians = [statistics.median(v) for v in (samples or self.latency_s).values()]
        return 1000.0 * math.exp(math.fsum(map(math.log, medians)) / len(medians))

    def end_to_end(self, setup_s: float, rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics; ``setup_s`` is already scaled."""
        pooled = sorted(s for samples in self.latency_s.values() for s in samples)
        if not pooled:
            raise RuntimeError("no check completed")
        rank = math.ceil(0.9 * len(pooled)) - 1
        log("%d checks over %d kinds (%s); pooled p90 has %d samples beyond it"
            % (len(pooled), len(self.latency_s),
               ", ".join("%s=%d" % (k, len(v)) for k, v in sorted(self.latency_s.items())),
               len(pooled) - rank - 1))
        log("machine at %.3fx the reference time (median of %d calibrations); "
            "check_p50_gmean_ms as measured: %.3f"
            % (statistics.median(self.calibration_s) / REFERENCE_SECONDS,
               len(self.calibration_s), self.p50_gmean_ms(self.measured_s)))
        return {
            "setup_s": setup_s,
            "check_p50_gmean_ms": self.p50_gmean_ms(),
            "check_p90_ms": 1000.0 * pooled[rank],
            # Throughput of the system alone: bookkeeping between checks
            # is excluded from the denominator.
            "checks_per_s": len(pooled) / math.fsum(pooled),
            "cpu_ms_per_check": 1000.0 * self.cpu_s / len(pooled),
            "peak_rss_mb": rss_mb,
        }


def schedule(kinds, rng):
    """Endless seeded rounds, each visiting every kind once."""
    while True:
        order = list(kinds)
        rng.shuffle(order)
        yield from order


# ----------------------------------------------------------------------
# Traced-run helpers
# ----------------------------------------------------------------------
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - started)"
)


def startup_metrics(repeats: int = 5) -> Dict[str, float]:
    """Bare interpreter start, and ``import repro.cli`` in a fresh one."""
    starts, imports = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        run_child([sys.executable, "-c", "pass"]).check_returncode()
        starts.append(time.perf_counter() - started)
        done = run_child([sys.executable, "-c", IMPORT_PROBE])
        done.check_returncode()
        imports.append(float(done.stdout))
    return {
        "startup.python_ms": 1000.0 * statistics.median(starts),
        "startup.import_ms": 1000.0 * statistics.median(imports),
    }


def exact_counts(stats: List[Mapping[str, object]],
                 records: List[Mapping[str, list]]) -> Dict[str, float]:
    """Counts that must repeat bit for bit between two traced passes."""
    counts: Dict[str, float] = {
        name: sum(int(item.get(key, 0)) for item in stats)
        for name, key in COUNTERS.items()
    }
    rates = [float(item.get("rule_cache_hit_rate", 0.0)) for item in stats]
    counts["implication.rule_cache_hit_rate"] = math.fsum(rates) / max(1, len(rates))
    for metric, layer in COUNTED_LAYERS.items():
        counts[metric] = sum(record.get(layer, (0,))[0] for record in records)
    return counts


def report_failure(report, expected_status: str) -> Optional[str]:
    """Why a one-property :class:`repro.api.CheckReport` is wrong, or None.

    Used for the zoo cases, whose known answers are all trace-free.
    """
    if len(report.results) != 1:
        return "%d results, expected 1" % len(report.results)
    verdict = report.results[0]
    if verdict.status != expected_status:
        return "verdict %s, expected %s" % (verdict.status, expected_status)
    if verdict.trace is not None:
        return "a %s verdict carries a trace" % verdict.status
    if report.exit_code != 0:
        return "report exit code %d" % report.exit_code
    return None


def traced_result(untraced: Ledger, first, second, extra: Mapping[str, float]):
    """Per-layer result of a traced run: one untraced and two traced passes.

    ``first`` and ``second`` are ``(ledger, records)`` of identical passes;
    their exact counts must agree bit for bit.
    """
    (ledger, records), (again, again_records) = first, second
    counts = exact_counts(ledger.stats, records)
    repeated = exact_counts(again.stats, again_records)
    for name in sorted(counts):
        if counts[name] != repeated[name]:
            log("count %s differs between traced passes: %r vs %r"
                % (name, counts[name], repeated[name]))
    values = startup_metrics()
    values.update(layer_times(records, ledger.checks))
    values.update(counts)
    values.update({
        "service.roundtrip_ms": 0.0, "service.worker_ms": 0.0,
        "service.queue_ipc_ms": 0.0, "service.warm_hit_ratio": 0.0,
        "kb.store_bytes": 0.0,
    })
    values.update(extra)
    values["trace_overhead_pct"] = 100.0 * (
        ledger.p50_gmean_ms() / untraced.p50_gmean_ms() - 1.0
    )
    passes = (untraced, ledger, again)
    failed = sum(item.failed for item in passes)
    return (
        failed == 0 and counts == repeated,
        sum(item.attempted for item in passes),
        failed,
        values,
    )


def layer_times(records: List[Mapping[str, list]], checks: int) -> Dict[str, float]:
    """Mean milliseconds per check spent in each layer."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for record in records:
        for layer, (_, total, own) in record.items():
            totals[layer][0] += total
            totals[layer][1] += own
    scale = 1000.0 / max(1, checks)
    times = {layer + "_ms": totals[layer][0] * scale for layer in TIMED_LAYERS}
    times["atpg.search_self_ms"] = totals["atpg.search"][1] * scale
    return times


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(trace: bool, correct: bool, attempted: int, failed: int,
         values: Mapping[str, float]) -> None:
    """Print the result line; every metric of BENCHMARK.json must be present."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in spec}
    if set(values) != names:
        raise RuntimeError(
            "metrics do not match BENCHMARK.json: missing %s, unexpected %s"
            % (sorted(names - set(values)), sorted(set(values) - names))
        )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec
    }
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed), "metrics": metrics,
    }))
