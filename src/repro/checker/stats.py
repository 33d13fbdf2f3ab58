"""Run-time and memory measurement for the Table 2 reproduction."""

from __future__ import annotations

import time

# The builtin behind ``tracemalloc``: asking whether the heap is traced costs
# no import of ``tracemalloc`` (and its ``pickle``, ``linecache``, ...).
import _tracemalloc

from repro.records import Record


class CheckStatistics(Record):
    """Aggregated statistics of one property check."""

    wall_seconds: float = 0.0
    peak_memory_mb: float = 0.0
    decisions: int = 0
    backtracks: int = 0
    conflicts: int = 0
    implications: int = 0
    arithmetic_calls: int = 0
    frames_explored: int = 0
    justify_runs: int = 0
    #: unrolled-model reuse (incremental checking path).
    models_reused: int = 0
    frames_built: int = 0
    #: implication-engine memo cache traffic during this check.
    rule_cache_hits: int = 0
    rule_cache_misses: int = 0
    justified_cache_hits: int = 0
    justified_cache_misses: int = 0
    #: datapath solver calls refuted with an infeasibility certificate.
    solver_cores: int = 0
    #: datapath leaves the justifier could not close within its branching
    #: budget; a search with any of them ends ``aborted``, never ``holds``.
    unproven_leaves: int = 0
    #: compiled check kernel (the engine of the model cache, see
    #: :class:`~repro.checker.incremental.UnrolledModelCache`): models
    #: lowered through the compile pass during this check, and the
    #: milliseconds the pass spent (frame building, incremental extension,
    #: circuit sync).
    compiled_models: int = 0
    compile_time_ms: float = 0.0
    #: cross-bound search learning (CheckerOptions.learning).
    cubes_learned: int = 0
    cubes_lifted: int = 0
    cube_hits: int = 0
    #: learned cubes derived from datapath solver certificates, and the
    #: pruning fires attributable to them.
    datapath_cubes_learned: int = 0
    datapath_cube_hits: int = 0
    #: target frames skipped because an earlier bound proved them FAIL.
    targets_skipped: int = 0
    #: persistent knowledge base (CheckerOptions.kb_path): cubes the shared
    #: model carries from the store (a gauge, not a per-check delta) and the
    #: pruning fires / memo skips attributable to loaded facts.
    kb_cubes_loaded: int = 0
    kb_hits: int = 0
    #: high-water mark of the unjustified-node frontier during the check.
    frontier_peak: int = 0

    def __init__(self, wall_seconds: float = 0.0, peak_memory_mb: float = 0.0,
                 decisions: int = 0, backtracks: int = 0, conflicts: int = 0,
                 implications: int = 0, arithmetic_calls: int = 0, frames_explored: int = 0,
                 justify_runs: int = 0, models_reused: int = 0, frames_built: int = 0,
                 rule_cache_hits: int = 0, rule_cache_misses: int = 0,
                 justified_cache_hits: int = 0, justified_cache_misses: int = 0,
                 solver_cores: int = 0, unproven_leaves: int = 0, compiled_models: int = 0,
                 compile_time_ms: float = 0.0, cubes_learned: int = 0,
                 cubes_lifted: int = 0, cube_hits: int = 0, datapath_cubes_learned: int = 0,
                 datapath_cube_hits: int = 0, targets_skipped: int = 0,
                 kb_cubes_loaded: int = 0, kb_hits: int = 0, frontier_peak: int = 0):
        self.wall_seconds = wall_seconds
        self.peak_memory_mb = peak_memory_mb
        self.decisions = decisions
        self.backtracks = backtracks
        self.conflicts = conflicts
        self.implications = implications
        self.arithmetic_calls = arithmetic_calls
        self.frames_explored = frames_explored
        self.justify_runs = justify_runs
        self.models_reused = models_reused
        self.frames_built = frames_built
        self.rule_cache_hits = rule_cache_hits
        self.rule_cache_misses = rule_cache_misses
        self.justified_cache_hits = justified_cache_hits
        self.justified_cache_misses = justified_cache_misses
        self.solver_cores = solver_cores
        self.unproven_leaves = unproven_leaves
        self.compiled_models = compiled_models
        self.compile_time_ms = compile_time_ms
        self.cubes_learned = cubes_learned
        self.cubes_lifted = cubes_lifted
        self.cube_hits = cube_hits
        self.datapath_cubes_learned = datapath_cubes_learned
        self.datapath_cube_hits = datapath_cube_hits
        self.targets_skipped = targets_skipped
        self.kb_cubes_loaded = kb_cubes_loaded
        self.kb_hits = kb_hits
        self.frontier_peak = frontier_peak

    def accumulate_search(self, result) -> None:
        """Fold one :class:`~repro.atpg.justify.JustifyResult` into the totals."""
        self.decisions += result.decisions
        self.backtracks += result.backtracks
        self.conflicts += result.conflicts
        self.implications += result.implications
        self.arithmetic_calls += result.arithmetic_calls
        self.solver_cores += result.solver_cores
        self.unproven_leaves += result.unproven_leaves
        self.justify_runs += 1

    @property
    def rule_cache_hit_rate(self) -> float:
        """Fraction of rule evaluations served from the memo cache."""
        total = self.rule_cache_hits + self.rule_cache_misses
        return self.rule_cache_hits / total if total else 0.0

    @property
    def justified_cache_hit_rate(self) -> float:
        """Fraction of justification tests served from the memo cache."""
        total = self.justified_cache_hits + self.justified_cache_misses
        return self.justified_cache_hits / total if total else 0.0


class ResourceMeter:
    """Context manager measuring wall-clock time and peak Python heap growth.

    The paper reports CPU seconds and megabytes on an UltraSparc-5; we report
    wall-clock seconds and the peak `tracemalloc` heap delta, which preserves
    the relative shape across properties (the claim under test is the *low
    memory growth* of the ATPG-based approach).  The heap is read only when
    already traced (``python -X tracemalloc``); untraced, the delta is ``0.0``.
    """

    elapsed_seconds = 0.0
    peak_memory_mb = 0.0

    def __enter__(self) -> "ResourceMeter":
        self._traced = _tracemalloc.is_tracing()
        if self._traced:
            import tracemalloc

            self._traced_on_entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_seconds = time.perf_counter() - self._start
        if self._traced and _tracemalloc.is_tracing():
            import tracemalloc

            growth = tracemalloc.get_traced_memory()[1] - self._traced_on_entry
            self.peak_memory_mb = max(growth, 0) / (1024.0 * 1024.0)
