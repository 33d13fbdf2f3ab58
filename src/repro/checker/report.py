"""Reporting helpers: turning check results into tables, dictionaries and text.

The paper communicates its evaluation as two tables (circuit statistics and
per-property cost).  This module renders :class:`~repro.checker.result.CheckResult`
objects in the same shapes so that the CLI, the examples and the benchmark
harness all share one formatter:

* :func:`result_to_dict` / :func:`results_to_json` -- machine readable output;
* :func:`format_result` -- one readable block per property, including the
  counterexample / witness trace when one exists;
* :func:`format_results_table` -- the Table 2 layout (verdict, wall-clock
  seconds, peak memory, search statistics) for a batch of results.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.checker.result import CheckResult, CheckStatus, Counterexample


def counterexample_to_dict(counterexample: Counterexample) -> Dict[str, object]:
    """A JSON-friendly description of a trace."""
    return {
        "initial_state": dict(counterexample.initial_state),
        "inputs": [dict(vector) for vector in counterexample.inputs],
        "target_frame": counterexample.target_frame,
        "monitor": counterexample.monitor_name,
        "validated": counterexample.validated,
        "length": counterexample.length,
    }


def statistics_to_dict(statistics) -> Dict[str, object]:
    """The JSON-friendly search/reuse statistics shared by the check report
    and the portfolio engine details (one mapping, so the two cannot drift).
    """
    return {
        "decisions": statistics.decisions,
        "backtracks": statistics.backtracks,
        "conflicts": statistics.conflicts,
        "implications": statistics.implications,
        "arithmetic_calls": statistics.arithmetic_calls,
        "solver_cores": statistics.solver_cores,
        "unproven_leaves": statistics.unproven_leaves,
        "models_reused": statistics.models_reused,
        "frames_built": statistics.frames_built,
        "compiled_models": statistics.compiled_models,
        "compile_time_ms": round(statistics.compile_time_ms, 3),
        "rule_cache_hit_rate": round(statistics.rule_cache_hit_rate, 4),
        "justified_cache_hit_rate": round(statistics.justified_cache_hit_rate, 4),
        "cubes_learned": statistics.cubes_learned,
        "cubes_lifted": statistics.cubes_lifted,
        "cube_hits": statistics.cube_hits,
        "datapath_cubes_learned": statistics.datapath_cubes_learned,
        "datapath_cube_hits": statistics.datapath_cube_hits,
        "targets_skipped": statistics.targets_skipped,
        "kb_cubes_loaded": statistics.kb_cubes_loaded,
        "kb_hits": statistics.kb_hits,
        "frontier_peak": statistics.frontier_peak,
        "peak_memory_mb": round(statistics.peak_memory_mb, 4),
    }


def result_to_dict(result: CheckResult) -> Dict[str, object]:
    """A JSON-friendly description of one property check."""
    statistics = result.statistics
    payload: Dict[str, object] = {
        "property": result.prop.name,
        "kind": "assertion" if result.prop.is_assertion else "witness",
        "status": result.status.value,
        "frames_explored": result.frames_explored,
        "wall_seconds": round(statistics.wall_seconds, 6),
    }
    payload.update(statistics_to_dict(statistics))
    if result.counterexample is not None:
        payload["trace"] = counterexample_to_dict(result.counterexample)
    return payload


def results_to_json(results: Iterable[CheckResult], indent: int = 2) -> str:
    """Serialise a batch of results as a JSON array."""
    return json.dumps([result_to_dict(result) for result in results], indent=indent)


def format_result(result: CheckResult, include_trace: bool = True) -> str:
    """A readable multi-line report for one property."""
    statistics = result.statistics
    memory = statistics.peak_memory_mb  # 0.0 when the heap was not traced
    lines = [
        "property %s (%s): %s"
        % (
            result.prop.name,
            "assertion" if result.prop.is_assertion else "witness",
            result.status.value,
        ),
        "  frames explored : %d" % (result.frames_explored,),
        "  wall time       : %.3f s" % (statistics.wall_seconds,),
        "  peak memory     : %s" % ("%.2f MB" % memory if memory else "not measured",),
        "  decisions       : %d (%d backtracks, %d conflicts)"
        % (statistics.decisions, statistics.backtracks, statistics.conflicts),
        "  implications    : %d (%d arithmetic solver calls)"
        % (statistics.implications, statistics.arithmetic_calls),
    ]
    if include_trace and result.counterexample is not None:
        label = (
            "counterexample" if result.status is CheckStatus.FAILS else "witness trace"
        )
        lines.append("  %s:" % (label,))
        for trace_line in result.counterexample.summary().splitlines():
            lines.append("    " + trace_line)
    return "\n".join(lines)


def format_results_table(
    results: Sequence[CheckResult],
    labels: Optional[Sequence[str]] = None,
    paper_cpu: Optional[Mapping[str, float]] = None,
    paper_memory: Optional[Mapping[str, float]] = None,
) -> str:
    """The Table 2 layout for a batch of results.

    ``labels`` overrides the row labels (default: property names); when the
    paper's published numbers are supplied the corresponding columns are
    appended for side-by-side comparison.
    """
    if labels is not None and len(labels) != len(results):
        raise ValueError("labels must match results one-to-one")
    names = list(labels) if labels is not None else [r.prop.name for r in results]

    with_paper = paper_cpu is not None or paper_memory is not None
    header = "%-22s %-18s %10s %10s %10s %10s" % (
        "property", "verdict", "wall (s)", "mem (MB)", "decisions", "backtracks",
    )
    if with_paper:
        header += " %12s %12s" % ("paper cpu", "paper mem")
    lines = [header, "-" * len(header)]
    for name, result in zip(names, results):
        statistics = result.statistics
        row = "%-22s %-18s %10.3f %10s %10d %10d" % (
            name,
            result.status.value,
            statistics.wall_seconds,
            "%.2f" % statistics.peak_memory_mb if statistics.peak_memory_mb else "-",
            statistics.decisions,
            statistics.backtracks,
        )
        if with_paper:
            row += " %12s %12s" % (
                "%.2f" % paper_cpu[name] if paper_cpu and name in paper_cpu else "-",
                "%.2f" % paper_memory[name] if paper_memory and name in paper_memory else "-",
            )
        lines.append(row)
    return "\n".join(lines)
