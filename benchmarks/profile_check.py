"""cProfile harness for a representative ``repro check`` run (``make profile``).

Runs one property check under cProfile and dumps the top functions by
cumulative time, so hot-path regressions in the deductive engine are easy to
spot without wiring up external tooling.

Usage::

    python benchmarks/profile_check.py [--case p9] [--bound N] [--top 25]

The default case, p9, spends its time in the branch-and-bound search (170
decisions at its bundled bound); ``--bound`` defaults to the case's own.
"""

import argparse
import cProfile
import os
import pstats
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.checker import AssertionChecker, CheckerOptions  # noqa: E402
from repro.checker.incremental import UnrolledModelCache  # noqa: E402
from repro.circuits import all_case_ids, build_case  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="p9", choices=all_case_ids(),
                        help="zoo property case to profile (default: p9)")
    parser.add_argument("--bound", type=int, default=None,
                        help="unrolling bound (default: the case's own)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the cumulative-time dump (default: 25)")
    parser.add_argument("--output", metavar="FILE",
                        help="also write raw cProfile data to FILE")
    args = parser.parse_args(argv)

    case = build_case(args.case)
    bound = case.max_frames if args.bound is None else args.bound
    checker = AssertionChecker(
        case.circuit,
        environment=case.environment,
        initial_state=case.initial_state,
        options=CheckerOptions(max_frames=bound),
        model_cache=UnrolledModelCache(),
    )

    profiler = cProfile.Profile()
    profiler.enable()
    result = checker.check(case.prop)
    profiler.disable()

    print(
        "case %s (%s), bound %d: %s in %.3fs "
        "(%d decisions, %d frames built, rule-cache hit rate %.1f%%)\n"
        % (
            args.case, case.design, bound, result.status.value,
            result.statistics.wall_seconds, result.statistics.decisions,
            result.statistics.frames_built,
            100.0 * result.statistics.rule_cache_hit_rate,
        )
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)
        print("raw profile written to %s" % args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
