"""cProfile harness for a representative ``repro check`` run (``make profile``).

Runs one cold property check under cProfile and dumps the top functions by
cumulative time, so hot-path regressions in the deductive engine are easy to
spot without wiring up external tooling.  It then profiles
``WARM_CHECKS`` warm ``repro.api.check`` re-checks of the same case, the
path a library sweep or a daemon job takes, where per-check overhead around
the search (request handling, property compilation, reporting) shows.

Usage::

    python benchmarks/profile_check.py [--case p9] [--bound N] [--top 25]

The default case, p9, spends its time in the branch-and-bound search (170
decisions at its bundled bound); ``--bound`` defaults to the case's own.
``--output FILE`` writes the cold profile to FILE and the warm one to
FILE.warm.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import api  # noqa: E402
from repro.checker import AssertionChecker, CheckerOptions  # noqa: E402
from repro.checker.incremental import UnrolledModelCache  # noqa: E402
from repro.circuits import all_case_ids, build_case  # noqa: E402

#: warm ``api.check`` re-checks profiled after the cold check.
WARM_CHECKS = 200


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="p9", choices=all_case_ids(),
                        help="zoo property case to profile (default: p9)")
    parser.add_argument("--bound", type=int, default=None,
                        help="unrolling bound (default: the case's own)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows in the cumulative-time dump (default: 25)")
    parser.add_argument("--output", metavar="FILE",
                        help="also write raw cProfile data to FILE (warm: FILE.warm)")
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
    _print_profile(profiler, args.top, args.output)

    # The first api.check resolves the design and builds its model; the
    # profiled re-checks reuse both, as every later job on a warm process.
    request = api.CheckRequest(circuit=api.CircuitRef.case(args.case), max_frames=bound)
    api.check(request)
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    for _ in range(WARM_CHECKS):
        api.check(request)
    profiler.disable()
    elapsed = time.perf_counter() - started
    print(
        "\n%d warm api.check re-checks of case %s: %.1f us each (profiled)\n"
        % (WARM_CHECKS, args.case, 1e6 * elapsed / WARM_CHECKS)
    )
    _print_profile(profiler, args.top, args.output and args.output + ".warm")
    return 0


def _print_profile(profiler: cProfile.Profile, top: int, output) -> None:
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    if output:
        stats.dump_stats(output)
        print("raw profile written to %s" % output)


if __name__ == "__main__":
    raise SystemExit(main())
