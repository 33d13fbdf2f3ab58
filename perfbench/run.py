"""Run one benchmark workload and print its metrics as the last output line.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
default options; ``--trace 1`` makes the separate traced run that reports
the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import importlib
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "cli-oneshot": "workload_cli",
    "library-sweep": "workload_library",
    "daemon-warm": "workload_daemon",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: %s holds no src/repro to measure" % ROOT, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed hashing in this process too: the checker is then as
        # deterministic here as in the children it starts.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    # One CPU for the harness and everything it starts: a check's processes
    # then never wait on a wake-up from another core, whose cost changes
    # with where the scheduler happens to place them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import harness

    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        outcome = workload.trace(args.seed)
    else:
        outcome = workload.measure(args.seed, args.seconds)
    harness.emit(bool(args.trace), *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
