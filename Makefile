# Developer entry points.  CI (.github/workflows/) runs the same commands.

PYTHON ?= python
#: benchmark files covered by the committed baseline and the CI smoke gate.
# Order matters: bench_incremental times small allocation-heavy runs and
# must run before bench_bitparallel's huge lane arrays fragment the
# allocator (the same order is used for the committed baseline, and CI runs
# `make bench-check`).
SMOKE_BENCHES = benchmarks/bench_incremental.py benchmarks/bench_justify.py \
                benchmarks/bench_learning.py \
                benchmarks/bench_table1.py benchmarks/bench_portfolio.py \
                benchmarks/bench_bitparallel.py benchmarks/bench_service.py
#: fail CI when a benchmark's median slows down by more than this fraction.
BENCH_THRESHOLD ?= 0.25
#: do not gate benchmarks with baseline timings below this (sub-10ms
#: minima are scheduler/timer noise on shared runners; they stay in the
#: report but cannot fail the gate).
BENCH_MIN_TIME ?= 0.01
COV_FLOOR ?= 78

#: profile configuration (see benchmarks/profile_check.py --help).
#: an empty PROFILE_BOUND profiles the case at its own bundled bound.
PROFILE_CASE ?= p9
PROFILE_BOUND ?=
PROFILE_TOP ?= 25

.PHONY: test lint coverage docs-check bench-smoke bench-check bench-baseline bench-full profile \
        importtime

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m ruff check .

# Run the README and service quickstarts end-to-end, link-check README +
# docs/*.md, and check that every schema tag they name is a current
# schema constant in src/repro.
docs-check:
	$(PYTHON) tools/check_docs.py

# cProfile one representative cold `repro check` run on the default path,
# then 200 warm `repro.api.check` re-checks of the same case, and dump the
# top functions of each by cumulative time (hot-path regression triage).
profile:
	$(PYTHON) benchmarks/profile_check.py --case $(PROFILE_CASE) \
	    $(if $(PROFILE_BOUND),--bound $(PROFILE_BOUND)) --top $(PROFILE_TOP)

# Time the imports of one default single-engine `repro check` with no
# bytecode caches (every module compiles from source) and print the top
# imports by cumulative time (start-up regression triage).
importtime:
	PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src $(PYTHON) -X importtime -m repro check \
	    tests/designs/y_range.v --witness "hit=bad == 1" --json 2>&1 >/dev/null \
	    | sort -t'|' -k2 -rn | head -n 25

# Tier-1 under coverage: stops at the first failure, writes coverage.xml
# (CI uploads it) and fails below COV_FLOOR.
coverage:
	$(PYTHON) -m pytest -x -q --cov=repro --cov-report=term-missing \
	    --cov-report=xml --cov-fail-under=$(COV_FLOOR)

# One fast benchmark per family, JSON report kept for the regression gate.
bench-smoke:
	$(PYTHON) -m pytest $(SMOKE_BENCHES) -q \
	    --benchmark-json=benchmark_report.json

# Gate the last smoke run against the committed baseline.
bench-check: bench-smoke
	$(PYTHON) benchmarks/compare_reports.py benchmark_report.json \
	    --baseline benchmarks/BASELINE.json \
	    --threshold $(BENCH_THRESHOLD) --normalize \
	    --min-time $(BENCH_MIN_TIME)

# Refresh the committed baseline (review the diff before committing!).
bench-baseline: bench-smoke
	$(PYTHON) benchmarks/compare_reports.py benchmark_report.json \
	    --write-baseline benchmarks/BASELINE.json

# The nightly configuration: every benchmark, plus the markdown summary.
# (bench_*.py does not match pytest's default test-file pattern, so the
# files are passed explicitly.)
bench-full:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q \
	    --benchmark-json=nightly_report.json
	$(PYTHON) benchmarks/summarize_report.py nightly_report.json \
	    -o nightly_summary.md
