"""Shared table registry for the benchmark harness.

pytest captures ``print`` output of passing tests, so tables printed inside
benchmark tests are invisible in the default ``pytest benchmarks/
--benchmark-only`` log.  Report tests therefore *register* their formatted
tables here as well; the ``pytest_terminal_summary`` hook in
``benchmarks/conftest.py`` prints every registered table after the run, which
is what ends up in ``bench_output.txt``.

The checkers report ``peak_memory_mb`` only while the caller traces the
heap, so the tables that print megabytes run each check inside
:func:`heap_tracing`.
"""

import contextlib
import tracemalloc
from typing import Iterator, List, Tuple

#: (title, formatted table) pairs registered by the report tests, in order.
_TABLES: List[Tuple[str, str]] = []


def register_table(title: str, table: str) -> None:
    """Record a formatted table for the end-of-run summary."""
    _TABLES.append((title, table))


def registered_tables() -> List[Tuple[str, str]]:
    """All tables registered so far (in registration order)."""
    return list(_TABLES)


def clear() -> None:
    """Forget registered tables (used by the harness's own tests)."""
    _TABLES.clear()


@contextlib.contextmanager
def heap_tracing() -> Iterator[None]:
    """Trace the Python heap inside the block, so a check run in it reports
    its peak megabytes; tracing that was already on is left running."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()
