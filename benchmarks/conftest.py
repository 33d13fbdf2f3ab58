"""Shared fixtures and reporting hooks for the benchmark suite."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# Test oracles shared with the tier-1 suite (tests/fresh_unroll.py).
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
sys.path.insert(0, os.path.dirname(__file__))

import reporting  # noqa: E402  (needs the path tweak above)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every table the report tests registered, so the regenerated
    paper tables appear in the benchmark log even with output capturing on."""
    tables = reporting.registered_tables()
    if not tables:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("reproduced paper tables and experiment reports")
    for title, table in tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(title)
        for line in table.splitlines():
            terminalreporter.write_line(line)
