"""Benchmark fixtures and reporting hooks."""

from __future__ import annotations

import pytest

import common


@pytest.fixture(scope="session")
def full_catalog():
    """Full-scale Table 1 catalog with all three paper indexes."""
    return common.paper_catalog()


@pytest.fixture(scope="session")
def exec_db():
    """Populated store (10% scale) for simulated-execution benchmarks."""
    return common.exec_database(scale=0.1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every regenerated paper table after the benchmark timings."""
    if not common.REPORTS:
        return
    terminalreporter.section("regenerated paper tables and figures")
    for experiment_id in sorted(common.REPORTS):
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {experiment_id}")
        for line in common.REPORTS[experiment_id].splitlines():
            terminalreporter.write_line(line)
