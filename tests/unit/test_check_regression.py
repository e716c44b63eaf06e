"""The two rules of ``benchmarks/check_regression.py``: equal, or at least the floor."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
SIM_IO = "scan_exec/storage.sim_io_ms_per_stmt"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_check_regression", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def payload(python: str = "3.11.7", **values) -> dict:
    """A bench_quick payload; ``values`` override metric values by name."""
    metrics = {
        "exec_q2_page_reads": {"value": 4, "unit": "pages"},
        SIM_IO: {"value": 1287.5796727126033, "unit": "sim_ms"},
        "feedback_p99_speedup": {"value": 3.59, "unit": "x", "floor": 2.0},
    }
    for name, value in values.items():
        metrics[name]["value"] = value
    return {"schema": 2, "python": python, "metrics": metrics}


def test_equal_values_pass(gate):
    # A floor metric's value may move freely above its floor.
    assert gate.compare(payload(), payload(feedback_p99_speedup=2.0)) == []


def test_any_difference_fails(gate):
    (failure,) = gate.compare(payload(), payload(**{SIM_IO: 1287.5796727126035}))
    assert failure.startswith(SIM_IO + ":")
    # A count that improves fails too: a count moved on purpose is re-recorded.
    (failure,) = gate.compare(payload(), payload(exec_q2_page_reads=3))
    assert failure == "exec_q2_page_reads: 4 -> 3 pages"


def test_a_value_below_the_floor_fails(gate):
    (failure,) = gate.compare(payload(), payload(feedback_p99_speedup=1.99))
    assert failure == "feedback_p99_speedup: 1.99 x (floor 2.0)"


def test_a_missing_metric_fails(gate):
    partial = payload()
    del partial["metrics"]["exec_q2_page_reads"]
    (failure,) = gate.compare(payload(), partial)
    assert failure == "exec_q2_page_reads: missing from candidate"
    (failure,) = gate.compare(partial, payload())
    assert failure == "exec_q2_page_reads: missing from baseline"


def test_another_python_minor_version_fails_naming_both(gate):
    assert gate.compare(payload(python="3.11.7"), payload(python="3.11.9")) == []
    (failure,) = gate.compare(payload(python="3.11.7"), payload(python="3.12.1"))
    assert "Python 3.11" in failure and "Python 3.12" in failure


def test_exit_status(gate, tmp_path):
    files = {}
    for name, data in (("base", payload()), ("same", payload()),
                       ("moved", payload(exec_q2_page_reads=5))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(data))
    assert gate.main([str(files["base"]), str(files["same"])]) == 0
    assert gate.main([str(files["base"]), str(files["moved"])]) == 1
