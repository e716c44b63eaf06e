"""Self-tests of the statement-level benchmark (smoke length).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Not part of the tier-1 suite (``testpaths`` is ``tests``): they start
child processes and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run
import workloads

BENCHMARK = run.load_benchmark()
EMBEDDED = [
    entry["name"] for entry in BENCHMARK["workloads"]
    if entry["name"] not in run.CONCURRENT
]


def smoke(out: Path, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    """One smoke run of all five workloads in both modes."""
    return smoke(tmp_path_factory.mktemp("e2e") / "smoke.json")


def test_every_named_metric_is_present_with_its_unit(results):
    assert set(results) == {entry["name"] for entry in BENCHMARK["workloads"]}
    for workload, modes in results.items():
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = modes[trace]
            assert result["correct"] and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            for entry in BENCHMARK[key]:
                metric = result["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert isinstance(metric["value"], (int, float))
            for entry in BENCHMARK["end_to_end"] if trace == "0" else ():
                assert result["metrics"][entry["name"]]["value"] > 0


def test_workloads_are_separated_by_the_plan_cache(results):
    def hit_ratio(workload):
        return results[workload]["1"]["metrics"]["cache.hit_ratio"]["value"]

    assert hit_ratio("adhoc_plan") == 0
    assert hit_ratio("point_hit") >= 0.99
    server_side = [
        name for name in results["served_mix"]["1"]["metrics"]
        if name.startswith(("server.", "governor."))
    ]
    for workload in EMBEDDED:
        for name in server_side:
            assert results[workload]["1"]["metrics"][name]["value"] == 0


def test_exact_metrics_repeat_across_runs(results, tmp_path):
    again = smoke(tmp_path / "again.json", "--trace", "1")
    for workload in EMBEDDED:
        for name in run.EXACT:
            first = results[workload]["1"]["metrics"][name]["value"]
            second = again[workload]["1"]["metrics"][name]["value"]
            assert first == second, (workload, name)


def test_a_wrong_expected_digest_counts_as_a_failure():
    spec = workloads.SPECS["adhoc_plan"]
    reference = workloads.Reference(spec, seed=1)
    plan = workloads.Plan(spec, 1, reference)
    op = next(plan.ops())
    rows = reference.rows(op.text)

    checker = workloads.Checker(reference)
    checker.check(op, rows, None)
    assert (checker.attempted, checker.failed) == (1, 0)

    count, checksum = reference.expected(op.text)
    reference.golden[op.text] = [count, checksum + 1]
    checker.check(op, rows, None)
    assert (checker.attempted, checker.failed) == (2, 1)
