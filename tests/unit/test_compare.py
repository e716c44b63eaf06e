"""The summary arithmetic of ``benchmarks/compare.py``, on synthetic runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

COMPARE = Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_compare", COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_lists_and_ranges(compare):
    assert compare.parse_seeds("61-70") == list(range(61, 71))
    assert compare.parse_seeds("3,5-6,9") == [3, 5, 6, 9]


def test_quartiles_are_inclusive(compare):
    assert compare.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 4.0)
    assert compare.quartiles([7.0]) == (7.0, 7.0)


def test_a_clear_gain_on_a_lower_is_better_metric(compare):
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.05, 9.95]
    head = [value * 0.8 for value in base]
    row = compare.summarise(base, head, "lower", 0.15)
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["base"] == 10.0 and row["head"] == pytest.approx(8.0)
    assert row["change"] == pytest.approx(-0.2)
    assert row["verdict"] == "gain"


def test_eight_wins_of_ten_are_no_gain(compare):
    base = [10.0] * 10
    head = [8.0] * 8 + [10.0, 11.0]  # one tie (counts for neither), one loss
    row = compare.summarise(base, head, "lower", 0.15)
    assert row["wins"] == 8
    assert row["verdict"] == "within bound"


def test_a_gain_must_clear_the_base_interquartile_distance(compare):
    base = [8.0, 9.0, 10.0, 11.0, 12.0]  # Q1 9, Q3 11
    head = [value - 1.5 for value in base]  # wins 5/5, medians 1.5 apart
    row = compare.summarise(base, head, "lower", 0.5)
    assert (row["q1"], row["q3"], row["wins"]) == (9.0, 11.0, 5)
    assert row["verdict"] == "within bound"


def test_higher_is_better_flips_wins_and_regressions(compare):
    base = [100.0, 101.0, 99.0, 100.0]
    assert compare.summarise(base, [120.0] * 4, "higher", 0.15)["verdict"] == "gain"
    row = compare.summarise(base, [80.0] * 4, "higher", 0.15)
    assert row["wins"] == 0 and row["change"] == pytest.approx(-0.2)
    assert row["verdict"] == "REGRESSION"


def test_a_base_spread_wider_than_the_bound_is_unresolved(compare):
    base = [8.0, 12.0, 10.0]  # spread 40 % of the median
    assert compare.summarise(base, [10.5, 9.0, 11.0], "lower", 0.15)["verdict"] == (
        "unresolved"
    )
    # ... unless every head run beats every base run.
    base = [9.0, 9.0, 10.0, 13.0, 13.0]  # IQR 4: no gain at a 1.1 median gap
    row = compare.summarise(base, [8.9] * 5, "lower", 0.15)
    assert row["wins"] == 5 and row["verdict"] == "within bound"


def test_workload_lists_and_all(compare):
    declared = ["adhoc_plan", "point_hit", "scan_exec"]
    assert compare.parse_workloads("all", declared) == declared
    assert compare.parse_workloads("scan_exec,point_hit", declared) == [
        "scan_exec", "point_hit",
    ]
    assert compare.parse_workloads("point_hit", declared) == ["point_hit"]
    with pytest.raises(ValueError, match="nope"):
        compare.parse_workloads("point_hit,nope", declared)


def test_busy_shares_per_cpu_from_proc_stat(compare):
    before = compare.cpu_times(
        "cpu  10 0 10 80 0 0 0 0 0 0\n"
        "cpu0 5 0 5 40 0 0 0 0 0 0\n"
        "cpu1 5 0 5 40 0 0 0 0 0 0\n"
        "intr 123\n"
    )
    assert before == {"cpu0": [5, 0, 5, 40, 0, 0, 0, 0, 0, 0],
                      "cpu1": [5, 0, 5, 40, 0, 0, 0, 0, 0, 0]}
    # cpu0: 90 busy ticks of 100; cpu1: 10 busy of 100, 20 of its idle
    # ticks in iowait; guest ticks (already in user) are not counted twice.
    after = compare.cpu_times(
        "cpu0 65 0 35 50 0 0 0 0 7 0\n"
        "cpu1 10 0 10 110 20 0 0 0 0 0\n"
    )
    assert compare.busy_shares(before, after) == pytest.approx([0.9, 0.1])
    assert compare.cpu_line({"cpu_busy": [0.9, 0.1]}) == " 90%  10%"
    assert compare.cpu_line({"cpu_busy": []}) == "n/a"
