"""EXP-ENGINE — wall-clock throughput of the iterator engine itself.

Not a paper artifact: these pytest-benchmark timings characterise the
Python execution substrate (rows/second through each physical operator at
10% scale), so regressions in the engine are visible independently of the
simulated-I/O clocks.
"""

import pytest

import common
from repro.algebra.operators import RefSource
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.engine import iterators


@pytest.fixture(scope="module")
def store():
    return common.exec_database(scale=0.1).store


def test_file_scan_throughput(store, benchmark):
    def scan():
        return sum(1 for _ in iterators.file_scan(store, "Cities", "c"))

    assert benchmark(scan) == store.collection_cardinality("Cities")


def test_filter_throughput(store, benchmark):
    predicate = Conjunction.of(
        Comparison(FieldRef("c", "population"), CompOp.GE, Const(500_000))
    )
    rows = list(iterators.file_scan(store, "Cities", "c"))

    def run():
        return sum(1 for _ in iterators.filter_rows(rows, predicate))

    assert benchmark(run) > 0


def test_assembly_throughput(store, benchmark):
    rows = list(iterators.file_scan(store, "Cities", "c"))

    def run():
        return sum(
            1
            for _ in iterators.assembly(
                store, rows, RefSource("c", "mayor"), "m", 8
            )
        )

    assert benchmark(run) == len(rows)


def test_hash_join_throughput(store, benchmark):
    predicate = Conjunction.of(
        Comparison(RefAttr("e", "department"), CompOp.EQ, SelfOid("d"))
    )
    employees = list(iterators.file_scan(store, "Employees", "e"))
    departments = list(
        iterators.file_scan(store, "extent(Department)", "d")
    )

    def run():
        return sum(
            1 for _ in iterators.hash_join(departments, employees, predicate)
        )

    assert benchmark(run) == len(employees)


def test_group_by_throughput(store, benchmark):
    from repro.algebra.operators import AggFunc, AggSpec, ProjectItem

    rows = list(iterators.file_scan(store, "Employees", "e"))
    keys = (ProjectItem("age", FieldRef("e", "age")),)
    aggs = (AggSpec("n", AggFunc.COUNT, None),)

    def run():
        return sum(1 for _ in iterators.group_by(rows, keys, aggs, None))

    assert benchmark(run) > 0


def test_sort_throughput(store, benchmark):
    rows = list(iterators.file_scan(store, "Cities", "c"))

    def run():
        return sum(1 for _ in iterators.sort_rows(rows, "c", "population", True))

    assert benchmark(run) == len(rows)
