"""EXP-GOVERNOR — what resource governance costs when you use it.

Two overheads, measured rather than asserted:

* **Spill** — the same ORDER BY and hash join executed in memory and
  under a budget of one tenth of their input, so the external merge
  sort and the Grace partitioning pay their temp-segment I/O.  The
  results are byte-identical by construction (the governor's contract);
  the table shows what that identity costs in wall time and pages.
* **Retry** — the same scan-heavy query under seeded transient read
  faults at 0%, 1%, and 5%, the chaos sweep's operating points.  Each
  injected fault costs a retry and capped-exponential backoff charged
  to the simulated disk clock.

Not part of the CI perf gate (``bench_quick.py``), which compares exact
counts only: these are wall times.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

import common
from repro.api import Database
from repro.governor.context import QueryContext
from repro.governor.faults import FaultPlan
from repro.governor.spill import approx_row_bytes
from repro.optimizer.config import (
    ASSEMBLY,
    MERGE_JOIN,
    NESTED_LOOPS,
    POINTER_JOIN,
    WARM_START_ASSEMBLY,
)

ORDER_BY = "SELECT c.name, c.population FROM City c IN Cities ORDER BY c.name"
RETRY_QUERY = (
    "SELECT e.name, e.salary FROM Employee e IN Employees ORDER BY e.name"
)
JOIN = (
    "SELECT e.name, d.name FROM Employee e IN Employees, "
    "Department d IN extent(Department) WHERE e.department == d"
)
FAULT_RATES = (0.0, 0.01, 0.05)
REPEATS = 3


def governor_database(scale: float = 0.1) -> Database:
    return Database.sample(scale=scale)


def _best_of(run, repeats: int = REPEATS) -> tuple[float, object]:
    """Best wall seconds over ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_spill(db=None) -> list[dict]:
    """In-memory vs 1/10th-budget wall time for ORDER BY and hash join.

    Both plans are fixed before the budget is applied so the comparison
    isolates the *operator's* spill machinery: with the budget visible
    to the cost model the optimizer would (correctly) prefer a plan
    shape that avoids spilling, and there would be nothing to measure.
    """
    db = db or governor_database()
    rows = []
    # ORDER BY: budget from the sort's input footprint.
    sort_plan = db.optimize(ORDER_BY).plan
    reference = db.execute_plan(sort_plan)
    budget = max(1, sum(approx_row_bytes(r) for r in reference.rows) // 10)
    base_s, _ = _best_of(lambda: db.execute_plan(sort_plan))
    spill_s, governed = _best_of(
        lambda: db.execute_plan(
            sort_plan, ctx=QueryContext(memory_bytes=budget)
        )
    )
    assert governed.rows == reference.rows
    rows.append(
        {
            "label": "ORDER BY",
            "input_rows": len(reference.rows),
            "budget": budget,
            "base_s": base_s,
            "spill_s": spill_s,
            "pages": governed.spill_page_writes,
        }
    )
    # Hash join: pin the plan to Hybrid Hash Join, budget from the
    # build side (the join's first child) so Grace partitioning kicks in.
    config = db.config.without(
        ASSEMBLY, POINTER_JOIN, WARM_START_ASSEMBLY, NESTED_LOOPS, MERGE_JOIN
    )
    join_plan = db.optimize(JOIN, config=config).plan
    join_node = next(
        node for node in join_plan.walk() if "Hash Join" in node.describe()
    )
    build_rows = db.execute_plan(join_node.children[0]).rows
    budget = max(1, sum(approx_row_bytes(r) for r in build_rows) // 10)
    reference = db.execute_plan(join_plan)
    base_s, _ = _best_of(lambda: db.execute_plan(join_plan))
    spill_s, governed = _best_of(
        lambda: db.execute_plan(
            join_plan, ctx=QueryContext(memory_bytes=budget)
        )
    )
    assert governed.rows == reference.rows
    rows.append(
        {
            "label": "hash join",
            "input_rows": len(build_rows),
            "budget": budget,
            "base_s": base_s,
            "spill_s": spill_s,
            "pages": governed.spill_page_writes,
        }
    )
    return rows


def measure_retry(db=None) -> list[dict]:
    """Wall time and retry counts at the chaos sweep's fault rates."""
    db = db or governor_database()
    rows = []
    for rate in FAULT_RATES:
        contexts = []

        def run():
            ctx = (
                QueryContext(fault_plan=FaultPlan(seed=7, read_error_prob=rate))
                if rate
                else QueryContext()
            )
            contexts.append(ctx)
            return db.query(RETRY_QUERY, use_cache=False, governor=ctx)

        seconds, _ = _best_of(run)
        retries = max(
            (c.faults.stats.transient_errors if c.faults else 0)
            for c in contexts
        )
        rows.append({"rate": rate, "seconds": seconds, "retries": retries})
    return rows


@pytest.fixture(scope="module")
def governor_db():
    return governor_database(scale=0.05)


def test_spill_overhead_is_bounded(governor_db):
    for row in measure_spill(governor_db):
        # Spilling costs real work but must stay the same order of
        # magnitude as the in-memory run on this small input.
        assert row["spill_s"] < max(0.05, row["base_s"] * 25)
        assert row["pages"] > 0


def test_retry_overhead_grows_with_fault_rate(governor_db):
    rows = measure_retry(governor_db)
    assert rows[0]["retries"] == 0
    assert rows[-1]["retries"] >= rows[1]["retries"] >= 1


def report(spill_rows: list[dict], retry_rows: list[dict]) -> str:
    spill_table = common.format_table(
        ["operator", "rows", "budget B", "in-mem ms", "spill ms", "×", "pages"],
        [
            [
                r["label"],
                str(r["input_rows"]),
                str(r["budget"]),
                f"{r['base_s'] * 1000:.1f}",
                f"{r['spill_s'] * 1000:.1f}",
                f"{r['spill_s'] / r['base_s']:.2f}",
                str(r["pages"]),
            ]
            for r in spill_rows
        ],
        "Spill overhead at 1/10th-of-input memory budget (byte-identical)",
    )
    retry_table = common.format_table(
        ["fault rate", "wall ms", "retries"],
        [
            [
                f"{r['rate']:.0%}",
                f"{r['seconds'] * 1000:.1f}",
                str(r["retries"]),
            ]
            for r in retry_rows
        ],
        "Transient-fault retry overhead, ORDER BY scan of Employees",
    )
    return spill_table + "\n" + retry_table


def main() -> None:
    db = governor_database()
    text = report(measure_spill(db), measure_retry(db))
    common.register_report("Governor overhead (EXP-GOVERNOR)", text)
    print(text)


if __name__ == "__main__":
    main()
