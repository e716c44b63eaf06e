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

import time

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


def _best_of(run) -> tuple[float, object]:
    """Best wall seconds over ``REPEATS`` runs of ``run()``, and the last
    run's result."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def _spill(db, plan, build_rows: list) -> tuple[dict, dict]:
    """One plan in memory and under a tenth of its input as budget; the
    governed rows should be the in-memory rows, byte for byte."""
    budget = max(1, sum(approx_row_bytes(r) for r in build_rows) // 10)
    base_s, reference = _best_of(lambda: db.execute_plan(plan))
    spill_s, governed = _best_of(
        lambda: db.execute_plan(plan, ctx=QueryContext(memory_bytes=budget))
    )
    row = {
        "input_rows": len(build_rows),
        "budget": budget,
        "pages": governed.spill_page_writes,
        "same_rows": governed.rows == reference.rows,
    }
    return row, {"base": base_s, "spill": spill_s}


def numbers() -> dict:
    """ORDER BY and hash join in memory vs under a 1/10th-of-input budget
    (input rows, budget bytes, spill pages written), and the retries the
    chaos sweep's fault rates cost; under ``wall``, the best wall seconds
    of each, which the golden leaves out.

    Both spill plans are fixed before the budget is applied so the
    comparison isolates the *operator's* spill machinery: with the budget
    visible to the cost model the optimizer would (correctly) prefer a
    plan shape that avoids spilling, and there would be nothing to
    measure.
    """
    db = Database.sample(scale=0.1)
    spill, wall = {}, {"spill": {}, "retries": {}}
    # ORDER BY: budget from the sort's input footprint.
    sort_plan = db.optimize(ORDER_BY).plan
    spill["ORDER BY"], wall["spill"]["ORDER BY"] = _spill(
        db, sort_plan, db.execute_plan(sort_plan).rows
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
    spill["hash join"], wall["spill"]["hash join"] = _spill(
        db, join_plan, build_rows
    )

    retries = {}
    for rate in FAULT_RATES:

        def run():
            ctx = (
                QueryContext(fault_plan=FaultPlan(seed=7, read_error_prob=rate))
                if rate
                else QueryContext()
            )
            db.query(RETRY_QUERY, use_cache=False, governor=ctx)
            return ctx

        label = f"{rate:.0%}"
        wall["retries"][label], ctx = _best_of(run)
        retries[label] = ctx.faults.stats.transient_errors if ctx.faults else 0
    return {"spill": spill, "retries": retries, "wall": wall}


def report(numbers: dict) -> str:
    wall = numbers["wall"]
    spill_rows = []
    for label, row in numbers["spill"].items():
        base_s, spill_s = wall["spill"][label]["base"], wall["spill"][label]["spill"]
        spill_rows.append(
            [
                label,
                str(row["input_rows"]),
                str(row["budget"]),
                f"{base_s * 1000:.1f}",
                f"{spill_s * 1000:.1f}",
                f"{spill_s / base_s:.2f}",
                str(row["pages"]),
            ]
        )
    spill_table = common.format_table(
        ["operator", "rows", "budget B", "in-mem ms", "spill ms", "×", "pages"],
        spill_rows,
        "Spill overhead at 1/10th-of-input memory budget (byte-identical)",
    )
    retry_table = common.format_table(
        ["fault rate", "wall ms", "retries"],
        [
            [label, f"{wall['retries'][label] * 1000:.1f}", str(count)]
            for label, count in numbers["retries"].items()
        ],
        "Transient-fault retry overhead, ORDER BY scan of Employees",
    )
    return spill_table + "\n" + retry_table


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
