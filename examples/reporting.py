#!/usr/bin/env python3
"""A reporting workload: aggregates, ordering, set operations, ANALYZE,
and cached plans under index churn — the extension features layered on
the paper's core.

Run with:  python examples/reporting.py [scale]
"""

import sys

from repro import Database


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    db = Database.sample(scale=scale)

    print("== Salary report per floor (GROUP BY + aggregates + ORDER BY)")
    report = db.query(
        "SELECT d.floor, COUNT(*) AS heads, AVG(e.salary) AS avg_salary "
        "FROM Employee e IN Employees, Department d IN extent(Department) "
        "WHERE e.department == d GROUP BY d.floor ORDER BY avg_salary DESC"
    )
    print(report.explain())
    for row in report.rows[:5]:
        print(
            f"  floor {row['d.floor']}: {row['heads']} employees, "
            f"avg salary {row['avg_salary']:,.0f}"
        )
    print()

    print("== Large cities missing from the capitals list (EXCEPT)")
    names = db.query(
        "SELECT c.name AS n FROM c IN Cities WHERE c.population >= 800000 "
        "EXCEPT SELECT k.name AS n FROM k IN Capitals"
    )
    print(f"  {len(names.rows)} such cities")
    print()

    print("== ANALYZE sharpens estimates")
    query = "SELECT * FROM c IN Cities WHERE c.population >= 900000"
    naive = db.optimize(query).plan.rows
    db.analyze("Cities")
    refined = db.optimize(query).plan.rows
    actual = len(db.query(query).rows)
    print(
        f"  estimated rows: {naive:.0f} (naive 10% default) -> "
        f"{refined:.0f} (histogram); actual {actual}"
    )
    print()

    print("== Cached plans follow index churn: DDL invalidates, the next run replans")
    by_mayor = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'
    db.create_index("ix_mayor", "Cities", ("mayor", "name"))
    with_index = db.query(by_mayor)
    db.drop_index("ix_mayor")
    without_index = db.query(by_mayor)
    assert (with_index.cache.outcome, without_index.cache.outcome) == ("miss", "miss")
    assert {r["c"].oid for r in with_index.rows} == {
        r["c"].oid for r in without_index.rows
    }
    print(
        f"  same {len(with_index.rows)} rows with and without the index "
        f"(simulated I/O {with_index.execution.simulated_io_seconds:.3f}s vs "
        f"{without_index.execution.simulated_io_seconds:.3f}s)"
    )


if __name__ == "__main__":
    main()
