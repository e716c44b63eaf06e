"""EXP-ABL-ESTIMATION — selectivity estimation accuracy.

The paper: the 10% default "is naive and will later be replaced by a more
accurate selectivity estimation method."  This bench measures that
replacement: for a panel of predicates over the populated store, compare
estimated row counts under (a) the paper's naive default, (b) index-
assisted distinct counts, and (c) ANALYZE-built histograms/MCVs, against
ground truth.
"""

import math

import common
from repro.api import Database

PREDICATE_PANEL = [
    ("population >= 900k", 'SELECT * FROM c IN Cities WHERE c.population >= 900000'),
    ("population < 50k", "SELECT * FROM c IN Cities WHERE c.population < 50000"),
    ("pop in [400k,600k)", "SELECT * FROM c IN Cities WHERE c.population >= 400000 AND c.population < 600000"),
    ("name == city7", 'SELECT * FROM c IN Cities WHERE c.name == "city7"'),
    ("age == 30", "SELECT * FROM e IN Employees WHERE e.age == 30"),
    ("salary >= 80k", "SELECT * FROM e IN Employees WHERE e.salary >= 80000"),
]


def q_error(estimate: float, actual: float) -> float:
    """The standard q-error: max(est/act, act/est), floored at 1."""
    estimate = max(estimate, 0.5)
    actual = max(actual, 0.5)
    return max(estimate / actual, actual / estimate)


def _gmean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def numbers() -> dict:
    """Per predicate: naive and ANALYZE-based estimates, the true count and
    both q-errors; plus each side's geometric-mean q-error."""
    naive_db = Database.sample(scale=0.1)
    analyzed_db = Database.sample(scale=0.1)
    analyzed_db.analyze("Cities")
    analyzed_db.analyze("Employees")
    panel = {}
    for label, sql in PREDICATE_PANEL:
        naive = naive_db.optimize(sql).plan.rows
        actual = len(naive_db.query(sql).rows)
        analyzed = analyzed_db.optimize(sql).plan.rows
        panel[label] = {
            "naive_est": naive,
            "analyzed_est": analyzed,
            "actual": actual,
            "naive_q": q_error(naive, actual),
            "analyzed_q": q_error(analyzed, actual),
        }
    return {
        "panel": panel,
        "gmean_q": {
            side: _gmean([row[f"{side}_q"] for row in panel.values()])
            for side in ("naive", "analyzed")
        },
    }


def report(numbers: dict) -> str:
    rows = []
    for label, _ in PREDICATE_PANEL:
        row = numbers["panel"][label]
        rows.append(
            [
                label,
                f"{row['naive_est']:.0f}",
                f"{row['analyzed_est']:.0f}",
                f"{row['actual']}",
                f"{row['naive_q']:.1f}",
                f"{row['analyzed_q']:.1f}",
            ]
        )
    gmean = numbers["gmean_q"]
    rows.append(
        ["geometric-mean q-error", "", "", "", f"{gmean['naive']:.2f}", f"{gmean['analyzed']:.2f}"]
    )
    return common.format_table(
        ["predicate", "naive est", "analyzed est", "actual", "naive q-err", "analyzed q-err"],
        rows,
        "Selectivity estimation accuracy at 10% scale "
        "(the paper's 10% default vs ANALYZE histograms/MCVs).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
