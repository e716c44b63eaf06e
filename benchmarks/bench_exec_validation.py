"""EXP-EXEC — validation: optimizer estimates vs simulated execution.

Runs every paper query's chosen plan AND a deliberately crippled plan
against the populated (10% scale) store, reporting estimated cost next to
simulated I/O time.  Absolute values differ (estimates assume full-scale
cardinalities, the store is scaled), but the *ordering* the optimizer
relies on must hold in the simulation, and all plan alternatives must
return identical rows.
"""

from collections import Counter

import common
from repro.engine.tuples import row_key
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

CRIPPLED = OptimizerConfig().without(
    C.COLLAPSE_TO_INDEX_SCAN, C.MAT_TO_JOIN, C.POINTER_JOIN
)

QUERIES = {
    "Q1": common.QUERY_1,
    "Q2": common.QUERY_2,
    "Q3": common.QUERY_3,
    "Q4": common.QUERY_4,
}


def numbers() -> dict:
    db = common.exec_database(scale=0.1)
    out = {}
    for name, sql in QUERIES.items():
        chosen = db.query(sql)
        crippled = db.query(sql, config=CRIPPLED)
        out[name] = {
            "chosen_est": chosen.optimization.cost.total,
            "chosen_sim": chosen.execution.simulated_io_seconds,
            "crippled_est": crippled.optimization.cost.total,
            "crippled_sim": crippled.execution.simulated_io_seconds,
            "rows": len(chosen.rows),
            "same_rows": Counter(map(row_key, chosen.rows))
            == Counter(map(row_key, crippled.rows)),
        }
    return out


def report(numbers: dict) -> str:
    keys = ("chosen_est", "chosen_sim", "crippled_est", "crippled_sim")
    table_rows = [
        [name, *(f"{numbers[name][k]:.2f}" for k in keys), str(numbers[name]["rows"])]
        for name in QUERIES
    ]
    return common.format_table(
        [
            "Query",
            "chosen est[s]",
            "chosen sim[s]",
            "crippled est[s]",
            "crippled sim[s]",
            "rows",
        ],
        table_rows,
        "Estimate vs simulation (store at 10% scale; estimates at full "
        "scale — orderings must agree, absolutes need not).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
