"""EXP-T2 — Table 2: optimization results for Query 1 under rule ablation.

The paper simulates weaker optimizers by disabling rules:

    Row          Opt. [sec]  % of Exh.  Est. Exec. [sec]  % of Optimal
    All Rules    0.21        103        161               100
    W/o Comm.    0.12        57         681               422
    W/o Window   0.11        52         1188              737

Mapping note (see EXPERIMENTS.md): the paper's "W/o Comm." row describes a
forced "naive query execution strategy (i.e., one using pointer-chasing
algorithms)"; our rule factorization reaches that strategy by disabling
the Mat-to-Join rewrite (our literal join-commutativity toggle is reported
as an extra row — our finer-grained Mat-through-Join rules keep join plans
reachable without it).
"""

import time

import common
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

ROWS = [
    ("All rules", OptimizerConfig()),
    (
        "W/o Comm. (lit.)",
        OptimizerConfig().without(C.JOIN_COMMUTATIVITY),
    ),
    (
        "W/o Mat-to-Join",
        OptimizerConfig().without(C.MAT_TO_JOIN),
    ),
    (
        "W/o Window",
        OptimizerConfig().without(C.MAT_TO_JOIN).with_window(1),
    ),
]


def numbers() -> dict:
    """Search effort and estimated cost per row; under ``wall``, each row's
    optimization seconds, which the golden leaves out."""
    catalog = common.paper_catalog()
    results, wall = {}, {}
    for label, config in ROWS:
        started = time.perf_counter()
        results[label] = common.optimize(catalog, common.QUERY_1, config)
        wall[label] = time.perf_counter() - started
    base_effort = results["All rules"].stats.total_effort
    optimal_cost = results["All rules"].cost.total
    rows = {
        label: {
            "effort": result.stats.total_effort,
            "effort_pct": 100 * result.stats.total_effort / base_effort,
            "cost": result.cost.total,
            "cost_pct": 100 * result.cost.total / optimal_cost,
        }
        for label, result in results.items()
    }
    return {**rows, "wall": wall}


def report(numbers: dict) -> str:
    wall = numbers["wall"]
    rows = [
        [
            label,
            f"{wall[label]:.3f}",
            f"{numbers[label]['effort_pct']:.0f}",
            f"{numbers[label]['cost']:.1f}",
            f"{numbers[label]['cost_pct']:.0f}",
        ]
        for label, _ in ROWS
    ]
    return common.format_table(
        ["Rules", "Optim. [sec]", "% of Exh. Search", "Est. Exec. [sec]", "% of Optimal"],
        rows,
        "Table 2. Optimization Results for Query 1 "
        "(paper: 0.21/103/161/100; 0.12/57/681/422; 0.11/52/1188/737).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
