#!/usr/bin/env python3
"""Cost-based vs greedy optimization: Query 4 (Figures 12-13, Table 3).

ObjectStore's optimizer uses "a fixed, greedy strategy designed to exploit
any available indexes".  With indexes on both Tasks.time and
extent(Employee).name, greedy uses both — but the name index matches
hundreds of Freds while the time-qualified tasks only reference a handful
of team members, so the optimal plan uses *only* the time index and
resolves member references directly.

Run with:  python examples/cost_vs_greedy.py [scale]
"""

import sys

from repro import Database
from repro.baselines import GreedyOptimizer
from repro.optimizer.optimizer import Optimizer

QUERY_4 = (
    "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
    'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")'
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    db = Database.sample(scale=scale)
    db.create_index("ix_tasks_time", "Tasks", ("time",))
    db.create_index("ix_employees_name", "extent(Employee)", ("name",))

    print("Query 4:", QUERY_4)
    print()

    simplified = db.simplify(QUERY_4)
    cost_based = db.query(QUERY_4)
    print("Cost-based plan (Figure 12) — uses ONLY the time index:")
    print(cost_based.explain(costs=True))
    print()

    cost_model = Optimizer(db.catalog, db.config).cost_model
    greedy_plan = GreedyOptimizer(db.catalog, cost_model).optimize(
        simplified.tree, result_vars=simplified.result_vars
    )
    greedy_exec = db.execute_plan(
        greedy_plan, result_vars=simplified.result_vars
    )
    print("Greedy plan (Figure 13) — uses BOTH indexes:")
    print(greedy_plan.pretty(costs=True))
    print()

    print(f"{'':24} {'estimated':>12} {'simulated I/O':>14} {'rows':>6}")
    print(
        f"{'cost-based':24} "
        f"{cost_based.optimization.cost.total:>11.2f}s "
        f"{cost_based.execution.simulated_io_seconds:>13.2f}s "
        f"{len(cost_based.rows):>6}"
    )
    print(
        f"{'greedy (ObjectStore)':24} "
        f"{greedy_plan.total_cost.total:>11.2f}s "
        f"{greedy_exec.simulated_io_seconds:>13.2f}s "
        f"{len(greedy_exec.rows):>6}"
    )
    ratio = greedy_plan.total_cost.total / cost_based.optimization.cost.total
    print(
        f"\nGreedy is {ratio:.1f}x slower by the cost model — the paper's "
        "conclusion:\n\"the greedy algorithm is too simplistic to permit "
        "effective query\noptimization in object-oriented database systems.\""
    )


if __name__ == "__main__":
    main()
