"""EXP-F12/F13 — Figures 12-13: Query 4, cost-based vs greedy plans.

Figure 12: the optimal plan uses only the time index and resolves team
member references directly.  Figure 13: the greedy plan insists on the
name index and hash-joins — more than 5x slower in the paper.
"""

import common
from repro.baselines.greedy import GreedyOptimizer
from repro.lang.parser import parse_query
from repro.optimizer.plans import IndexScanNode
from repro.simplify.simplifier import simplify_full


def _indexes(plan) -> list[str]:
    return [n.index.name for n in plan.walk() if isinstance(n, IndexScanNode)]


def numbers() -> dict:
    catalog = common.paper_catalog()
    optimal = common.optimize(catalog, common.QUERY_4)
    simplified = simplify_full(parse_query(common.QUERY_4), catalog)
    greedy = GreedyOptimizer(catalog).optimize(
        simplified.tree, result_vars=simplified.result_vars
    )
    return {
        "figure12": {
            "cost": optimal.cost.total,
            "plan": common.plan_lines(optimal.plan),
            "indexes": _indexes(optimal.plan),
        },
        "figure13": {
            "cost": greedy.total_cost.total,
            "plan": common.plan_lines(greedy),
            "indexes": _indexes(greedy),
        },
        "ratio": greedy.total_cost.total / optimal.cost.total,
    }


def report(numbers: dict) -> str:
    optimal, greedy = numbers["figure12"], numbers["figure13"]
    return "\n".join(
        [
            f"Figure 12. Optimal plan (est. {optimal['cost']:.2f}s; "
            "paper 1.73s) — only the time index:",
            *optimal["plan"],
            "",
            f"Figure 13. Greedy plan (est. {greedy['cost']:.2f}s; "
            "paper 10.1s) — both indexes:",
            *greedy["plan"],
            "",
            f"Greedy/optimal ratio: {numbers['ratio']:.1f}x "
            "(paper: 5.8x, 'slower than the optimal plan by more than a "
            "factor of 5').",
        ]
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
