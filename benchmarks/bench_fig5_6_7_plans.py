"""EXP-F5/F6/F7 — Figures 5-7: Query 1's algebra and plans.

Figure 5: the simplified logical algebra (one Mat per path link).
Figure 6: the optimal plan — Mats become hybrid hash joins, links are
traversed against the pointer direction, plants assembled per department.
Figure 7: the pointer-chasing plan the naive strategy produces.
"""

import common
from repro.lang.parser import parse_query
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C
from repro.simplify.simplifier import simplify_full


def numbers() -> dict:
    catalog = common.paper_catalog()
    simplified = simplify_full(parse_query(common.QUERY_1), catalog)
    optimal = common.optimize(catalog, common.QUERY_1)
    naive = common.optimize(
        catalog, common.QUERY_1, OptimizerConfig().without(C.MAT_TO_JOIN)
    )
    return {
        "figure5": common.plan_lines(simplified.tree),
        "figure6": {"cost": optimal.cost.total, "plan": common.plan_lines(optimal.plan)},
        "figure7": {"cost": naive.cost.total, "plan": common.plan_lines(naive.plan)},
        "ratio": naive.cost.total / optimal.cost.total,
    }


def report(numbers: dict) -> str:
    lines = [
        "Figure 5. Query 1 after simplification:",
        *numbers["figure5"],
        "",
        f"Figure 6. Optimal execution plan (est. {numbers['figure6']['cost']:.1f}s; "
        "paper: 161s):",
        *numbers["figure6"]["plan"],
        "",
        f"Figure 7. Plan without join rewriting (est. {numbers['figure7']['cost']:.1f}s; "
        "paper: 681s):",
        *numbers["figure7"]["plan"],
        "",
        f"Ratio: {numbers['ratio']:.1f}x "
        "(paper: 4.2x, 'more than four times as expensive').",
    ]
    return "\n".join(lines)


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
