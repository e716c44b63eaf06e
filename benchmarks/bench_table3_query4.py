"""EXP-T3 — Table 3: anticipated execution times for Query 4.

The paper's table (seconds):

    Indices     None   Time only   Name only   Both
    All rules   108    1.73        28.4        1.73
    Greedy use  108    1.73        28.4        10.1

Shape criteria: cost-based ordering None > Name-only > Time-only = Both;
greedy matches cost-based on single-index configurations and loses by
roughly 5x when both indexes exist (it insists on using the name index).
"""

import common
from repro.baselines.greedy import GreedyOptimizer
from repro.lang.parser import parse_query
from repro.simplify.simplifier import simplify_full

INDEX_CONFIGS = [
    ("None", ()),
    ("Time only", ("time",)),
    ("Name only", ("name",)),
    ("Both", ("time", "name")),
]


def numbers() -> dict:
    cost_based = {}
    greedy = {}
    for label, indexes in INDEX_CONFIGS:
        catalog = common.paper_catalog(indexes)
        cost_based[label] = common.optimize(catalog, common.QUERY_4).cost.total
        simplified = simplify_full(parse_query(common.QUERY_4), catalog)
        plan = GreedyOptimizer(catalog).optimize(
            simplified.tree, result_vars=simplified.result_vars
        )
        greedy[label] = plan.total_cost.total
    return {"cost_based": cost_based, "greedy": greedy}


def report(numbers: dict) -> str:
    labels = [label for label, _ in INDEX_CONFIGS]
    rows = [
        [title] + [f"{numbers[key][label]:.2f}" for label in labels]
        for title, key in (("All rules", "cost_based"), ("Greedy use", "greedy"))
    ]
    return common.format_table(
        ["Indices"] + labels,
        rows,
        "Table 3. Anticipated Execution Times for Query 4 [sec] "
        "(paper: 108/1.73/28.4/1.73 vs 108/1.73/28.4/10.1).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
