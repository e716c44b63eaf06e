"""EXP-ABL-HEURISTICS — evaluating heuristic guidance and pruning.

The paper's future work #2: "although the Volcano optimizer generator
provides mechanisms for heuristic guidance and pruning, we have not
evaluated them for object-oriented query optimization yet."  This bench
performs that evaluation: for Queries 1-4, sweep the candidate cap
(promise-ordered greedy descent) and the aggressive-pruning factor,
reporting search effort against plan quality relative to the exhaustive
optimum.
"""

import common
from repro.optimizer import OptimizerConfig

SWEEP = [
    ("exhaustive", OptimizerConfig()),
    ("cap=4", OptimizerConfig().with_heuristics(candidate_cap=4)),
    ("cap=2", OptimizerConfig().with_heuristics(candidate_cap=2)),
    ("cap=1 (greedy)", OptimizerConfig().with_heuristics(candidate_cap=1)),
    ("prune 0.5", OptimizerConfig().with_heuristics(prune_factor=0.5)),
]

QUERIES = {
    "Q1": common.QUERY_1,
    "Q2": common.QUERY_2,
    "Q3": common.QUERY_3,
    "Q4": common.QUERY_4,
}


def numbers() -> dict:
    """Per query and mode: search effort, and plan cost over the optimum."""
    catalog = common.paper_catalog()
    out = {}
    for qname, sql in QUERIES.items():
        optimal = common.optimize(catalog, sql).cost.total
        out[qname] = {}
        for label, config in SWEEP:
            result = common.optimize(catalog, sql, config)
            out[qname][label] = {
                "effort": result.stats.total_effort,
                "quality": result.cost.total / optimal,
            }
    return out


def report(numbers: dict) -> str:
    rows = []
    for qname in QUERIES:
        base_effort = numbers[qname]["exhaustive"]["effort"]
        for label, _ in SWEEP:
            row = numbers[qname][label]
            rows.append(
                [
                    qname,
                    label,
                    f"{100 * row['effort'] / base_effort:.0f}%",
                    f"{row['quality']:.2f}x",
                ]
            )
    return common.format_table(
        ["query", "mode", "search effort", "plan cost vs optimal"],
        rows,
        "Heuristic guidance and pruning evaluation (paper future work #2).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
