"""EXP-PERF — optimization time for the paper's queries and its growth with
query size.

The paper's goal: "moderately complex queries should be optimized on
today's workstations in less than 1 sec" (on a 25 MHz DECstation
5000/125), and its claim that "exhaustive search and therefore truly
optimal plans are feasible for moderately complex queries".  This bench
times Queries 1-4, then characterises the boundary: optimization effort
for join chains of growing width, with and without heuristics.
"""

import time

import common
from repro.optimizer import OptimizerConfig

# Growing chains of collection ranges with OID-join predicates.
_RANGES = [
    ("Employee e IN Employees", None),
    ("Department d IN extent(Department)", "e.department == d"),
    ("Job j IN extent(Job)", "e.job == j"),
    ("Task t IN Tasks", "t.time == 100"),
    ("Country n IN extent(Country)", "n.name != 'x'"),
    ("Person p IN extent(Person)", "n.president == p"),
]


def chain_query(width: int) -> str:
    ranges = ", ".join(r for r, _ in _RANGES[:width])
    conds = [c for _, c in _RANGES[:width] if c]
    sql = f"SELECT e.name FROM {ranges}"
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    return sql


PAPER_QUERIES = {
    "Q1": common.QUERY_1,
    "Q2": common.QUERY_2,
    "Q3": common.QUERY_3,
    "Q4": common.QUERY_4,
}


def numbers() -> dict:
    """Memo sizes for Queries 1-4, and per chain width: memo sizes, cost,
    groups without the rewrite stage, and candidate-cap-2 effort and plan
    quality.  Under ``wall``, the optimization seconds of each query and of
    each width with the rewrite stage on and off, which the golden leaves
    out."""
    catalog = common.paper_catalog()
    wall = {"queries": {}, "chains": []}
    queries = {}
    for name, sql in PAPER_QUERIES.items():
        result = common.optimize(catalog, sql)
        wall["queries"][name] = result.optimization_seconds
        queries[name] = {
            "groups": result.groups,
            "expressions": result.stats.mexprs_generated,
        }
    chains = []
    for width in range(1, len(_RANGES) + 1):
        sql = chain_query(width)
        started = time.perf_counter()
        result = common.optimize(catalog, sql)
        elapsed = time.perf_counter() - started
        started = time.perf_counter()
        unrewritten = common.optimize(
            catalog, sql, OptimizerConfig().with_rewrites(False)
        )
        wall["chains"].append((elapsed, time.perf_counter() - started))
        capped = common.optimize(
            catalog, sql, OptimizerConfig().with_heuristics(candidate_cap=2)
        )
        chains.append({
            "collections": width,
            "groups": result.groups,
            "expressions": result.stats.mexprs_generated,
            "cost": result.cost.total,
            "no_rewrite_groups": unrewritten.groups,
            "cap2_effort": capped.stats.total_effort
            / max(1, result.stats.total_effort),
            "cap2_quality": capped.cost.total / result.cost.total,
        })
    return {"queries": queries, "chains": chains, "wall": wall}


def report(numbers: dict) -> str:
    wall = numbers["wall"]
    paper = common.format_table(
        ["query", "opt [ms]", "groups", "expressions"],
        [
            [
                name,
                f"{wall['queries'][name] * 1000:.1f}",
                str(numbers["queries"][name]["groups"]),
                str(numbers["queries"][name]["expressions"]),
            ]
            for name in PAPER_QUERIES
        ],
        "Optimization wall time per paper query (paper goal: < 1 s).",
    )
    table = []
    for row, (elapsed, raw_elapsed) in zip(numbers["chains"], wall["chains"]):
        table.append(
            [
                str(row["collections"]),
                f"{elapsed * 1000:.0f}",
                str(row["groups"]),
                str(row["expressions"]),
                f"{row['cost']:.1f}",
                f"{raw_elapsed * 1000:.0f}",
                str(row["no_rewrite_groups"]),
                f"{100 * row['cap2_effort']:.0f}%",
                f"{row['cap2_quality']:.2f}x",
            ]
        )
    return paper + "\n\n" + common.format_table(
        [
            "collections",
            "opt [ms]",
            "groups",
            "expressions",
            "est cost [s]",
            "no-rewrite [ms]",
            "no-rw groups",
            "cap-2 effort",
            "cap-2 quality",
        ],
        table,
        "Exhaustive-search scalability over join-chain width "
        "(pre-memo rewrites on vs off).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
