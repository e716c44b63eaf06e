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


def run_paper_queries(catalog):
    """(query, optimization seconds, groups, expressions) for Queries 1-4."""
    rows = []
    for name, sql in PAPER_QUERIES.items():
        result = common.optimize(catalog, sql)
        rows.append(
            (name, result.optimization_seconds, result.groups,
             result.stats.mexprs_generated)
        )
    return rows


def run_scaling(catalog):
    rows = []
    for width in range(1, len(_RANGES) + 1):
        sql = chain_query(width)
        started = time.perf_counter()
        result = common.optimize(catalog, sql)
        elapsed = time.perf_counter() - started
        started = time.perf_counter()
        unrewritten = common.optimize(
            catalog, sql, OptimizerConfig().with_rewrites(False)
        )
        raw_elapsed = time.perf_counter() - started
        capped = common.optimize(
            catalog, sql, OptimizerConfig().with_heuristics(candidate_cap=2)
        )
        rows.append(
            (
                width,
                elapsed,
                result.groups,
                result.stats.mexprs_generated,
                result.cost.total,
                raw_elapsed,
                unrewritten.groups,
                capped.stats.total_effort / max(1, result.stats.total_effort),
                capped.cost.total / result.cost.total,
            )
        )
    return rows


def build_report(paper_rows, rows) -> str:
    paper = common.format_table(
        ["query", "opt [ms]", "groups", "expressions"],
        [
            [name, f"{seconds * 1000:.1f}", str(groups), str(mexprs)]
            for name, seconds, groups, mexprs in paper_rows
        ],
        "Optimization wall time per paper query (paper goal: < 1 s).",
    )
    table = [
        [
            str(width),
            f"{elapsed * 1000:.0f}",
            str(groups),
            str(mexprs),
            f"{cost:.1f}",
            f"{raw_elapsed * 1000:.0f}",
            str(raw_groups),
            f"{100 * effort_ratio:.0f}%",
            f"{quality:.2f}x",
        ]
        for (
            width,
            elapsed,
            groups,
            mexprs,
            cost,
            raw_elapsed,
            raw_groups,
            effort_ratio,
            quality,
        ) in rows
    ]
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


def test_search_scales_to_moderately_complex(full_catalog, benchmark):
    rows = benchmark.pedantic(run_scaling, args=(full_catalog,), iterations=1, rounds=1)
    paper_rows = run_paper_queries(full_catalog)
    common.register_report("Search scalability (EXP-PERF)", build_report(paper_rows, rows))
    # The paper's goal holds for its queries and through five collections.
    for name, seconds, _, _ in paper_rows:
        assert seconds < 1.0, f"{name} took {seconds:.2f}s"
    for row in rows:
        width, elapsed = row[0], row[1]
        if width <= 5:
            assert elapsed < 1.0, f"width {width} took {elapsed:.2f}s"
    # Effort grows with width (the space is real).
    assert rows[-1][3] > rows[0][3]


def main() -> None:
    catalog = common.paper_catalog()
    print(build_report(run_paper_queries(catalog), run_scaling(catalog)))


if __name__ == "__main__":
    main()
