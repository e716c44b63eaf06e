"""EXP-F10/F11 — Figures 10-11: Query 3 and goal-directed search.

Query 3 projects the mayor's age, imposing the physical property
"city AND mayor components present in memory" (Figure 11's search state).
The optimal plan (Figure 10) enforces it with assembly on top of the index
scan: est. 0.12 s in the paper, vs 119.6 s for the filter plan — "three
orders of magnitude".
"""

import common
from repro.obs.tracer import Tracer, search_states
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C


def numbers() -> dict:
    catalog = common.paper_catalog()
    q2 = common.optimize(catalog, common.QUERY_2)
    optimal = common.optimize(catalog, common.QUERY_3, tracer=Tracer())
    no_enforcer = common.optimize(
        catalog,
        common.QUERY_3,
        OptimizerConfig().without(
            C.ASSEMBLY_ENFORCER, C.COLLAPSE_TO_INDEX_SCAN, C.POINTER_JOIN,
            C.MAT_TO_JOIN,
        ),
    )
    return {
        "figure11": [
            line
            for line in search_states(optimal.trace_events)
            if "Select" in line or "Project" in line
        ],
        "figure10": {"cost": optimal.cost.total, "plan": common.plan_lines(optimal.plan)},
        "no_enforcer": {
            "cost": no_enforcer.cost.total,
            "plan": common.plan_lines(no_enforcer.plan),
        },
        "ratio": no_enforcer.cost.total / optimal.cost.total,
        "query2_cost": q2.cost.total,
    }


def report(numbers: dict) -> str:
    optimal, no_enforcer = numbers["figure10"], numbers["no_enforcer"]
    return "\n".join(
        [
            "Figure 11. The search states, as actually recorded by the",
            "engine (Alg-Project requires {c, c.mayor}; the index scan",
            "delivers only {c}; the assembly ENFORCER bridges the gap):",
            *(f"  {line}" for line in numbers["figure11"]),
            "",
            f"Figure 10. Optimal plan (est. {optimal['cost']:.3f}s; "
            "paper 0.12s):",
            *optimal["plan"],
            "",
            f"Without physical properties (est. {no_enforcer['cost']:.1f}s; "
            "paper 119.6s):",
            *no_enforcer["plan"],
            "",
            f"Ratio: {numbers['ratio']:.0f}x "
            "(paper: ~1000x, 'three orders of magnitude').",
            f"Query 2 cost {numbers['query2_cost']:.3f}s -> Query 3 adds only the "
            "qualifying mayors' fetches.",
        ]
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
