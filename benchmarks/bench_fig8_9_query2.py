"""EXP-F8/F9 — Figures 8-9: Query 2 and the collapse-to-index-scan rule.

Figure 8: with a path index on Cities over mayor.name, the whole
Select-Mat-Get chain collapses into one index scan that never fetches a
mayor (paper: 0.08 s).  Figure 9: without the rule, every mayor must be
assembled (paper: 119.6 s) — three to four orders of magnitude.
"""

import common
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

FIG9_CONFIG = OptimizerConfig().without(
    C.COLLAPSE_TO_INDEX_SCAN, C.MAT_TO_JOIN, C.POINTER_JOIN
)


def numbers() -> dict:
    catalog = common.paper_catalog()
    optimal = common.optimize(catalog, common.QUERY_2)
    crippled = common.optimize(catalog, common.QUERY_2, FIG9_CONFIG)
    fallback = common.optimize(
        catalog, common.QUERY_2, OptimizerConfig().without(C.COLLAPSE_TO_INDEX_SCAN)
    )
    return {
        "figure8": {
            "cost": optimal.cost.total,
            "plan": common.plan_lines(optimal.plan),
            "in_memory": sorted(optimal.plan.delivered.in_memory),
        },
        "figure9": {"cost": crippled.cost.total, "plan": common.plan_lines(crippled.plan)},
        "fallback": {"cost": fallback.cost.total, "plan": common.plan_lines(fallback.plan)},
        "ratio": crippled.cost.total / optimal.cost.total,
    }


def report(numbers: dict) -> str:
    optimal, crippled = numbers["figure8"], numbers["figure9"]
    return "\n".join(
        [
            f"Figure 8. Optimal plan (est. {optimal['cost']:.3f}s; paper 0.08s):",
            *optimal["plan"],
            "",
            f"Figure 9. Plan w/o collapse-to-index-scan (est. "
            f"{crippled['cost']:.1f}s; paper 119.6s):",
            *crippled["plan"],
            "",
            f"Ratio: {numbers['ratio']:.0f}x "
            "(paper: ~1500x, 'about four orders of magnitude').",
            "",
            "Bonus: with only the collapse rule disabled, our optimizer still",
            f"finds a set-matching fallback (est. {numbers['fallback']['cost']:.1f}s):",
            *numbers["fallback"]["plan"],
        ]
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
