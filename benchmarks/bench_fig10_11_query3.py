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
from repro.optimizer.plans import AssemblyNode, IndexScanNode


def run(catalog):
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
    return q2, optimal, no_enforcer


def build_report(q2, optimal, no_enforcer) -> str:
    trace_lines = [
        line
        for line in search_states(optimal.trace_events)
        if "Select" in line or "Project" in line
    ]
    return "\n".join(
        [
            "Figure 11. The search states, as actually recorded by the",
            "engine (Alg-Project requires {c, c.mayor}; the index scan",
            "delivers only {c}; the assembly ENFORCER bridges the gap):",
            *(f"  {line}" for line in trace_lines),
            "",
            f"Figure 10. Optimal plan (est. {optimal.cost.total:.3f}s; "
            "paper 0.12s):",
            optimal.plan.pretty(indent=2),
            "",
            f"Without physical properties (est. {no_enforcer.cost.total:.1f}s; "
            "paper 119.6s):",
            no_enforcer.plan.pretty(indent=2),
            "",
            f"Ratio: {no_enforcer.cost.total / optimal.cost.total:.0f}x "
            "(paper: ~1000x, 'three orders of magnitude').",
            f"Query 2 cost {q2.cost.total:.3f}s -> Query 3 adds only the "
            "qualifying mayors' fetches.",
        ]
    )


def test_figures_10_11(full_catalog, benchmark):
    q2, optimal, no_enforcer = benchmark.pedantic(
        run, args=(full_catalog,), iterations=1, rounds=1
    )
    common.register_report(
        "Figures 10-11 (EXP-F10/11)", build_report(q2, optimal, no_enforcer)
    )
    assembly = optimal.plan.children[0]
    assert isinstance(assembly, AssemblyNode) and assembly.enforcer
    assert isinstance(assembly.children[0], IndexScanNode)
    assert no_enforcer.cost.total > 100 * optimal.cost.total
    assert optimal.cost.total < 3 * q2.cost.total


def main() -> None:
    print(build_report(*run(common.paper_catalog())))


if __name__ == "__main__":
    main()
