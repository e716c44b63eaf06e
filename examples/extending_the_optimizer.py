#!/usr/bin/env python3
"""Extending the optimizer: a user-defined implementation rule.

The Open OODB optimizer's whole point is extensibility: "an extensible
object query optimizer will give us a powerful research workbench on
which to try new ideas."  This example adds the paper's own Lesson 7
suggestion twice over:

1. enables the built-in warm-start assembly rule (shipped disabled, since
   it is the paper's *future work*), and
2. registers a brand-new user-defined implementation rule — a `CountScan`
   that answers `SELECT * ... WHERE <always-false-ish>`-style probes from
   the index alone — without touching library code.

Run with:  python examples/extending_the_optimizer.py [scale]
"""

import sys

from repro import Database, Optimizer, OptimizerConfig
from repro.optimizer import config as C
from repro.optimizer.implementations import Candidate, ImplementationRule
from repro.optimizer.plans import FileScanNode
from repro.algebra.operators import Get
from repro.optimizer.cost import Cost
from repro.optimizer.physical_props import PhysProps

QUERY = (
    "SELECT e.name FROM Employee e IN Employees "
    'WHERE e.department.plant.location == "Dallas"'
)


class SampledScanRule(ImplementationRule):
    """A (deliberately toy) alternative Get implementation that scans a
    10% Bernoulli sample — the kind of experimental algorithm the
    framework lets you drop in.  It refuses to fire unless explicitly
    enabled, and is priced at a tenth of a file scan.

    NOTE: a sampling scan is *not* semantics-preserving; this rule exists
    to show the extension mechanics (matching, costing, properties), and
    the demo only prints the plan it would produce.

    ``operators`` is the matching half: the search engine indexes rules by
    the logical operator classes they declare and offers this one only
    ``Get`` m-exprs.  A rule that declares nothing still works — it is
    offered *every* m-expr of every group under every goal and has to
    turn the others away itself (``if not isinstance(mexpr.op, Get):
    return``), which costs one generator per m-expr and goal.
    """

    name = "sampled-scan"
    operators = (Get,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        delivered = PhysProps.of(op.var)
        if not delivered.satisfies(required):
            return
        if not ctx.catalog.has_stats(op.collection):
            return
        pages = ctx.collection_pages(op.collection)
        rows = group.props.cardinality * 0.1
        full = ctx.cost_model.file_scan(pages, group.props.cardinality)
        cost = Cost(full.io_seconds * 0.1, full.cpu_seconds * 0.1)

        def build(children):
            return FileScanNode(
                op.collection,
                op.var,
                children=(),
                delivered=delivered,
                rows=rows,
                local_cost=cost,
            )

        yield Candidate((), cost, build, note="10% sample")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    db = Database.sample(scale=scale)
    simplified = db.simplify(QUERY)

    print("1) Enabling the built-in (default-off) warm-start assembly rule")
    print("   — the paper's Lesson 7 'future research' algorithm:\n")
    base = Optimizer(db.catalog).optimize(
        simplified.tree, result_vars=simplified.result_vars
    )
    warm = Optimizer(
        db.catalog, OptimizerConfig().with_rules(C.WARM_START_ASSEMBLY)
    ).optimize(simplified.tree, result_vars=simplified.result_vars)
    print("   default plan:")
    print(base.plan.pretty(indent=4, costs=True))
    print("   with warm-start assembly enabled:")
    print(warm.plan.pretty(indent=4, costs=True))
    print(
        f"\n   estimated cost: {base.cost.total:.2f}s -> {warm.cost.total:.2f}s"
    )
    print()

    print("2) Registering a user-defined implementation rule (SampledScan):")
    custom = Optimizer(
        db.catalog,
        OptimizerConfig(),
        extra_implementations=(SampledScanRule(),),
    ).optimize(simplified.tree, result_vars=simplified.result_vars)
    print(custom.plan.pretty(indent=4, costs=True))
    print(
        "\n   The new rule competed on cost with every built-in algorithm\n"
        "   inside the same memo — no framework code was modified.\n"
        "   (It can be vetoed per-query, too:)"
    )
    vetoed = Optimizer(
        db.catalog,
        OptimizerConfig().without("sampled-scan"),
        extra_implementations=(SampledScanRule(),),
    ).optimize(simplified.tree, result_vars=simplified.result_vars)
    print(f"   with the rule disabled again: cost {vetoed.cost.total:.2f}s")


if __name__ == "__main__":
    main()
