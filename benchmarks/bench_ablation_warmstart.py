"""EXP-ABL-WARMSTART — ablation: Lesson 7's warm-start assembly.

"A comparison of hash join using a hash table of the referenced objects
and an equivalent assembly algorithm with a large window suggests a new
'warm-start' assembly algorithm, i.e., the ability to scan a scannable
object into main memory before the normal complex object assembly
operation commences.  We plan on studying this algorithm variant."

The algorithm is implemented (disabled by default, being future work);
this bench enables it and measures where it wins: resolving many
references into a small scannable extent.
"""

import common
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C

# Resolving 50k department references into the 1k-department extent: the
# regime where pre-scanning the target must win over per-reference fetches.
QUERY = (
    "SELECT e.name, e.department.name FROM Employee e IN Employees "
    "WHERE e.department.floor == 3"
)

BASE = OptimizerConfig().without(C.MAT_TO_JOIN, C.POINTER_JOIN)
WARM = BASE.with_rules(C.WARM_START_ASSEMBLY)


def numbers() -> dict:
    """Full-scale estimate and 10%-scale simulated I/O seconds, without and
    with warm-start assembly enabled."""
    catalog = common.paper_catalog()
    db = common.exec_database(scale=0.1)
    out = {}
    for label, config in (("assembly_only", BASE), ("warm_start", WARM)):
        estimate = common.optimize(catalog, QUERY, config)
        run = db.query(QUERY, config=config)
        out[label] = {
            "est": estimate.cost.total,
            "sim": run.execution.simulated_io_seconds,
            "rows": len(run.rows),
            "warm_start_chosen": any(
                node.algorithm == "WarmStartAssembly" for node in estimate.plan.walk()
            ),
            "plan": common.plan_lines(estimate.plan),
        }
    return out


def report(numbers: dict) -> str:
    plain, warm = numbers["assembly_only"], numbers["warm_start"]
    rows = [
        ["assembly only", f"{plain['est']:.2f}", f"{plain['sim']:.2f}"],
        ["warm-start enabled", f"{warm['est']:.2f}", f"{warm['sim']:.2f}"],
    ]
    table = common.format_table(
        ["configuration", "est. exec [s] (full scale)", "simulated I/O [s] (10%)"],
        rows,
        "Warm-start assembly ablation (the paper's Lesson 7 future work).",
    )
    return "\n".join(
        [
            table,
            f"warm-start chosen by the optimizer: {warm['warm_start_chosen']}",
            "plan with warm-start enabled:",
            *warm["plan"],
        ]
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
