"""EXP-ABL-ARGRULES — ablation: Lesson 9's argument transformation rules.

Measures what predicate normalization buys: contradiction detection turns
an unsatisfiable query into a constant-false filter over a scan the
executor never expands, and bound tightening shrinks the conjunct count
the optimizer and executor must evaluate.
"""

import common
from repro.algebra.operators import Select
from repro.lang.parser import parse_query
from repro.optimizer import Optimizer, OptimizerConfig
from repro.simplify.simplifier import Simplifier

CONTRADICTION = (
    "SELECT * FROM e IN Employees "
    "WHERE e.age == 30 AND e.age == 31 AND e.department.floor == 3"
)
REDUNDANT = (
    "SELECT * FROM e IN Employees WHERE e.age > 20 AND e.age > 30 "
    "AND e.age > 40 AND e.age <= 60 AND e.age <= 55"
)
QUERIES = {"contradiction": CONTRADICTION, "redundant-bounds": REDUNDANT}
RULES = {"normalized": None, "raw": ()}


def numbers() -> dict:
    """Per query, with and without the argument rules: conjuncts left in
    the Select, estimated rows and estimated cost."""
    catalog = common.paper_catalog()
    out = {}
    for qlabel, sql in QUERIES.items():
        out[qlabel] = {}
        for label, rules in RULES.items():
            simplified = Simplifier(catalog, argument_rules=rules).simplify_full(
                parse_query(sql)
            )
            result = Optimizer(catalog, OptimizerConfig()).optimize(
                simplified.tree, result_vars=simplified.result_vars
            )
            out[qlabel][label] = {
                "conjuncts": _conjunct_count(simplified.tree),
                "rows": result.plan.rows,
                "cost": result.cost.total,
            }
    return out


def _conjunct_count(tree) -> int:
    node = tree
    while node.children:
        if isinstance(node, Select):
            return len(node.predicate.comparisons)
        node = node.children[0]
    return 0


def report(numbers: dict) -> str:
    rows = []
    for label in RULES:
        for qlabel in QUERIES:
            row = numbers[qlabel][label]
            rows.append(
                [qlabel, label, str(row["conjuncts"]), f"{row['rows']:.1f}",
                 f"{row['cost']:.2f}"]
            )
    return common.format_table(
        ["query", "argument rules", "conjuncts", "est rows", "est cost [s]"],
        rows,
        "Argument transformation rules ablation (Lesson 9).",
    )


def main() -> None:
    print(report(numbers()))


if __name__ == "__main__":
    main()
