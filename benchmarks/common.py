"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one of the paper's tables or figures.
Its ``numbers()`` returns the deterministic numbers as one JSON-able dict
(``tests/golden/paper_numbers.json`` pins them, and
``tests/integration/test_paper_numbers.py`` checks the paper's claims over
them), with any wall seconds of the same run under its ``wall`` key, which
the golden leaves out; its ``main()`` prints the table formatted from that
dict, standalone:  ``python benchmarks/bench_table2_query1.py``.

Estimated execution times come from the full-scale Table 1 *catalog* (the
paper compares anticipated costs); simulated execution numbers run real
plans against a populated store.
"""

from __future__ import annotations

from repro.api import Database
from repro.catalog.sample_db import (
    build_catalog,
    index_cities_mayor_name,
    index_employees_name,
    index_tasks_time,
)
from repro.lang.parser import parse_query
from repro.optimizer import Optimizer, OptimizerConfig
from repro.simplify.simplifier import simplify_full

QUERY_1 = (
    "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
    "FROM Employee e IN Employees "
    'WHERE e.department().plant().location() == "Dallas"'
)
QUERY_2 = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "Joe"'
QUERY_3 = (
    "SELECT c.mayor.age, c.name FROM City c IN Cities "
    'WHERE c.mayor.name == "Joe"'
)
QUERY_4 = (
    "SELECT * FROM Task t IN Tasks WHERE t.time == 100 AND EXISTS ("
    'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")'
)

def paper_catalog(indexes: tuple[str, ...] = ("cities", "time", "name")):
    """Full-scale Table 1 catalog with a chosen index subset."""
    catalog = build_catalog()
    if "cities" in indexes:
        catalog.add_index(index_cities_mayor_name())
    if "time" in indexes:
        catalog.add_index(index_tasks_time())
    if "name" in indexes:
        catalog.add_index(index_employees_name())
    return catalog


def optimize(catalog, sql: str, config: OptimizerConfig | None = None, tracer=None):
    """Simplify + optimize one query against a catalog."""
    simplified = simplify_full(parse_query(sql), catalog)
    optimizer = Optimizer(catalog, config or OptimizerConfig())
    return optimizer.optimize(
        simplified.tree, result_vars=simplified.result_vars, tracer=tracer
    )


def exec_database(scale: float = 0.1, seed: int = 20130526) -> Database:
    """A populated database for simulated-execution benchmarks."""
    db = Database.sample(scale=scale, seed=seed)
    db.create_index("ix_cities_mayor_name", "Cities", ("mayor", "name"))
    db.create_index("ix_tasks_time", "Tasks", ("time",))
    db.create_index("ix_employees_name", "extent(Employee)", ("name",))
    return db


def plan_lines(plan) -> list[str]:
    """A plan or algebra tree as the figures print it, one line per node."""
    return plan.pretty(indent=2).splitlines()


def format_table(headers: list[str], rows: list[list[str]], title: str) -> str:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)
