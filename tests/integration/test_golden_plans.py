"""Golden-plan regression tests.

The suite's own query texts and ``paper_catalog`` fixture, taken through
the query front end, must yield the plans the figure printers recorded in
``tests/golden/paper_numbers.json``: Figures 6, 8, 10 and 12, and Figure 9
(Query 2 without its rewrites).  A failure means a *paper figure's* plan
changed, or the suite's copy of a query drifted from the printers'.
"""

import pytest

from repro.lang.parser import parse_query
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer import config as C
from repro.simplify.simplifier import simplify_full

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4
from tests.integration.test_paper_numbers import GOLDEN_NUMBERS


def _plan_text(catalog, sql, config=None):
    simplified = simplify_full(parse_query(sql), catalog)
    result = Optimizer(catalog, config or OptimizerConfig()).optimize(
        simplified.tree,
        result_vars=simplified.result_vars,
        order=simplified.order,
    )
    return result.plan.pretty()


def _golden_plan(module, figure):
    """A figure's plan as recorded (``pretty(indent=2)``), unindented."""
    return "\n".join(line[2:] for line in GOLDEN_NUMBERS[module][figure]["plan"])


FIGURES = {
    "Q1": (QUERY_1, "bench_fig5_6_7_plans", "figure6"),
    "Q2": (QUERY_2, "bench_fig8_9_query2", "figure8"),
    "Q3": (QUERY_3, "bench_fig10_11_query3", "figure10"),
    "Q4": (QUERY_4, "bench_fig12_13_query4", "figure12"),
}


@pytest.mark.parametrize("name", list(FIGURES))
def test_golden_plan(paper_catalog, name):
    query, module, figure = FIGURES[name]
    assert _plan_text(paper_catalog, query) == _golden_plan(module, figure)


def test_fig9_literal_plan(paper_catalog):
    """Figure 9's exact rendering under the crippled configuration."""
    config = OptimizerConfig().without(
        C.COLLAPSE_TO_INDEX_SCAN, C.MAT_TO_JOIN, C.POINTER_JOIN
    )
    got = _plan_text(paper_catalog, QUERY_2, config)
    assert got == _golden_plan("bench_fig8_9_query2", "figure9")
