"""Plan equivalence: every optimization strategy returns the same rows.

This is the deepest soundness check in the suite — transformation rules,
implementation algorithms, enforcers, and both baselines must agree on
query results when executed against real (scaled) data.
"""

from collections import Counter

import pytest

from repro.baselines.greedy import GreedyOptimizer
from repro.baselines.naive import NaiveOptimizer
from repro.engine.tuples import row_key
from repro.optimizer import OptimizerConfig
from repro.optimizer import config as C
from repro.optimizer.optimizer import Optimizer

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4

FIG2_QUERY = (
    "SELECT * FROM City c in Cities "
    "WHERE c.mayor.name == c.country.president.name"
)
FIG1_QUERY = (
    "SELECT Newobject(e.name(), d.name()) FROM Employee e IN Employees, "
    "Department d IN extent(Department) "
    "WHERE d.floor() == 3 AND e.age() >= 32 AND e.department() == d"
)
UNION_QUERY = (
    "SELECT c.name FROM c IN Cities WHERE c.population >= 500000 "
    "UNION SELECT k.name FROM k IN Capitals"
)

CONFIGS = {
    "default": OptimizerConfig(),
    "no-collapse": OptimizerConfig().without(C.COLLAPSE_TO_INDEX_SCAN),
    "no-mat-to-join": OptimizerConfig().without(C.MAT_TO_JOIN),
    "no-join-comm": OptimizerConfig().without(C.JOIN_COMMUTATIVITY),
    "no-pointer-join": OptimizerConfig().without(C.POINTER_JOIN),
    "no-enforcer": OptimizerConfig().without(C.ASSEMBLY_ENFORCER),
    "window-1": OptimizerConfig().with_window(1),
    "warm-start-on": OptimizerConfig().with_rules(C.WARM_START_ASSEMBLY),
    "no-pruning": OptimizerConfig(prune=False),
}


def _result_keys(db, sql, config):
    result = db.query(sql, config=config)
    return Counter(row_key(r) for r in result.rows)


@pytest.mark.parametrize(
    "sql",
    [QUERY_1, QUERY_2, QUERY_3, QUERY_4, FIG2_QUERY, FIG1_QUERY, UNION_QUERY],
    ids=["Q1", "Q2", "Q3", "Q4", "Fig2", "Fig1", "Union"],
)
def test_all_configs_agree(indexed_db, sql):
    reference = _result_keys(indexed_db, sql, CONFIGS["default"])
    for name, config in CONFIGS.items():
        assert _result_keys(indexed_db, sql, config) == reference, name


@pytest.mark.parametrize(
    "sql",
    [QUERY_1, QUERY_2, QUERY_3, QUERY_4],
    ids=["Q1", "Q2", "Q3", "Q4"],
)
def test_baselines_agree_with_optimizer(indexed_db, sql):
    simplified = indexed_db.simplify(sql)
    reference = _result_keys(indexed_db, sql, OptimizerConfig())
    catalog = indexed_db.catalog
    cost_model = Optimizer(catalog, indexed_db.config).cost_model
    greedy = indexed_db.execute_plan(
        GreedyOptimizer(catalog, cost_model).optimize(
            simplified.tree, result_vars=simplified.result_vars
        ),
        result_vars=simplified.result_vars,
    )
    naive = indexed_db.execute_plan(
        NaiveOptimizer(catalog, cost_model).optimize(simplified.tree),
        result_vars=simplified.result_vars,
    )
    assert Counter(row_key(r) for r in greedy.rows) == reference
    assert Counter(row_key(r) for r in naive.rows) == reference


def test_indexes_do_not_change_results(plain_db, indexed_db):
    """The same query over indexed and unindexed databases (same seed)
    returns identical rows — indexes are pure access paths."""
    for sql in (QUERY_2, QUERY_4):
        with_ix = _result_keys(indexed_db, sql, OptimizerConfig())
        without_ix = _result_keys(plain_db, sql, OptimizerConfig())
        assert with_ix == without_ix


def test_nonempty_results(indexed_db):
    """The generator plants qualifying objects for every paper query."""
    for sql in (QUERY_1, QUERY_2, QUERY_3):
        assert len(indexed_db.query(sql).rows) > 0
