"""Integration tests for the public `Database` facade."""

import pytest

from repro.api import Database
from repro.engine.tuples import Obj
from repro.errors import CatalogError, QuerySyntaxError, QueryTypeError
from repro.optimizer import OptimizerConfig

from tests.conftest import QUERY_2, SCALE


class TestQueryPipeline:
    def test_query_returns_rows_plan_and_accounting(self, indexed_db):
        result = indexed_db.query(QUERY_2)
        assert result.plan is not None
        assert result.optimization.cost.total > 0
        assert result.execution is not None
        assert len(result) == len(result.rows)
        for row in result.rows:
            assert isinstance(row["c"], Obj)
            assert row["c"].resident

    def test_select_star_rows_only_carry_range_vars(self, indexed_db):
        result = indexed_db.query(
            QUERY_2, config=OptimizerConfig().without("collapse-to-index-scan")
        )
        for row in result.rows:
            assert set(row.keys()) == {"c"}

    @pytest.mark.parametrize(
        "text, config",
        [
            (QUERY_2, None),  # index scan
            (QUERY_2, OptimizerConfig().without("collapse-to-index-scan")),
            ("SELECT * FROM c IN Cities WHERE c.population < 100000 ORDER BY c", None),
            (
                "SELECT * FROM Task t IN Tasks WHERE NOT EXISTS ("
                'SELECT m FROM Employee m IN t.team_members WHERE m.name == "Fred")',
                None,
            ),
        ],
    )
    def test_select_star_rows_are_fresh_dicts(self, indexed_db, text, config):
        # A row that binds only range variables is handed back as the
        # executor built it.  That is safe because every operator builds a
        # fresh dict per output row: no two rows share one, nor two runs.
        first, second = (indexed_db.query(text, config=config).rows for _ in "12")
        assert first and first == second
        assert len({id(row) for row in (*first, *second)}) == 2 * len(first)

    def test_projection_rows_are_value_dicts(self, indexed_db):
        result = indexed_db.query(
            "SELECT c.name AS n, c.population FROM c IN Cities "
            "WHERE c.population >= 0"
        )
        row = result.rows[0]
        assert set(row.keys()) == {"n", "c.population"}
        assert isinstance(row["n"], str)

    def test_execute_false_skips_execution(self, indexed_db):
        result = indexed_db.query(QUERY_2, execute=False)
        assert result.execution is None
        assert result.rows == []

    def test_explain_renders_plan(self, indexed_db):
        text = indexed_db.explain(QUERY_2)
        assert "Index Scan" in text
        assert "optimized in" in text

    def test_explain_shows_rewrites_an_untraced_query_does_not(self, indexed_db):
        text = (
            "SELECT e.name FROM Employee e IN Employees, "
            "Department d IN extent(Department) WHERE e.department == d"
        )
        explained = indexed_db.explain(text)
        traversal = "-- rewrite: rewrite-mat-chain: traversal [Mat e.department: d] --"
        assert traversal in explained.split("\n")
        untraced = indexed_db.query(text, execute=False).explain()
        assert "rewrite:" not in untraced
        assert untraced.split("\n")[1:] == [
            line for line in explained.split("\n")[1:] if "rewrite:" not in line
        ]

    def test_syntax_error_propagates(self, indexed_db):
        with pytest.raises(QuerySyntaxError):
            indexed_db.query("SELEC * FROM c IN Cities")

    def test_type_error_propagates(self, indexed_db):
        with pytest.raises(QueryTypeError):
            indexed_db.query("SELECT * FROM c IN Nowhere")


class TestDdl:
    def test_create_index_measures_distinct_keys(self, fresh_db):
        ix = fresh_db.create_index("ix_age", "Cities", ("mayor", "age"))
        assert ix.distinct_keys > 1

    def test_created_index_changes_plans(self, fresh_db):
        before = fresh_db.optimize(QUERY_2).plan
        fresh_db.create_index("ix_q2", "Cities", ("mayor", "name"))
        after = fresh_db.optimize(QUERY_2).plan
        assert before.algorithm != "IndexScan"
        assert after.algorithm == "IndexScan"

    def test_drop_index_reverts_plan(self, fresh_db):
        fresh_db.create_index("ix_q2", "Cities", ("mayor", "name"))
        fresh_db.drop_index("ix_q2")
        plan = fresh_db.optimize(QUERY_2).plan
        assert plan.algorithm != "IndexScan"

    def test_unpopulated_database_requires_distinct_keys(self):
        db = Database.sample(scale=SCALE, populate=False)
        with pytest.raises(CatalogError):
            db.create_index("ix", "Cities", ("mayor", "name"))
        db.create_index("ix", "Cities", ("mayor", "name"), distinct_keys=100)
        assert db.catalog.find_index("Cities", ("mayor", "name")) is not None


class TestUnpopulated:
    def test_optimize_without_store(self):
        db = Database.sample(scale=SCALE, populate=False)
        result = db.optimize(QUERY_2)
        assert result.plan is not None

    def test_query_without_store_cannot_execute(self):
        db = Database.sample(scale=SCALE, populate=False)
        result = db.query(QUERY_2)
        assert result.execution is None

    def test_execute_plan_without_store_raises(self):
        db = Database.sample(scale=SCALE, populate=False)
        plan = db.optimize(QUERY_2).plan
        with pytest.raises(CatalogError):
            db.execute_plan(plan)


class TestDefaultConfig:
    def test_database_level_config_applies(self):
        db = Database.sample(
            scale=SCALE,
            config=OptimizerConfig().without("collapse-to-index-scan"),
        )
        db.create_index("ix_q2", "Cities", ("mayor", "name"))
        plan = db.optimize(QUERY_2).plan
        assert plan.algorithm != "IndexScan"

    def test_per_query_config_overrides(self, indexed_db):
        default = indexed_db.optimize(QUERY_2).plan
        overridden = indexed_db.optimize(
            QUERY_2, config=OptimizerConfig().without("collapse-to-index-scan")
        ).plan
        assert default.algorithm == "IndexScan"
        assert overridden.algorithm != "IndexScan"
