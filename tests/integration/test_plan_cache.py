"""Integration tests for the plan cache, prepared queries, and
catalog-version invalidation.

The contract under test: repeated query shapes skip the optimizer but
NEVER return stale plans — any catalog change that could alter the
optimal plan (index DDL, statistics refresh) must produce a miss and a
re-optimization, while results always match an uncached run.
"""

import pytest

from repro.api import Database
from repro.cache.plan_cache import PlanCache
from repro.errors import ParameterBindingError, SimplificationError
from repro.optimizer.plans import IndexScanNode

from tests.conftest import SCALE

Q_MAYOR = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{name}"'
Q_PREPARED = "SELECT * FROM City c IN Cities WHERE c.mayor.name == $who"
Q_LOCATION = (  # the paper's Query 1
    "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
    "FROM Employee e IN Employees "
    'WHERE e.department().plant().location() == "{location}"'
)


def uses_index(plan) -> bool:
    return any(isinstance(node, IndexScanNode) for node in plan.walk())


class TestTransparentCaching:
    def test_second_query_hits(self, fresh_db):
        first = fresh_db.query(Q_MAYOR.format(name="Joe"))
        second = fresh_db.query(Q_MAYOR.format(name="Fred"))
        assert first.cache.outcome == "miss"
        assert second.cache.outcome == "hit"
        assert fresh_db.plan_cache.stats.hits == 1

    def test_hundred_constant_variants_optimize_once(self, fresh_db):
        """Query 1 run 100 times with its location constant varied: one
        miss, 99 hits, nothing evicted."""
        locations = ("Dallas", "Austin", "Tulsa", "Reno", "Fresno")
        for i in range(100):
            fresh_db.query(Q_LOCATION.format(location=locations[i % 5]))
        stats = fresh_db.plan_cache.stats
        assert (stats.misses, stats.hits, stats.evictions) == (1, 99, 0)

    def test_rebound_plan_gives_correct_rows(self, fresh_db):
        fresh_db.query(Q_MAYOR.format(name="Joe"))
        cached = fresh_db.query(Q_MAYOR.format(name="Fred"))
        uncached = fresh_db.query(Q_MAYOR.format(name="Fred"), use_cache=False)
        assert cached.rows == uncached.rows

    def test_having_update_and_delete_constants_are_slots_too(self, fresh_db):
        """Every consumer of a lifted constant resolves it from the
        statement: HAVING, and the target query of UPDATE and DELETE."""
        having = (
            "SELECT e.department.floor, COUNT(*) AS n FROM Employee e IN "
            "Employees GROUP BY e.department.floor HAVING n >= {}"
        )
        counts = [row["n"] for row in fresh_db.query(having.format(0)).rows]
        cut = sorted(counts)[len(counts) // 2] + 1
        hit = fresh_db.query(having.format(cut))
        assert hit.cache.outcome == "hit" and f"n >= {cut}" in hit.explain()
        assert sorted(r["n"] for r in hit.rows) == sorted(
            n for n in counts if n >= cut
        )
        assert 0 < len(hit.rows) < len(counts)

        one, two = (
            row["c.name"]
            for row in fresh_db.query("SELECT c.name FROM City c IN Cities").rows[:2]
        )
        update = "UPDATE c IN Cities SET c.population = {} WHERE c.name == '{}'"
        assert fresh_db.query(update.format(11, one)).affected == 1
        hits = fresh_db.plan_cache.stats.hits
        assert fresh_db.query(update.format(22, two)).affected == 1
        assert fresh_db.plan_cache.stats.hits == hits + 1  # the target query
        by_population = "SELECT c.name FROM City c IN Cities WHERE c.population == {}"
        assert [r["c.name"] for r in fresh_db.query(by_population.format(11)).rows] == [one]
        assert [r["c.name"] for r in fresh_db.query(by_population.format(22)).rows] == [two]
        delete = "DELETE c IN Cities WHERE c.name == '{}'"
        assert fresh_db.query(delete.format(one)).affected == 1
        assert fresh_db.query(delete.format(two)).affected == 1
        assert fresh_db.query(by_population.format(22)).rows == []

    def test_opt_out_flag(self, fresh_db):
        fresh_db.query(Q_MAYOR.format(name="Joe"), use_cache=False)
        assert len(fresh_db.plan_cache) == 0
        result = fresh_db.query(Q_MAYOR.format(name="Joe"), use_cache=False)
        assert result.cache.outcome == "bypass"

    def test_database_level_opt_out(self, fresh_db):
        fresh_db.cache_plans = False
        fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert len(fresh_db.plan_cache) == 0

    def test_hit_reports_saved_time(self, fresh_db):
        fresh_db.query(Q_MAYOR.format(name="Joe"))
        hit = fresh_db.query(Q_MAYOR.format(name="Fred"))
        assert hit.cache.saved_seconds > 0
        assert fresh_db.plan_cache.stats.optimization_seconds_saved > 0

    def test_different_config_is_a_different_entry(self, fresh_db):
        from repro.optimizer.config import POINTER_JOIN

        fresh_db.query(Q_MAYOR.format(name="Joe"))
        other = fresh_db.query(
            Q_MAYOR.format(name="Joe"),
            config=fresh_db.config.without(POINTER_JOIN),
        )
        assert other.cache.outcome == "miss"

    def test_lru_eviction(self):
        db = Database.sample(scale=SCALE, populate=False)
        db.plan_cache = PlanCache(capacity=2)
        db.query('SELECT * FROM City c IN Cities WHERE c.mayor.name == "a"')
        db.query("SELECT * FROM Task t IN Tasks WHERE t.time == 1")
        db.query("SELECT e.name FROM Employee e IN Employees")
        assert len(db.plan_cache) == 2
        assert db.plan_cache.stats.evictions == 1

    def test_eviction_counters_under_churn(self):
        """Distinct query shapes churning a tiny cache: every insert past
        capacity evicts exactly one entry, stores count every insert, and
        occupancy never exceeds capacity."""
        db = Database.sample(scale=SCALE, populate=False)
        db.plan_cache = PlanCache(capacity=3)
        shapes = [
            "SELECT e.name FROM Employee e IN Employees WHERE e.age == {k}",
            "SELECT e.name FROM Employee e IN Employees WHERE e.age < {k}",
            "SELECT e.name FROM Employee e IN Employees WHERE e.age > {k}",
            "SELECT e.name FROM Employee e IN Employees WHERE e.age <= {k}",
            "SELECT e.name FROM Employee e IN Employees WHERE e.age >= {k}",
            "SELECT e.name FROM Employee e IN Employees WHERE e.age != {k}",
        ]
        for shape in shapes:
            db.query(shape.format(k=1), execute=False)
            assert len(db.plan_cache) <= 3
        stats = db.plan_cache.stats
        assert stats.stores == len(shapes)
        assert stats.evictions == len(shapes) - 3
        assert len(db.plan_cache) == 3
        # Churn did not corrupt LRU order: the three newest shapes remain
        # and still hit (constants differ, so these are re-bind hits).
        hits_before = stats.hits
        for shape in shapes[-3:]:
            result = db.query(shape.format(k=2), execute=False)
            assert result.cache.outcome == "hit"
        assert stats.hits == hits_before + 3
        assert stats.evictions == len(shapes) - 3  # hits never evict


class TestInvalidation:
    def test_create_index_invalidates_and_replans(self, fresh_db):
        before = fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert not uses_index(before.plan)
        fresh_db.create_index("ix_q", "Cities", ("mayor", "name"))
        after = fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert after.cache.outcome == "miss"
        assert fresh_db.plan_cache.stats.invalidations == 1
        assert uses_index(after.plan)
        assert after.rows == before.rows

    def test_drop_index_invalidates(self, fresh_db):
        fresh_db.create_index("ix_q", "Cities", ("mayor", "name"))
        with_index = fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert uses_index(with_index.plan)
        fresh_db.drop_index("ix_q")
        after = fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert after.cache.outcome == "miss"
        assert not uses_index(after.plan)
        assert after.rows == with_index.rows

    def test_analyze_invalidates(self, fresh_db):
        fresh_db.query("SELECT * FROM Task t IN Tasks WHERE t.time == 100")
        fresh_db.analyze("Tasks")
        again = fresh_db.query("SELECT * FROM Task t IN Tasks WHERE t.time == 100")
        assert again.cache.outcome == "miss"
        assert fresh_db.plan_cache.stats.invalidations == 1

    def test_collect_type_statistics_invalidates(self, fresh_db):
        fresh_db.query(Q_MAYOR.format(name="Joe"))
        fresh_db.collect_type_statistics()
        again = fresh_db.query(Q_MAYOR.format(name="Joe"))
        assert again.cache.outcome == "miss"


class TestPreparedQueries:
    def test_prepare_execute_reuses_plan(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        assert prepared.param_names == ("who",)
        first = prepared.execute(who="Joe")
        second = prepared.execute(who="Fred")
        assert first.cache.outcome == "miss"
        assert second.cache.outcome == "hit"
        uncached = fresh_db.query(Q_MAYOR.format(name="Fred"), use_cache=False)
        assert second.rows == uncached.rows

    def test_missing_parameter_raises(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        with pytest.raises(ParameterBindingError, match=r"missing \$who"):
            prepared.execute()

    def test_extra_parameter_raises(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        with pytest.raises(ParameterBindingError, match=r"unexpected \$whom"):
            prepared.execute(who="Joe", whom="Fred")

    def test_ill_typed_parameter_raises(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        with pytest.raises(ParameterBindingError, match="unsupported type"):
            prepared.execute(who=True)
        with pytest.raises(ParameterBindingError, match="unsupported type"):
            prepared.execute(who=["Joe"])

    def test_query_rejects_unbound_parameters(self, fresh_db):
        with pytest.raises(ParameterBindingError, match=r"\$who"):
            fresh_db.query(Q_PREPARED)

    def test_optimize_rejects_unbound_parameters(self, fresh_db):
        with pytest.raises(SimplificationError, match=r"\$who"):
            fresh_db.optimize(Q_PREPARED)

    def test_uncacheable_prepared_still_correct(self, fresh_db):
        # Two constant bounds on one term defeat safe reuse; every
        # execution must re-optimize, with correct results.
        prepared = fresh_db.prepare(
            "SELECT * FROM Task t IN Tasks "
            "WHERE t.time == $when AND t.time < 10000"
        )
        assert not prepared.cacheable
        result = prepared.execute(when=100)
        assert result.cache.outcome == "uncacheable"
        uncached = fresh_db.query(
            "SELECT * FROM Task t IN Tasks WHERE t.time == 100 "
            "AND t.time < 10000",
            use_cache=False,
        )
        assert result.rows == uncached.rows
        assert len(fresh_db.plan_cache) == 0

    def test_prepared_range_is_cached_under_its_guard(self, fresh_db):
        """``lo < hi`` shares one plan; a binding the argument rules would
        merge by value is planned as its literal text, and not cached."""
        fresh_db.create_index("ix_pop", "Cities", ("population",))
        shape = (
            "SELECT * FROM City c IN Cities "
            "WHERE c.population >= {} AND c.population <= {}"
        )
        prepared = fresh_db.prepare(shape.format("$lo", "$hi"))
        assert prepared.cacheable
        bindings = {
            (1000, 500000): "miss", (2000, 600000): "hit",
            (900000, 3000): "uncacheable",  # a contradiction
            (16613, 16613): "uncacheable",  # an equality, by index
            ("a", 5): "uncacheable",  # unorderable kinds
            (3000, 900000): "hit",
        }
        for (lo, hi), outcome in bindings.items():
            result = prepared.execute(lo=lo, hi=hi)
            literal = fresh_db.query(
                shape.format(repr(lo), repr(hi)), use_cache=False
            )
            assert result.cache.outcome == outcome
            assert result.rows == literal.rows
            if outcome == "uncacheable":
                assert (result.explain().splitlines()[1:]
                        == literal.explain().splitlines()[1:])
        assert len(fresh_db.plan_cache) == 1

    def test_explain_binds_without_executing(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        text = prepared.explain(who="Joe")
        assert "Joe" in text


class TestCatalogVersion:
    def test_version_moves_on_ddl_and_stats(self, fresh_db):
        catalog = fresh_db.catalog
        v0 = catalog.version
        fresh_db.create_index("ix_q", "Cities", ("mayor", "name"))
        v1 = catalog.version
        assert v1 > v0
        fresh_db.drop_index("ix_q")
        assert catalog.version > v1
        s0 = catalog.stats_version
        fresh_db.analyze("Cities", attributes=("population",))
        assert catalog.stats_version > s0

    def test_index_ddl_leaves_stats_version(self, fresh_db):
        s0 = fresh_db.catalog.stats_version
        fresh_db.create_index("ix_q", "Cities", ("mayor", "name"))
        assert fresh_db.catalog.stats_version == s0
