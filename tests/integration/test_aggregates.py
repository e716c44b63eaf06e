"""Integration tests for GROUP BY / aggregates (extension).

The paper's simplification covers "arbitrary conjunctive Boolean
expressions ... but no aggregates"; this extension adds them through the
framework's normal seams (one operator, one implementation rule, one cost
formula, one iterator) — results verified against hand-rolled navigation.
"""

from collections import Counter, defaultdict

import pytest

from repro.errors import QuerySyntaxError, QueryTypeError
from repro.fuzz.worldgen import AttrSpec, TypeSpec, WorldSpec, build_database
from repro.optimizer.plans import HashGroupByNode


class TestParsing:
    def test_aggregate_items(self, indexed_db):
        query = indexed_db.parse(
            "SELECT d.floor, COUNT(*) AS n, SUM(e.salary) FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d GROUP BY d.floor"
        )
        from repro.lang.ast import AggregateAst

        aggs = [i for i in query.select_items if isinstance(i, AggregateAst)]
        assert [a.func for a in aggs] == ["count", "sum"]
        assert query.group_by and str(query.group_by[0]) == "d.floor"

    def test_star_only_for_count(self, indexed_db):
        with pytest.raises(QuerySyntaxError):
            indexed_db.parse("SELECT SUM(*) FROM e IN Employees")

    def test_case_insensitive_functions(self, indexed_db):
        query = indexed_db.parse("SELECT Count(*), aVg(e.age) FROM e IN Employees")
        from repro.lang.ast import AggregateAst

        assert all(isinstance(i, AggregateAst) for i in query.select_items)


class TestSemantics:
    def test_group_by_matches_navigation(self, indexed_db):
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n, AVG(e.salary) AS avg_sal, "
            "MIN(e.age) AS min_age, MAX(e.age) AS max_age "
            "FROM Employee e IN Employees, Department d IN extent(Department) "
            "WHERE e.department == d GROUP BY d.floor"
        )
        store = indexed_db.store
        expected: dict[int, list] = defaultdict(lambda: [0, 0, None, None])
        for oid in store.collection_oids("Employees"):
            emp = store.peek(oid)
            floor = store.peek(emp["department"])["floor"]
            acc = expected[floor]
            acc[0] += 1
            acc[1] += emp["salary"]
            acc[2] = emp["age"] if acc[2] is None else min(acc[2], emp["age"])
            acc[3] = emp["age"] if acc[3] is None else max(acc[3], emp["age"])
        got = {
            row["d.floor"]: (
                row["n"],
                row["avg_sal"],
                row["min_age"],
                row["max_age"],
            )
            for row in result.rows
        }
        assert got == {
            floor: (c, s / c, lo, hi)
            for floor, (c, s, lo, hi) in expected.items()
        }

    def test_global_count(self, indexed_db):
        store = indexed_db.store
        result = indexed_db.query(
            "SELECT COUNT(*) AS total FROM e IN Employees WHERE e.age >= 40"
        )
        actual = sum(
            1
            for oid in store.collection_oids("Employees")
            if store.peek(oid)["age"] >= 40
        )
        assert result.rows == [{"total": actual}]

    def test_group_by_without_aggregates_is_distinct_keys(self, indexed_db):
        result = indexed_db.query(
            "SELECT c.country.name FROM City c IN Cities GROUP BY c.country.name"
        )
        values = [row["c.country.name"] for row in result.rows]
        assert len(values) == len(set(values))
        store = indexed_db.store
        expected = {
            store.peek(store.peek(oid)["country"])["name"]
            for oid in store.collection_oids("Cities")
        }
        assert set(values) == expected

    def test_group_by_object_identity(self, indexed_db):
        result = indexed_db.query(
            "SELECT d, COUNT(*) AS n FROM Employee e IN Employees, "
            "Department d IN extent(Department) WHERE e.department == d "
            "GROUP BY d"
        )
        total = sum(row["n"] for row in result.rows)
        assert total == indexed_db.store.collection_cardinality("Employees")

    def test_order_by_aggregate_alias(self, indexed_db):
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor ORDER BY n DESC"
        )
        counts = [row["n"] for row in result.rows]
        assert counts == sorted(counts, reverse=True)

    def test_order_by_group_key(self, indexed_db):
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor ORDER BY d.floor"
        )
        floors = [row["d.floor"] for row in result.rows]
        assert floors == sorted(floors)

    def test_where_filters_before_grouping(self, indexed_db):
        all_groups = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d GROUP BY d.floor"
        )
        filtered = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d AND e.age >= 40 "
            "GROUP BY d.floor"
        )
        total_all = sum(r["n"] for r in all_groups.rows)
        total_filtered = sum(r["n"] for r in filtered.rows)
        assert total_filtered < total_all

    def test_count_path_skips_missing(self, indexed_db):
        """COUNT(path) counts non-null values; every employee has a salary
        so it equals COUNT(*)."""
        result = indexed_db.query(
            "SELECT COUNT(e.salary) AS with_salary, COUNT(*) AS all_rows "
            "FROM e IN Employees"
        )
        row = result.rows[0]
        assert row["with_salary"] == row["all_rows"]


#: ``a`` is null for about half of 40 objects and ``b`` takes two values,
#: so the null ``a`` rows meet both values of ``b``.
NULLABLE_WORLD = WorldSpec(
    types=(
        TypeSpec(
            "T0",
            40,
            attrs=(AttrSpec("a", null_prob=0.5, distinct=3), AttrSpec("b", distinct=2)),
        ),
    ),
    data_seed=3,
)


class TestNullGroups:
    """A null grouping key is a group of its own, as in SQL — unlike an
    equi-join key, which null never matches."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_database(NULLABLE_WORLD)

    def _counts(self, db, attrs: tuple[str, ...]) -> Counter:
        store = db.store
        return Counter(
            tuple(store.peek(oid)[attr] for attr in attrs)
            for oid in store.collection_oids("extent(T0)")
        )

    def test_single_key_null_is_one_group(self, world):
        result = world.query(
            "SELECT t.a, COUNT(*) AS n FROM t IN extent(T0) GROUP BY t.a"
        )
        got = {row["t.a"]: row["n"] for row in result.rows}
        assert len(got) == len(result.rows)
        assert got == {a: n for (a,), n in self._counts(world, ("a",)).items()}
        assert got[None] > 1

    def test_two_key_nulls_group_apart_by_the_other_key(self, world):
        result = world.query(
            "SELECT t.a, t.b, COUNT(*) AS n FROM t IN extent(T0) GROUP BY t.a, t.b"
        )
        got = {(row["t.a"], row["t.b"]): row["n"] for row in result.rows}
        assert len(got) == len(result.rows)
        assert got == dict(self._counts(world, ("a", "b")))
        assert len([key for key in got if key[0] is None]) == 2


class TestValidation:
    def test_plain_item_must_be_grouped(self, indexed_db):
        with pytest.raises(QueryTypeError):
            indexed_db.query(
                "SELECT e.name, COUNT(*) FROM e IN Employees GROUP BY e.age"
            )

    def test_sum_of_reference_rejected(self, indexed_db):
        with pytest.raises(QueryTypeError):
            indexed_db.query(
                "SELECT SUM(e.department) FROM e IN Employees"
            )

    def test_order_by_unknown_column_rejected(self, indexed_db):
        with pytest.raises(QueryTypeError):
            indexed_db.query(
                "SELECT d.floor, COUNT(*) FROM e IN Employees, "
                "d IN extent(Department) WHERE e.department == d "
                "GROUP BY d.floor ORDER BY e.name"
            )


class TestPlans:
    def test_hash_group_by_node(self, indexed_db):
        result = indexed_db.optimize(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d GROUP BY d.floor"
        )
        assert isinstance(result.plan, HashGroupByNode)
        assert result.plan.rows <= 20  # ~distinct floors estimate

    def test_group_cardinality_uses_stats(self, paper_catalog):
        """d.floor has 10 distinct values in the catalog stats."""
        from repro.lang.parser import parse_query
        from repro.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        sq = simplify_full(
            parse_query(
                "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
                "d IN extent(Department) WHERE e.department == d "
                "GROUP BY d.floor"
            ),
            paper_catalog,
        )
        result = Optimizer(paper_catalog).optimize(sq.tree)
        assert result.plan.rows == pytest.approx(10.0)

    def test_results_config_independent(self, indexed_db):
        from repro.optimizer import OptimizerConfig
        from repro.optimizer import config as C

        sql = (
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d GROUP BY d.floor"
        )
        reference = {
            (r["d.floor"], r["n"]) for r in indexed_db.query(sql).rows
        }
        for config in (
            OptimizerConfig().without(C.JOIN_TO_MAT),
            OptimizerConfig().without(C.HYBRID_HASH_JOIN),
            OptimizerConfig().without(C.POINTER_JOIN, C.ASSEMBLY),
        ):
            rows = indexed_db.query(sql, config=config).rows
            assert {(r["d.floor"], r["n"]) for r in rows} == reference


class TestHaving:
    def test_having_filters_groups(self, indexed_db):
        from collections import Counter

        store = indexed_db.store
        counts = Counter()
        for oid in store.collection_oids("Employees"):
            floor = store.peek(store.peek(oid)["department"])["floor"]
            counts[floor] += 1
        threshold = sorted(counts.values())[len(counts) // 2]
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            f"GROUP BY d.floor HAVING n >= {threshold}"
        )
        expected = {(f, c) for f, c in counts.items() if c >= threshold}
        assert {(r["d.floor"], r["n"]) for r in result.rows} == expected

    def test_having_on_group_key(self, indexed_db):
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor HAVING d.floor <= 3"
        )
        assert result.rows
        assert all(row["d.floor"] <= 3 for row in result.rows)

    def test_having_with_constant_on_left(self, indexed_db):
        a = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor HAVING 3 >= d.floor"
        )
        b = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor HAVING d.floor <= 3"
        )
        key = lambda rows: sorted((r["d.floor"], r["n"]) for r in rows)
        assert key(a.rows) == key(b.rows)

    def test_having_and_order_compose(self, indexed_db):
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            "GROUP BY d.floor HAVING n >= 1 ORDER BY n DESC"
        )
        counts = [row["n"] for row in result.rows]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("clause", ["n != null", "n < 'x'", "d.floor == null"])
    def test_having_follows_the_one_comparison_rule(self, indexed_db, clause):
        """A comparison over null, or between values that do not compare,
        is false — in HAVING exactly as in WHERE (``n != null`` used to
        keep every group: HAVING had its own copy of the rule)."""
        result = indexed_db.query(
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d "
            f"GROUP BY d.floor HAVING {clause}"
        )
        assert result.rows == []

    def test_having_unknown_column_rejected(self, indexed_db):
        from repro.errors import QueryTypeError

        with pytest.raises(QueryTypeError):
            indexed_db.query(
                "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
                "d IN extent(Department) WHERE e.department == d "
                "GROUP BY d.floor HAVING zzz > 1"
            )

    def test_having_without_group_by_rejected(self, indexed_db):
        from repro.errors import QueryTypeError

        with pytest.raises(QueryTypeError):
            indexed_db.query(
                "SELECT c.name FROM c IN Cities HAVING c.name == 'x'"
            )

    def test_having_reduces_cardinality_estimate(self, paper_catalog):
        base = (
            "SELECT d.floor, COUNT(*) AS n FROM e IN Employees, "
            "d IN extent(Department) WHERE e.department == d GROUP BY d.floor"
        )
        from repro.lang.parser import parse_query
        from repro.optimizer import Optimizer
        from repro.simplify.simplifier import simplify_full

        plain = Optimizer(paper_catalog).optimize(
            simplify_full(parse_query(base), paper_catalog).tree
        )
        filtered = Optimizer(paper_catalog).optimize(
            simplify_full(
                parse_query(base + " HAVING n >= 100"), paper_catalog
            ).tree
        )
        assert filtered.plan.rows < plain.plan.rows
