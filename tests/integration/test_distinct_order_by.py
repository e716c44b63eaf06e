"""DISTINCT + ORDER BY on an explicit hand-built store: exact rows.

The simplifier folds both clauses into one Project operator
(``distinct=True`` plus an ``order_by``); the optimizer then has to keep
the demanded order *through* deduplication.  A five-row store with known
duplicates and a null pins the exact output — values deduplicated, order
obeyed, nulls last in both directions.
"""

import pytest

from repro.api import Database
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema, TypeDef, scalar
from repro.catalog.statistics import AttributeStats, CollectionStats
from repro.errors import SimplificationError
from repro.storage.store import ObjectStore

PEOPLE = [
    ("joe", 3),
    ("ann", 1),
    ("bob", 3),
    ("eve", 2),
    ("sam", 1),
    ("nil", None),
]


@pytest.fixture()
def db() -> Database:
    schema = Schema()
    schema.add_type(
        TypeDef("Person", 120, (scalar("name", "str"), scalar("age"))),
        with_extent=True,
    )
    catalog = Catalog(schema)
    catalog.set_stats(
        "extent(Person)",
        CollectionStats(
            len(PEOPLE),
            attributes={
                "name": AttributeStats(distinct_values=6),
                "age": AttributeStats(distinct_values=4),
            },
        ),
    )
    store = ObjectStore(catalog)
    for name, age in PEOPLE:
        store.insert("Person", {"name": name, "age": age})
    store.seal()
    return Database(catalog, store)


class TestDistinctOrderBy:
    def test_descending_exact_rows(self, db):
        result = db.query(
            "SELECT DISTINCT p.age FROM p IN extent(Person) "
            "ORDER BY p.age DESC"
        )
        assert result.rows == [
            {"p.age": 3},
            {"p.age": 2},
            {"p.age": 1},
            {"p.age": None},
        ]

    def test_ascending_exact_rows(self, db):
        result = db.query(
            "SELECT DISTINCT p.age FROM p IN extent(Person) "
            "ORDER BY p.age ASC"
        )
        assert result.rows == [
            {"p.age": 1},
            {"p.age": 2},
            {"p.age": 3},
            {"p.age": None},
        ]

    def test_order_by_other_column_keeps_first_duplicate(self, db):
        # Dedup on name is a no-op (all distinct); the order column has
        # duplicates, so DISTINCT must not collapse equal sort keys.
        result = db.query(
            "SELECT DISTINCT p.name, p.age FROM p IN extent(Person) "
            "ORDER BY p.age ASC"
        )
        assert [row["p.age"] for row in result.rows] == [1, 1, 2, 3, 3, None]
        assert {row["p.name"] for row in result.rows} == {
            name for name, _ in PEOPLE
        }

    def test_distinct_drops_real_duplicates_before_ordering(self, db):
        result = db.query(
            "SELECT DISTINCT p.age FROM p IN extent(Person) WHERE p.age >= 1 "
            "ORDER BY p.age DESC"
        )
        assert result.rows == [{"p.age": 3}, {"p.age": 2}, {"p.age": 1}]

    def test_descending_on_the_sample_database(self, plain_db):
        names = {
            row["c.name"]
            for row in plain_db.query("SELECT c.name FROM c IN Cities").rows
        }
        result = plain_db.query(
            "SELECT DISTINCT c.name FROM c IN Cities ORDER BY c.name DESC",
            use_cache=False,
        )
        assert [row["c.name"] for row in result.rows] == sorted(
            names, reverse=True
        )

    def test_distinct_requires_a_select_list(self, db):
        with pytest.raises(SimplificationError):
            db.query("SELECT DISTINCT * FROM p IN extent(Person)")
