"""NULL (missing-attribute) semantics, identical across every operator.

The engine's contract is SQL-style: a comparison over None is false, so
nulls never satisfy a predicate, never equi-join, and never eliminate a
row from an anti-join — and the sort enforcer orders them *last* in both
directions instead of crashing on ``None < int``.  These tests pin each
operator's behaviour directly, independent of the differential fuzzer
that originally found the divergences.
"""

import pytest

from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
)
from repro.api import Database
from repro.catalog.catalog import Catalog, IndexDef, extent_name
from repro.catalog.schema import Schema, TypeDef, scalar
from repro.engine import iterators as it
from repro.engine.tuples import lower, ordering_key
from repro.errors import NoPlanFoundError
from repro.fuzz.worldgen import AttrSpec, TypeSpec, WorldSpec, build_database
from repro.optimizer.config import FILE_SCAN
from repro.optimizer.optimizer import Optimizer
from repro.simplify.simplifier import Simplifier
from repro.storage.store import ObjectStore

PERSONS = extent_name("Person")
PETS = extent_name("Pet")


def _catalog() -> Catalog:
    schema = Schema()
    schema.add_type(
        TypeDef("Person", 400, (scalar("name", "str"), scalar("age"))),
        with_extent=True,
    )
    schema.add_type(
        TypeDef("Pet", 400, (scalar("name", "str"),)),
        with_extent=True,
    )
    return Catalog(schema)


@pytest.fixture()
def store() -> ObjectStore:
    store = ObjectStore(_catalog())
    for name, age in [
        ("joe", 50),
        (None, None),
        ("ann", 30),
        ("joe", None),
    ]:
        store.insert("Person", {"name": name, "age": age})
    for name in ["joe", None, "rex"]:
        store.insert("Pet", {"name": name})
    store.seal()
    return store


class TestComparisons:
    def test_null_compares_false_under_every_op(self):
        row = {"p": None}
        for op in CompOp:
            comparison = Comparison(Const(None), op, Const(1))
            assert lower(comparison)(row) is False
            flipped = Comparison(Const(1), op, Const(None))
            assert lower(flipped)(row) is False

    def test_null_does_not_equal_null(self):
        comparison = Comparison(Const(None), CompOp.EQ, Const(None))
        assert lower(comparison)({}) is False

    def test_cross_type_comparison_is_false_not_a_crash(self):
        comparison = Comparison(Const("joe"), CompOp.LT, Const(7))
        assert lower(comparison)({}) is False


class TestSortEnforcer:
    def test_nulls_sort_last_ascending(self, store):
        rows = it.file_scan(store, PERSONS, "p")
        out = list(it.sort_rows(rows, "p", "age", True))
        assert [r["p"].field("age") for r in out] == [30, 50, None, None]

    def test_nulls_sort_last_descending_too(self, store):
        rows = it.file_scan(store, PERSONS, "p")
        out = list(it.sort_rows(rows, "p", "age", False))
        assert [r["p"].field("age") for r in out] == [50, 30, None, None]

    def test_tie_vars_make_the_order_total(self, store):
        people = list(it.file_scan(store, PERSONS, "p"))
        pets = list(it.file_scan(store, PETS, "q"))
        # Every row shares the same p: the key ties completely without
        # tie_vars, but the q component makes each key distinct.
        rows = [{"p": people[0]["p"], "q": pet["q"]} for pet in pets]
        key = ordering_key("p", "age", True, tie_vars=("q",))
        keys = [key(r) for r in rows]
        assert len(set(keys)) == len(keys)
        forward = sorted(rows, key=key)
        backward = sorted(reversed(rows), key=key)
        assert [r["q"].oid for r in forward] == [r["q"].oid for r in backward]


class TestIndexScan:
    def test_ne_probe_excludes_the_null_bucket(self, store):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("name",), 3))
        rows = list(
            it.index_scan(
                store,
                index,
                "p",
                Comparison(FieldRef("p", "name"), CompOp.NE, Const("joe")),
                Conjunction.true(),
            )
        )
        # Only "ann": the two "joe"s are equal, the null name is unknown.
        assert [r["p"].field("name") for r in rows] == ["ann"]

    def test_eq_probe_never_returns_null_keys(self, store):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("name",), 3))
        rows = list(
            it.index_scan(
                store,
                index,
                "p",
                Comparison(FieldRef("p", "name"), CompOp.EQ, Const("joe")),
                Conjunction.true(),
            )
        )
        assert all(r["p"].field("name") == "joe" for r in rows)
        assert len(rows) == 2


    @pytest.mark.parametrize("op", [CompOp.EQ, CompOp.LT, CompOp.GE, CompOp.NE])
    def test_null_key_probes_nothing(self, store, op):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("name",), 3))
        for comparison in (
            Comparison(FieldRef("p", "name"), op, Const(None)),
            Comparison(Const(None), op, FieldRef("p", "name")),
        ):
            rows = it.index_scan(store, index, "p", comparison, Conjunction.true())
            assert list(rows) == []


#: A world where ``a`` is null for 17 of 40 objects, and what each WHERE
#: keeps by the engine's rule (a comparison over null is false).
WORLD = WorldSpec(
    types=(TypeSpec("T0", 40, attrs=(AttrSpec("a", null_prob=0.5, distinct=5),)),),
    data_seed=3,
)
ENGINE_ROWS = [
    ("t.a == null", 0),
    ("t.a < null", 0),
    ("t.a > null", 0),
    ("null == null", 0),
    ("t.a == t.a", 23),
    ("t.a != null", 0),
    ("t.a >= 0", 23),
    # A string bound does not order against the integer keys: no row,
    # whether filtered or index-probed.
    ('t.a < "x"', 0),
    ('t.a <= "x"', 0),
    ('t.a > "x"', 0),
    ('t.a >= "x"', 0),
]


def _text(where: str) -> str:
    return f"SELECT * FROM t IN extent(T0) WHERE {where}"


def _rules_off_rows(db: Database, where: str, config=None) -> list:
    """Rows of the plan the optimizer picks with the argument rules off."""
    simplified = Simplifier(db.catalog, argument_rules=()).simplify_full(
        db.parse(_text(where))
    )
    plan = Optimizer(db.catalog, config or db.config).optimize(
        simplified.tree, result_vars=simplified.result_vars
    ).plan
    return db.execute_plan(plan, result_vars=simplified.result_vars).rows


@pytest.fixture(scope="module")
def world_dbs() -> dict[bool, Database]:
    """The world without (False) and with (True) an index on ``a``."""
    dbs = {False: build_database(WORLD), True: build_database(WORLD)}
    dbs[True].create_index("ix_a", "extent(T0)", ("a",))
    return dbs


class TestQueriesKeepTheEngineRows:
    """The argument rules, the cost model and the index probe decide a
    comparison the way the engine does: every WHERE keeps the rows the
    engine's rule keeps, with the rules on or off, scanned or probed."""

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("where,rows", ENGINE_ROWS)
    def test_query(self, world_dbs, where, rows, indexed):
        db = world_dbs[indexed]
        assert len(db.query(_text(where), use_cache=False).rows) == rows
        assert len(db.query(_text(where)).rows) == rows
        assert len(_rules_off_rows(db, where)) == rows

    @pytest.mark.parametrize(
        "where,rows", [entry for entry in ENGINE_ROWS if "t.a " in entry[0]]
    )
    def test_rules_off_index_probe(self, world_dbs, where, rows):
        db = world_dbs[True]
        config = db.config.without(FILE_SCAN)
        if where == "t.a == t.a":
            with pytest.raises(NoPlanFoundError):  # no index serves it
                _rules_off_rows(db, where, config)
            return
        assert len(_rules_off_rows(db, where, config)) == rows

    def test_sample_null_population(self):
        db = Database.sample(0.05)
        text = "SELECT * FROM c IN Cities WHERE c.population == null"
        assert db.query(text).rows == []


class TestHashJoin:
    def _join(self, store):
        people = list(it.file_scan(store, PERSONS, "p"))
        pets = list(it.file_scan(store, PETS, "q"))
        pred = Conjunction.of(
            Comparison(
                FieldRef("p", "name"), CompOp.EQ, FieldRef("q", "name")
            )
        )
        return people, pets, pred

    def test_null_keys_never_match(self, store):
        people, pets, pred = self._join(store)
        out = list(it.hash_join(people, pets, pred))
        # joe(50) and joe(None) each match the pet "joe"; the null names
        # on both sides never pair up, even though dict equality would
        # happily have said None == None.
        assert sorted(r["p"].field("age") or 0 for r in out) == [0, 50]
        assert all(r["q"].field("name") == "joe" for r in out)

    def test_matches_nested_loops_exactly(self, store):
        people, pets, pred = self._join(store)
        hj = {
            (r["p"].oid, r["q"].oid)
            for r in it.hash_join(people, pets, pred)
        }
        nl = {
            (r["p"].oid, r["q"].oid)
            for r in it.nested_loops_join(people, pets, pred)
        }
        assert hj == nl


class TestAntiJoin:
    def test_null_left_key_survives_and_null_right_rows_do_not_kill(
        self, store
    ):
        people = list(it.file_scan(store, PERSONS, "p"))
        pets = list(it.file_scan(store, PETS, "q"))
        pred = Conjunction.of(
            Comparison(
                FieldRef("p", "name"), CompOp.EQ, FieldRef("q", "name")
            )
        )
        out = list(it.anti_join(people, pets, pred))
        # Survivors: ann (no pet named ann) and the null-named person
        # (NOT EXISTS over an always-unknown predicate is true).  Both
        # joes are eliminated by the pet "joe"; the null-named pet
        # eliminates nobody.
        names = sorted(
            (r["p"].field("name") or "<null>") for r in out
        )
        assert names == ["<null>", "ann"]
