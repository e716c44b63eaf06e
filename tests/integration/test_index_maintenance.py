"""Indexes maintained at commit, seen through ``Database.query``.

Three things the per-generation index cache got wrong or paid for, pinned
end to end: a write to an object a path index *references* must move the
roots that reach it (auto-commit and inside a transaction, with snapshot
consistency for sessions that began earlier); a write must not cost the
next read an index build (counted, at two scales — "flat in extent size"
made exact); and a reader racing a writer must get, from the index, the
answer a scan of its own snapshot gives.
"""

import random
import sys
import threading

import pytest

from repro.api import Database
from repro.fuzz.dml import IndexChecks
from repro.optimizer.config import OptimizerConfig
from repro.storage.index import IndexRuntime

NO_INDEX = OptimizerConfig().without("collapse-to-index-scan")
BY_MAYOR = 'SELECT c.name FROM City c IN Cities WHERE c.mayor.name == "{}"'
BY_NAME = 'SELECT c.name, c.population FROM City c IN Cities WHERE c.name == "{}"'
RENAME_PERSON = 'UPDATE p IN extent(Person) SET p.name = "{}" WHERE p.name == "{}"'


def names(db, text, **kwargs):
    return sorted(row["c.name"] for row in db.query(text, **kwargs).rows)


def both_ways(db, text, **kwargs):
    """The answer through the index, checked against the index-free plan."""
    indexed = names(db, text, **kwargs)
    assert indexed == names(db, text, config=NO_INDEX, **kwargs), text
    return indexed


def assert_indexes_equal_fresh_builds(db):
    checks = IndexChecks()
    checks.run(db, "check")
    assert checks.performed == len(db.catalog.indexes())
    assert not checks.problems, "\n".join(checks.problems)


@pytest.fixture()
def cities_db():
    db = Database.sample(scale=0.05, seed=1)
    db.create_index("ix_m", "Cities", ("mayor", "name"))
    mayor = db.query("SELECT c.mayor.name FROM City c IN Cities").rows[0][
        "c.mayor.name"
    ]
    return db, mayor


class TestWriteToAReferencedObject:
    def test_renaming_a_mayor_moves_the_cities_autocommit(self, cities_db):
        db, mayor = cities_db
        before = both_ways(db, BY_MAYOR.format(mayor))
        assert len(before) == 6
        assert "Index Scan" in db.query(BY_MAYOR.format(mayor)).explain()
        db.query(RENAME_PERSON.format("ZZTOP", mayor))
        assert both_ways(db, BY_MAYOR.format(mayor)) == []
        assert both_ways(db, BY_MAYOR.format("ZZTOP")) == before
        assert_indexes_equal_fresh_builds(db)

    def test_transaction_sees_its_own_write_and_rollback_restores(self, cities_db):
        db, mayor = cities_db
        before = both_ways(db, BY_MAYOR.format(mayor))
        txn = db.begin()
        db.query(RENAME_PERSON.format("ZZTOP", mayor), transaction=txn)
        assert both_ways(db, BY_MAYOR.format(mayor), transaction=txn) == []
        assert both_ways(db, BY_MAYOR.format("ZZTOP"), transaction=txn) == before
        # Nobody else sees it.
        assert both_ways(db, BY_MAYOR.format(mayor)) == before
        txn.rollback()
        assert both_ways(db, BY_MAYOR.format(mayor)) == before
        assert both_ways(db, BY_MAYOR.format("ZZTOP")) == []

    def test_earlier_session_keeps_its_answers_after_the_commit(self, cities_db):
        db, mayor = cities_db
        before = both_ways(db, BY_MAYOR.format(mayor))
        earlier = db.begin()
        db.query(RENAME_PERSON.format("ZZTOP", mayor))
        assert both_ways(db, BY_MAYOR.format("ZZTOP")) == before
        assert both_ways(db, BY_MAYOR.format(mayor), transaction=earlier) == before
        assert both_ways(db, BY_MAYOR.format("ZZTOP"), transaction=earlier) == []
        earlier.rollback()

    def test_two_link_path_follows_the_middle_reference_and_the_end(self):
        db = Database.sample(scale=0.05, seed=1)
        db.create_index(
            "ix_loc", "Employees", ("department", "plant", "location")
        )
        text = (
            "SELECT e.name FROM Employee e IN Employees "
            'WHERE e.department.plant.location == "{}"'
        )

        store = db.store

        def employees(location):
            """Through the index and through a scan plan; both must be
            what navigating from every employee finds."""
            view = store.view()
            navigated = sorted(
                data["name"]
                for oid in view.collection_oids("Employees")
                if (data := view.peek(oid))
                and view.peek(view.peek(data["department"])["plant"])["location"]
                == location
            )
            for config in (None, NO_INDEX):
                rows = db.query(text.format(location), config=config).rows
                assert sorted(row["e.name"] for row in rows) == navigated
            return navigated

        employee = store.collection_oids("Employees")[0]
        department = store.peek(employee)["department"]
        plant = store.peek(department)["plant"]
        here = store.peek(plant)["location"]
        other_plant = next(
            oid
            for oid in store.segment("Plant").oids
            if store.peek(oid)["location"] != here
        )
        elsewhere = store.peek(other_plant)["location"]
        assert "Index Scan" in db.query(text.format(here)).explain()
        staff = sum(
            store.peek(oid)["department"] == department
            for oid in store.collection_oids("Employees")
        )
        at_here, at_elsewhere = employees(here), employees(elsewhere)

        # The middle object's reference: the department moves plants.
        with db.begin() as txn:
            txn.update(department, {**store.peek(department), "plant": other_plant})
        assert len(employees(here)) == len(at_here) - staff
        assert len(employees(elsewhere)) == len(at_elsewhere) + staff
        assert_indexes_equal_fresh_builds(db)

        # The terminal attribute: the plant they moved to is renamed.
        with db.begin() as txn:
            txn.update(
                other_plant,
                {**store.view().peek(other_plant), "location": "Atlantis"},
            )
        assert len(employees("Atlantis")) >= staff
        assert len(employees(elsewhere)) < len(at_elsewhere) + staff
        assert_indexes_equal_fresh_builds(db)


class TestOneBuildPerIndex:
    def test_create_index_keeps_the_build_it_measured(self, monkeypatch):
        db = Database.sample(scale=0.05, seed=1)
        builds = count_builds(monkeypatch)
        definition = db.create_index("ix_c", "Cities", ("name",))
        assert builds == ["ix_c"]
        index = db.store.indexes.built("ix_c")
        assert index is not None and index.definition is definition
        assert definition.distinct_keys == index.distinct_keys()
        db.query(BY_NAME.format("city0"))
        assert builds == ["ix_c"]
        db.drop_index("ix_c")
        assert db.store.indexes.built("ix_c") is None

    def test_explicit_distinct_keys_builds_on_first_use(self, monkeypatch):
        db = Database.sample(scale=0.05, seed=1)
        builds = count_builds(monkeypatch)
        db.create_index("ix_c", "Cities", ("name",), distinct_keys=500)
        assert builds == []
        db.query(BY_NAME.format("city0"))
        db.query(BY_NAME.format("city1"))
        assert builds == ["ix_c"]

    @pytest.mark.parametrize("scale", [0.05, 0.5])
    def test_no_statement_builds_an_index_after_warm_up(self, monkeypatch, scale):
        db = Database.sample(scale=scale, seed=1)
        db.create_index("ix_c", "Cities", ("name",))
        db.create_index("ix_m", "Cities", ("mayor", "name"))
        rows = db.query("SELECT c.name, c.mayor.name FROM City c IN Cities").rows
        cities = [row["c.name"] for row in rows]
        mayors = sorted({row["c.mayor.name"] for row in rows})
        rng = random.Random(5)
        # Warm-up: one statement of each shape, so every plan is cached.
        assert len(db.query(BY_NAME.format(cities[0])).rows) == 1
        assert db.query(BY_MAYOR.format(mayors[0])).rows
        builds = count_builds(monkeypatch)

        for _ in range(200):  # a non-key attribute, then a point read
            name = rng.choice(cities)
            value = rng.randrange(1_000, 1_000_000)
            db.query(
                f'UPDATE c IN Cities SET c.population = {value} '
                f'WHERE c.name == "{name}"'
            )
            assert db.query(BY_NAME.format(name)).rows == [
                {"c.name": name, "c.population": value}
            ]
            assert db.query(BY_MAYOR.format(rng.choice(mayors))).rows
        for round_ in range(50):  # the key itself: read old and new key
            old = cities[round_]
            new = f"renamed{round_}"
            db.query(f'UPDATE c IN Cities SET c.name = "{new}" WHERE c.name == "{old}"')
            assert db.query(BY_NAME.format(old)).rows == []
            assert len(db.query(BY_NAME.format(new)).rows) == 1
            cities[round_] = new
        for round_ in range(50):  # insert, read, delete, read
            name = f"fresh{round_}"
            db.query(
                f"INSERT INTO Cities (name, population) VALUES ('{name}', {round_})"
            )
            assert len(db.query(BY_NAME.format(name)).rows) == 1
            db.query(f'DELETE c IN Cities WHERE c.name == "{name}"')
            assert db.query(BY_NAME.format(name)).rows == []
        for _ in range(20):  # a transaction: two updates, a read, commit
            first, second = rng.sample(cities, 2)
            with db.begin() as txn:
                for name, value in ((first, 1), (second, 2)):
                    db.query(
                        f'UPDATE c IN Cities SET c.population = {value} '
                        f'WHERE c.name == "{name}"',
                        transaction=txn,
                    )
                assert db.query(BY_NAME.format(first), transaction=txn).rows == [
                    {"c.name": first, "c.population": 1}
                ]
        assert builds == []
        # The count is only worth something if the indexes stayed right.
        monkeypatch.undo()
        assert_indexes_equal_fresh_builds(db)


def count_builds(monkeypatch) -> list[str]:
    """Install a wrapper that records every ``IndexRuntime.build`` call."""
    builds: list[str] = []
    original = IndexRuntime.build.__func__

    def counted(cls, view, definition):
        builds.append(definition.name)
        return original(cls, view, definition)

    monkeypatch.setattr(IndexRuntime, "build", classmethod(counted))
    return builds


@pytest.mark.slow
def test_indexed_reads_equal_index_free_reads_under_a_concurrent_writer():
    """One writer, one reader, a shortened switch interval: every indexed
    read must equal the index-free answer at its own snapshot — through
    the attribute index, through the path index (whose referenced objects
    the writer renames), for ``==``, ``!=`` and range probes."""
    db = Database.sample(scale=0.02, seed=3)
    db.create_index("ix_c", "Cities", ("name",))
    db.create_index("ix_m", "Cities", ("mayor", "name"))
    db.create_index("ix_p", "Cities", ("population",))
    rows = db.query("SELECT c.name, c.mayor.name FROM City c IN Cities").rows
    cities = [row["c.name"] for row in rows]
    mayors = sorted({row["c.mayor.name"] for row in rows})
    failures: list[str] = []
    done = threading.Event()

    def writer():
        rng = random.Random(11)
        try:
            for round_ in range(300):
                kind = rng.randrange(5)
                if kind == 0:
                    old = rng.choice(cities)
                    new = f"w{round_}"
                    db.query(
                        f'UPDATE c IN Cities SET c.name = "{new}" '
                        f'WHERE c.name == "{old}"'
                    )
                    cities[cities.index(old)] = new
                elif kind == 1:
                    old = rng.choice(mayors)
                    new = f"m{round_}"
                    db.query(RENAME_PERSON.format(new, old))
                    mayors[mayors.index(old)] = new
                elif kind == 2:
                    db.query(
                        f"UPDATE c IN Cities SET c.population = "
                        f"{rng.randrange(1000, 900000)} "
                        f'WHERE c.name == "{rng.choice(cities)}"'
                    )
                elif kind == 3:
                    db.query(
                        "INSERT INTO Cities (name, population) "
                        f"VALUES ('n{round_}', {rng.randrange(1000, 900000)})"
                    )
                    cities.append(f"n{round_}")
                else:
                    victim = rng.choice(cities)
                    db.query(f'DELETE c IN Cities WHERE c.name == "{victim}"')
                    cities.remove(victim)
        except Exception as exc:  # noqa: BLE001 - recorded, then asserted on
            failures.append(f"writer: {exc!r}")
        finally:
            done.set()

    def reader():
        rng = random.Random(12)
        try:
            sessions = 0
            while not done.is_set() or sessions < 10:
                sessions += 1
                # One snapshot, several reads: the writer's later commits
                # land between them, so most probes read an index that has
                # changed since their snapshot.
                with db.begin() as snapshot:
                    low = rng.randrange(1000, 800000)
                    for text in (
                        BY_NAME.format(rng.choice(list(cities))),
                        BY_MAYOR.format(rng.choice(list(mayors))),
                        "SELECT c.name FROM City c IN Cities "
                        f'WHERE c.name != "{rng.choice(list(cities))}"',
                        "SELECT c.name FROM City c IN Cities "
                        f"WHERE c.population >= {low}",
                    ):
                        indexed = names(db, text, transaction=snapshot)
                        plain = names(
                            db, text, transaction=snapshot, config=NO_INDEX
                        )
                        if indexed != plain:
                            failures.append(f"{text}: {indexed} != {plain}")
        except Exception as exc:  # noqa: BLE001 - recorded, then asserted on
            failures.append(f"reader: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=writer, daemon=True),
            threading.Thread(target=reader, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=100.0)
        assert not any(thread.is_alive() for thread in threads), "hammer hung"
    finally:
        sys.setswitchinterval(interval)
    assert not failures, "\n".join(failures[:5])
    assert_indexes_equal_fresh_builds(db)
