"""Unit tests for the physical operator iterators, run on a tiny store."""

import sys
from collections import Counter

import pytest

from repro.algebra.operators import ProjectItem, RefSource, SetOpKind
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
)
from repro.catalog.catalog import Catalog, IndexDef, extent_name
from repro.catalog.schema import Schema, TypeDef, ref, scalar, set_ref
from repro.engine import iterators as it
from repro.engine import tuples
from repro.storage import objects
from repro.storage.objects import Oid
from repro.storage.store import ObjectStore


def _catalog() -> Catalog:
    schema = Schema()
    schema.add_type(
        TypeDef("Person", 400, (scalar("name", "str"), scalar("age"))),
        with_extent=True,
    )
    schema.add_type(
        TypeDef(
            "City",
            400,
            (
                scalar("name", "str"),
                ref("mayor", "Person"),
                set_ref("sisters", "City"),
            ),
        ),
        with_extent=True,
    )
    return Catalog(schema)


@pytest.fixture()
def store() -> ObjectStore:
    store = ObjectStore(_catalog())
    people = [
        store.insert("Person", {"name": n, "age": a})
        for n, a in [("joe", 50), ("ann", 40), ("joe", 30), ("bob", 60)]
    ]
    cities = []
    for i in range(4):
        cities.append(
            store.insert(
                "City",
                {"name": f"c{i}", "mayor": people[i], "sisters": ()},
            )
        )
    # Wire sister cities: c0 <-> c1, c2 -> (c0, c1, c3)
    store.peek(cities[0])["sisters"] = (cities[1],)
    store.peek(cities[1])["sisters"] = (cities[0],)
    store.peek(cities[2])["sisters"] = (cities[0], cities[1], cities[3])
    store.seal()
    return store


PERSONS = extent_name("Person")
CITIES = extent_name("City")


class TestScans:
    def test_file_scan_yields_resident_objects(self, store):
        rows = list(it.file_scan(store, PERSONS, "p"))
        assert len(rows) == 4
        assert all(rows[i]["p"].resident for i in range(4))

    def test_index_scan_eq(self, store):
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
        assert {r["p"].field("age") for r in rows} == {50, 30}

    def test_index_scan_residual(self, store):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("name",), 3))
        rows = list(
            it.index_scan(
                store,
                index,
                "p",
                Comparison(FieldRef("p", "name"), CompOp.EQ, Const("joe")),
                Conjunction.of(
                    Comparison(FieldRef("p", "age"), CompOp.GT, Const(40))
                ),
            )
        )
        assert [r["p"].field("age") for r in rows] == [50]

    def test_index_scan_range(self, store):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("age",), 4))
        rows = list(
            it.index_scan(
                store,
                index,
                "p",
                Comparison(FieldRef("p", "age"), CompOp.GE, Const(50)),
                Conjunction.true(),
            )
        )
        assert {r["p"].field("age") for r in rows} == {50, 60}

    def test_index_scan_flipped_constant(self, store):
        index = store.indexes.get(IndexDef("ix", PERSONS, ("age",), 4))
        rows = list(
            it.index_scan(
                store,
                index,
                "p",
                Comparison(Const(50), CompOp.LE, FieldRef("p", "age")),
                Conjunction.true(),
            )
        )
        assert {r["p"].field("age") for r in rows} == {50, 60}


class TestReferenceResolution:
    def test_assembly_resolves_and_preserves_order(self, store):
        rows = list(it.file_scan(store, CITIES, "c"))
        out = list(it.assembly(store, rows, RefSource("c", "mayor"), "m", window=2))
        assert [r["c"].field("name") for r in out] == ["c0", "c1", "c2", "c3"]
        assert [r["m"].field("age") for r in out] == [50, 40, 30, 60]

    def test_assembly_window_one_equals_window_many(self, store):
        rows = list(it.file_scan(store, CITIES, "c"))
        a = list(it.assembly(store, rows, RefSource("c", "mayor"), "m", window=1))
        b = list(it.assembly(store, rows, RefSource("c", "mayor"), "m", window=64))
        assert [r["m"].oid for r in a] == [r["m"].oid for r in b]

    def test_assembly_of_bare_ref(self, store):
        rows = list(it.file_scan(store, CITIES, "c"))
        unnested = list(it.unnest(rows, "c", "sisters", "s_ref"))
        out = list(
            it.assembly(store, unnested, RefSource("s_ref", None), "s", window=4)
        )
        assert all(r["s"].resident for r in out)

    def test_pointer_join_same_result_as_assembly(self, store):
        rows = list(it.file_scan(store, CITIES, "c"))
        a = list(it.assembly(store, rows, RefSource("c", "mayor"), "m", window=8))
        b = list(
            it.pointer_join(
                store,
                it.file_scan(store, CITIES, "c"),
                RefSource("c", "mayor"),
                "m",
            )
        )
        assert [r["m"].oid for r in a] == [r["m"].oid for r in b]

    def test_warm_start_same_result(self, store):
        a = list(
            it.warm_start_assembly(
                store,
                it.file_scan(store, CITIES, "c"),
                RefSource("c", "mayor"),
                "m",
                PERSONS,
            )
        )
        assert [r["m"].field("age") for r in a] == [50, 40, 30, 60]


class TestUnnest:
    def test_fanout(self, store):
        rows = list(it.file_scan(store, CITIES, "c"))
        out = list(it.unnest(rows, "c", "sisters", "s"))
        assert len(out) == 1 + 1 + 3 + 0

    def test_empty_set_produces_nothing(self, store):
        rows = [r for r in it.file_scan(store, CITIES, "c") if r["c"].field("name") == "c3"]
        assert list(it.unnest(rows, "c", "sisters", "s")) == []


class TestJoins:
    def _sides(self, store):
        cities = list(it.file_scan(store, CITIES, "c"))
        people = list(it.file_scan(store, PERSONS, "p"))
        pred = Conjunction.of(
            Comparison(
                FieldRef("c", "name"), CompOp.NE, Const("zzz")
            )
        )
        return cities, people

    def test_hash_join_on_ref_eq_self(self, store):
        cities, people = self._sides(store)
        pred = Conjunction.of(
            Comparison(
                SelfOid("p"),
                CompOp.EQ,
                __import__(
                    "repro.algebra.predicates", fromlist=["RefAttr"]
                ).RefAttr("c", "mayor"),
            )
        )
        out = list(it.hash_join(people, cities, pred))
        assert len(out) == 4
        for row in out:
            assert row["c"].field("mayor") == row["p"].oid

    def test_hash_join_with_residual(self, store):
        from repro.algebra.predicates import RefAttr

        cities, people = self._sides(store)
        pred = Conjunction.of(
            Comparison(SelfOid("p"), CompOp.EQ, RefAttr("c", "mayor")),
            Comparison(FieldRef("p", "age"), CompOp.GE, Const(50)),
        )
        out = list(it.hash_join(people, cities, pred))
        assert {r["p"].field("age") for r in out} == {50, 60}

    def test_hash_join_requires_equi(self, store):
        cities, people = self._sides(store)
        pred = Conjunction.of(
            Comparison(FieldRef("p", "age"), CompOp.LT, FieldRef("c", "name"))
        )
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            list(it.hash_join(people, cities, pred))

    def test_hash_join_empty_sides(self, store):
        from repro.algebra.predicates import RefAttr

        pred = Conjunction.of(
            Comparison(SelfOid("p"), CompOp.EQ, RefAttr("c", "mayor"))
        )
        cities, people = self._sides(store)
        assert list(it.hash_join([], cities, pred)) == []
        assert list(it.hash_join(people, [], pred)) == []

    def test_nested_loops_matches_hash_join(self, store):
        from repro.algebra.predicates import RefAttr

        cities, people = self._sides(store)
        pred = Conjunction.of(
            Comparison(SelfOid("p"), CompOp.EQ, RefAttr("c", "mayor"))
        )
        hj = {
            (r["c"].oid, r["p"].oid) for r in it.hash_join(people, cities, pred)
        }
        nl = {
            (r["c"].oid, r["p"].oid)
            for r in it.nested_loops_join(people, cities, pred)
        }
        assert hj == nl


class TestProjectAndSetOps:
    def test_project_fields(self, store):
        rows = it.file_scan(store, PERSONS, "p")
        items = (ProjectItem("n", FieldRef("p", "name")),)
        out = list(it.project(rows, items, distinct=False))
        assert [r["n"] for r in out] == ["joe", "ann", "joe", "bob"]

    def test_project_distinct(self, store):
        rows = it.file_scan(store, PERSONS, "p")
        items = (ProjectItem("n", FieldRef("p", "name")),)
        out = list(it.project(rows, items, distinct=True))
        assert [r["n"] for r in out] == ["joe", "ann", "bob"]

    def test_union_dedups(self, store):
        a = list(it.file_scan(store, CITIES, "c"))
        out = list(it.set_op(SetOpKind.UNION, a, a))
        assert len(out) == 4

    def test_intersect_and_difference(self, store):
        a = list(it.file_scan(store, CITIES, "c"))
        first_two, last_three = a[:2], a[1:]
        inter = list(it.set_op(SetOpKind.INTERSECT, first_two, last_three))
        assert len(inter) == 1
        diff = list(it.set_op(SetOpKind.DIFFERENCE, first_two, last_three))
        assert len(diff) == 1
        assert diff[0]["c"].oid == a[0]["c"].oid


def _frames(work) -> Counter:
    """Python frames entered while ``work`` runs, by code object."""
    counts: Counter = Counter()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return counts


def _identity_frames(counts: Counter) -> int:
    """Frames entered in ``storage/objects.py``: an OID's hash, equality
    and fields and an object binding's construction are all C, so any
    frame there is a Python method on the per-row path."""
    return sum(n for code, n in counts.items() if code.co_filename == objects.__file__)


class TestReadPathFrames:
    """Per-object frames the read path does without: each count is one
    frame per member, row or key before scans read records by position,
    join keys became bare values, constants were bound once and identity
    values became tuples."""

    def test_base_scan_hashes_no_oid(self, store):
        assert len(list(store.scan(PERSONS, "p"))) == 4  # lists the records
        scanned = []
        counts = _frames(lambda: scanned.extend(store.scan(PERSONS, "p")))
        assert [row["p"].oid for row in scanned] == store.collection_oids(PERSONS)
        assert _identity_frames(counts) == 0

    def test_base_scan_spends_one_generator_frame_per_row(self, store):
        list(it.file_scan(store, PERSONS, "p"))  # lays out the page runs
        rows = []
        counts = _frames(lambda: rows.extend(it.file_scan(store, PERSONS, "p")))
        per_row = {code.co_qualname: n for code, n in counts.items() if n >= len(rows)}
        # One resume per row, and the last one that finds the scan done.
        assert len(rows) == 4
        assert per_row == {"ObjectStore._scan_members": len(rows) + 1}

    def test_single_key_hash_join_compares_no_oid(self, store):
        people = list(it.file_scan(store, PERSONS, "p"))
        cities = list(it.file_scan(store, CITIES, "c"))
        pred = Conjunction.of(
            Comparison(SelfOid("p"), CompOp.EQ, RefAttr("c", "mayor"))
        )
        out = []
        counts = _frames(lambda: out.extend(it.hash_join(people, cities, pred)))
        assert len(out) == 4
        assert _identity_frames(counts) == 0

    def test_constant_comparison_reads_no_constant_getter(self, store):
        rows = list(it.file_scan(store, PERSONS, "p"))
        pred = Conjunction.of(Comparison(FieldRef("p", "age"), CompOp.EQ, Const(50)))
        out = []
        counts = _frames(lambda: out.extend(it.filter_rows(rows, pred)))
        assert [row["p"].field("name") for row in out] == ["joe"]
        getters = [
            code for code in counts
            if code.co_filename == tuples.__file__ and code.co_name == "<lambda>"
        ]
        assert getters == []
