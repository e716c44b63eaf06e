"""Unit tests for the object store: segments, layout, fetch/scan charging,
and the contract of the OIDs every one of its dicts is keyed by."""

import copy
import json
import pickle
import random

import pytest

from repro.catalog.catalog import Catalog, extent_name
from repro.catalog.schema import Schema, TypeDef, ref, scalar
from repro.durability import codec
from repro.errors import StorageError
from repro.storage.objects import Obj, Oid
from repro.storage.store import ObjectStore


def _catalog() -> Catalog:
    schema = Schema()
    schema.add_type(
        TypeDef("Person", 1000, (scalar("name", "str"),)), with_extent=True
    )
    schema.add_type(
        TypeDef("City", 2000, (scalar("name", "str"), ref("mayor", "Person"))),
    )
    schema.add_named_set("Cities", "City")
    return Catalog(schema, page_size=4096)


@pytest.fixture()
def store() -> ObjectStore:
    store = ObjectStore(_catalog())
    people = [store.insert("Person", {"name": f"p{i}"}) for i in range(10)]
    store.create_segment("City", dense=True)
    cities = [
        store.insert("City", {"name": f"c{i}", "mayor": people[i % 10]})
        for i in range(6)
    ]
    store.register_collection("Cities", cities)
    store.seal()
    return store


class TestLayout:
    def test_dense_packing(self, store):
        # 1000-byte persons, 4 per 4096-byte page: 10 persons -> 3 pages.
        assert store.segment("Person").page_count == 3
        assert store.page_of(Oid("Person", 0)) == store.page_of(Oid("Person", 3))
        assert store.page_of(Oid("Person", 0)) != store.page_of(Oid("Person", 4))

    def test_sparse_segment_one_per_page(self):
        store = ObjectStore(_catalog())
        store.create_segment("Person", dense=False)
        for i in range(5):
            store.insert("Person", {"name": f"p{i}"})
        store.seal()
        pages = {store.page_of(Oid("Person", i)) for i in range(5)}
        assert len(pages) == 5

    def test_segments_contiguous_and_disjoint(self, store):
        person_pages = {store.page_of(Oid("Person", i)) for i in range(10)}
        city_pages = {store.page_of(Oid("City", i)) for i in range(6)}
        assert not (person_pages & city_pages)

    def test_page_of_unknown_object_is_a_typed_error(self, store):
        """An unknown serial of a known type used to escape as KeyError —
        through the raw store and through a view of it."""
        store.begin().commit()  # dirty: view() is now a SnapshotView
        for surface in (store, store.view()):
            for oid in (Oid("Person", 10), Oid("Person", -1), Oid("Nope", 1)):
                with pytest.raises(StorageError):
                    surface.page_of(oid)
        with pytest.raises(StorageError, match="dangling reference Person#10"):
            store.page_of(Oid("Person", 10))

    def test_extent_autoregistered(self, store):
        assert store.has_collection(extent_name("Person"))
        assert store.collection_cardinality(extent_name("Person")) == 10


class TestAccess:
    def test_fetch_returns_data_and_charges(self, store):
        store.reset_accounting()
        data = store.fetch(Oid("Person", 4))
        assert data["name"] == "p4"
        assert store.disk.stats.page_reads == 1

    def test_fetch_same_page_hits_buffer(self, store):
        store.reset_accounting()
        store.fetch(Oid("Person", 0))
        store.fetch(Oid("Person", 1))  # same page
        assert store.disk.stats.page_reads == 1
        assert store.buffer.stats.hits == 1

    def test_peek_charges_nothing(self, store):
        store.reset_accounting()
        store.peek(Oid("Person", 4))
        assert store.disk.stats.page_reads == 0

    def test_scan_sequential_page_reads(self, store):
        store.reset_accounting()
        rows = list(store.scan(extent_name("Person"), "p"))
        assert len(rows) == 10
        assert store.disk.stats.page_reads == 3  # one per page

    def test_scan_named_set(self, store):
        names = [row["c"].data["name"] for row in store.scan("Cities", "c")]
        assert names == [f"c{i}" for i in range(6)]

    def test_dangling_reference_raises(self, store):
        with pytest.raises(StorageError):
            store.fetch(Oid("Person", 99))

    def test_unknown_collection_raises(self, store):
        with pytest.raises(StorageError):
            store.collection_oids("Nowhere")


class TestLifecycle:
    def test_read_before_seal_rejected(self):
        store = ObjectStore(_catalog())
        oid = store.insert("Person", {"name": "x"})
        with pytest.raises(StorageError):
            store.fetch(oid)

    def test_insert_after_seal_rejected(self, store):
        with pytest.raises(StorageError):
            store.insert("Person", {"name": "late"})

    def test_duplicate_segment_rejected(self, store):
        fresh = ObjectStore(_catalog())
        fresh.create_segment("Person")
        with pytest.raises(StorageError):
            fresh.create_segment("Person")

    def test_seal_idempotent(self, store):
        store.seal()  # second call: no raise, layout unchanged
        assert store.segment("Person").first_page == 0

    def test_reset_accounting_cold_flushes(self, store):
        store.fetch(Oid("Person", 0))
        store.reset_accounting(cold=True)
        assert store.buffer.resident_pages == 0
        store.fetch(Oid("Person", 0))
        assert store.disk.stats.page_reads == 1

    def test_reset_accounting_warm_keeps_pages(self, store):
        store.fetch(Oid("Person", 0))
        store.reset_accounting(cold=False)
        store.fetch(Oid("Person", 0))
        assert store.disk.stats.page_reads == 0


class TestOidContract:
    """What the tuple ``Oid`` must keep from the frozen dataclass and the
    hand-written class before it — above all ``hash(Oid(t, s)) == hash((t,
    s))``, which is what keeps every set and dict of OIDs iterating in the
    same order."""

    def _sample(self):
        rng = random.Random(19)
        types = ["City", "Person", "Employee", "extent(Job)", ""]
        return [
            (rng.choice(types), rng.choice([0, 1, rng.randrange(10**6), -1, 2**70]))
            for _ in range(300)
        ]

    def test_hash_equality_and_order_agree_with_the_tuple(self):
        pairs = self._sample()
        oids = [Oid(*pair) for pair in pairs]
        assert [hash(o) for o in oids] == [hash(p) for p in pairs]
        assert [repr(o) for o in sorted(oids)] == [
            f"{t}#{s}" for t, s in sorted(pairs)
        ]
        for (a, pa), (b, pb) in zip(zip(oids, pairs), zip(oids[1:], pairs[1:])):
            assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (
                pa == pb, pa != pb, pa < pb, pa <= pb, pa > pb, pa >= pb
            )
        # An OID is its (type, serial) tuple: it equals, orders and keys
        # a dict like the plain pair; against a string it still does not.
        assert Oid("City", 1) == ("City", 1) and Oid("City", 1) < ("City", 2)
        assert {("City", 1): "x"}[Oid("City", 1)] == "x"
        assert Oid("City", 1) != "City#1"
        with pytest.raises(TypeError):
            Oid("City", 1) < "City#2"

    def test_immutable_and_slotted(self):
        oid = Oid("City", 3)
        for name in ("serial", "type_name", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(oid, name, 4)
        with pytest.raises(AttributeError):
            del oid.serial
        assert not hasattr(oid, "__dict__")
        assert (oid.type_name, oid.serial, repr(oid)) == ("City", 3, "City#3")

    def test_pickle_and_deepcopy_round_trip(self):
        oid = Oid("City", 3)
        clones = [copy.deepcopy(oid), copy.copy(oid)]
        clones += [
            pickle.loads(pickle.dumps(oid, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert clone == oid and hash(clone) == hash(oid)
            assert {oid: 1}[clone] == 1
            assert type(clone) is Oid and repr(clone) == "City#3"
        binding = Obj(oid, {"name": "springfield", "mayor": Oid("Person", 7)})
        for clone in (copy.deepcopy(binding), pickle.loads(pickle.dumps(binding))):
            assert type(clone) is Obj and clone == binding
            assert type(clone.data["mayor"]) is Oid

    def test_durability_codec_bytes_unchanged(self):
        """The exact bytes the write-ahead log and checkpoints hold for
        records with references (taken from the dataclass version)."""
        flat = {"name": "springfield", "mayor": Oid("Person", 7), "population": None}
        nested = {
            "name": "t1",
            "team_members": (Oid("Employee", 3), Oid("Employee", 11)),
            "lead": Oid("Employee", 3),
        }
        # json.dumps writes an OID (a tuple) as an array, never asking
        # ``default``: exactly the records holding a reference are copied.
        scalars = {"name": "shelbyville", "population": 12, "area": 1.5}
        assert codec.encode_record(scalars) is scalars
        assert codec.encode_record(flat) is not flat
        assert codec.encode_record(nested) is not nested
        dumped = [
            json.dumps(codec.encode_record(r), default=codec.encode_default)
            for r in (flat, nested)
        ]
        assert dumped == [
            '{"name": "springfield", "mayor": {"$oid": ["Person", 7]}, '
            '"population": null}',
            '{"name": "t1", "team_members": {"$tuple": [{"$oid": ["Employee", 3]}, '
            '{"$oid": ["Employee", 11]}]}, "lead": {"$oid": ["Employee", 3]}}',
        ]
        assert [codec.decode_value(json.loads(d)) for d in dumped] == [flat, nested]
