"""Property-based tests for the storage substrate."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog, IndexDef, extent_name
from repro.catalog.schema import Schema, TypeDef, scalar
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskSimulator
from repro.storage.index import IndexRuntime
from repro.storage.mvcc import OVERFLOW_PAGE_GAP
from repro.storage.objects import Oid
from repro.storage.store import ObjectStore


class TestBufferPoolModel:
    """Model-check the LRU pool against a reference OrderedDict."""

    @given(
        st.lists(st.integers(0, 30), max_size=200),
        st.integers(1, 8),
    )
    def test_matches_reference_lru(self, accesses, capacity):
        pool = BufferPool(DiskSimulator(span_pages=100), capacity=capacity)
        reference: OrderedDict[int, None] = OrderedDict()
        for page in accesses:
            expected_hit = page in reference
            cost = pool.read_page(page)
            assert (cost == 0.0) == expected_hit
            if page in reference:
                reference.move_to_end(page)
            else:
                reference[page] = None
                if len(reference) > capacity:
                    reference.popitem(last=False)
        assert set(reference) == {
            p for p in range(31) if pool.contains(p)
        }

    @given(st.lists(st.integers(0, 100), max_size=300), st.integers(1, 16))
    def test_capacity_never_exceeded(self, accesses, capacity):
        pool = BufferPool(DiskSimulator(span_pages=200), capacity=capacity)
        for page in accesses:
            pool.read_page(page)
            assert pool.resident_pages <= capacity


def _store_with(names: list[str], object_size: int) -> ObjectStore:
    schema = Schema()
    schema.add_type(
        TypeDef("T", object_size, (scalar("name", "str"),)), with_extent=True
    )
    catalog = Catalog(schema)
    store = ObjectStore(catalog)
    for name in names:
        store.insert("T", {"name": name})
    store.seal()
    return store


class TestStoreLayout:
    @given(
        st.lists(st.text(min_size=0, max_size=5), min_size=1, max_size=60),
        st.sampled_from([100, 500, 1000, 2048, 4096, 5000]),
    )
    @settings(max_examples=40)
    def test_objects_per_page_respects_capacity(self, names, object_size):
        store = _store_with(names, object_size)
        per_page = max(1, 4096 // object_size)
        from collections import Counter

        counts = Counter(
            store.page_of(Oid("T", i)) for i in range(len(names))
        )
        assert all(c <= per_page for c in counts.values())

    @given(st.lists(st.text(max_size=5), min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_scan_preserves_insertion_order(self, names):
        store = _store_with(names, 500)
        scanned = [data["name"] for _, data in store.scan(extent_name("T"))]
        assert scanned == names


PAGE = 4096

#: (object size, dense?, base object count) per type T0, T1, ...
type_specs = st.lists(
    st.tuples(
        st.sampled_from([100, 700, 1000, 2048, 4096, 5000]),
        st.booleans(),
        st.integers(0, 40),
    ),
    min_size=1,
    max_size=4,
)


class TestAddressing:
    """``page_of`` against the layout written out independently: base
    objects by arithmetic on their position, post-seal objects on the
    allocator's overflow pages."""

    @given(type_specs, st.lists(st.integers(0, 3), max_size=25), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_page_of_partitions_and_scan_requests(self, specs, inserts, degree):
        schema = Schema()
        for number, (size, _dense, _count) in enumerate(specs):
            schema.add_type(
                TypeDef(f"T{number}", size, (scalar("n", "int"),)), with_extent=True
            )
        store = ObjectStore(Catalog(schema, page_size=PAGE))
        expected: dict[Oid, int] = {}
        next_page = 0
        for number, (size, dense, count) in enumerate(specs):
            store.create_segment(f"T{number}", dense=dense)
            per_page = max(1, PAGE // size) if dense else 1
            for position in range(count):
                oid = store.insert(f"T{number}", {"n": position})
                expected[oid] = next_page + position // per_page
            next_page += max(1, -(-count // per_page))
        store.seal()
        base_pages = set(range(next_page))
        assert store.total_pages() == next_page

        # Post-seal inserts: each type fills one overflow page at a time,
        # pages handed out in allocation order past the reserved gap.
        txn = store.begin()
        overflow_next = next_page + OVERFLOW_PAGE_GAP
        open_page: dict[int, tuple[int, int]] = {}
        for number in (n % len(specs) for n in inserts):
            page, free = open_page.get(number, (-1, 0))
            if free == 0:
                page, free = overflow_next, max(1, PAGE // specs[number][0])
                overflow_next += 1
            open_page[number] = (page, free - 1)
            expected[txn.insert(extent_name(f"T{number}"), {"n": -1})] = page
        txn.commit()

        view = store.view()
        assert {oid: store.page_of(oid) for oid in expected} == expected
        assert {oid: view.page_of(oid) for oid in expected} == expected
        assert not base_pages & {page for page, _free in open_page.values()}
        assert base_pages.isdisjoint(range(next_page + OVERFLOW_PAGE_GAP, overflow_next))

        requests: list[int] = []
        read_page = store.buffer.read_page
        store.buffer.read_page = lambda page: requests.append(page) or read_page(page)
        for number in range(len(specs)):
            name = extent_name(f"T{number}")
            members = store.collection_oids(name)
            pages = [expected[oid] for oid in members]
            bounds = store.partition_bounds(name, degree)
            assert bounds == view.partition_bounds(name, degree)
            assert [i for start, stop in bounds for i in range(start, stop)] == list(
                range(len(members))
            )
            assert all(pages[stop - 1] != pages[stop] for _, stop in bounds[:-1])
            for surface in (store, view):
                requests.clear()
                assert [oid for oid, _ in surface.scan(name)] == members
                assert requests == pages  # one request per member, in order
                requests.clear()
                for share in range(degree + 1):
                    list(surface.scan_partition(name, share, degree))
                assert requests == pages


class TestIndexAgainstScan:
    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=80),
        st.integers(0, 10),
    )
    @settings(max_examples=40)
    def test_index_lookup_equals_scan_filter(self, values, probe):
        store = _store_with([str(v) for v in values], 500)
        index = IndexRuntime.build(
            store, IndexDef("ix", extent_name("T"), ("name",), 11)
        )
        via_index = sorted(index.lookup_eq(store, str(probe)))
        via_scan = sorted(
            oid
            for oid, data in store.scan(extent_name("T"))
            if data["name"] == str(probe)
        )
        assert via_index == via_scan

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_range_lookup_equals_scan_filter(self, values):
        store = _store_with([str(v).zfill(2) for v in values], 500)
        index = IndexRuntime.build(
            store, IndexDef("ix", extent_name("T"), ("name",), 51)
        )
        via_index = sorted(index.lookup_range(store, low="10", high="30"))
        via_scan = sorted(
            oid
            for oid, data in store.scan(extent_name("T"))
            if "10" <= data["name"] <= "30"
        )
        assert via_index == via_scan
