"""Property-based tests for the storage substrate."""

import json
import random
import sys
import threading
from collections import OrderedDict
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra.operators import RefSource
from repro.catalog.catalog import Catalog, IndexDef, extent_name
from repro.catalog.schema import Schema, TypeDef, scalar
from repro.durability.codec import encode_default
from repro.durability.manager import _decode_mvcc, _encode_mvcc
from repro.engine.iterators import assembly, file_scan
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskSimulator
from repro.storage.index import EXTENT_PAGES
from repro.storage.mvcc import OVERFLOW_PAGE_GAP, SnapshotView
from repro.storage.objects import Oid
from repro.storage.store import ObjectStore

from tests.integration.test_page_trace import PageTrace


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
        scanned = [row["t"].data["name"] for row in store.scan(extent_name("T"), "t")]
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


def _typed_store(specs) -> ObjectStore:
    """An unsealed store with one extent-backed type T0, T1, ... per spec."""
    schema = Schema()
    for number, (size, _dense, _count) in enumerate(specs):
        schema.add_type(
            TypeDef(f"T{number}", size, (scalar("n", "int"),)), with_extent=True
        )
    return ObjectStore(Catalog(schema, page_size=PAGE))


class TestAddressing:
    """``page_of`` against the layout written out independently: base
    objects by arithmetic on their position, post-seal objects on the
    allocator's overflow pages, an index's pages in its own extent."""

    @given(type_specs, st.lists(st.integers(0, 3), max_size=25), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_page_of_partitions_and_scan_requests(self, specs, inserts, degree):
        store = _typed_store(specs)
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

        def requested(surface_scan) -> list[int]:
            """Pages requested, in order, with credited streaks expanded."""
            with PageTrace(store) as trace:
                surface_scan()
            return [page for seq in trace.threads.values() for page, _ in seq]

        for number in range(len(specs)):
            name = extent_name(f"T{number}")
            members = store.collection_oids(name)
            pages = [expected[oid] for oid in members]
            for surface in (store, view):
                assert [row["x"].oid for row in surface.scan(name, "x")] == members
                # One request per member, in order.
                assert requested(lambda: list(surface.scan(name, "x"))) == pages
                # Shares are disjoint in pages and concatenate to the scan.
                shares = [
                    [row["x"].oid for row in surface.scan_partition(name, share, degree, "x")]
                    for share in range(degree + 1)
                ]
                assert [oid for share in shares for oid in share] == members
                share_pages = [{expected[oid] for oid in share} for share in shares]
                assert sum(map(len, share_pages)) == len(set(pages))
                assert shares[degree] == []
                assert requested(
                    lambda: [
                        list(surface.scan_partition(name, share, degree, "x"))
                        for share in range(degree)
                    ]
                ) == pages

        # An index reads only its own extent: one stride each, in creation
        # order, past the base pages and short of the overflow range.  The
        # second round rebuilds them in reverse after the registry forgot
        # them all: a name keeps its extent.
        for order in (range(len(specs)), reversed(range(len(specs)))):
            store.indexes.clear()
            for number in order:
                index = store.indexes.get(IndexDef(f"ix{number}", extent_name(f"T{number}"), ("n",), 1))
                start = next_page + number * EXTENT_PAGES
                pages = set(requested(lambda: index.lookup_range(view, low=-1)))
                assert pages and pages <= set(range(start, start + EXTENT_PAGES))
                assert base_pages.isdisjoint(pages) and max(pages) < next_page + OVERFLOW_PAGE_GAP


class ReferencePool:
    """The accounting the store promises: an LRU sent one request per
    object read, each attributed to the scope it was made under."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.frames = capacity, OrderedDict()
        self.disk_reads: list[int] = []
        self.totals: dict[object, list[int]] = {}  # scope -> [hits, misses]

    def request(self, page: int, scope) -> None:
        hit = page in self.frames
        for key in ("all", scope):
            self.totals.setdefault(key, [0, 0])[0 if hit else 1] += 1
        if hit:
            self.frames.move_to_end(page)
            return
        self.disk_reads.append(page)
        self.frames[page] = None
        if len(self.frames) > self.capacity:
            self.frames.popitem(last=False)


def _scanned(surface):
    """A scanned row's OID, if its record is the one ``surface`` reads."""
    return lambda row: row["x"].oid if row["x"].data is surface.peek(row["x"].oid) else row


class _Scope:
    def __init__(self) -> None:
        self.hits = self.misses = 0


#: ("scan" | "sweep", type number, through a pinned view?, window, scoped?)
actor_specs = st.lists(
    st.tuples(
        st.sampled_from(["scan", "sweep"]),
        st.integers(0, 3),
        st.booleans(),
        st.integers(1, 6),
        st.booleans(),
    ),
    min_size=2,
    max_size=3,
)
#: ("advance", actor, members) | ("fetch", object, how) | ("close", actor, _)
#: | ("flush", _, _)
schedule_steps = st.lists(
    st.tuples(
        st.sampled_from(["advance"] * 5 + ["fetch"] * 3 + ["close", "flush"]),
        st.integers(0, 200),
        st.integers(1, 12),
    ),
    max_size=40,
)


class TestPageRunAccounting:
    """The pool is called once per page run; the books must read as if
    it had been called once per object, and each scanned record must be
    the one its surface reads."""

    @given(
        type_specs,
        st.lists(st.integers(0, 3), max_size=12),
        st.integers(1, 8),
        actor_specs,
        schedule_steps,
        st.randoms(use_true_random=False),
    )
    # A scan of the never-written store closed three members into a page
    # run (two repeats pending), beside a scoped scan through a view.
    @example(
        [(700, True, 20)], [], 4,
        [("scan", 0, False, 1, True), ("scan", 0, True, 1, False)],
        [("advance", 0, 3), ("close", 0, 0), ("advance", 1, 7), ("fetch", 1, 2)],
        random.Random(0),
    )
    @settings(max_examples=150, deadline=None)
    def test_scans_and_sweeps_match_one_request_per_member(
        self, specs, inserts, capacity, actor_specs, steps, rng
    ):
        store = _typed_store(specs)
        for number, (_size, dense, count) in enumerate(specs):
            store.create_segment(f"T{number}", dense=dense)
            for position in range(count + 1):
                store.insert(f"T{number}", {"n": position})
        store.seal()
        everything = [
            oid for n in range(len(specs)) for oid in store.segment(f"T{n}").oids
        ]
        for oid in everything:  # every object references some other one
            store.peek(oid)["ref"] = rng.choice(everything)
        if inserts:  # post-seal members on overflow pages; dirties the store
            with store.begin() as txn:
                for number in inserts:
                    everything.append(
                        txn.insert(
                            extent_name(f"T{number % len(specs)}"),
                            {"n": -1, "ref": rng.choice(everything)},
                        )
                    )
        pool, page_of = store.buffer, store.page_of
        pool.capacity = capacity
        model = ReferencePool(capacity)
        disk_reads: list[int] = []
        read = store.disk.read
        store.disk.read = lambda page: disk_reads.append(page) or read(page)

        def scan_model(members, scope):
            for oid in members:
                model.request(page_of(oid), scope)
                yield oid

        def sweep_model(members, window, scope):
            members = scan_model(members, scope)
            while batch := list(islice(members, window)):
                refs = [store.peek(oid)["ref"] for oid in batch]
                for page in sorted(map(page_of, refs)):
                    model.request(page, scope)
                for ref in refs:
                    model.request(page_of(ref), scope)
                    yield ref

        # [streams to close (root first), pick, model stream, scope, last object]
        actors, scopes = [], [_Scope()]
        for kind, number, pinned, window, scoped in actor_specs:
            name = extent_name(f"T{number % len(specs)}")
            surface = store.view(snapshot=store.mvcc.current_csn) if pinned else store
            members = surface.collection_oids(name)
            scope = _Scope() if scoped else None
            scopes.append(scope)
            if kind == "scan":
                actors.append(
                    [[surface.scan(name, "x")], _scanned(surface),
                     scan_model(members, scope), scope, None]
                )
            else:
                rows = file_scan(surface, name, "x")
                swept = assembly(surface, rows, RefSource("x", "ref"), "y", window)
                actors.append(
                    [[swept, rows], lambda row: row["y"].oid,
                     sweep_model(members, window, scope), scope, None]
                )

        done = object()
        for kind, a, b in steps:
            streams, pick, modelled, scope, last = actor = actors[a % len(actors)]
            if kind == "advance":
                if scope is not None:
                    pool.push_io_scope(scope)
                try:
                    for _ in range(b):
                        got, want = next(streams[0], done), next(modelled, done)
                        assert (got is done) == (want is done)
                        if got is done:
                            break
                        assert pick(got) == want
                        actor[4] = want
                finally:
                    if scope is not None:
                        pool.pop_io_scope()
            elif kind == "fetch":
                # Every third fetch goes to the page an actor is standing on.
                on_page = b % 3 == 0 and last is not None
                oid = last if on_page else everything[a % len(everything)]
                scope = scopes[0] if b % 2 else None
                if scope is not None:
                    pool.push_io_scope(scope)
                store.fetch(oid)
                if scope is not None:
                    pool.pop_io_scope()
                model.request(page_of(oid), scope)
            elif kind == "close":  # abandoned mid-run
                for stream in streams:
                    stream.close()
                modelled.close()
            else:
                pool.flush()
                model.frames.clear()
        for streams, *_ in actors:  # what `Executor.execute` does in its finally
            for stream in streams:
                stream.close()

        assert disk_reads == model.disk_reads
        assert list(pool._frames) == list(model.frames)
        assert [pool.stats.hits, pool.stats.misses] == model.totals.get("all", [0, 0])
        for scope in filter(None, scopes):
            assert [scope.hits, scope.misses] == model.totals.get(scope, [0, 0])

    def test_two_threads_lose_and_double_no_credit(self):
        specs = [(700, True, 60), (4096, False, 25)]
        store = _typed_store(specs)
        for number, (_size, dense, count) in enumerate(specs):
            store.create_segment(f"T{number}", dense=dense)
            for position in range(count):
                store.insert(f"T{number}", {"n": position})
        store.seal()
        store.buffer.capacity = 3
        rounds, requested = 40, [0, 0]

        def work(slot: int) -> None:
            names = [extent_name("T0"), extent_name("T1")]
            for turn in range(rounds):
                name = names[(slot + turn) % 2]
                requested[slot] += sum(1 for _ in store.scan(name, "t"))
                abandoned = store.scan(name, "t")
                requested[slot] += sum(1 for _ in islice(abandoned, 7))
                abandoned.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        stats = store.buffer.stats
        assert stats.hits + stats.misses == sum(requested) == rounds * (60 + 25 + 14)


class TestIndexAgainstScan:
    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=80),
        st.integers(0, 10),
    )
    @settings(max_examples=40)
    def test_index_lookup_equals_scan_filter(self, values, probe):
        store = _store_with([str(v) for v in values], 500)
        index = store.indexes.get(IndexDef("ix", extent_name("T"), ("name",), 11))
        via_index = sorted(index.lookup_eq(store, str(probe)))
        via_scan = sorted(
            oid
            for oid, data in (row["t"] for row in store.scan(extent_name("T"), "t"))
            if data["name"] == str(probe)
        )
        assert via_index == via_scan

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_range_lookup_equals_scan_filter(self, values):
        store = _store_with([str(v).zfill(2) for v in values], 500)
        index = store.indexes.get(IndexDef("ix", extent_name("T"), ("name",), 51))
        via_index = sorted(index.lookup_range(store, low="10", high="30"))
        via_scan = sorted(
            oid
            for oid, data in (row["t"] for row in store.scan(extent_name("T"), "t"))
            if "10" <= data["name"] <= "30"
        )
        assert via_index == via_scan


ITEMS, ITEM_EXTENT = "Items", extent_name("Item")


def _items_store() -> ObjectStore:
    """Six base items, the first four also in the named set ``Items``."""
    schema = Schema()
    schema.add_type(TypeDef("Item", 50, (scalar("n", "int"),)), with_extent=True)
    schema.add_named_set(ITEMS, "Item")
    store = ObjectStore(Catalog(schema))
    oids = [store.insert("Item", {"n": n}) for n in range(6)]
    store.register_collection(ITEMS, oids[:4])
    store.seal()
    return store


def _restored(store: ObjectStore) -> ObjectStore:
    """A fresh base store restored from a checkpoint of ``store``."""
    with store.mvcc.commit_lock:
        raw = store.mvcc.state_snapshot()
    text = json.dumps(_encode_mvcc(raw), default=encode_default)
    restored = _items_store()
    restored.mvcc.restore_state(_decode_mvcc(json.loads(text)))
    return restored


#: Commits of one to three writes: (kind, pick, value).  An insert goes
#: into Items on an odd pick, else into the extent; an update or delete
#: takes the live item at ``pick`` modulo their count.
histories = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(("insert", "update", "delete")),
            st.integers(0, 50),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=3,
    ),
    max_size=12,
)


class TestVersionedViews:
    """A view pinned at each CSN of a random history sees exactly a replay
    of the history up to it — on the store that made the commits, and on
    one restored from a checkpoint midway that made the rest — and a scan
    of either store sees the latest commit."""

    @given(histories, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_views_at_every_csn_equal_a_replay(self, commits, cut):
        live = _items_store()
        stores = [live]
        members = {name: list(live.collection_oids(name)) for name in (ITEMS, ITEM_EXTENT)}
        data = {oid: live.peek(oid) for oid in members[ITEM_EXTENT]}
        gone: set[Oid] = set()
        replay = []
        views = []
        cut = min(cut, len(commits))
        for csn in range(len(commits) + 1):
            if csn:
                txns = [store.begin() for store in stores]
                for kind, pick, value in commits[csn - 1]:
                    if kind == "insert":
                        target = ITEMS if pick % 2 else ITEM_EXTENT
                        (oid,) = {txn.insert(target, {"n": value}) for txn in txns}
                        data[oid] = {"n": value}
                        members[ITEM_EXTENT].append(oid)
                        if target == ITEMS:
                            members[ITEMS].append(oid)
                    elif members[ITEM_EXTENT]:
                        oid = members[ITEM_EXTENT][pick % len(members[ITEM_EXTENT])]
                        if kind == "update":
                            for txn in txns:
                                txn.update(oid, {"n": value})
                            data[oid] = {"n": value}
                        else:
                            for txn in txns:
                                txn.delete(oid)
                            del data[oid]
                            gone.add(oid)
                            for oids in members.values():
                                if oid in oids:
                                    oids.remove(oid)
                assert {txn.commit() for txn in txns} == {csn}
            if csn == cut:
                stores.append(_restored(live))
            # The latest state, scanned from each store itself: the first
            # scan (csn 0) reads the never-written store's base records;
            # after a commit that keeps a member list, so does the scan.
            for store in stores:
                for name, oids in members.items():
                    assert [row["x"] for row in store.scan(name, "x")] == [
                        (oid, data[oid]) for oid in oids
                    ]
            replay.append(({name: list(oids) for name, oids in members.items()},
                           dict(data), set(gone)))
            views += [SnapshotView(store, csn) for store in stores]
        for view in views:
            want_members, want_data, want_gone = replay[view.snapshot]
            for name, oids in want_members.items():
                assert view.collection_oids(name) == oids
                assert [row["x"] for row in view.scan(name, "x")] == [
                    (oid, want_data[oid]) for oid in oids
                ]
            for oid, record in want_data.items():
                assert view.fetch(oid) == record
            for oid in want_gone:
                with pytest.raises(StorageError):
                    view.fetch(oid)
