"""Storage-level MVCC semantics: snapshots, conflicts, membership.

These tests drive :mod:`repro.storage.mvcc` through the ObjectStore
surface directly (no optimizer), pinning the invariants the serving
tier rests on: snapshot stability, first-committer-wins, tombstones,
membership versioning, overflow-page allocation for post-seal inserts,
and the untouched-store fast path that keeps read-only behavior
byte-identical to the pre-DML engine.
"""

import sys
import threading

import pytest

from repro.catalog.catalog import Catalog, IndexDef
from repro.catalog.schema import Schema, TypeDef, scalar
from repro.errors import StorageError, TransactionError, WriteConflict
from repro.storage.datagen import generate_store
from repro.storage.mvcc import SnapshotView
from repro.storage.objects import Oid
from repro.storage.store import ObjectStore


def small_store() -> ObjectStore:
    """A tiny sealed store: one type, extent plus named set."""
    schema = Schema()
    schema.add_type(
        TypeDef(
            "Item",
            object_size=50,
            attributes=(scalar("n", "int"), scalar("label", "str")),
        ),
        with_extent=True,
    )
    schema.add_named_set("Items", "Item")
    catalog = Catalog(schema)
    store = ObjectStore(catalog)
    store.create_segment("Item")
    oids = [
        store.insert("Item", {"n": i, "label": f"item{i}"}) for i in range(8)
    ]
    store.register_collection("Items", oids[:5])
    store.seal()
    return store


def test_store_is_its_own_view_until_first_commit():
    store = small_store()
    assert store.view() is store  # byte-identical fast path
    txn = store.begin()
    txn.rollback()
    assert store.view() is store  # rolled-back writes leave it clean
    with store.begin() as txn:
        oid = next(iter(store.collection_oids("Items")))
        txn.update(oid, {"n": 99, "label": "mut"})
    assert isinstance(store.view(), SnapshotView)


def test_snapshot_stability_across_commits():
    store = small_store()
    reader = store.view(snapshot=store.mvcc.current_csn)
    before = {oid: store.peek(oid)["n"] for oid in store.collection_oids("Items")}
    with store.begin() as txn:
        for oid in list(before):
            txn.update(oid, {"n": -1, "label": "x"})
    # The pinned view still sees the old values; a fresh view sees new.
    reader = store.view(snapshot=0)
    for oid, n in before.items():
        assert reader.peek(oid)["n"] == n
    fresh = store.view()
    assert all(fresh.peek(oid)["n"] == -1 for oid in before)


def test_first_committer_wins():
    store = small_store()
    oid = store.collection_oids("Items")[0]
    t1 = store.begin()
    t2 = store.begin()
    t1.update(oid, {"n": 1, "label": "t1"})
    t1.commit()
    with pytest.raises(WriteConflict) as info:
        t2.update(oid, {"n": 2, "label": "t2"})
        t2.commit()
    assert info.value.oid == oid
    assert t2.status == "rolled-back"
    assert store.peek(oid)["label"] == "t1"


def test_write_after_finish_is_typed_error():
    store = small_store()
    txn = store.begin()
    txn.commit()
    with pytest.raises(TransactionError):
        txn.insert("Items", {"n": 0, "label": ""})


def test_insert_into_named_set_joins_extent():
    store = small_store()
    with store.begin() as txn:
        new = txn.insert("Items", {"n": 100, "label": "new"})
    assert new in store.collection_oids("Items")
    assert new in store.collection_oids("extent(Item)")
    # Extent-only inserts do not join named sets.
    with store.begin() as txn:
        loner = txn.insert("extent(Item)", {"n": 101, "label": "loner"})
    assert loner in store.collection_oids("extent(Item)")
    assert loner not in store.collection_oids("Items")


def test_delete_leaves_tombstone_and_membership():
    store = small_store()
    victim = store.collection_oids("Items")[2]
    count = len(store.collection_oids("Items"))
    snapshot = store.view(snapshot=store.mvcc.current_csn)
    with store.begin() as txn:
        txn.delete(victim)
    assert victim not in store.collection_oids("Items")
    assert len(store.collection_oids("Items")) == count - 1
    with pytest.raises(StorageError):
        store.peek(victim)
    # The pinned snapshot still sees the victim.
    snapshot = store.view(snapshot=0)
    assert victim in snapshot.collection_oids("Items")
    assert snapshot.peek(victim)["n"] is not None


def test_read_your_own_writes_and_isolation():
    store = small_store()
    txn = store.begin()
    new = txn.insert("Items", {"n": 7, "label": "mine"})
    mine = store.view(txn=txn)
    theirs = store.view()
    assert new in mine.collection_oids("Items")
    assert mine.peek(new)["label"] == "mine"
    assert theirs is store  # nothing committed yet: still clean
    assert new not in store.collection_oids("Items")
    txn.rollback()
    assert new not in store.collection_oids("Items")


def test_overflow_pages_do_not_collide_with_base_segments():
    store = small_store()
    base_pages = {store.page_of(oid) for oid in store.collection_oids("extent(Item)")}
    with store.begin() as txn:
        fresh = [
            txn.insert("Items", {"n": i, "label": "x"}) for i in range(10)
        ]
    fresh_pages = {store.page_of(oid) for oid in fresh}
    assert not (base_pages & fresh_pages)


def test_index_bookkeeping_follows_only_the_commits_that_concern_it():
    store = small_store()
    on_items = store.indexes.get(IndexDef("ix_items", "Items", ("label",), 5))
    on_extent = store.indexes.get(
        IndexDef("ix_extent", "extent(Item)", ("label",), 8)
    )
    # Never written: no change log, no rank table, no reverse maps.
    for index in (on_items, on_extent):
        assert index._log == [] and index._rank is None and index._rev is None
    with store.begin() as txn:
        txn.insert("Items", {"n": 1, "label": "a"})
    # Inserting into the named set joins the extent too: one entry each.
    assert [entry[0] for entry in on_items._log] == [1]
    assert [entry[0] for entry in on_extent._log] == [1]
    with store.begin() as txn:
        txn.insert("extent(Item)", {"n": 2, "label": "b"})
    # Items untouched by the second commit; the extent logged it.
    assert [entry[0] for entry in on_items._log] == [1]
    assert [entry[0] for entry in on_extent._log] == [1, 2]
    # A write that changes no indexed key changes nothing at all.
    oid = store.collection_oids("Items")[0]
    with store.begin() as txn:
        txn.update(oid, {**store.peek(oid), "n": 77})
    assert len(on_items._log) == 1 and len(on_extent._log) == 2
    assert on_items._rank is None and on_extent._rank is None
    # Earlier snapshots keep their earlier answers through the log.
    assert on_items.lookup_eq(store.view(snapshot=0), "a") == []
    assert len(on_items.lookup_eq(store.view(), "a")) == 1


def test_commit_rolls_everything_or_nothing():
    store = small_store()
    items = store.collection_oids("Items")
    t1 = store.begin()
    t2 = store.begin()
    t1.update(items[0], {"n": 1, "label": "w"})
    t2.update(items[1], {"n": 2, "label": "x"})
    t2.update(items[0], {"n": 3, "label": "y"})  # will conflict
    t1.commit()
    with pytest.raises(WriteConflict):
        t2.commit()
    # None of t2's writes are visible — not even the unconflicted one.
    assert store.peek(items[1])["n"] == 1
    assert store.peek(items[0])["label"] == "w"


def test_snapshot_view_scan_matches_collection_oids():
    store = small_store()
    with store.begin() as txn:
        txn.insert("Items", {"n": 50, "label": "scanned"})
    view = store.view()
    scanned = {row["i"].oid for row in view.scan("Items", "i")}
    assert scanned == set(view.collection_oids("Items"))
    # Shares of the page runs are disjoint in pages and concatenate to
    # the whole scan.
    shares = [
        [row["i"].oid for row in view.scan_partition("Items", n, 2, "i")]
        for n in (0, 1)
    ]
    assert shares[0] + shares[1] == [row["i"].oid for row in view.scan("Items", "i")]
    pages = [{view.page_of(oid) for oid in share} for share in shares]
    assert all(pages) and pages[0].isdisjoint(pages[1])
    assert list(view.scan_partition("Items", 2, 2, "i")) == []


def test_sample_store_fast_path_untouched():
    """The generated sample world never allocates MVCC structures."""
    store = generate_store()
    assert not store.mvcc.dirty
    assert store.view() is store


def test_rollback_empties_write_buffers():
    store = small_store()
    target = store.collection_oids("Items")[0]
    txn = store.begin()
    txn.insert("Items", {"n": 100, "label": "ghost"})
    txn.update(target, {"n": -1, "label": "ghost"})
    txn.rollback()
    assert txn.writes == 0
    # Even a view wrongly kept pointing at the dead transaction shows
    # only committed state — discarded writes never leak into reads.
    view = SnapshotView(store, store.mvcc.current_csn, txn)
    assert view.peek(target)["n"] == 0
    assert len(view.collection_oids("Items")) == 5


def test_eager_conflict_discards_partial_writes():
    """A write-write conflict mid-transaction dooms it *and* empties it.

    The regression: rollback used to flip only the status, so a session
    holding the doomed transaction kept reading the buffered writes of
    the statement that conflicted partway through.
    """
    store = small_store()
    oid_a, oid_b = store.collection_oids("Items")[:2]
    loser = store.begin()
    loser.update(oid_a, {"n": 111, "label": "partial"})
    winner = store.begin()
    winner.update(oid_b, {"n": 7, "label": "win"})
    winner.commit()
    with pytest.raises(WriteConflict):
        loser.update(oid_b, {"n": 8, "label": "lose"})
    assert loser.status == "rolled-back"
    assert loser.writes == 0
    view = SnapshotView(store, store.mvcc.current_csn, loser)
    assert view.peek(oid_a)["n"] == 0  # the buffered 111 is gone


def test_rolled_back_insert_does_not_grow_disk_span():
    store = small_store()
    span_before = store.disk.span_pages
    txn = store.begin()
    txn.insert("Items", {"n": 50, "label": "gone"})
    txn.rollback()
    assert store.disk.span_pages == span_before
    with store.begin() as kept:
        kept.insert("Items", {"n": 51, "label": "kept"})
    assert store.disk.span_pages > span_before


def test_readers_see_their_snapshot_membership_while_commits_land():
    """Commit k inserts item 8 + k - 1 into Items and deletes the one commit
    k - 1 inserted, installing a fresh latest list each time.  Readers pin
    views as the CSN moves and scan them then and again at the end, when
    their snapshots are old: each must show the five base members plus
    exactly its own commit's item."""
    store = small_store()
    base = list(store.collection_oids("Items"))
    commits, views, failures = 300, [], []

    def expected(csn):
        return base + ([Oid("Item", 8 + csn - 1)] if csn else [])

    def write():
        previous = None
        for number in range(commits):
            with store.begin() as txn:
                oid = txn.insert("Items", {"n": number, "label": "new"})
                if previous is not None:
                    txn.delete(previous)
            previous = oid

    def read():
        while store.mvcc.current_csn < commits:
            view = SnapshotView(store, store.mvcc.current_csn)
            views.append(view)
            if [row["i"].oid for row in view.scan("Items", "i")] != expected(view.snapshot):
                failures.append(view.snapshot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert store.mvcc.current_csn == commits
    assert not failures
    assert all(
        view.collection_oids("Items") == expected(view.snapshot) for view in views
    )
