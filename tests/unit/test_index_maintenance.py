"""The commit-maintained index against its oracle, ``IndexRuntime.build``.

A seeded random history of commits — key updates on the roots, reference
and attribute updates on the objects a path passes through, inserts,
deletes, deletes of *referenced* objects — runs against a small store
with attribute and path indexes (one and two links, on a named set and on
an extent).  After every commit each maintained index must answer every
probe exactly as a fresh build of the same view does: same OIDs, same
order, same simulated I/O — at the latest snapshot, at every older
snapshot since the index was built, and from inside open transactions
with buffered writes of their own.
"""

import random

import pytest

from repro.catalog.catalog import Catalog, IndexDef
from repro.catalog.schema import Schema, TypeDef, ref, scalar
from repro.errors import StorageError
from repro.storage.index import IndexRuntime
from repro.storage.store import ObjectStore

DEFINITIONS = (
    IndexDef("ix_k", "As", ("k",), 4),
    IndexDef("ix_rv", "As", ("r", "v"), 4),
    IndexDef("ix_rrw", "As", ("r", "r", "w"), 4),
    IndexDef("ix_ext", "extent(A)", ("r", "v"), 4),
)
KEYS = (None, 0, 1, 2, 3, 4, 99)


def small_world(seed: int):
    """A sealed store: A -> B -> C reference chains, named set plus extent."""
    rng = random.Random(seed)
    schema = Schema()
    schema.add_type(TypeDef("C", 50, (scalar("w", "int"),)), with_extent=True)
    schema.add_type(
        TypeDef("B", 50, (scalar("v", "int"), ref("r", "C"))), with_extent=True
    )
    schema.add_type(
        TypeDef("A", 50, (scalar("k", "int"), ref("r", "B"))), with_extent=True
    )
    schema.add_named_set("As", "A")
    store = ObjectStore(Catalog(schema))
    cs = [store.insert("C", {"w": rng.randrange(4)}) for _ in range(5)]
    bs = [
        store.insert(
            "B",
            {"v": rng.randrange(4), "r": rng.choice(cs + [None])},
        )
        for _ in range(7)
    ]
    members = [
        store.insert(
            "A", {"k": rng.randrange(4), "r": rng.choice(bs + [None])}
        )
        for _ in range(14)
    ]
    # A named set in its own order, not a prefix of the extent.
    named = members[:10]
    rng.shuffle(named)
    store.register_collection("As", named)
    store.seal()
    for definition in DEFINITIONS:
        store.catalog.add_index(definition)
    return store, rng


def visible(store, type_name: str, view=None) -> list:
    view = view if view is not None else store.view()
    return list(view.collection_oids(f"extent({type_name})"))


def random_writes(store, txn, rng, dangling: bool) -> None:
    """Buffer one to three random writes into ``txn``."""
    view = store.view(txn=txn)
    for _ in range(rng.randint(1, 3)):
        roots = visible(store, "A", view)
        bs = visible(store, "B", view)
        cs = visible(store, "C", view)
        kind = rng.choice(
            ("a.k", "a.r", "b.v", "b.r", "c.w", "insert", "delete")
            + (("kill",) if dangling else ())
        )
        if kind == "a.k" and roots:
            oid = rng.choice(roots)
            txn.update(oid, {**view.peek(oid), "k": rng.randrange(5)})
        elif kind == "a.r" and roots:
            oid = rng.choice(roots)
            txn.update(oid, {**view.peek(oid), "r": rng.choice(bs + [None])})
        elif kind == "b.v" and bs:
            oid = rng.choice(bs)
            txn.update(oid, {**view.peek(oid), "v": rng.randrange(5)})
        elif kind == "b.r" and bs:
            oid = rng.choice(bs)
            txn.update(oid, {**view.peek(oid), "r": rng.choice(cs + [None])})
        elif kind == "c.w" and cs:
            oid = rng.choice(cs)
            txn.update(oid, {**view.peek(oid), "w": rng.randrange(5)})
        elif kind == "insert":
            txn.insert(
                rng.choice(("As", "extent(A)")),
                {"k": rng.randrange(5), "r": rng.choice(bs + [None])},
            )
        elif kind == "delete" and len(roots) > 4:
            txn.delete(rng.choice(roots))
        elif kind == "kill" and len(bs) > 3:
            txn.delete(rng.choice(bs if rng.random() < 0.7 else cs or bs))


def probes(index, view):
    """Every probe's (result, page reads), cold pool each; or the error."""
    store = view.mvcc.store
    out = []

    def run(call, *args, **kwargs):
        store.buffer.flush()
        before = store.disk.stats.page_reads
        result = call(view, *args, **kwargs)
        out.append((result, store.disk.stats.page_reads - before))

    try:
        for key in KEYS:
            run(index.lookup_eq, key)
            run(index.lookup_ne, key)
        run(index.lookup_range)
        run(index.lookup_range, low=1, high=3)
        run(index.lookup_range, low=1, high=3, low_inclusive=False)
        run(index.lookup_range, high=2, high_inclusive=False)
        run(index.lookup_range, low=2)
    except StorageError:
        return "StorageError"
    return out


def assert_matches_fresh_build(store, view, label):
    for definition in DEFINITIONS:
        maintained = store.indexes.get(definition)
        try:
            fresh = IndexRuntime.build(view, definition)
        except StorageError:
            expected = "StorageError"
        else:
            expected = probes(fresh, view)
        assert probes(maintained, view) == expected, (label, definition.name)


@pytest.mark.parametrize("seed", range(6))
def test_maintained_index_equals_fresh_build_at_every_view(seed):
    store, rng = small_world(seed)
    for definition in DEFINITIONS:
        store.indexes.get(definition)
    #: Transactions kept open across later commits.
    sessions = []
    for step in range(40):
        dangling = seed % 2 == 1 and step > 25
        txn = store.begin()
        random_writes(store, txn, rng, dangling)
        # Read-your-own-writes through the index, before the commit.
        assert_matches_fresh_build(store, store.view(txn=txn), f"own {step}")
        if rng.random() < 0.15:
            txn.rollback()
        else:
            txn.commit()
        now = store.mvcc.current_csn
        recent = range(max(0, now - 2), now + 1)
        for snapshot in {0, *recent, *rng.sample(range(now + 1), min(3, now))}:
            assert_matches_fresh_build(
                store, store.view(snapshot=snapshot), f"{step}@{snapshot}"
            )
        # Sessions that began earlier, with buffered writes of their own,
        # read through indexes that have changed since their snapshot.
        if rng.random() < 0.3:
            older = store.begin()
            random_writes(store, older, rng, dangling=False)
            sessions.append(older)
        for older in sessions:
            assert_matches_fresh_build(
                store, store.view(txn=older), f"session {older.snapshot}@{step}"
            )
        if len(sessions) > 3:
            sessions.pop(0).rollback()


def test_entries_stay_in_scan_order_and_equal_to_a_fresh_build():
    store, rng = small_world(7)
    for definition in DEFINITIONS:
        store.indexes.get(definition)
    for _ in range(60):
        with store.begin() as txn:
            random_writes(store, txn, rng, dangling=False)
        for definition in DEFINITIONS:
            maintained = store.indexes.built(definition.name)
            fresh = IndexRuntime.build(store.view(), definition)
            assert maintained.entries == fresh.entries
            assert maintained.entry_count == fresh.entry_count


def test_untouched_index_allocates_nothing_and_unrelated_writes_leave_it_alone():
    store, _ = small_world(3)
    index = store.indexes.get(DEFINITIONS[1])  # As(r.v)
    c = visible(store, "C")[0]
    with store.begin() as txn:
        txn.update(c, {"w": 42})  # C is not on the path r.v
    assert index._log == [] and index._rev is None and index._rank is None
    # A write to the referenced type builds the reverse map — once.
    b = store.peek(store.collection_oids("As")[0])["r"] or visible(store, "B")[0]
    with store.begin() as txn:
        txn.update(b, {**store.peek(b), "v": 77})
    assert index._rev is not None
    assert all(entry[3] == 77 for entry in index._log)


def test_view_pinned_before_the_build_falls_back_to_a_private_build(monkeypatch):
    store, rng = small_world(5)
    with store.begin() as txn:
        random_writes(store, txn, rng, dangling=False)
    early = store.view(snapshot=0)
    definition = DEFINITIONS[0]
    index = store.indexes.get(definition)  # built at CSN 1
    assert index.built_csn == 1
    builds = []
    original = IndexRuntime.build.__func__
    monkeypatch.setattr(
        IndexRuntime,
        "build",
        classmethod(
            lambda cls, view, d: builds.append(d.name) or original(cls, view, d)
        ),
    )
    index.lookup_eq(store.view(), 1)
    assert builds == []
    assert index.lookup_eq(early, 1) == original(
        IndexRuntime, early, definition
    ).lookup_eq(early, 1)
    assert builds == [definition.name]


def test_dangling_reference_raises_like_a_fresh_build_and_heals():
    store, _ = small_world(2)
    definition = DEFINITIONS[1]  # As(r.v)
    index = store.indexes.get(definition)
    root = next(
        oid for oid in store.collection_oids("As") if store.peek(oid)["r"]
    )
    victim = store.peek(root)["r"]
    before = store.mvcc.current_csn
    with store.begin() as txn:
        txn.delete(victim)
    with pytest.raises(StorageError):
        IndexRuntime.build(store.view(), definition)
    with pytest.raises(StorageError, match="dangling"):
        index.lookup_eq(store.view(), 1)
    # The snapshot before the delete still reads cleanly.
    old = store.view(snapshot=before)
    assert index.lookup_eq(old, 1) == IndexRuntime.build(old, definition).lookup_eq(old, 1)
    # Pointing every orphaned root elsewhere heals the index.
    with store.begin() as txn:
        for oid in store.collection_oids("As"):
            data = store.view().peek(oid)
            if data["r"] == victim:
                txn.update(oid, {**data, "r": None})
    view = store.view()
    assert index.lookup_eq(view, 1) == IndexRuntime.build(view, definition).lookup_eq(view, 1)
