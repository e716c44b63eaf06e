"""Unit tests for runtime attribute and path indexes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.catalog.catalog import IndexDef, extent_name
from repro.storage.datagen import JOE, generate_store, scaled_sizes
from repro.catalog.sample_db import build_catalog

from tests.conftest import QUERY_2

#: Query 2 on the mayor path index at scale 0.1; prints its simulated I/O.
Q2_CHILD = """
import sys
from repro.api import Database
db = Database.sample(scale=0.1)
db.create_index("ix_cities_mayor_name", "Cities", ("mayor", "name"))
print(repr(db.query(sys.argv[1], use_cache=False).execution.simulated_io_seconds))
"""


@pytest.fixture(scope="module")
def store():
    sizes = scaled_sizes(0.02)
    return generate_store(build_catalog(sizes), sizes)


class TestAttributeIndex:
    def test_equality_lookup(self, store):
        index = store.indexes.get(IndexDef("ix", "Tasks", ("time",), 10))
        oids = index.lookup_eq(store, 100)
        assert oids
        for oid in oids:
            assert store.peek(oid)["time"] == 100

    def test_lookup_miss(self, store):
        index = store.indexes.get(IndexDef("ix", "Tasks", ("time",), 10))
        assert index.lookup_eq(store, -1) == []

    def test_entries_cover_collection(self, store):
        index = store.indexes.get(IndexDef("ix", "Tasks", ("time",), 10))
        assert index.entry_count == store.collection_cardinality("Tasks")

    def test_range_lookup(self, store):
        index = store.indexes.get(IndexDef("ix", "Tasks", ("time",), 10))
        oids = index.lookup_range(store, low=10, high=30)
        assert oids
        for oid in oids:
            assert 10 <= store.peek(oid)["time"] <= 30

    def test_range_exclusive_bounds(self, store):
        index = store.indexes.get(IndexDef("ix", "Tasks", ("time",), 10))
        inclusive = index.lookup_range(store, low=10, high=30)
        exclusive = index.lookup_range(
            store, low=10, high=30, low_inclusive=False, high_inclusive=False
        )
        assert len(exclusive) < len(inclusive)


class TestPathIndex:
    def test_path_index_matches_navigation(self, store):
        """Path-index lookup must agree with a full scan + dereference."""
        index = store.indexes.get(IndexDef("ix", "Cities", ("mayor", "name"), 100))
        via_index = set(index.lookup_eq(store, JOE))
        via_scan = {
            oid
            for oid in store.collection_oids("Cities")
            if store.peek(store.peek(oid)["mayor"])["name"] == JOE
        }
        assert via_index == via_scan
        assert via_index  # the generator plants Joes

    def test_lookup_charges_io(self, store):
        index = store.indexes.get(IndexDef("ix", "Cities", ("mayor", "name"), 100))
        store.reset_accounting()
        index.lookup_eq(store, JOE)
        assert store.disk.stats.page_reads >= index.height

    def test_distinct_keys(self, store):
        index = store.indexes.get(IndexDef("ix", "Cities", ("mayor", "name"), 100))
        assert 1 < index.distinct_keys() <= index.entry_count

    def test_shape_grows_with_entries(self, store):
        small = store.indexes.get(IndexDef("a", "Capitals", ("name",), 4))
        large = store.indexes.get(IndexDef("b", extent_name("Employee"), ("name",), 4))
        assert large.leaf_pages > small.leaf_pages
        assert large.height >= small.height >= 1


def test_simulated_io_does_not_follow_the_string_hash():
    """Index pages sit where creation order puts them, so two processes
    with different string-hash seeds simulate the same seeks."""
    src = str(Path(repro.__file__).parents[1])
    outputs = {
        subprocess.run(
            [sys.executable, "-c", Q2_CHILD, QUERY_2],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outputs) == 1, outputs
