"""Concurrency stress tests for the thread-safe storage layer.

The invariants server session threads sharing one pool depend on:

* the buffer pool's global counters are exact under contention —
  ``hits + misses == total page requests`` with no lost updates;
* the frame table never exceeds capacity and never leaks a frame;
* per-thread I/O scopes attribute each thread's traffic to its own
  collectors, never to another thread's;
* the plan cache survives concurrent lookups/stores from many
  ``Database.query`` callers sharing one cache.
"""

import threading

from repro.api import Database
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskSimulator

from tests.conftest import SCALE

THREADS = 8
REQUESTS_PER_THREAD = 2_000


def hammer(pool: BufferPool, thread_index: int, span: int) -> None:
    for i in range(REQUESTS_PER_THREAD):
        pool.read_page((thread_index * 7 + i * 13) % span)


class TestBufferPoolUnderContention:
    def test_counters_exact_and_no_frame_leaked(self):
        disk = DiskSimulator()
        span = 256
        disk.extend_span(span)
        pool = BufferPool(disk, capacity=64)
        threads = [
            threading.Thread(target=hammer, args=(pool, t, span))
            for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = THREADS * REQUESTS_PER_THREAD
        assert pool.stats.hits + pool.stats.misses == total
        assert pool.resident_pages <= pool.capacity
        # Every miss went through the disk simulator exactly once.
        assert disk.stats.page_reads == pool.stats.misses

    def test_per_thread_scopes_attribute_to_own_collector(self):
        class Scope:
            def __init__(self):
                self.hits = 0
                self.misses = 0

        disk = DiskSimulator()
        disk.extend_span(64)
        pool = BufferPool(disk, capacity=64)
        scopes = [Scope() for _ in range(THREADS)]

        def worker(index: int) -> None:
            pool.push_io_scope(scopes[index])
            try:
                for i in range(500):
                    pool.read_page(i % 64)
            finally:
                pool.pop_io_scope()

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for scope in scopes:
            assert scope.hits + scope.misses == 500
        assert sum(s.hits + s.misses for s in scopes) == THREADS * 500
        assert pool.io_scope_depth == 0


class TestConcurrentQueries:
    def test_threads_share_one_plan_cache(self):
        db = Database.sample(scale=SCALE)
        query = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{0}"'
        names = ["Joe", "Fred", "Ann", "Sue"]
        errors: list[BaseException] = []
        results: list[int] = []
        lock = threading.Lock()

        def run(name: str) -> None:
            try:
                for _ in range(5):
                    result = db.query(query.format(name))
                    with lock:
                        results.append(len(result.rows))
            except BaseException as exc:  # noqa: BLE001 - worker thread:
                # any crash must surface in the main thread's assertion
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(names[t % len(names)],))
            for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == THREADS * 5
        stats = db.plan_cache.stats
        # Every lookup was accounted: hits + misses == lookups, and the
        # shape was optimized at least once but far fewer times than the
        # total query count (the cache actually shared work).
        assert stats.lookups == THREADS * 5
        assert stats.hits + stats.misses == stats.lookups
        assert 1 <= stats.stores < THREADS * 5
