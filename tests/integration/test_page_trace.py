"""The buffer pool's request sequence, pinned from outside the program.

Every simulated-I/O number (hits, misses, seeks, simulated milliseconds,
LRU order under eviction) is a function of the sequence of page requests
a statement makes and of the I/O scope each is attributed to.  A request
is one ``read_page(page_id)`` call, or one of the ``count`` repeats that a
``rehit(page_id, count, scope)`` credits after the fact.  This test wraps
both on one pool *instance*, records the expanded sequence per thread, and
compares its length and SHA-256 against ``tests/golden/page_trace.json`` —
recorded when every request was its own ``read_page`` call, so any change
below the operators that batches, reorders, skips or re-attributes a page
request fails here rather than as a drifted benchmark figure.

Regenerate (only when a PR *means* to change the sequence, and says why):
``PYTHONPATH=src python -m tests.integration.test_page_trace``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path

import pytest

from repro.api import Database

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "page_trace.json"
PAPER = {"q1": QUERY_1, "q2": QUERY_2, "q3": QUERY_3, "q4": QUERY_4}
CITY_SCAN = "SELECT * FROM City c IN Cities"
RANGE_PROBE = "SELECT * FROM Task t IN Tasks WHERE t.time < 40"


class PageTrace:
    """Records ``(page, scope label)`` per page request, per thread: one
    per ``read_page`` call and ``count`` per ``rehit`` credit.

    Both are id-free.  The scope label is the ordinal at which that scope
    object was first seen on its thread (``None`` with no scope pushed),
    so two runs agree exactly when they attribute the same requests to
    the same operators in the same order.
    """

    def __init__(self, store) -> None:
        self.pool = store.buffer
        self.threads: dict[threading.Thread, list[tuple]] = {}
        self._scopes: dict[threading.Thread, list[object]] = {}
        self._lock = threading.Lock()

    def _entry(self, thread, page_id: int, scope) -> tuple:
        """The id-free ``(page, scope label)`` of one request (lock held)."""
        label = None
        if scope is not None:
            seen = self._scopes.setdefault(thread, [])
            for label, known in enumerate(seen):
                if known is scope:
                    break
            else:
                label = len(seen)
                seen.append(scope)
        return page_id, label

    def __enter__(self) -> "PageTrace":
        pool, read_page, rehit = self.pool, self.pool.read_page, self.pool.rehit

        def recording(page_id: int) -> float:
            stack = getattr(pool._io_scopes, "stack", None)
            # The Thread object, not its ident: idents are reused as soon
            # as a thread exits.
            thread = threading.current_thread()
            with self._lock:
                entry = self._entry(thread, page_id, stack[-1] if stack else None)
                self.threads.setdefault(thread, []).append(entry)
            return read_page(page_id)

        def expanding(page_id: int, count: int, scope) -> None:
            # A credited streak is `count` requests the caller did not
            # make one by one.  All of them precede whatever ended the
            # streak, so they belong directly after this thread's latest
            # entry for the same page and scope.
            with self._lock:
                thread = threading.current_thread()
                entry = self._entry(thread, page_id, scope)
                sequence = self.threads[thread]
                at = len(sequence) - sequence[::-1].index(entry)
                sequence[at:at] = [entry] * count
            rehit(page_id, count, scope)

        pool.read_page, pool.rehit = recording, expanding
        return self

    def __exit__(self, *exc_info) -> None:
        # The class attributes show through again.
        del self.pool.read_page, self.pool.rehit

    def digests(self) -> list[list]:
        """Sorted ``[length, sha256]`` per thread that read a page."""
        out = []
        for sequence in self.threads.values():
            text = ";".join(f"{page}:{label}" for page, label in sequence)
            out.append([len(sequence), hashlib.sha256(text.encode()).hexdigest()])
        return sorted(out)

    @property
    def scoped_calls(self) -> int:
        return sum(
            1 for seq in self.threads.values() for _, label in seq if label is not None
        )


FIGURES = ("page_reads", "buffer_hit_rate", "simulated_io_seconds")


def traced(db: Database, run) -> dict:
    """Run one statement under a page trace; the golden entry for it."""
    with PageTrace(db.store) as trace:
        execution = run().execution
    entry = {
        "threads": trace.digests(),
        "scoped_calls": trace.scoped_calls,
        "rows": len(execution.rows),
    }
    for name in FIGURES:
        entry[name] = getattr(execution, name)
    return entry


def record_all() -> dict[str, dict]:
    cases: dict[str, dict] = {}

    db = Database.sample(scale=0.05, seed=1)
    for name, text in PAPER.items():
        cases[f"cold-{name}"] = traced(db, lambda: db.query(text))

    db = Database.sample(scale=0.05, seed=1)
    db.store.buffer.capacity = 16
    for name, text in PAPER.items():
        cases[f"capacity16-{name}"] = traced(db, lambda: db.query(text))

    db = Database.sample(scale=0.05, seed=1)
    db.create_index("ix_mayor", "Cities", ("mayor", "name"))
    db.create_index("ix_time", "Tasks", ("time",))
    cases["index-q2"] = traced(db, lambda: db.query(QUERY_2))
    cases["index-range"] = traced(db, lambda: db.query(RANGE_PROBE))

    db = Database.sample(scale=0.05, seed=1)
    cases["explain-analyze-q1"] = traced(db, lambda: db.explain_analyze(QUERY_1))

    db = Database.sample(scale=0.05, seed=1)
    pinned = db.begin()
    db.query("UPDATE c IN Cities SET c.population = 7 WHERE c.name == 'city3'")
    db.query("INSERT INTO Cities (name, population) VALUES ('overflow', 1)")
    db.query("DELETE c IN Cities WHERE c.name == 'city5'")
    cases["dirty-latest"] = traced(db, lambda: db.query(CITY_SCAN))
    cases["dirty-pinned"] = traced(
        db, lambda: db.query(CITY_SCAN, transaction=pinned)
    )
    writer = db.begin()
    db.query(
        "INSERT INTO Cities (name, population) VALUES ('pending', 2)",
        transaction=writer,
    )
    cases["dirty-open-txn"] = traced(
        db, lambda: db.query(CITY_SCAN, transaction=writer)
    )
    cases["dirty-q2"] = traced(db, lambda: db.query(QUERY_2))
    writer.rollback()
    pinned.rollback()
    return cases


@pytest.fixture(scope="module")
def recorded() -> dict[str, dict]:
    return record_all()


def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_every_golden_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(golden())


@pytest.mark.parametrize("case", sorted(golden()) if GOLDEN.exists() else [])
def test_read_page_sequence_and_io_figures_match_parent(recorded, case):
    # Plain ==, floats included: the same request sequence against the
    # same simulated disk gives the same bits, not merely a close value.
    assert recorded[case] == golden()[case]


def test_the_cases_exercise_what_they_claim(recorded):
    for name in PAPER:
        cold, tight = recorded[f"cold-{name}"], recorded[f"capacity16-{name}"]
        assert cold["threads"] == tight["threads"]  # same requests ...
    # ... but a 16-frame pool evicts, so Q2's mayor fetches miss again.
    assert recorded["capacity16-q2"]["page_reads"] > recorded["cold-q2"]["page_reads"]
    analyzed = recorded["explain-analyze-q1"]
    assert analyzed["scoped_calls"] == analyzed["threads"][0][0] > 0
    assert analyzed["threads"] != recorded["cold-q1"]["threads"]  # labels differ
    assert recorded["cold-q1"]["scoped_calls"] == 0
    # The latest scan has one member more (the insert) and one fewer (the
    # delete) than the pinned one; the open transaction adds its own.
    lengths = {
        key: recorded[key]["threads"][0][0]
        for key in ("dirty-pinned", "dirty-latest", "dirty-open-txn")
    }
    assert lengths["dirty-latest"] == lengths["dirty-pinned"]
    assert lengths["dirty-open-txn"] == lengths["dirty-latest"] + 1
    assert recorded["dirty-latest"]["threads"] != recorded["dirty-pinned"]["threads"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
