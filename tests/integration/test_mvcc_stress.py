"""Snapshot isolation under 64 concurrent sessions of mixed DML + reads.

The classic transfer workload: writer sessions move population between
cities (read both inside the transaction, write both back, commit), so
every committed transaction conserves the total.  Reader sessions
repeatedly sum the whole collection.  Under snapshot isolation every
read runs against one consistent snapshot, so *every* observed sum must
equal the initial total — a torn read of a half-applied transfer would
show up immediately.  Write-write conflicts must surface as typed
``WriteConflict`` (never corrupt state), and the final state must equal
the initial total exactly.

Because each transfer's read set equals its write set, first-committer-
wins makes this workload fully serializable — there is no write-skew
window for it to fall into.
"""

import random
import threading

import pytest

from repro.api import Database
from repro.errors import AdmissionRejected, WriteConflict
from repro.server import DatabaseServer, ServerClient

SCALE = 0.02
SESSIONS = 64
WRITERS = 40
TRANSFERS_PER_WRITER = 3
READS_PER_READER = 4
#: Small hot set → real write-write contention.
POOL = [f"city{i}" for i in range(10)]


def population(client, name):
    """One city's population through this session's open transaction."""
    rows = client.query(
        f"SELECT x.population FROM x IN Cities WHERE x.name == '{name}'"
    )["rows"]
    return rows[0]["x.population"]


def total_population(client):
    """Sum over the whole collection in a single statement (one snapshot)."""
    rows = client.query("SELECT x.population FROM x IN Cities")["rows"]
    return sum(row["x.population"] for row in rows)


def transfer(client, source, target, amount):
    """Move ``amount`` between two cities inside one transaction."""
    client.begin()
    try:
        a = population(client, source)
        b = population(client, target)
        client.query(
            f"UPDATE x IN Cities SET x.population = {a - amount} "
            f"WHERE x.name == '{source}'"
        )
        client.query(
            f"UPDATE x IN Cities SET x.population = {b + amount} "
            f"WHERE x.name == '{target}'"
        )
        client.commit()
    except WriteConflict:
        # The transaction is already doomed server-side; just make sure
        # the session is clean for the next attempt.
        try:
            client.rollback()
        except Exception:  # noqa: BLE001 — best-effort cleanup
            pass
        raise


@pytest.mark.slow
def test_snapshot_isolation_under_64_sessions():
    db = Database.sample(scale=SCALE)
    initial = sum(
        row["x.population"]
        for row in db.query("SELECT x.population FROM x IN Cities").rows
    )
    server = DatabaseServer(db, port=0, max_wait_ms=120_000.0)
    host, port = server.start()

    outcome = {
        "commits": 0,
        "conflicts": 0,
        "bad_sums": [],
        "unexpected": [],
    }
    outcome_lock = threading.Lock()
    start_gate = threading.Event()

    def writer(seed):
        rng = random.Random(seed)
        try:
            with ServerClient(host, port, timeout=300.0) as client:
                start_gate.wait()
                for _ in range(TRANSFERS_PER_WRITER):
                    source, target = rng.sample(POOL, 2)
                    amount = rng.randint(1, 50)
                    try:
                        transfer(client, source, target, amount)
                        with outcome_lock:
                            outcome["commits"] += 1
                    except WriteConflict:
                        with outcome_lock:
                            outcome["conflicts"] += 1
                    except AdmissionRejected:
                        pass  # typed back-pressure is acceptable
        except Exception as exc:  # noqa: BLE001 — recorded, not swallowed
            with outcome_lock:
                outcome["unexpected"].append(f"writer {seed}: {exc!r}")

    def reader(seed):
        try:
            with ServerClient(host, port, timeout=300.0) as client:
                start_gate.wait()
                for _ in range(READS_PER_READER):
                    try:
                        observed = total_population(client)
                    except AdmissionRejected:
                        continue
                    if observed != initial:
                        with outcome_lock:
                            outcome["bad_sums"].append(observed)
        except Exception as exc:  # noqa: BLE001
            with outcome_lock:
                outcome["unexpected"].append(f"reader {seed}: {exc!r}")

    threads = [
        threading.Thread(target=writer, args=(i,), daemon=True)
        for i in range(WRITERS)
    ] + [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(SESSIONS - WRITERS)
    ]
    assert len(threads) == SESSIONS
    for thread in threads:
        thread.start()
    start_gate.set()
    for thread in threads:
        thread.join(timeout=600.0)
    assert not any(thread.is_alive() for thread in threads), "stress hung"
    server.stop()

    assert not outcome["unexpected"], "\n".join(outcome["unexpected"])
    # No torn reads: every snapshot summed to the conserved total.
    assert not outcome["bad_sums"], (
        f"non-conserved sums observed: {outcome['bad_sums'][:5]} "
        f"(expected {initial})"
    )
    # The final committed state conserves the total too.
    final = sum(
        row["x.population"]
        for row in db.query("SELECT x.population FROM x IN Cities").rows
    )
    assert final == initial
    # The workload actually exercised commits (conflicts retry elsewhere).
    assert outcome["commits"] > 0
    # Every conflict arrived as a typed WriteConflict, counted above; with
    # 40 writers over a 10-city hot set at least some contention is all
    # but certain, but the invariants above are what must hold regardless.


def test_conflict_is_deterministically_typed_across_sessions():
    """A guaranteed write-write conflict surfaces as WriteConflict."""
    db = Database.sample(scale=SCALE)
    server = DatabaseServer(db, port=0)
    host, port = server.start()
    try:
        with ServerClient(host, port) as first, ServerClient(
            host, port
        ) as second:
            second.begin()
            # Pin the second session's snapshot before the first commits.
            population(second, "city0")
            first.begin()
            first.query(
                "UPDATE x IN Cities SET x.population = 111 "
                "WHERE x.name == 'city0'"
            )
            first.commit()
            with pytest.raises(WriteConflict):
                second.query(
                    "UPDATE x IN Cities SET x.population = 222 "
                    "WHERE x.name == 'city0'"
                )
            # Loser's writes never became visible.
            assert population(first, "city0") == 111
    finally:
        server.stop(drain=False)
