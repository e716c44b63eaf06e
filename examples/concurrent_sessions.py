#!/usr/bin/env python3
"""The serving tier: concurrent sessions, DML, and snapshot isolation.

Run with:  python examples/concurrent_sessions.py [scale]

Walks the multi-user surface end to end:

1. DML through the optimizer — INSERT/UPDATE/DELETE with auto-commit
   CSNs; UPDATE target selection planned like any query;
2. explicit transactions — read-your-own-writes, invisibility to other
   sessions until commit, rollback, and the typed ``WriteConflict``
   under first-committer-wins;
3. a real TCP server — one event-loop thread serving many client
   sessions over one database, in arrival order; the full CLI surface
   over the wire, server-side cursors;
4. the conserved-transfer stress — concurrent writers move population
   between cities while readers sum the collection; every snapshot
   observes the same conserved total.
"""

import random
import sys
import threading

from repro import Database
from repro.errors import WriteConflict
from repro.server import DatabaseServer, ServerClient


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def dml_basics(db: Database) -> None:
    section("DML with auto-commit")
    result = db.query(
        "INSERT INTO Cities (name, population) VALUES ('Springfield', 30700)"
    )
    print(f"insert: {result.affected} object(s) at csn {result.csn}")
    result = db.query(
        "UPDATE c IN Cities SET c.population = 31000 "
        "WHERE c.name == 'Springfield'"
    )
    print(f"update: {result.affected} object(s) at csn {result.csn}")
    rows = db.query(
        "SELECT c.population FROM c IN Cities WHERE c.name == 'Springfield'"
    ).rows
    print(f"read back: {rows}")
    result = db.query("DELETE c IN Cities WHERE c.name == 'Springfield'")
    print(f"delete: {result.affected} object(s) at csn {result.csn}")


def transactions(db: Database) -> None:
    section("Transactions and snapshot isolation")
    txn = db.begin()
    db.query(
        "UPDATE c IN Cities SET c.population = 1 WHERE c.name == 'city0'",
        transaction=txn,
    )
    mine = db.query(
        "SELECT c.population FROM c IN Cities WHERE c.name == 'city0'",
        transaction=txn,
    ).rows[0]["c.population"]
    theirs = db.query(
        "SELECT c.population FROM c IN Cities WHERE c.name == 'city0'"
    ).rows[0]["c.population"]
    print(f"inside the txn city0 = {mine}; other sessions still see {theirs}")
    csn = txn.commit()
    print(f"committed at csn {csn}; now everyone sees the write")

    loser = db.begin()  # snapshot pinned before the winner commits
    db.query("SELECT c.name FROM c IN Cities", transaction=loser)
    winner = db.begin()
    db.query(
        "UPDATE c IN Cities SET c.population = 2 WHERE c.name == 'city0'",
        transaction=winner,
    )
    winner.commit()
    try:
        db.query(
            "UPDATE c IN Cities SET c.population = 3 WHERE c.name == 'city0'",
            transaction=loser,
        )
    except WriteConflict as exc:
        print(f"first committer wins; the loser gets: {exc}")
    print(f"loser status: {loser.status} (rolled back whole)")


def remote_sessions(db: Database) -> None:
    section("A TCP server with per-session state")
    server = DatabaseServer(db, port=0)
    host, port = server.start()
    print(f"serving on {host}:{port}")
    with ServerClient(host, port) as a, ServerClient(host, port) as b:
        print("banner:", a.hello())
        # The full CLI surface travels over the wire, per session.
        a.line(".timeout 5000")
        print("session a:", a.line(".timeout"))
        print("session b:", b.line(".timeout"), "(state is private)")
        payload = a.query(
            "SELECT c.name FROM c IN Cities WHERE c.population > 900000"
        )
        print(f"structured query: {payload['row_count']} row(s)")
        cursor = b.query_cursor("SELECT c.name FROM c IN Cities")
        batch = b.fetch(cursor, n=5)
        print(f"cursor fetch: {len(batch['rows'])} row(s), done={batch['done']}")
        print("live sessions:")
        for line in server.session_info():
            print("  " + line)
    server.stop()
    print("server drained and stopped")


def conserved_transfers(db: Database, writers: int = 8) -> None:
    section("Concurrent transfers conserve the total")
    initial = sum(
        r["c.population"]
        for r in db.query("SELECT c.population FROM c IN Cities").rows
    )
    server = DatabaseServer(db, port=0, max_wait_ms=60_000.0)
    host, port = server.start()
    conflicts = [0]
    lock = threading.Lock()

    def transfer_worker(seed: int) -> None:
        rng = random.Random(seed)
        with ServerClient(host, port, timeout=120.0) as client:
            for _ in range(3):
                source, target = rng.sample(
                    [f"city{i}" for i in range(8)], 2
                )
                amount = rng.randint(1, 50)
                client.begin()
                try:
                    a = client.query(
                        f"SELECT c.population FROM c IN Cities "
                        f"WHERE c.name == '{source}'"
                    )["rows"][0]["c.population"]
                    if a < amount:  # never drive a population negative
                        client.rollback()
                        continue
                    b = client.query(
                        f"SELECT c.population FROM c IN Cities "
                        f"WHERE c.name == '{target}'"
                    )["rows"][0]["c.population"]
                    client.query(
                        f"UPDATE c IN Cities SET c.population = {a - amount} "
                        f"WHERE c.name == '{source}'"
                    )
                    client.query(
                        f"UPDATE c IN Cities SET c.population = {b + amount} "
                        f"WHERE c.name == '{target}'"
                    )
                    client.commit()
                except WriteConflict:
                    with lock:
                        conflicts[0] += 1
                    try:
                        client.rollback()
                    except Exception:  # noqa: BLE001 — already doomed
                        pass

    threads = [
        threading.Thread(target=transfer_worker, args=(i,))
        for i in range(writers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.stop()
    final = sum(
        r["c.population"]
        for r in db.query("SELECT c.population FROM c IN Cities").rows
    )
    print(
        f"{writers} writers, {conflicts[0]} typed conflict(s); "
        f"total {initial} -> {final} "
        f"({'conserved' if final == initial else 'LOST UPDATES!'})"
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Building the Table 1 sample database at scale {scale} ...")
    db = Database.sample(scale=scale)
    dml_basics(db)
    transactions(db)
    remote_sessions(db)
    conserved_transfers(db)


if __name__ == "__main__":
    main()
