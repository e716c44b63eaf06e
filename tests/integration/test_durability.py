"""Durability subsystem: WAL framing, checkpoints, recovery, crash points.

The contract under test: a commit that was acknowledged (or whose log
record was fully fsynced) survives ``Database.open`` byte-for-byte; a
torn record vanishes as if never attempted; recovery is idempotent; and
a crash at any point of the checkpoint protocol leaves the previous
checkpoint plus the full log authoritative.
"""

import os
import shutil

import pytest

from repro.api import Database
from repro.durability.checkpoint import (
    checkpoint_path,
    load_newest_checkpoint,
    write_checkpoint,
)
from repro.durability.manager import _encode_mvcc
from repro.durability.wal import LOG_NAME, LogRecord, frame, scan_log
from repro.errors import SessionExpired, StorageError
from repro.governor.faults import CrashPlan, SimulatedCrash

SCALE = 0.02


def durable(tmp_path, **kwargs) -> tuple[Database, str]:
    directory = str(tmp_path / "db")
    db = Database.sample(scale=SCALE)
    db.enable_durability(directory, **kwargs)
    return db, directory


def scan_text(db: Database, collection: str = "Cities") -> list[str]:
    """A totally-ordered, oid-inclusive rendering of one collection."""
    result = db.query(
        f"SELECT * FROM c IN {collection} ORDER BY c.name ASC"
    )
    lines = []
    for row in result.rows:
        handle = row["c"]
        lines.append(f"{handle.oid}:{handle.data!r}")
    return lines


class TestRoundTrip:
    def test_reopen_replays_committed_dml(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Zzz', 7)")
        db.query("UPDATE c IN Cities SET c.population = 123 "
                 "WHERE c.name == 'Zzz'")
        db.query("DELETE c IN Cities WHERE c.population > 9000000")
        want = scan_text(db)
        want_csn = db.store.mvcc.current_csn

        recovered = Database.open(directory)
        assert recovered.store.mvcc.current_csn == want_csn
        assert scan_text(recovered) == want
        assert recovered.durability.last_recovery["replayed"] == 3

    def test_recovered_engine_mints_identical_oids(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Aaa', 1)")
        recovered = Database.open(directory)
        # The same follow-up INSERT must mint the same OID on both
        # engines: the log's minted field replays the allocator exactly.
        stmt = "INSERT INTO Cities (name, population) VALUES ('Bbb', 2)"
        db.query(stmt)
        recovered.query(stmt)
        assert scan_text(db) == scan_text(recovered)

    def test_checkpoint_truncates_log(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Ccc', 3)")
        assert os.path.getsize(os.path.join(directory, LOG_NAME)) > 0
        csn = db.checkpoint()
        assert csn == db.store.mvcc.current_csn
        assert os.path.getsize(os.path.join(directory, LOG_NAME)) == 0

        recovered = Database.open(directory)
        assert recovered.durability.last_recovery == {
            "checkpoint_csn": csn,
            "replayed": 0,
        }
        assert scan_text(recovered) == scan_text(db)

    def test_close_checkpoints_on_the_way_out(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Ddd', 4)")
        want = scan_text(db)
        db.close()
        assert db.durability is None
        assert os.path.getsize(os.path.join(directory, LOG_NAME)) == 0
        recovered = Database.open(directory)
        assert scan_text(recovered) == want

    def test_indexes_are_rebuilt_from_manifest(self, tmp_path):
        db, directory = durable(tmp_path)
        db.create_index("city_pop", "Cities", ("population",))
        db.query("INSERT INTO Cities (name, population) VALUES ('Eee', 5)")
        recovered = Database.open(directory)
        assert "city_pop" in [ix.name for ix in recovered.catalog.indexes()]
        recovered.drop_index("city_pop")
        reopened = Database.open(directory)
        assert "city_pop" not in [
            ix.name for ix in reopened.catalog.indexes()
        ]


    def test_recovered_indexes_build_on_first_use_and_are_maintained(
        self, tmp_path
    ):
        db, directory = durable(tmp_path)
        db.create_index("city_mayor", "Cities", ("mayor", "name"))
        db.query("INSERT INTO Cities (name, population) VALUES ('Fff', 6)")
        db.checkpoint()
        db.query("UPDATE p IN extent(Person) SET p.name = 'Zed' "
                 "WHERE p.name == 'Joe'")
        recovered = Database.open(directory)
        # Recovery builds nothing: the checkpoint replaced the state any
        # bootstrap-time build described, and replay had none to maintain.
        assert recovered.store.indexes.built("city_mayor") is None
        probe = "SELECT c.name FROM City c IN Cities WHERE c.mayor.name == '{}'"
        assert len(recovered.query(probe.format("Zed")).rows) == len(
            db.query(probe.format("Zed")).rows
        ) > 0
        index = recovered.store.indexes.built("city_mayor")
        assert index.built_csn == recovered.store.mvcc.current_csn
        assert index._log == []
        # From here on commits maintain it, as on the engine that never
        # crashed.
        for engine in (db, recovered):
            engine.query("UPDATE p IN extent(Person) SET p.name = 'Joe' "
                         "WHERE p.name == 'Zed'")
            assert engine.query(probe.format("Zed")).rows == []
        assert recovered.query(probe.format("Joe")).rows == db.query(
            probe.format("Joe")
        ).rows

    def test_checkpoint_bytes_equal_the_fully_encoded_form(self, tmp_path):
        """Records reach ``json.dumps`` unencoded (the OID hook tags them
        on the way out); the bytes must be those of encoding every value
        up front, set-valued references included."""
        import json

        from repro.durability.codec import encode_oid, encode_value

        db, directory = durable(tmp_path)
        db.query("UPDATE c IN Cities SET c.population = 1 WHERE c.name == 'city1'")
        db.query("UPDATE t IN Tasks SET t.time = 7 WHERE t.time == 100")
        db.query("DELETE c IN Cities WHERE c.name == 'city2'")
        csn = db.checkpoint()
        with open(checkpoint_path(directory, csn), "rb") as fh:
            payload = fh.read()[4:]
        state = json.loads(payload)
        raw = db.store.mvcc.state_snapshot()
        assert any(
            isinstance(value, tuple)
            for chain in raw["versions"].values()
            for _, data in chain
            if data
            for value in data.values()
        )
        state["mvcc"]["versions"] = [
            [encode_oid(oid), [[c, encode_value(data)] for c, data in chain]]
            for oid, chain in raw["versions"].items()
        ]
        assert json.dumps(state, separators=(",", ":")).encode() == payload


class TestApiGuards:
    def test_enable_twice_refuses(self, tmp_path):
        db, directory = durable(tmp_path)
        other = Database.sample(scale=SCALE)
        with pytest.raises(StorageError, match="Database.open"):
            other.enable_durability(directory)

    def test_open_non_durable_directory_refuses(self, tmp_path):
        with pytest.raises(StorageError, match="manifest"):
            Database.open(str(tmp_path / "nope"))

    def test_checkpoint_without_durability_refuses(self):
        db = Database.sample(scale=SCALE)
        with pytest.raises(StorageError):
            db.checkpoint()

    def test_durability_needs_reproducible_bootstrap(self, tmp_path):
        db = Database.sample(scale=SCALE)
        db.bootstrap = None
        with pytest.raises(StorageError, match="bootstrap"):
            db.enable_durability(str(tmp_path / "db"))


class TestRecoveryEdgeCases:
    def test_empty_log_recovers_to_base(self, tmp_path):
        db, directory = durable(tmp_path)
        base = scan_text(db)
        recovered = Database.open(directory)
        assert recovered.store.mvcc.current_csn == 0
        assert scan_text(recovered) == base

    def test_torn_tail_truncated_at_every_byte_offset(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Fff', 6)")
        want = scan_text(db)
        db.query("UPDATE c IN Cities SET c.population = 99 "
                 "WHERE c.name == 'Fff'")
        log_path = os.path.join(directory, LOG_NAME)
        blob = open(log_path, "rb").read()
        records, valid = scan_log(log_path)
        assert len(records) == 2 and valid == len(blob)
        boundary = len(frame(records[0].to_payload()))

        for cut in range(boundary, len(blob)):
            trial = str(tmp_path / f"cut-{cut}")
            shutil.copytree(directory, trial)
            with open(os.path.join(trial, LOG_NAME), "r+b") as fh:
                fh.truncate(cut)
            recovered = Database.open(trial)
            # Only the first commit survives, at every truncation point
            # inside the second record — torn header, torn payload, all.
            assert recovered.store.mvcc.current_csn == 1, cut
            assert scan_text(recovered) == want, cut
            # The torn tail was cut off the file itself, so new appends
            # land after valid records, not after garbage.
            size = os.path.getsize(os.path.join(trial, LOG_NAME))
            assert size == boundary, cut
            recovered.close()
            shutil.rmtree(trial)

    def test_garbage_tail_is_ignored_and_removed(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Ggg', 7)")
        want = scan_text(db)
        log_path = os.path.join(directory, LOG_NAME)
        good = os.path.getsize(log_path)
        with open(log_path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef" * 8)
        recovered = Database.open(directory)
        assert scan_text(recovered) == want
        assert os.path.getsize(log_path) == good

    def test_recovery_is_idempotent_across_reopens(self, tmp_path):
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Hhh', 8)")
        first = Database.open(directory)
        want = scan_text(first)
        csn = first.store.mvcc.current_csn
        second = Database.open(directory)
        assert second.store.mvcc.current_csn == csn
        assert scan_text(second) == want

    def test_crash_after_rename_before_truncate_skips_replay(self, tmp_path):
        """The checkpoint covers the log's records; replay must skip them.

        Simulates a crash in the window after the checkpoint's atomic
        rename but before the log truncate: the directory holds both a
        checkpoint at CSN n and log records up to n.  Replaying those
        records on top of the restored checkpoint would double-apply.
        """
        db, directory = durable(tmp_path)
        db.query("INSERT INTO Cities (name, population) VALUES ('Iii', 9)")
        want = scan_text(db)
        mvcc = db.store.mvcc
        with mvcc.commit_lock:
            raw = mvcc.state_snapshot()
            state = {
                "schema": 1,
                "csn": raw["csn"],
                "mvcc": _encode_mvcc(raw),
                "catalog": db.catalog.durable_state(),
            }
        write_checkpoint(directory, state)  # deliberately no truncate
        assert os.path.getsize(os.path.join(directory, LOG_NAME)) > 0
        recovered = Database.open(directory)
        assert recovered.durability.last_recovery == {
            "checkpoint_csn": 1,
            "replayed": 0,
        }
        assert scan_text(recovered) == want

    def test_corrupt_newest_checkpoint_falls_back_to_older(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        os.makedirs(directory)
        write_checkpoint(directory, {"csn": 3, "tag": "old"})
        # write_checkpoint deletes older files on success, so craft the
        # corrupt newer one by hand.
        with open(checkpoint_path(directory, 9), "wb") as fh:
            fh.write(b"\x00\x00\x00\x00 not json at all")
        state = load_newest_checkpoint(directory)
        assert state == {"csn": 3, "tag": "old"}

    def test_tmp_checkpoint_leftovers_are_ignored(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        os.makedirs(directory)
        write_checkpoint(directory, {"csn": 2, "tag": "real"})
        with open(checkpoint_path(directory, 8) + ".tmp", "wb") as fh:
            fh.write(b"half-written")
        assert load_newest_checkpoint(directory) == {
            "csn": 2,
            "tag": "real",
        }


class TestCrashPoints:
    def test_mid_record_commit_does_not_survive(self, tmp_path):
        plan = CrashPlan(crash_at_commit=2, crash_point="mid-record")
        db, directory = durable(tmp_path, crash_plan=plan)
        db.query("INSERT INTO Cities (name, population) VALUES ('Jjj', 1)")
        want = scan_text(db)
        with pytest.raises(SimulatedCrash):
            db.query("UPDATE c IN Cities SET c.population = 2 "
                     "WHERE c.name == 'Jjj'")
        recovered = Database.open(directory)
        assert recovered.store.mvcc.current_csn == 1
        assert scan_text(recovered) == want

    def test_post_record_pre_ack_commit_survives(self, tmp_path):
        plan = CrashPlan(
            crash_at_commit=1, crash_point="post-record-pre-ack"
        )
        db, directory = durable(tmp_path, crash_plan=plan)
        with pytest.raises(SimulatedCrash):
            db.query(
                "INSERT INTO Cities (name, population) VALUES ('Kkk', 1)"
            )
        # The crashed engine never applied it in memory...
        assert db.store.mvcc.current_csn == 0
        # ...but the record was fsynced, so recovery replays it.
        recovered = Database.open(directory)
        assert recovered.store.mvcc.current_csn == 1
        assert any("Kkk" in line for line in scan_text(recovered))

    def test_mid_checkpoint_rename_keeps_old_checkpoint(self, tmp_path):
        db, directory = durable(tmp_path, checkpoint_every=1)
        plan = CrashPlan(
            crash_at_commit=1, crash_point="mid-checkpoint-rename"
        )
        db.durability.crash_plan = plan
        db.durability.wal.crash_plan = plan
        with pytest.raises(SimulatedCrash):
            db.query(
                "INSERT INTO Cities (name, population) VALUES ('Lll', 1)"
            )
        # The commit's log record is durable; the checkpoint died at its
        # tmp file, leaving the initial checkpoint + log authoritative.
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers
        recovered = Database.open(directory)
        assert recovered.store.mvcc.current_csn == 1
        assert any("Lll" in line for line in scan_text(recovered))


class TestCommitOrderingRegression:
    def test_listener_exception_does_not_unwind_a_published_commit(self):
        """A raising commit listener must not make the commit look failed.

        Regression: listeners run after the CSN publish (and, when
        durable, after the log fsync); before the fix an exception there
        travelled back through ``Transaction.commit`` and the DML path
        "rolled back" a transaction that had already committed.
        """
        db = Database.sample(scale=SCALE)

        def bad_listener(record):
            raise ValueError("observer bug")

        db.store.add_commit_listener(bad_listener)
        with pytest.warns(RuntimeWarning, match="commit listener"):
            result = db.query(
                "INSERT INTO Cities (name, population) VALUES ('Mmm', 1)"
            )
        assert result.affected == 1
        assert result.csn == 1
        rows = db.query(
            "SELECT * FROM c IN Cities WHERE c.name == 'Mmm'"
        ).rows
        assert len(rows) == 1

    def test_plan_cache_and_data_versions_see_post_fsync_state(
        self, tmp_path
    ):
        """A crashed (never-applied) commit must leave no side effects.

        The commit hook raises *before* the in-memory apply, so the data
        version, the plan cache's validity, and the visible rows must
        all still describe the pre-crash state.
        """
        plan = CrashPlan(crash_at_commit=1, crash_point="mid-record")
        db, _ = durable(tmp_path, crash_plan=plan)
        version_before = db.catalog.data_version("Cities")
        count_before = len(db.query("SELECT * FROM c IN Cities").rows)
        with pytest.raises(SimulatedCrash):
            db.query(
                "INSERT INTO Cities (name, population) VALUES ('Nnn', 1)"
            )
        assert db.catalog.data_version("Cities") == version_before
        assert (
            len(db.query("SELECT * FROM c IN Cities").rows) == count_before
        )


class TestWalFraming:
    def test_log_record_round_trips_types_and_key_order(self):
        from repro.storage.objects import Oid

        oid = Oid("City", 41)
        record = LogRecord(
            csn=5,
            updates={oid: {"b": 2, "a": (1, "x"), "n": None}},
            deletes=[Oid("City", 7)],
            inserts=[("Cities", Oid("City", 42), {"z": 1, "a": 2})],
            minted=[Oid("City", 42), Oid("City", 43)],
        )
        back = LogRecord.from_payload(record.to_payload())
        assert back.csn == 5
        assert back.updates == record.updates
        assert list(back.updates[oid]) == ["b", "a", "n"]  # order kept
        assert isinstance(back.updates[oid]["a"], tuple)
        assert back.deletes == record.deletes
        assert back.inserts == record.inserts
        assert back.minted == record.minted

    def test_scan_stops_at_crc_mismatch(self, tmp_path):
        path = str(tmp_path / "wal.log")
        good = frame(LogRecord(csn=1).to_payload())
        bad = bytearray(frame(LogRecord(csn=2).to_payload()))
        bad[-1] ^= 0xFF  # flip one payload byte: CRC fails
        with open(path, "wb") as fh:
            fh.write(good + bytes(bad))
        records, valid = scan_log(path)
        assert [r.csn for r in records] == [1]
        assert valid == len(good)


class TestServerIdleReaper:
    def test_expired_session_raises_typed_error(self):
        from repro.server import DatabaseServer, ServerClient

        db = Database.sample(scale=SCALE)
        server = DatabaseServer(db, port=0, idle_timeout_seconds=0.15)
        host, port = server.start()
        try:
            client = ServerClient(host, port)
            client.begin()
            client.query(
                "UPDATE c IN Cities SET c.population = 1 "
                "WHERE c.name == 'city0'"
            )
            import time as _time

            deadline = _time.monotonic() + 5.0
            expired = None
            while _time.monotonic() < deadline:
                _time.sleep(0.1)
                try:
                    client.query("SELECT c.name FROM c IN Cities")
                except SessionExpired as exc:
                    expired = exc
                    break
                # Each successful request resets the idle clock, so
                # stop issuing them and just wait the timeout out.
                _time.sleep(0.3)
            assert isinstance(expired, SessionExpired)
            # The reaper rolled the transaction back: a fresh session
            # can write the same rows without a conflict.
            with ServerClient(host, port) as fresh:
                payload = fresh.query(
                    "UPDATE c IN Cities SET c.population = 2 "
                    "WHERE c.name == 'city0'"
                )
                assert payload["ok"]
        finally:
            server.stop(drain=False)

    def test_busy_session_is_not_reaped(self):
        from repro.server.session import Session

        db = Database.sample(scale=SCALE)
        session = Session(1, db)
        with session.lock:  # simulate an in-flight request
            assert session.maybe_expire(now=10**9, timeout=0.001) is False
        assert not session.expired


class TestClientConnectRetry:
    def test_no_retries_by_default(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        from repro.server import ServerClient

        with pytest.raises(ConnectionRefusedError):
            ServerClient("127.0.0.1", port)

    def test_connect_retries_until_server_is_up(self):
        import threading

        from repro.server import DatabaseServer, ServerClient

        db = Database.sample(scale=SCALE)
        server = DatabaseServer(db, port=0)
        started: list[tuple[str, int]] = []

        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server.port = port

        def delayed_start():
            import time as _time

            _time.sleep(0.15)
            started.append(server.start())

        thread = threading.Thread(target=delayed_start)
        thread.start()
        try:
            client = ServerClient(
                "127.0.0.1", port, connect_retries=40,
                backoff_base_ms=10.0, backoff_cap_ms=50.0,
            )
            assert client.hello()["ok"]
            client.close()
        finally:
            thread.join()
            server.stop(drain=False)


class TestServerDrainCheckpoints:
    def test_graceful_stop_checkpoints_durable_db(self, tmp_path):
        from repro.server import DatabaseServer, ServerClient

        db, directory = durable(tmp_path)
        server = DatabaseServer(db, port=0)
        host, port = server.start()
        try:
            with ServerClient(host, port) as client:
                client.query(
                    "INSERT INTO Cities (name, population) "
                    "VALUES ('Ooo', 1)"
                )
        finally:
            server.stop(drain=True)
        assert os.path.getsize(os.path.join(directory, LOG_NAME)) == 0
        recovered = Database.open(directory)
        assert recovered.durability.last_recovery["replayed"] == 0
        assert any("Ooo" in line for line in scan_text(recovered))
