"""Serving-tier smoke: protocol, sessions, DML over the wire, shutdown.

Starts a real :class:`DatabaseServer` on a loopback socket and drives it
with :class:`ServerClient` — the same path ``.server start`` uses from
the CLI — covering the handshake, the shell-line surface, structured
queries, server-side cursors, remote transactions with typed
``WriteConflict``, admission rejection, and graceful drain.
"""

import threading

import pytest

from repro.api import Database
from repro.errors import AdmissionRejected, QuerySyntaxError, WriteConflict
from repro.server import DatabaseServer, ServerClient

SCALE = 0.02


@pytest.fixture()
def server():
    """A running server over a private database; stopped at teardown."""
    db = Database.sample(scale=SCALE)
    srv = DatabaseServer(db, port=0)
    host, port = srv.start()
    try:
        yield srv, host, port
    finally:
        srv.stop(drain=False)


def connect(server_fixture) -> ServerClient:
    _, host, port = server_fixture
    return ServerClient(host, port)


class TestProtocol:
    def test_hello_banner(self, server):
        with connect(server) as client:
            banner = client.hello()
            assert banner["protocol"] == 1
            assert banner["session"] >= 1

    def test_shell_line_shares_cli_surface(self, server):
        with connect(server) as client:
            assert "Cities" in client.line(".catalog")
            assert ".begin" in client.line(".help")

    def test_structured_query_returns_rows(self, server):
        with connect(server) as client:
            payload = client.query(
                "SELECT x.name FROM x IN Cities WHERE x.name == 'city0'"
            )
            assert payload["row_count"] == 1
            assert payload["rows"][0]["x.name"] == "city0"

    def test_cursor_paging_covers_all_rows(self, server):
        with connect(server) as client:
            total = client.query("SELECT x.name FROM x IN Cities")["row_count"]
            cursor = client.query_cursor("SELECT x.name FROM x IN Cities")
            seen = 0
            while True:
                batch = client.fetch(cursor, n=64)
                seen += len(batch["rows"])
                if batch["done"]:
                    break
            assert seen == total

    def test_errors_arrive_typed(self, server):
        with connect(server) as client:
            with pytest.raises(QuerySyntaxError):
                client.query("SELEC oops")
            # The session survives a failed statement.
            assert client.query("SELECT x.name FROM x IN Cities")["row_count"]

    def test_malformed_line_is_protocol_error_not_disconnect(self, server):
        with connect(server) as client:
            client._sock.sendall(b"this is not json\n")
            raw = client._reader.readline()
            assert b"ProtocolError" in raw
            assert client.hello()["ok"]


class TestSessions:
    def test_sessions_are_tracked_and_reaped(self, server):
        srv, _, _ = server
        with connect(server) as a, connect(server) as b:
            a.hello()
            b.hello()
            assert srv.session_count() == 2
            info = srv.session_info()
            assert len(info) == 2
            assert all("session" in line for line in info)

    def test_session_state_is_private(self, server):
        """Prepared statements and settings do not leak across sessions."""
        with connect(server) as a, connect(server) as b:
            a.line(".timeout 1000")
            assert "1000" in a.line(".timeout")
            assert "off" in b.line(".timeout")

    def test_dml_and_transactions_over_the_wire(self, server):
        with connect(server) as client:
            result = client.query(
                "INSERT INTO Cities (name, population) VALUES ('remote', 3)"
            )
            assert result["dml"] == "insert"
            assert result["affected"] == 1
            assert result["csn"] is not None
            client.begin()
            client.query(
                "UPDATE x IN Cities SET x.population = 9 "
                "WHERE x.name == 'remote'"
            )
            client.commit()
            rows = client.query(
                "SELECT x.population FROM x IN Cities "
                "WHERE x.name == 'remote'"
            )["rows"]
            assert rows == [{"x.population": 9}]

    def test_concurrent_sessions_complete_every_operation(self, server):
        """Four sessions interleaving point reads with UPDATEs of disjoint
        cities: every statement completes and none raises."""
        _, host, port = server
        sessions, ops = 4, 20
        errors: list[str] = []
        done = [0] * sessions

        def session(index):
            try:
                with ServerClient(host, port) as client:
                    for i in range(ops):
                        city = f"city{index * ops + i}"
                        client.query(
                            f"UPDATE x IN Cities SET x.population = {i} "
                            f"WHERE x.name == '{city}'"
                            if i % 2
                            else "SELECT x.population FROM x IN Cities "
                            f"WHERE x.name == '{city}'"
                        )
                        done[index] += 1
            except Exception as exc:  # noqa: BLE001 — asserted empty below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=session, args=(index,))
            for index in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        assert done == [ops] * sessions

    def test_write_conflict_is_typed_across_the_wire(self, server):
        with connect(server) as winner, connect(server) as loser:
            loser.begin()
            # Pin the loser's snapshot before the winner commits.
            loser.query("SELECT x.name FROM x IN Cities WHERE x.name == 'x'")
            winner.begin()
            winner.query(
                "UPDATE x IN Cities SET x.population = 1 "
                "WHERE x.name == 'city0'"
            )
            winner.commit()
            with pytest.raises(WriteConflict):
                loser.query(
                    "UPDATE x IN Cities SET x.population = 2 "
                    "WHERE x.name == 'city0'"
                )

    def test_disconnect_rolls_back_open_transaction(self, server):
        srv, host, port = server
        client = ServerClient(host, port)
        client.begin()
        client.query(
            "UPDATE x IN Cities SET x.population = 0 WHERE x.name == 'city1'"
        )
        client.close()
        with connect(server) as probe:
            rows = probe.query(
                "SELECT x.population FROM x IN Cities WHERE x.name == 'city1'"
            )["rows"]
            assert rows[0]["x.population"] != 0


class TestAdmissionAndShutdown:
    def test_admission_rejection_is_typed(self):
        db = Database.sample(scale=SCALE)
        srv = DatabaseServer(db, port=0, max_concurrent=1, max_wait_ms=0.0)
        host, port = srv.start()
        try:
            with ServerClient(host, port) as a:
                a.hello()
                # Hold the only slot by keeping a statement in flight:
                # admission wraps each request, so saturate via a session
                # whose request sleeps in the governor. Simplest reliable
                # probe: acquire the gate directly, then issue a request.
                entered = srv.admission.admit()
                entered.__enter__()
                try:
                    with pytest.raises(AdmissionRejected):
                        a.query("SELECT x.name FROM x IN Cities")
                finally:
                    entered.__exit__(None, None, None)
                assert a.query("SELECT x.name FROM x IN Cities")["row_count"]
        finally:
            srv.stop(drain=False)

    def test_stop_then_start_again(self):
        db = Database.sample(scale=SCALE)
        srv = DatabaseServer(db, port=0)
        srv.start()
        srv.stop()
        assert not srv.running
        host, port = srv.start()
        try:
            with ServerClient(host, port) as client:
                assert client.hello()["protocol"] == 1
        finally:
            srv.stop(drain=False)

    def test_stop_disconnects_clients(self, server):
        srv, host, port = server
        client = ServerClient(host, port)
        client.hello()
        srv.stop()
        with pytest.raises((ConnectionError, OSError)):
            client.query("SELECT x.name FROM x IN Cities")
            client.query("SELECT x.name FROM x IN Cities")


class TestReviewRegressions:
    """Pins for bugs found in review of the serving-tier PR."""

    def test_oversized_line_is_cut_off_not_buffered(self, server):
        """A newline-less byte stream must be bounded by MAX_LINE_BYTES,
        not accumulated until the client deigns to send a newline."""
        from repro.server.protocol import MAX_LINE_BYTES

        with connect(server) as client:
            client._sock.sendall(b"x" * (MAX_LINE_BYTES + 1))
            raw = client._reader.readline()
            assert b"ProtocolError" in raw
            assert client._reader.readline() == b""  # server hung up

    def test_write_conflict_drops_remote_transaction(self, server):
        """An eager conflict dooms the session's transaction; the session
        must drop the dead handle so the next statement runs clean."""
        with connect(server) as winner, connect(server) as loser:
            loser.begin()
            # Pin the loser's snapshot before the winner commits.
            loser.query("SELECT x.name FROM x IN Cities WHERE x.name == 'x'")
            winner.query(
                "UPDATE x IN Cities SET x.population = 1 "
                "WHERE x.name == 'city0'"
            )
            with pytest.raises(WriteConflict):
                loser.query(
                    "UPDATE x IN Cities SET x.population = 2 "
                    "WHERE x.name == 'city0'"
                )
            # Auto-committed (transaction dropped) and reading the
            # winner's committed value — not the discarded write, not a
            # TransactionError on a dead handle.
            rows = loser.query(
                "SELECT x.population FROM x IN Cities "
                "WHERE x.name == 'city0'"
            )["rows"]
            assert rows == [{"x.population": 1}]
