"""Serving-tier smoke: protocol, sessions, DML over the wire, shutdown.

Starts a real :class:`DatabaseServer` on a loopback socket and drives it
with :class:`ServerClient` — the same path ``.server start`` uses from
the CLI — covering the handshake, the shell-line surface, structured
queries, server-side cursors, remote transactions with typed
``WriteConflict``, admission rejection, graceful drain, and the event
loop's framing and back-pressure.
"""

import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.api import Database
from repro.errors import QuerySyntaxError, WriteConflict
from repro.server import DatabaseServer, ServerClient
from repro.server.protocol import encode, row_payload
from repro.storage.objects import Oid

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

    def test_reference_columns_go_as_oid_strings(self, server):
        """A reference is its ``Type#serial`` string on the wire, and a
        set of references a list of them — never a ``[type, serial]``
        pair, in a record or as a bare binding."""
        with connect(server) as client:
            city = client.query("SELECT c FROM c IN Cities WHERE c.name == 'city0'")
            task = client.query("SELECT t FROM t IN Tasks WHERE t.name == 'task0'")
        assert city["rows"] == [{"c": {"oid": "City#0", "data": {
            "name": "city0", "population": 674053,
            "mayor": "Person#327", "country": "Country#0",
        }}}]
        assert task["rows"] == [{"t": {"oid": "Task#0", "data": {
            "name": "task0", "time": 10, "team_members": [
                "Employee#316", "Employee#4", "Employee#817", "Employee#365",
                "Employee#963", "Employee#246", "Employee#123",
            ],
        }}}]
        members = (Oid("Employee", 3), Oid("Employee", 11))
        assert row_payload({"m": members[0], "s": members, "n": None}) == {
            "m": "Employee#3", "s": ["Employee#3", "Employee#11"], "n": None,
        }


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

    @pytest.mark.parametrize(
        "line",
        [
            b"[" * 100_000,  # past the decoder's recursion limit
            pytest.param(
                b'{"op":"hello","n":' + b"1" * 5000 + b"}",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int digit limit",
                ),
            ),
        ],
        ids=["deeply-nested", "oversized-number"],
    )
    def test_undecodable_json_is_protocol_error_not_disconnect(
        self, server, line
    ):
        """JSON that ``json.loads`` fails on with RecursionError or a
        plain ValueError is a malformed request like any other, not a
        crash of the loop that serves every session."""
        with connect(server) as client, connect(server) as other:
            client._sock.sendall(line + b"\n")
            assert b"ProtocolError" in client._reader.readline()
            assert client.hello()["ok"]
            assert other.hello()["ok"]

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


class TestEventLoop:
    """One loop thread serves every session: it must never wait on one."""

    def test_tcp_nodelay_on_both_ends(self, server):
        srv, _, _ = server
        with connect(server) as client:
            client.hello()
            (served,) = srv._connections.values()
            for sock in (client._sock, served.sock):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="needs Linux and two allowed CPUs",
    )
    def test_loop_thread_keeps_off_the_starters_cpu(self, server):
        srv, _, _ = server
        with connect(server) as client:
            client.hello()  # the loop has placed itself by now
            loop = os.sched_getaffinity(srv._thread.native_id)
        assert loop and loop < os.sched_getaffinity(0)

    def test_peer_that_stops_reading_does_not_hold_other_sessions(
        self, server
    ):
        """A session pipelining requests and never reading the answers
        fills its buffers; another session's point read still answers."""
        srv, host, port = server
        hog = socket.socket()
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        hog.connect((host, port))
        hog.setblocking(False)
        burst = encode(
            {"op": "query", "text": "SELECT x.name FROM x IN Cities"}
        )
        try:
            deadline = time.monotonic() + 30.0
            blocked_since = None
            while time.monotonic() < deadline:
                try:
                    hog.send(burst * 16)
                    blocked_since = None
                except BlockingIOError:
                    blocked_since = blocked_since or time.monotonic()
                    if time.monotonic() - blocked_since > 0.5:
                        break  # the server has stopped reading it
                    time.sleep(0.05)
            assert blocked_since is not None, "the hog's sends never filled"
            assert any(conn.writing for conn in srv._connections.values())
            started = time.monotonic()
            with ServerClient(host, port, timeout=2.0) as other:
                rows = other.query(
                    "SELECT x.population FROM x IN Cities "
                    "WHERE x.name == 'city0'"
                )["rows"]
            assert len(rows) == 1
            assert time.monotonic() - started < 2.0
        finally:
            hog.close()

    def test_split_and_coalesced_requests_answer_in_order(self, server):
        with connect(server) as client:
            query = encode({
                "op": "query",
                "text": "SELECT x.name FROM x IN Cities "
                "WHERE x.name == 'city0'",
            })
            for byte in query:
                client._sock.send(bytes([byte]))
                time.sleep(0.001)
            one_byte_at_a_time = json.loads(client._reader.readline())
            assert one_byte_at_a_time["rows"] == [{"x.name": "city0"}]
            client._sock.sendall(query + encode({"op": "hello"}))
            first = json.loads(client._reader.readline())
            second = json.loads(client._reader.readline())
            assert first["rows"] == [{"x.name": "city0"}]
            assert second["protocol"] == 1

    def test_fault_in_one_connection_hangs_up_on_it_alone(
        self, server, monkeypatch
    ):
        srv, _, _ = server
        respond = srv._respond

        def faulty(session, raw, waited):
            if b"boom" in raw:
                raise RuntimeError("injected")
            return respond(session, raw, waited)

        monkeypatch.setattr(srv, "_respond", faulty)
        with connect(server) as victim, connect(server) as other:
            victim.hello()
            victim._sock.sendall(encode({"op": "hello", "boom": 1}))
            assert victim._reader.readline() == b""  # hung up
            assert other.hello()["ok"]
            with connect(server) as late:
                assert late.hello()["ok"]
        assert srv.running and srv._thread.is_alive()

    def test_pipelined_batch_does_not_delay_another_session(self, server):
        """A client that pipelines a batch of small-answer statements is
        answered one line per turn, so another session's point read runs
        after one of them, not after the whole batch."""
        srv, _, _ = server
        batch = 300
        scan = encode({
            "op": "query",
            "text": "SELECT e.name FROM e IN Employees WHERE e.salary < 0",
        })
        with connect(server) as piper, connect(server) as other:
            piper_id = piper.hello()["session"]
            other_id = other.hello()["session"]
            piper_session = srv._connections[piper_id].session
            other_session = srv._connections[other_id].session
            # Counted on the loop as the read runs: a reader in this
            # process can wait for the GIL while the loop goes on.
            done = []
            handle = other_session.handle

            def counting_handle(request):
                done.append(piper_session.statements)
                return handle(request)

            other_session.handle = counting_handle
            piper._sock.sendall(scan * batch)
            rows = other.query(
                "SELECT x.population FROM x IN Cities "
                "WHERE x.name == 'city0'"
            )["rows"]
            assert len(rows) == 1
            assert done[0] < batch // 2
            for _ in range(batch):
                assert json.loads(piper._reader.readline())["ok"]

    def test_line_queued_past_max_wait_is_rejected_unrun(self):
        """With at most one statement in flight the admission slots never
        fill; what bounds overload is the time a ready line waits behind
        other sessions' statements."""
        db = Database.sample(scale=SCALE)
        srv = DatabaseServer(db, port=0, max_wait_ms=0.0)
        host, port = srv.start()
        scan = encode({
            "op": "query",
            "text": "SELECT e.name FROM e IN Employees WHERE e.salary < 0",
        })
        point = "SELECT x.name FROM x IN Cities WHERE x.name == 'city0'"
        try:
            with ServerClient(host, port) as piper, \
                    ServerClient(host, port) as other:
                piper.hello()
                other.hello()
                # Back to back: a reader in this process can wait for the
                # GIL until the loop, on another CPU, has run the batch.
                piper._sock.sendall(scan * 20)
                other._sock.sendall(encode({"op": "query", "text": point}))
                error = json.loads(other._reader.readline())["error"]
                assert error["type"] == "AdmissionRejected"
                assert json.loads(piper._reader.readline())["ok"]
                for _ in range(19):
                    piper._reader.readline()  # answered or rejected
                assert other.query(point)["row_count"] == 1  # alone: runs
            assert srv.admission.rejected >= 1
        finally:
            srv.stop(drain=False)
