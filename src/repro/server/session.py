"""Per-connection session state for the serving tier.

A session wraps one :class:`~repro.cli.Shell` whose output is captured
per request, so a remote client gets exactly the command surface of the
interactive CLI — prepared statements, ``.timeout``/``.memory``
settings, ``.begin``/``.commit``/``.rollback`` — plus a structured
``query`` operation with server-side cursors for paging large results.

The server's one loop thread runs one request at a time across all
sessions; many sessions share one :class:`~repro.api.Database`, whose
MVCC snapshots keep them isolated.
"""

from __future__ import annotations

import io
import itertools
import time
from typing import Any

from repro.cli import Shell
from repro.engine.dml import DmlResult
from repro.errors import ReproError, SessionExpired
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_payload,
    row_payload,
)

#: Default / maximum rows per `fetch` batch.
FETCH_DEFAULT = 100
FETCH_MAX = 10_000

#: Open cursors one session may hold at once.
MAX_CURSORS = 16


class Cursor:
    """A finished result set kept server-side and fetched in batches."""

    def __init__(self, cursor_id: int, rows: list[dict[str, Any]]) -> None:
        self.id = cursor_id
        self.rows = rows
        self.position = 0

    def fetch(self, n: int) -> tuple[list[dict[str, Any]], bool]:
        """The next ``n`` encoded rows and whether the cursor is drained."""
        batch = self.rows[self.position : self.position + n]
        self.position += len(batch)
        done = self.position >= len(self.rows)
        return [row_payload(row) for row in batch], done


class Session:
    """One client's state: shell, transaction, cursors, counters."""

    def __init__(self, session_id: int, db, peer: str = "?") -> None:
        self.id = session_id
        self.peer = peer
        self.shell = Shell(db, out=io.StringIO())
        self.started = time.monotonic()
        self.statements = 0
        self.errors = 0
        self.closed = False
        #: Set by the idle reaper; the next request gets SessionExpired.
        self.expired = False
        self._cursor_ids = itertools.count(1)
        self.cursors: dict[int, Cursor] = {}

    # ------------------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Execute one decoded request and build its response payload."""
        op = request["op"]
        try:
            if self.expired:
                raise SessionExpired(
                    "session expired after idling past the server's "
                    "idle timeout; its transaction was rolled back — "
                    "reconnect to continue"
                )
            if op == "hello":
                return self._hello()
            if op == "line":
                return self._line(request)
            if op == "query":
                return self._query(request)
            if op == "fetch":
                return self._fetch(request)
            if op == "close":
                return self._close_cursor(request)
            if op == "bye":
                self.close()
                return {"ok": True, "bye": True}
            raise ProtocolError(f"unknown op {op!r}")
        except ReproError as exc:
            self.errors += 1
            return error_payload(exc)

    def _hello(self) -> dict[str, Any]:
        return {
            "ok": True,
            "server": "repro",
            "protocol": PROTOCOL_VERSION,
            "session": self.id,
        }

    def _line(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run one shell line; the response carries its printed output."""
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError('"line" requires non-empty "text"')
        self.statements += 1
        buffer = io.StringIO()
        self.shell.out = buffer
        try:
            self.shell.dispatch(text.strip())
        finally:
            self.shell.out = io.StringIO()
        return {"ok": True, "output": buffer.getvalue().rstrip("\n")}

    def _query(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run one ZQL statement and return structured results."""
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError('"query" requires non-empty "text"')
        self.statements += 1
        result = self.shell.statement(text)
        if isinstance(result, DmlResult):
            return {
                "ok": True,
                "dml": result.operation,
                "affected": result.affected,
                "csn": result.csn,
            }
        payload: dict[str, Any] = {"ok": True, "row_count": len(result.rows)}
        if result.execution is not None:
            payload["io_seconds"] = round(
                result.execution.simulated_io_seconds, 6
            )
        if request.get("cursor"):
            if len(self.cursors) >= MAX_CURSORS:
                raise ProtocolError(f"over {MAX_CURSORS} open cursors")
            cursor = Cursor(next(self._cursor_ids), result.rows)
            self.cursors[cursor.id] = cursor
            payload["cursor"] = cursor.id
        else:
            payload["rows"] = [row_payload(row) for row in result.rows]
        return payload

    def _fetch(self, request: dict[str, Any]) -> dict[str, Any]:
        cursor = self._cursor(request)
        n = request.get("n", FETCH_DEFAULT)
        if not isinstance(n, int) or not 1 <= n <= FETCH_MAX:
            raise ProtocolError(f'"n" must be 1..{FETCH_MAX}')
        rows, done = cursor.fetch(n)
        if done:
            self.cursors.pop(cursor.id, None)
        return {"ok": True, "rows": rows, "done": done}

    def _close_cursor(self, request: dict[str, Any]) -> dict[str, Any]:
        cursor = self._cursor(request)
        self.cursors.pop(cursor.id, None)
        return {"ok": True}

    def _cursor(self, request: dict[str, Any]) -> Cursor:
        cursor_id = request.get("cursor")
        cursor = self.cursors.get(cursor_id)
        if cursor is None:
            raise ProtocolError(f"no open cursor {cursor_id!r}")
        return cursor

    # ------------------------------------------------------------------

    def expire(self) -> None:
        """Expire this idle session (the server loop's idle sweep).

        Rolls back its open transaction (freeing its snapshot and any
        write intents) and drops its cursors; its next request raises
        :class:`~repro.errors.SessionExpired`.
        """
        self.expired = True
        self._release()

    def close(self) -> None:
        """Roll back any open transaction and drop cursors (idempotent)."""
        if not self.closed:
            self.closed = True
            self._release()

    def _release(self) -> None:
        self.cursors.clear()
        if self.shell.transaction is not None:
            self.shell.transaction.rollback()
            self.shell.transaction = None

    def describe(self) -> str:
        """One ``.sessions`` line: id, peer, age, counters, txn state."""
        age = time.monotonic() - self.started
        txn = (
            f", txn@{self.shell.transaction.snapshot}"
            if self.shell.transaction is not None
            else ""
        )
        flag = ", expired" if self.expired else ""
        return (
            f"session {self.id} [{self.peer}] {age:.0f}s, "
            f"{self.statements} statement(s), {self.errors} error(s)"
            f"{txn}{flag}"
        )


__all__ = ["Cursor", "Session", "FETCH_DEFAULT", "FETCH_MAX", "MAX_CURSORS"]
