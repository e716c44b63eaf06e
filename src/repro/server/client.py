"""A small blocking client for the serving tier's JSON-line protocol.

Used by the examples, the stress tests, and the benchmark harness; it
is deliberately tiny — connect, send one JSON line, read one JSON line.
Typed server errors re-raise locally as the matching exception class
from :mod:`repro.errors` (``WriteConflict`` arrives as a real
``WriteConflict``), so client code handles remote failures exactly as
it would local ones.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any

from repro import errors as _errors
from repro.errors import ReproError
from repro.governor.faults import capped_backoff_ms
from repro.server.protocol import encode


class ServerError(ReproError):
    """A typed server failure with no matching local exception class."""

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name


def _raise_typed(error: dict[str, Any]) -> None:
    """Re-raise a protocol error object as its local exception class."""
    type_name = error.get("type", "ServerError")
    message = error.get("message", "")
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        if type_name == "WriteConflict":
            raise cls(message, oid=error.get("oid"))
        raise cls(message)
    raise ServerError(type_name, message)


class ServerClient:
    """One session against a :class:`DatabaseServer`.

    ``connect_retries`` makes only the *initial connect* resilient to
    transient refusals (server still binding, restart in progress),
    retried with the governor's capped-exponential-backoff-with-jitter
    schedule.  In-flight requests are **never** retried: a statement
    whose response was lost may or may not have committed, and silently
    resending it could apply DML twice.  That decision belongs to the
    caller, who knows whether the statement is idempotent.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        connect_retries: int = 0,
        backoff_base_ms: float = 1.0,
        backoff_cap_ms: float = 50.0,
        rng: random.Random | None = None,
    ) -> None:
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except (ConnectionRefusedError, ConnectionResetError):
                if attempt >= connect_retries:
                    raise
                attempt += 1
                delay_ms = capped_backoff_ms(
                    attempt,
                    base_ms=backoff_base_ms,
                    cap_ms=backoff_cap_ms,
                    rng=rng,
                )
                time.sleep(delay_ms / 1000.0)
        # A request is one small write: send it now, not after an ACK.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -------------------------------------------------------

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request and return the raw response payload.

        Responses with ``ok: false`` raise the typed exception instead
        of returning.
        """
        self._sock.sendall(encode(payload))
        raw = self._reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        response = json.loads(raw.decode("utf-8"))
        if not response.get("ok", False):
            _raise_typed(response.get("error", {}))
        return response

    # -- conveniences ---------------------------------------------------

    def hello(self) -> dict[str, Any]:
        """Handshake; returns the server banner payload."""
        return self.request({"op": "hello"})

    def line(self, text: str) -> str:
        """Run one shell line remotely; returns its printed output."""
        return self.request({"op": "line", "text": text})["output"]

    def query(self, text: str) -> dict[str, Any]:
        """Run one ZQL statement; returns the structured payload."""
        return self.request({"op": "query", "text": text})

    def query_cursor(self, text: str) -> int:
        """Run a query keeping rows server-side; returns the cursor id."""
        return self.request({"op": "query", "text": text, "cursor": True})[
            "cursor"
        ]

    def fetch(self, cursor: int, n: int = 100) -> dict[str, Any]:
        """Fetch the next batch: ``{"rows": [...], "done": bool}``."""
        return self.request({"op": "fetch", "cursor": cursor, "n": n})

    def begin(self) -> str:
        """Open a transaction in this session."""
        return self.line(".begin")

    def commit(self) -> str:
        """Commit this session's transaction (raises WriteConflict)."""
        return self.line(".commit")

    def rollback(self) -> str:
        """Roll back this session's transaction."""
        return self.line(".rollback")

    def close(self) -> None:
        """Say goodbye (best-effort) and close the socket."""
        try:
            self._sock.sendall(encode({"op": "bye"}))
            self._reader.readline()
        except OSError:
            pass
        finally:
            try:
                self._reader.close()
            finally:
                self._sock.close()


__all__ = ["ServerClient", "ServerError"]
