"""A TCP serving tier over one shared :class:`Database`, on one thread.

One thread runs a :mod:`selectors` loop: it accepts connections, runs
one complete JSON request line per connection per turn, round robin,
through decode → :meth:`Session.handle` → encode, writes responses
from a per-connection buffer without blocking, and expires sessions
idle, since their last answer, past ``idle_timeout_seconds``, checking
on the select timeout.  Sessions share the database —
isolation comes from MVCC snapshots.  A fault while serving one
connection hangs up on that client alone.

A client that stops reading never blocks the loop: its output waits in
its buffer (``EVENT_WRITE`` is registered only while bytes are pending)
and its further requests are not read until that drains.  A request
line is bounded at ``MAX_LINE_BYTES`` while it is read: a newline-less
stream gets a typed ``ProtocolError`` and a hang-up.

The trade-off: statements run one at a time, to completion.  Under the
GIL they never ran in parallel — threads only interleaved them every
5 ms, and handing the GIL between session threads made two connections
slower than one.  So a long statement holds the other sessions until it
ends (``$timeout``, a session's ``.timeout``, bounds it), and a durable
commit's fsync holds the loop (group commit is the remedy).  Overload
queues on the ready list, bounded: a line that waited there behind more
than ``max_wait_ms`` of other sessions' statements is answered with the
typed ``AdmissionRejected`` unrun.

The loop thread keeps off the CPU of the thread that called ``start()``
(Linux, more than one CPU allowed): that thread's process, or one it
starts, usually goes on to send the requests.  Linux keeps two threads
that wake each other on the CPU they share and migrates neither, so
without this the server and a local client shared one CPU in about a
quarter of ``served_mix`` runs on 2 vCPUs, at 1.4x the statement time.
The price falls on client threads in the server's own process: they
share its GIL and, on another CPU, can wait for it until the loop idles.

``stop()`` lets the running statement finish, then rolls back open
transactions and closes the sockets.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from selectors import EVENT_READ, EVENT_WRITE

from repro.governor.admission import AdmissionController
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode,
    encode,
    error_payload,
)
from repro.server.session import Session

#: Default bound on how long a ready line may wait behind other
#: sessions' statements, in milliseconds.
DEFAULT_MAX_WAIT_MS = 2000.0

#: How long `stop()` waits for the running statement before giving up.
_DRAIN_SECONDS = 5.0

#: How often the loop sweeps idle sessions, as a fraction of the idle
#: timeout (bounded below so tiny timeouts don't spin).
_REAPER_MIN_SWEEP_SECONDS = 0.05


@dataclass(slots=True)
class _Connection:
    """One client socket, its session and its two byte buffers."""

    sock: socket.socket
    session: Session
    inbox: bytearray = field(default_factory=bytearray)
    outbox: bytearray = field(default_factory=bytearray)
    #: Registered for EVENT_WRITE (output pending) instead of READ.
    writing: bool = False
    #: Hang up once the outbox drains (``bye``, oversized line, gone).
    closing: bool = False
    #: On the ready list: a whole request line waits to be answered.
    queued: bool = False
    #: The server's ``_busy_seconds`` when it was queued.
    busy_mark: float = 0.0
    #: When the loop last finished answering it (or accepted it): the
    #: start of its idleness.
    answered: float = field(default_factory=time.monotonic)


def _expire(conn: _Connection) -> None:
    conn.session.expire()


def _other_cpus() -> set[int] | None:
    """The CPUs this thread may use but is not running on (Linux only;
    field 39 of its ``stat`` is the CPU it last ran on)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat") as stat:
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here} or None
    except (OSError, ValueError, IndexError):
        return None


class DatabaseServer:
    """Serve one database to many sessions over the JSON-line protocol."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        idle_timeout_seconds: float | None = None,
    ) -> None:
        if idle_timeout_seconds is not None and idle_timeout_seconds <= 0:
            raise ValueError("idle_timeout_seconds must be positive")
        self.db = db
        self.host = host
        self.port = port
        self.idle_timeout_seconds = idle_timeout_seconds
        # One statement is in flight at a time, so no slot is ever held:
        # the controller only counts and traces the ready-queue rejections.
        self.admission = AdmissionController(
            1, max_wait_ms=max_wait_ms, tracer=db.tracer
        )
        self._listener: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._waker: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._session_ids = itertools.count(1)
        #: Live connections by session id; only the loop mutates it.
        self._connections: dict[int, _Connection] = {}
        self._ready: deque[_Connection] = deque()
        #: Seconds the loop has spent running statements, ever.
        self._busy_seconds = 0.0
        self._stopping = False

    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises if the server is stopped."""
        if self._listener is None:
            raise RuntimeError("server is not running")
        return self._listener.getsockname()[:2]

    @property
    def running(self) -> bool:
        return self._listener is not None

    def start(self) -> tuple[str, int]:
        """Bind, listen, run the loop in a daemon thread; returns address."""
        if self._listener is not None:
            raise RuntimeError("server already running")
        if self._thread is not None:
            self._thread.join()  # a loop that outlived stop()'s wait
        self._stopping = False
        listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        listener.listen(128)
        listener.setblocking(False)
        wake_read, self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, EVENT_READ)
        self._selector.register(wake_read, EVENT_READ)
        self._listener = listener
        self._thread = threading.Thread(
            target=self._loop,
            args=(listener, wake_read, _other_cpus()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self, drain: bool = True) -> None:
        """Stop the loop after its running statement, close every session.

        ``drain=False`` waits for the loop only briefly and skips the
        checkpoint; open transactions still roll back, on the loop's way
        out, once any running statement ends.
        """
        if self._listener is None:
            return
        self._listener = None
        self._stopping = True
        with contextlib.suppress(OSError):
            self._waker.send(b"\0")
        self._thread.join(_DRAIN_SECONDS if drain else 1.0)
        self._waker.close()
        if drain and getattr(self.db, "durability", None) is not None:
            # Graceful shutdown leaves a fresh checkpoint so the
            # next open() replays an empty (or tiny) log.
            self.db.checkpoint()

    # ------------------------------------------------------------------

    def session_info(self) -> list[str]:
        """One description line per live session (for ``.sessions``)."""
        return [
            conn.session.describe()
            for conn in sorted(
                self._connections.values(), key=lambda c: c.session.id
            )
        ]

    def session_count(self) -> int:
        """How many sessions are currently connected."""
        return len(self._connections)

    # ------------------------------------------------------------------

    def _loop(self, listener: socket.socket, wake_read: socket.socket,
              cpus: set[int] | None) -> None:
        """Accept, read, answer one line per ready connection, write, sweep."""
        if cpus:
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, cpus)
        selector, ready = self._selector, self._ready
        sweep = None
        if self.idle_timeout_seconds is not None:
            sweep = max(
                _REAPER_MIN_SWEEP_SECONDS, self.idle_timeout_seconds / 4.0
            )
            sweep_at = time.monotonic() + sweep
        try:
            while not self._stopping:
                for key, _events in selector.select(0 if ready else sweep):
                    conn = key.data
                    if conn is None:
                        if key.fileobj is listener:
                            self._accept(listener)
                    elif not conn.queued:
                        step = self._flush if conn.writing else self._receive
                        self._guard(step, conn)
                # After the select, so a line that came in while another
                # session's statement ran is queued: not idle.
                if sweep is not None and (now := time.monotonic()) >= sweep_at:
                    sweep_at = now + sweep
                    idle_since = now - self.idle_timeout_seconds
                    for conn in list(self._connections.values()):
                        if conn.answered <= idle_since and not (
                            conn.queued or conn.session.expired
                        ):
                            self._guard(_expire, conn)
                for _ in range(len(ready)):
                    if self._stopping:
                        break
                    conn = ready.popleft()
                    if conn.queued:
                        self._guard(self._answer, conn)
        finally:
            for conn in list(self._connections.values()):
                self._guard(self._drop, conn)
            ready.clear()
            selector.close()
            listener.close()
            wake_read.close()

    def _guard(self, step, conn: _Connection) -> None:
        """Run one step for ``conn``; a fault there hangs up on it alone."""
        try:
            step(conn)
        except Exception:  # noqa: BLE001 — the other sessions carry on
            with contextlib.suppress(Exception):
                self._drop(conn)

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, peer = listener.accept()
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            return  # the peer gave up before we got to it
        session = Session(
            next(self._session_ids), self.db, peer=f"{peer[0]}:{peer[1]}"
        )
        conn = _Connection(sock, session)
        self._connections[session.id] = conn
        self._selector.register(sock, EVENT_READ, conn)

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._drop(conn)  # EOF or reset: the client is gone
            return
        conn.inbox += data
        self._enqueue(conn)

    def _enqueue(self, conn: _Connection) -> None:
        """Put ``conn`` on the ready list once its inbox holds a request
        (a queued connection is not read, so the inbox stays bounded)."""
        if conn.queued or conn.outbox or conn.closing:
            return
        inbox = conn.inbox
        if len(inbox) > MAX_LINE_BYTES or b"\n" in inbox:
            conn.queued = True
            conn.busy_mark = self._busy_seconds
            self._ready.append(conn)

    def _answer(self, conn: _Connection) -> None:
        """Answer the first line in ``conn``'s inbox; past ``MAX_LINE_BYTES``
        with no newline there is no resync mid-line, so hang up."""
        conn.queued = False
        inbox = conn.inbox
        end = inbox.find(b"\n", 0, MAX_LINE_BYTES + 1)
        if end >= 0:
            waited = self._busy_seconds - conn.busy_mark
            started = time.monotonic()
            response = self._respond(conn.session, inbox[:end], waited)
            conn.answered = time.monotonic()
            self._busy_seconds += conn.answered - started
            del inbox[: end + 1]
            conn.closing = bool(response.get("bye"))
        else:
            response = error_payload(
                ProtocolError(f"request over {MAX_LINE_BYTES} bytes")
            )
            conn.closing = True
        conn.outbox += encode(response)
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        """Send what the socket takes; the rest waits for EVENT_WRITE."""
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._drop(conn)
            return
        del conn.outbox[:sent]
        if not conn.outbox and conn.closing:
            self._drop(conn)
            return
        if bool(conn.outbox) != conn.writing:
            conn.writing = not conn.writing
            events = EVENT_WRITE if conn.writing else EVENT_READ
            self._selector.modify(conn.sock, events, conn)
        self._enqueue(conn)

    def _drop(self, conn: _Connection) -> None:
        """Roll the session back, unregister and close its socket, once."""
        if self._connections.pop(conn.session.id, None) is None:
            return
        conn.closing, conn.queued = True, False
        conn.outbox.clear()
        try:
            conn.session.close()
        finally:
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _respond(self, session: Session, raw: bytes, waited: float) -> dict:
        """Decode, bound the wait, execute: every failure becomes a typed
        error.  ``waited``: seconds of others' statements run while it was
        ready."""
        try:
            request = decode(raw.strip())
        except ProtocolError as exc:
            return error_payload(exc)
        try:
            if waited * 1000.0 > self.admission.max_wait_ms:
                raise self.admission.reject(waited * 1000.0)
            return session.handle(request)
        except Exception as exc:  # noqa: BLE001 — the wire gets it typed
            session.errors += 1
            return error_payload(exc)


__all__ = [
    "DEFAULT_MAX_WAIT_MS",
    "DatabaseServer",
]
