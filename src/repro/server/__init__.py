"""The multi-user serving tier: sessions, protocol, one-thread server.

``DatabaseServer`` serves one shared :class:`~repro.api.Database` to
many TCP sessions from one event-loop thread; each session speaks the
JSON-line protocol of :mod:`repro.server.protocol` and reuses the
interactive CLI's command surface (:mod:`repro.server.session`).
Isolation between sessions is MVCC snapshot isolation from the storage
layer; a request that queues past the server's ``max_wait_ms`` behind
other sessions' statements is rejected with ``AdmissionRejected``.
"""

from repro.server.client import ServerClient, ServerError
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError
from repro.server.server import DatabaseServer
from repro.server.session import Session

__all__ = [
    "PROTOCOL_VERSION",
    "DatabaseServer",
    "ProtocolError",
    "ServerClient",
    "ServerError",
    "Session",
]
