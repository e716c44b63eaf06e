"""The serving tier's wire protocol: JSON objects, one per line.

Requests and responses are single-line JSON documents over a TCP
stream.  A request names an operation (``op``); the response always
carries ``ok``.  Failures are *typed*: the ``error`` object names the
exception class (``WriteConflict``, ``AdmissionRejected``,
``QueryTimeout``, ...) so clients can react to conflicts and overload
without parsing prose.

Operations
==========

``hello``      → server banner, session id, protocol version
``line``       run one shell line (dot-command or ZQL statement) and
               return its printed output — the exact command surface of
               the interactive CLI, including ``.begin``/``.commit``,
               ``.prepare``/``.exec``, ``.timeout``/``.memory``
``query``      run one ZQL statement; rows come back as data.  With
               ``"cursor": true`` the rows stay server-side and the
               response carries a cursor id for `fetch`
``fetch``      ``{"op": "fetch", "cursor": N, "n": 100}`` → next batch
``close``      ``{"op": "close", "cursor": N}`` → drop a cursor
``bye``        end the session

This module is pure data-plumbing (no sockets): encoding, decoding, and
the typed-error rendering shared by server and tests.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError
from repro.storage.objects import Obj, Oid

#: Bumped when the wire format changes incompatibly.
PROTOCOL_VERSION = 1

#: Cap on one request line, a guard against a client streaming garbage.
MAX_LINE_BYTES = 1 << 20


def encode(payload: dict[str, Any]) -> bytes:
    """One response (or request) as a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> dict[str, Any]:
    """Parse one request line; raises ProtocolError on malformed input."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"request over {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors too
        raise ProtocolError(f"malformed request: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("op"), str):
        raise ProtocolError('requests must be JSON objects with an "op"')
    return payload


class ProtocolError(ReproError):
    """A request the server cannot even parse."""


def error_payload(exc: BaseException) -> dict[str, Any]:
    """Render an exception as the protocol's typed error object.

    The ``type`` field is the exception class name; known attributes of
    typed storage errors (the conflicting ``oid``) ride along so a
    client can retry precisely.
    """
    error: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    oid = getattr(exc, "oid", None)
    if oid is not None:
        error["oid"] = str(oid)
    return {"ok": False, "error": error}


def row_payload(row: dict[str, Any]) -> dict[str, Any]:
    """One result row as plain JSON (objects become ``{oid, data}``)."""
    encoded: dict[str, Any] = {}
    for name, value in row.items():
        encoded[name] = _value_payload(value)
    return encoded


def _value_payload(value: Any) -> Any:
    if isinstance(value, Obj):
        return {
            "oid": str(value.oid),
            "data": _data_payload(value.data) if value.resident else None,
        }
    return _scalar_payload(value)


def _data_payload(data: dict[str, Any] | None) -> dict[str, Any] | None:
    if data is None:
        return None
    return {name: _scalar_payload(value) for name, value in data.items()}


def _scalar_payload(value: Any) -> Any:
    """Scalars pass through; references and sets become oid strings."""
    if value.__class__ is Oid:  # a tuple, but one reference
        return str(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_scalar_payload(item) for item in value]
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    return str(value)


__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode",
    "encode",
    "error_payload",
    "row_payload",
]
