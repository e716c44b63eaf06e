"""JSON-safe encoding of logged values.

Object data dicts hold scalars, :class:`~repro.storage.objects.Oid`
references, and tuples of OIDs (set-valued references).  JSON has none
of those, so values are wrapped in small tagged objects:

* ``Oid("City", 3)``      → ``{"$oid": ["City", 3]}``
* ``(a, b)``              → ``{"$tuple": [enc(a), enc(b)]}``

The round trip is exact — in particular tuples come back as tuples, not
lists, because recovered state must be **byte-identical** (down to
``repr``) to the state a never-crashed engine would hold; the crash
oracle compares exactly that.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StorageError
from repro.storage.objects import Oid

_OID_TAG = "$oid"
_TUPLE_TAG = "$tuple"


def encode_value(value: Any) -> Any:
    """Encode one stored value into JSON-serializable form."""
    if isinstance(value, Oid):
        return {_OID_TAG: [value.type_name, value.serial]}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise StorageError(
                    f"cannot log dict with non-string key {key!r}"
                )
        return {k: encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise StorageError(f"cannot log value of type {type(value).__name__}")


def encode_record(data: dict[str, Any] | None) -> Any:
    """An object record (or None, a tombstone) ready for ``json.dumps``:
    the record itself when that call writes it exactly as
    :func:`encode_value` would — string keys and scalar values — else its
    encoded copy.  An :class:`Oid` is a tuple, which ``json.dumps``
    writes as an array without asking ``default``, so exactly the records
    that hold a reference (or a list or dict) are copied.

    A checkpoint holds the newest version of every written object;
    encoding each into a tagged copy first made the copy, not the data,
    the peak of the process's memory.
    """
    if data is None:
        return None
    for key, value in data.items():
        if type(key) is not str or isinstance(value, (tuple, list, dict)):
            return encode_value(data)
    return data


def encode_default(value: Any) -> Any:
    """``json.dumps`` ``default`` hook: a value JSON has no form for is a
    typed error, as :func:`encode_value` raises it."""
    raise StorageError(f"cannot log value of type {type(value).__name__}")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_OID_TAG}:
            type_name, serial = value[_OID_TAG]
            return Oid(type_name, serial)
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_value(v) for v in value[_TUPLE_TAG])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_oid(oid: Oid) -> list:
    """An OID as a bare ``[type, serial]`` pair (record key positions)."""
    return [oid.type_name, oid.serial]


def decode_oid(pair: list) -> Oid:
    """Invert :func:`encode_oid`."""
    return Oid(pair[0], pair[1])


__all__ = [
    "decode_oid",
    "decode_value",
    "encode_default",
    "encode_oid",
    "encode_record",
    "encode_value",
]
