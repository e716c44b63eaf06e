"""Consistent snapshots that bound recovery replay.

A checkpoint is the engine state at one CSN — each written object's
newest version (tombstones included), each collection's membership
events net of rows inserted and later deleted, the allocators, the
catalog data versions — captured under the commit lock so no commit is
half-included.  No snapshot older than it outlives a restart, so its
size follows the objects written, not the commits.  It is written
crash-safely:

1. serialize to ``checkpoint-<csn>.ckpt.tmp`` (CRC32-prefixed, like a
   log frame) and fsync it;
2. atomically ``os.rename`` over the final name (and fsync the
   directory so the rename itself is durable);
3. only then truncate the log and delete older checkpoints.

A crash anywhere before step 2 completes leaves the previous checkpoint
and the full log authoritative — ``load_newest_checkpoint`` ignores
``.tmp`` leftovers and falls back past any file that fails its CRC.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib

from repro.durability.codec import encode_default
from repro.governor.faults import CrashPlan, SimulatedCrash

_CRC = struct.Struct(">I")
_NAME = re.compile(r"^checkpoint-(\d+)\.ckpt$")


def checkpoint_path(directory: str, csn: int) -> str:
    """The final (post-rename) path of the checkpoint for ``csn``."""
    return os.path.join(directory, f"checkpoint-{csn}.ckpt")


def write_checkpoint(
    directory: str, state: dict, crash_plan: CrashPlan | None = None
) -> str:
    """Write ``state`` (must contain ``"csn"``) crash-safely; return path."""
    csn = state["csn"]
    final = checkpoint_path(directory, csn)
    tmp = final + ".tmp"
    # No sort_keys: object data dicts inside the MVCC state carry
    # meaning in their key insertion order.
    payload = json.dumps(
        state, separators=(",", ":"), default=encode_default
    ).encode()
    with open(tmp, "wb") as fh:
        fh.write(_CRC.pack(zlib.crc32(payload)))
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if crash_plan is not None and crash_plan.fires_at_checkpoint():
        raise SimulatedCrash("mid-checkpoint-rename")
    os.rename(tmp, final)
    _fsync_dir(directory)
    for name in os.listdir(directory):
        match = _NAME.match(name)
        if match and int(match.group(1)) != csn:
            os.remove(os.path.join(directory, name))
    return final


def load_newest_checkpoint(directory: str) -> dict | None:
    """Newest checksum-valid checkpoint state, or ``None`` if none exists.

    Scans ``checkpoint-<csn>.ckpt`` files newest-CSN-first, skipping any
    that are truncated or fail their CRC (a corrupted newest file falls
    back to the next older one).  ``.tmp`` files — a crash between write
    and rename — are never considered.
    """
    candidates: list[tuple[int, str]] = []
    for name in os.listdir(directory):
        match = _NAME.match(name)
        if match:
            candidates.append((int(match.group(1)), name))
    for _, name in sorted(candidates, reverse=True):
        state = _try_load(os.path.join(directory, name))
        if state is not None:
            return state
    return None


def _try_load(path: str) -> dict | None:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if len(blob) < _CRC.size:
        return None
    (crc,) = _CRC.unpack_from(blob)
    payload = blob[_CRC.size :]
    if zlib.crc32(payload) != crc:
        return None
    try:
        return json.loads(payload)
    except ValueError:
        return None


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


__all__ = ["checkpoint_path", "load_newest_checkpoint", "write_checkpoint"]
