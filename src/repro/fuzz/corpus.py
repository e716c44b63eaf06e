"""The fuzz corpus: shrunk repros as JSON, replayed forever by pytest.

A corpus file is one JSON document: a mode's canonical form of the case,
a readable rendering of it (the query text, or the statements), and a
free-form ``note`` naming the findings that produced it.  The file is
named ``<mode prefix><content hash>.json`` and the hash covers only the
canonical form, so re-finding the same case rewrites the same file.
``tests/integration/test_corpus.py`` loads every file in ``tests/corpus/``
and replays it through the check of the mode its prefix names.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def save(directory: str | Path, mode, case, note: str = "") -> Path:
    """Write ``case`` as a repro of ``mode``; returns its path (stable per
    case content)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    canonical = mode.encode(case)
    digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()[:12]
    path = directory / f"{mode.prefix}{digest}.json"
    document = {"note": note, **mode.describe(case), **canonical}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load(path: str | Path):
    """Load one repro file: ``(mode, case)``, the mode picked by the
    longest prefix of the file name that a mode saves under."""
    from repro.fuzz import MODES  # the registry imports every oracle

    path = Path(path)
    named = [m for m in MODES.values() if path.name.startswith(m.prefix)]
    if not named:
        raise ValueError(f"{path.name}: no fuzz mode saves files with this name")
    mode = max(named, key=lambda m: len(m.prefix))()
    return mode, mode.decode(json.loads(path.read_text()))


def corpus_files(directory: str | Path) -> list[Path]:
    """Every repro file under ``directory`` (empty when it is missing)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.json"))


__all__ = ["corpus_files", "load", "save"]
