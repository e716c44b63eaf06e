"""Replay every minimized fuzz repro in ``tests/corpus/`` — forever.

Each file is a shrunk case that once exposed a real divergence (see the
``note`` inside it).  Its prefix names the fuzz mode that saved it:
``repro-*.json`` the differential plan oracle's (world, query) pairs,
``repro-chaos-*.json`` a query with its fault plan, ``repro-dml-*.json``
(world, write-batch) pairs, and ``repro-crash-*.json`` a write batch
with its crash plan.  This collector loads each file, rebuilds its world
from scratch and re-runs that mode's check on it, so a regression of any
pinned bug fails loudly with the configuration that diverged.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.fuzz import MODES, corpus_files, load

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ALL_FILES = corpus_files(CORPUS_DIR)


def test_corpus_present():
    """The shipped corpus must never silently vanish from collection."""
    kinds = Counter(load(path)[0].name for path in ALL_FILES)
    assert set(kinds) <= set(MODES)
    assert kinds["plan"] >= 18
    assert kinds["dml"] >= 3


@pytest.mark.parametrize("path", ALL_FILES, ids=lambda p: p.stem)
def test_corpus_case_stays_fixed(path):
    mode, case = load(path)
    counts = Counter()
    findings = mode.check(case, counts)
    assert findings is not None, "pinned case no longer plans or lost its statements"
    assert not findings, "\n".join(str(f) for f in findings)
    assert sum(counts.values()) > 0
