"""A bounded LRU cache of optimized plans, invalidated by catalog version.

The paper's compile-time/execution-time discussion ends with ObjectStore's
dynamic plans; industrial optimizers instead amortize the optimizer itself
across repeated traffic by caching parameterized plans.  This module is
that layer:

* entries are keyed on ``(fingerprint, catalog version)`` — the
  fingerprint is the normalized query template (plus a digest of the
  optimizer configuration), and the catalog version is a monotonic
  counter bumped by ``create_index`` / ``drop_index`` / ``analyze`` /
  ``collect_type_statistics``, so a stale plan is *invalidated*, never
  silently reused;
* the stored plan is an immutable template whose constants are slots: a
  hit hands the very same plan to the executor, beside the statement's
  own ``consts`` (see ``cache.fingerprint``), instead of re-running the
  Volcano search;
* a *digest memo* of the same capacity, under the same lock, remembers
  for each literal-stripped statement text which template it parsed to
  and which literal fills which slot, so a repeated statement is
  recognised from one lexical pass and never builds an AST (a write
  included);
* everything is observable: hits, misses, evictions, invalidations, and
  the optimizer wall-time the cache saved.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cache.fingerprint import Digested, ParameterizedQuery, admits
from repro.catalog.catalog import Catalog
from repro.errors import PlanCacheError
from repro.lang.lexer import literal_value
from repro.optimizer.optimizer import OptimizationResult

DEFAULT_CAPACITY = 128


@dataclass
class CacheStats:
    """Counters exposed via ``Database.plan_cache.stats`` and the CLI."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    invalidations: int = 0
    optimization_seconds_saved: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        """One-line counter summary for the CLI and benchmark reports."""
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.invalidations} invalidations, "
            f"{self.evictions} evictions, hit rate {self.hit_rate:.0%}, "
            f"saved {self.optimization_seconds_saved * 1000:.1f} ms of "
            "optimization"
        )


@dataclass(frozen=True)
class CacheInfo:
    """How the plan cache treated one query (attached to ``QueryResult``).

    ``outcome`` is one of ``"hit"`` (the cached template ran with this
    statement's constants), ``"miss"`` (optimized and stored),
    ``"uncacheable"`` (the query's parameters defeat safe reuse), or
    ``"bypass"`` (caching was switched off for the call).
    """

    outcome: str
    key: str
    catalog_version: int
    saved_seconds: float = 0.0

    @property
    def hit(self) -> bool:
        return self.outcome == "hit"


@dataclass
class CacheEntry:
    """One cached optimization, tied to the catalog state that produced it."""

    key: str
    optimization: OptimizationResult
    result_vars: tuple[str, ...]
    catalog_version: int
    optimization_seconds: float
    param_count: int
    hits: int = field(default=0)
    # FeedbackStore.version the plan was optimized against, or -1 when
    # feedback was off for the optimizing config.  A mismatch at lookup
    # invalidates the entry: execution has taught the store something
    # since this plan was chosen, so it must be re-optimized.
    feedback_version: int = field(default=-1)


class PlanCache:
    """Bounded LRU mapping of fingerprints to optimized plans.

    Thread-safe: concurrent ``Database.query`` calls may share one cache,
    so lookups (which mutate LRU order and counters) and stores run under
    a single reentrant lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise PlanCacheError("plan cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._digests: OrderedDict[tuple[str, ...], Digested] = OrderedDict()
        self.stats = CacheStats()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(
        self,
        key: str,
        catalog: Catalog,
        feedback_version: int | None = None,
    ) -> tuple[CacheEntry | None, str]:
        """Find a live entry for ``key`` under the current catalog.

        Returns ``(entry, outcome)`` where outcome is ``"hit"`` or
        ``"miss"``.  A version-stale entry is removed (counted as an
        invalidation).  With ``feedback_version`` given (feedback on), an
        entry optimized against a different feedback-store version is
        likewise invalidated — the store has learned since the plan was
        chosen.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None, "miss"
            wanted_feedback = -1 if feedback_version is None else feedback_version
            if entry.feedback_version != wanted_feedback:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None, "miss"
            if entry.catalog_version == catalog.version:
                self._record_hit(entry)
                return entry, "hit"
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None, "miss"

    def _record_hit(self, entry: CacheEntry) -> None:
        entry.hits += 1
        self.stats.hits += 1
        self.stats.optimization_seconds_saved += entry.optimization_seconds
        self._entries.move_to_end(entry.key)

    def store(self, entry: CacheEntry) -> None:
        """Insert (or replace) an entry, evicting the LRU tail if full."""
        with self._lock:
            if entry.key in self._entries:
                del self._entries[entry.key]
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._entries[entry.key] = entry
            self.stats.stores += 1

    def recall(
        self, digest: tuple[str, ...], raws: list[str], catalog: Catalog | None = None
    ) -> tuple[ParameterizedQuery, tuple] | None:
        """The statement ``(template, consts)`` a text stands for, if a
        text with this digest (``lang.lexer.strip_literals``) has parsed
        before, spells its non-lifted literals the same way and passes the
        range guards; a write validated under another ``catalog`` version
        is dropped."""
        with self._lock:
            known = self._digests.get(digest)
            if known is None:
                return None
            version = known.parameterized.catalog_version
            if version is not None and version != catalog.version:
                del self._digests[digest]
                return None
            self._digests.move_to_end(digest)
        for ordinal, raw in known.fixed:
            if raws[ordinal] != raw:
                return None
        consts = tuple([literal_value(raws[k]) for k in known.order])
        guards = known.parameterized.guards
        if guards and not admits(guards, consts):
            return None
        return known.parameterized, consts

    def remember(self, digest: tuple[str, ...], known: Digested) -> None:
        """Record what parsing a text with this digest produced."""
        with self._lock:
            self._digests.pop(digest, None)
            if len(self._digests) >= self.capacity:
                self._digests.popitem(last=False)
            self._digests[digest] = known

    def clear(self) -> None:
        """Drop every entry and digest (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._digests.clear()

    def entries(self) -> tuple[CacheEntry, ...]:
        """Current entries, least- to most-recently used."""
        with self._lock:
            return tuple(self._entries.values())

    def describe(self) -> str:
        """Counters plus one line per cached entry (for the CLI)."""
        lines = [
            f"plan cache: {len(self)}/{self.capacity} entries, "
            + self.stats.describe()
        ]
        for entry in self.entries():
            fingerprint = entry.key.split("\x00", 1)[0]
            if len(fingerprint) > 72:
                fingerprint = fingerprint[:69] + "..."
            lines.append(
                f"  [v{entry.catalog_version} "
                f"{entry.param_count} params, {entry.hits} hits] {fingerprint}"
            )
        return "\n".join(lines)


__all__ = [
    "CacheEntry",
    "CacheInfo",
    "CacheStats",
    "DEFAULT_CAPACITY",
    "PlanCache",
]
