"""The feedback store: observed per-subplan cardinalities.

One entry per subplan fingerprint: the row count an execution actually
produced, stamped with the per-collection data versions and live
cardinalities of every collection the subplan read.  Lookups are
freshness-checked against the catalog:

* same data versions — the observation is exact for the current data;
* versions moved but the covered collections' live cardinality drifted
  less than :data:`~repro.catalog.catalog.DATA_DRIFT_THRESHOLD` — still
  served (minor DML does not void a measurement);
* drifted past the threshold — the observation is dropped on sight
  (the same 20% rule that triggers the catalog's statistics refresh).

``version`` is a monotonic counter bumped whenever the store's knowledge
*materially* changes (a new key, or an observation moving by more than
:data:`MATERIAL_RATIO`); the plan cache stamps entries with it, so a
plan optimized against yesterday's feedback is invalidated — not served
— once execution has taught the store something new.  Repeated runs of
a stable workload re-observe the same numbers, leave the version alone,
and keep hitting the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import DATA_DRIFT_THRESHOLD, Catalog
from repro.feedback.fingerprint import Fingerprint, render_fingerprint

#: An observation must move by more than this ratio before re-ingesting
#: it counts as new knowledge (and invalidates feedback-stamped plans).
MATERIAL_RATIO = 1.5


@dataclass
class Observation:
    """One observed cardinality, with its staleness stamp."""

    key: Fingerprint
    rows: float
    #: Collections the subplan read, with the data version and live
    #: cardinality of each at observation time.
    data_versions: dict[str, int]
    baselines: dict[str, float]
    #: False when the stream was cancelled mid-flight (adaptive replan):
    #: ``rows`` is then a lower bound, superseded by any complete run.
    complete: bool = True
    hits: int = 0


@dataclass
class FeedbackStats:
    """Counters exposed via ``Database.feedback.stats`` and the CLI."""

    ingested: int = 0
    lookups: int = 0
    hits: int = 0
    stale_drops: int = 0
    replans: int = 0

    def describe(self) -> str:
        """One-line counter summary for the CLI."""
        return (
            f"{self.ingested} observations ingested, {self.hits}/"
            f"{self.lookups} lookups served, {self.stale_drops} dropped "
            f"stale, {self.replans} adaptive replans"
        )


class FeedbackStore:
    """Observed cardinalities keyed by subplan fingerprint."""

    def __init__(self) -> None:
        self._obs: dict[Fingerprint, Observation] = {}
        self.version = 0
        self.stats = FeedbackStats()

    def __len__(self) -> int:
        return len(self._obs)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def observe(
        self,
        key: Fingerprint,
        rows: float,
        collections,
        catalog: Catalog,
        complete: bool = True,
    ) -> None:
        """Record one observed cardinality for a subplan fingerprint."""
        old = self._obs.get(key)
        if old is not None and not complete and old.rows >= rows:
            return  # a lower bound below what we already know adds nothing
        data_versions = {c: catalog.data_version(c) for c in collections}
        baselines = {c: float(self._population(catalog, c)) for c in collections}
        self._obs[key] = Observation(
            key, float(rows), data_versions, baselines, complete=complete
        )
        self.stats.ingested += 1
        material = old is None or _ratio(rows, old.rows) > MATERIAL_RATIO
        if material:
            self.version += 1

    def ingest(self, monitor, catalog: Catalog) -> int:
        """Absorb a :class:`~repro.feedback.monitor.CardinalityMonitor`'s
        run counts; returns the number of observations recorded."""
        recorded = 0
        for key, collections, rows, complete in monitor.observations():
            self.observe(key, rows, collections, catalog, complete=complete)
            recorded += 1
        return recorded

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def observed(
        self, key: Fingerprint, catalog: Catalog, record_stats: bool = True
    ) -> float | None:
        """The fresh observed cardinality for ``key``, or None.

        A drifted observation is dropped on sight (bumping ``version``:
        plans stamped against it are stale too).
        """
        obs = self._lookup(key, catalog, record_stats)
        return None if obs is None else obs.rows

    def estimate(
        self,
        key: Fingerprint,
        catalog: Catalog,
        fallback: float,
        record_stats: bool = True,
    ) -> tuple[float, bool]:
        """``(cardinality, fed)`` for the cost model: feedback over stats.

        A *complete* observation replaces ``fallback`` outright.  An
        *incomplete* one (a stream cancelled by the adaptive replan) is
        only a lower bound: it may raise the estimate — that is exactly
        the knowledge the replan acts on — but never lower it, so a
        cartesian product of which the cancelled run saw 60 rows does
        not get costed as a 60-row input.
        """
        obs = self._lookup(key, catalog, record_stats)
        if obs is None:
            return fallback, False
        if obs.complete:
            return obs.rows, True
        if obs.rows >= fallback:
            return obs.rows, True
        return fallback, False

    def _lookup(
        self, key: Fingerprint, catalog: Catalog, record_stats: bool
    ) -> Observation | None:
        """Freshness-checked fetch shared by the lookup surfaces."""
        obs = self._obs.get(key)
        if record_stats:
            self.stats.lookups += 1
        if obs is None:
            return None
        if not self._fresh(obs, catalog):
            del self._obs[key]
            self.version += 1
            if record_stats:
                self.stats.stale_drops += 1
            return None
        if record_stats:
            self.stats.hits += 1
            obs.hits += 1
        return obs

    def _fresh(self, obs: Observation, catalog: Catalog) -> bool:
        for collection, version in obs.data_versions.items():
            if catalog.data_version(collection) == version:
                continue
            baseline = obs.baselines.get(collection, 0.0)
            live = float(self._population(catalog, collection))
            if abs(live - baseline) > DATA_DRIFT_THRESHOLD * max(1.0, baseline):
                return False
        return True

    @staticmethod
    def _population(catalog: Catalog, collection: str) -> float:
        live = catalog.live_cardinality(collection)
        if live is not None:
            return float(live)
        if catalog.has_stats(collection):
            return float(catalog.cardinality(collection))
        return 0.0

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every observation (counters kept; version moves)."""
        if self._obs:
            self.version += 1
        self._obs.clear()

    def entries(self) -> tuple[Observation, ...]:
        return tuple(self._obs.values())

    def describe(self) -> str:
        """Counters plus one line per observation (for the CLI)."""
        lines = [
            f"feedback store: {len(self)} observation(s), "
            f"v{self.version}, " + self.stats.describe()
        ]
        for obs in self._obs.values():
            marker = "" if obs.complete else " (partial)"
            lines.append(
                f"  [{obs.rows:.0f} rows{marker}, {obs.hits} hits] "
                f"{render_fingerprint(obs.key)}"
            )
        return "\n".join(lines)


def _ratio(a: float, b: float) -> float:
    lo, hi = sorted((abs(a), abs(b)))
    if lo == 0.0:
        return float("inf") if hi > 0.0 else 1.0
    return hi / lo


__all__ = ["FeedbackStats", "FeedbackStore", "MATERIAL_RATIO", "Observation"]
