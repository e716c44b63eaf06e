"""Histograms: the paper's promised selectivity refinement.

"First, we will evaluate and refine the 'rougher' modules, in particular
selectivity and cost estimation" (Conclusions).  This module provides the
refinement: per-attribute equi-width histograms (numeric attributes) and
most-common-value sketches (any hashable attribute), built by scanning the
store (``Database.analyze``), stored in :class:`AttributeStats`, and
consulted by the selectivity model in preference to the 10% default.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any

from repro.catalog.schema import AttrKind
from repro.errors import CatalogError

DEFAULT_BINS = 20
DEFAULT_MCV_SIZE = 50


@dataclass(frozen=True)
class Histogram:
    """An equi-width histogram over a numeric attribute.

    ``boundaries`` has ``len(counts) + 1`` entries; bin *i* covers
    ``[boundaries[i], boundaries[i+1])`` (the last bin is closed).
    """

    boundaries: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    distinct: int

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.counts) + 1:
            raise CatalogError("histogram boundaries/counts mismatch")
        if self.total < 0:
            raise CatalogError("histogram total must be non-negative")

    # ------------------------------------------------------------------

    def selectivity_eq(self, value: Any) -> float:
        """Fraction of rows equal to ``value``.

        Uniform-within-bin assumption: the bin's share divided by the
        estimated distinct values per bin.
        """
        if self.total == 0:
            return 0.0
        index = self._bin_of(value)
        if index is None:
            return 0.0
        bin_fraction = self.counts[index] / self.total
        distinct_per_bin = max(1.0, self.distinct / len(self.counts))
        return bin_fraction / distinct_per_bin

    def selectivity_range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Fraction of rows inside [low, high] (linear interpolation)."""
        if self.total == 0:
            return 0.0
        lo_bound, hi_bound = self.boundaries[0], self.boundaries[-1]
        low = lo_bound if low is None else low
        high = hi_bound if high is None else high
        try:
            low = max(float(low), lo_bound)
            high = min(float(high), hi_bound)
        except (TypeError, ValueError):
            return 0.0
        if low > high:
            return 0.0
        covered = 0.0
        for i, count in enumerate(self.counts):
            b_lo, b_hi = self.boundaries[i], self.boundaries[i + 1]
            width = max(b_hi - b_lo, 1e-12)
            overlap = max(0.0, min(high, b_hi) - max(low, b_lo))
            if overlap > 0 or (b_lo <= low <= b_hi and low == high):
                fraction = overlap / width if overlap > 0 else 1.0 / width
                covered += count * min(1.0, fraction)
        return min(1.0, covered / self.total)

    def _bin_of(self, value: Any) -> int | None:
        try:
            value = float(value)
        except (TypeError, ValueError):
            return None
        if value < self.boundaries[0] or value > self.boundaries[-1]:
            return None
        index = bisect.bisect_right(self.boundaries, value) - 1
        return min(index, len(self.counts) - 1)


@dataclass(frozen=True)
class MostCommonValues:
    """Value-frequency sketch for categorical attributes.

    Tracks the top-k values exactly; the remainder is assumed uniform over
    the remaining distinct values.
    """

    values: tuple[tuple[Any, int], ...]
    total: int
    distinct: int

    def selectivity_eq(self, value: Any) -> float:
        """Fraction of rows equal to ``value`` (exact for tracked values,
        uniform over the remainder otherwise)."""
        if self.total == 0:
            return 0.0
        for candidate, count in self.values:
            if candidate == value:
                return count / self.total
        tracked = sum(count for _, count in self.values)
        remaining_rows = self.total - tracked
        remaining_distinct = max(1, self.distinct - len(self.values))
        return max(0.0, remaining_rows / remaining_distinct / self.total)


def build_histogram(values: list[Any], bins: int = DEFAULT_BINS) -> Histogram | None:
    """Equi-width histogram from raw values; None if not numeric."""
    numeric: list[float] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        numeric.append(float(value))
    if not numeric:
        return None
    lo, hi = min(numeric), max(numeric)
    if lo == hi:
        boundaries = (lo, hi)
        return Histogram((lo, hi), (len(numeric),), len(numeric), 1)
    bins = max(1, bins)
    width = (hi - lo) / bins
    counts = [0] * bins
    for value in numeric:
        index = min(bins - 1, int((value - lo) / width))
        counts[index] += 1
    boundaries = tuple(lo + i * width for i in range(bins)) + (hi,)
    return Histogram(boundaries, tuple(counts), len(numeric), len(set(numeric)))


def build_mcv(values: list[Any], k: int = DEFAULT_MCV_SIZE) -> MostCommonValues:
    """Most-common-values sketch from raw values."""
    from collections import Counter

    counter = Counter(values)
    top = tuple(counter.most_common(k))
    return MostCommonValues(top, len(values), len(counter))


def analyze_collection(
    catalog, store, collection: str,
    attributes: tuple[str, ...] | None = None, bins: int | None = None,
) -> list[str]:
    """Scan ``collection`` in ``store`` and refresh the catalog's
    histogram / MCV / distinct-value records for its scalar attributes
    (all of them by default).  Returns the attribute names analyzed."""
    element = catalog.element_type(collection)
    if attributes is None:
        attributes = tuple(
            a.name for a in element.attributes if a.kind is AttrKind.SCALAR
        )
    stats = catalog.stats(collection)
    analyzed: list[str] = []
    for attr_name in attributes:
        attr_def = element.attribute(attr_name)
        if attr_def.kind is not AttrKind.SCALAR:
            raise CatalogError(
                f"analyze: {collection}.{attr_name} is not a scalar"
            )
        values = [
            store.peek(oid).get(attr_name)
            for oid in store.collection_oids(collection)
        ]
        values = [v for v in values if v is not None]
        record = stats.attribute(attr_name)
        record.histogram = build_histogram(values, bins or DEFAULT_BINS)
        record.mcv = build_mcv(values)
        record.distinct_values = len(set(values))
        analyzed.append(attr_name)
    if analyzed:
        # In-place mutation of existing stats records: tell the
        # catalog so version-keyed cached plans are invalidated.
        catalog.note_statistics_changed()
    return analyzed


__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_MCV_SIZE",
    "Histogram",
    "MostCommonValues",
    "analyze_collection",
    "build_histogram",
    "build_mcv",
]
