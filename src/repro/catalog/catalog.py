"""The catalog: schema + statistics + index metadata, with derived helpers.

The catalog answers every metadata question asked during optimization:

* type and attribute resolution for paths (``Employee.dept.plant.location``);
* collection cardinalities and page counts (given the page size);
* whether a type is *scannable* (has an extent) — the precondition of the
  Mat-to-Join transformation;
* which indexes exist, including *path indexes* such as the paper's index
  on ``Cities`` over ``mayor.name``, and the distinct-key statistics that
  make index-assisted selectivity estimation possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import (
    AttrKind,
    AttributeDef,
    CollectionDef,
    Schema,
    TypeDef,
    extent_name,
)
from repro.catalog.statistics import CollectionStats
from repro.errors import CatalogError, SchemaError
from repro.obs.tracer import NULL_TRACER, Tracer

DEFAULT_PAGE_SIZE = 4096

#: Relative cardinality drift a collection tolerates before its committed
#: DML forces a statistics bump (and with it plan-cache invalidation).
#: Below the threshold cached plans are *safely rebound*: plans are
#: data-independent (MVCC snapshots give correctness), so only costing —
#: which drifts with cardinality — justifies throwing a plan away.
DATA_DRIFT_THRESHOLD = 0.20


@dataclass(frozen=True)
class IndexDef:
    """An index over a collection keyed by a (possibly multi-link) path.

    ``path`` is a tuple of attribute names starting at the collection's
    element type and ending in a scalar attribute.  A single-element path is
    an ordinary attribute index; a longer path is a *path index* (e.g.
    ``("mayor", "name")`` on ``Cities``).  ``distinct_keys`` feeds equality
    selectivity; ``clustered`` is False for all indexes in this model (the
    paper's index scans fetch qualifying objects with random I/O).
    """

    name: str
    collection: str
    path: tuple[str, ...]
    distinct_keys: int

    def __post_init__(self) -> None:
        if not self.path:
            raise CatalogError(f"index {self.name!r} must have a non-empty path")
        if self.distinct_keys <= 0:
            raise CatalogError(f"index {self.name!r} needs positive distinct_keys")

    @property
    def is_path_index(self) -> bool:
        return len(self.path) > 1

    def describe(self) -> str:
        return f"{self.collection} on {'.'.join(self.path)}"


class Catalog:
    """Frozen schema plus statistics and indexes.

    The same catalog instance is shared by the simplifier (path typing),
    the optimizer (selectivity, cost, index applicability), and the
    execution engine (collection layout).
    """

    def __init__(self, schema: Schema, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        schema.validate()
        if page_size <= 0:
            raise CatalogError("page size must be positive")
        self._schema = schema
        self.page_size = page_size
        self._stats: dict[str, CollectionStats] = {}
        self._indexes: dict[str, IndexDef] = {}
        # Maintained (population, pages) for types without extents.
        self._type_populations: dict[str, tuple[int, int]] = {}
        # Monotonic counters: ``version`` moves on every metadata change
        # that can invalidate a cached plan (index DDL, statistics);
        # ``stats_version`` moves only on statistics changes.  The plan
        # cache keys entries on (fingerprint, version).
        self._version = 0
        self._stats_version = 0
        # Per-collection *data* versions: bumped by every committed DML
        # write touching the collection.  Deliberately separate from
        # ``version``: data movement alone does not invalidate cached
        # plans (they rebind safely) until cardinality drift crosses
        # DATA_DRIFT_THRESHOLD, at which point the statistics are
        # refreshed and ``version``/``stats_version`` move.
        self._data_versions: dict[str, int] = {}
        self._live_cardinality: dict[str, int] = {}
        # Observability sink for recoverable lookup failures; the owning
        # Database keeps this pointed at its own tracer.
        self.tracer: Tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic metadata version (bumped by any invalidating change)."""
        return self._version

    @property
    def stats_version(self) -> int:
        """Monotonic statistics-only version (indexes do not move it)."""
        return self._stats_version

    def _bump(self, stats: bool = False) -> None:
        self._version += 1
        if stats:
            self._stats_version += 1

    def note_statistics_changed(self) -> None:
        """Record an in-place statistics mutation (e.g. ``analyze``
        refining histograms on existing records) so cached plans that
        were costed against the old statistics are invalidated."""
        self._bump(stats=True)

    def data_version(self, collection_name: str) -> int:
        """How many committed DML writes have touched a collection."""
        return self._data_versions.get(collection_name, 0)

    def live_cardinality(self, collection_name: str) -> int | None:
        """The cardinality implied by committed DML deltas, when tracked.

        None before any DML touched the collection (the loaded
        statistics are authoritative then).
        """
        return self._live_cardinality.get(collection_name)

    def note_data_changed(self, collection_name: str, delta: int = 0) -> None:
        """Record one committed DML write to a collection.

        Always bumps the collection's data version.  When the cumulative
        cardinality drift against the costed statistics exceeds
        :data:`DATA_DRIFT_THRESHOLD`, the statistics are refreshed to the
        live cardinality and the stats version moves — invalidating
        version-keyed cached plans, exactly as ``analyze`` would.  Below
        the threshold, cached plans keep rebinding safely.
        """
        self._data_versions[collection_name] = (
            self._data_versions.get(collection_name, 0) + 1
        )
        if collection_name not in self._stats:
            return
        stats = self._stats[collection_name]
        live = self._live_cardinality.get(collection_name, stats.cardinality)
        live += delta
        self._live_cardinality[collection_name] = live
        baseline = stats.cardinality
        if abs(live - baseline) > DATA_DRIFT_THRESHOLD * max(1, baseline):
            stats.cardinality = max(0, live)
            self._bump(stats=True)

    def durable_state(self) -> dict:
        """The DML-derived catalog state a checkpoint must carry.

        Data versions and live cardinalities are products of committed
        writes, not of the schema bootstrap, so recovery restores them
        here; everything else (types, collections, statistics, indexes)
        is rebuilt from the manifest's bootstrap recipe.
        """
        return {
            "data_versions": dict(self._data_versions),
            "live_cardinality": dict(self._live_cardinality),
        }

    def restore_durable_state(self, state: dict) -> None:
        """Install checkpointed :meth:`durable_state` (recovery only).

        Live cardinalities that drifted past the refresh threshold are
        folded into the statistics immediately, mirroring the refresh
        the original engine performed when the drift happened.
        """
        self._data_versions = {
            name: int(version)
            for name, version in state.get("data_versions", {}).items()
        }
        self._live_cardinality = {
            name: int(card)
            for name, card in state.get("live_cardinality", {}).items()
        }
        for name, live in self._live_cardinality.items():
            stats = self._stats.get(name)
            if stats is None:
                continue
            drift = abs(live - stats.cardinality)
            if drift > DATA_DRIFT_THRESHOLD * max(1, stats.cardinality):
                stats.cardinality = max(0, live)
                self._bump(stats=True)

    # ------------------------------------------------------------------
    # Schema access
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def type_of(self, type_name: str) -> TypeDef:
        return self._schema.type_of(type_name)

    def collection(self, name: str) -> CollectionDef:
        """Look up a collection; raises CatalogError when unknown.

        Only the schema's own "no such collection" failure is translated
        (and recorded on the tracer); a genuine programming error inside
        the lookup propagates unmasked.
        """
        try:
            return self._schema.collection(name)
        except SchemaError as exc:
            if self.tracer.enabled:
                self.tracer.warning(
                    "unknown-collection", str(exc), collection=name
                )
            raise CatalogError(str(exc)) from exc

    def has_collection(self, name: str) -> bool:
        return name in self._schema.collections

    def collections(self) -> tuple[CollectionDef, ...]:
        return tuple(self._schema.collections.values())

    def element_type(self, collection_name: str) -> TypeDef:
        return self.type_of(self.collection(collection_name).element_type)

    def extent_of(self, type_name: str) -> CollectionDef | None:
        """The extent of a type, or None — gates Mat-to-Join rewrites."""
        return self._schema.extent_of(type_name)

    def attribute(self, type_name: str, attr_name: str) -> AttributeDef:
        return self.type_of(type_name).attribute(attr_name)

    def resolve_path(self, root_type: str, path: tuple[str, ...]) -> list[AttributeDef]:
        """Resolve each link of ``path`` starting at ``root_type``.

        Returns the attribute definition of every link.  Raises
        :class:`CatalogError` if a link does not exist or dereferences a
        scalar before the final position.
        """
        attrs: list[AttributeDef] = []
        current = self.type_of(root_type)
        for position, link in enumerate(path):
            attr = current.attribute(link)
            attrs.append(attr)
            last = position == len(path) - 1
            if not last:
                if attr.kind is AttrKind.SCALAR:
                    raise CatalogError(
                        f"path {'.'.join(path)!r} dereferences scalar "
                        f"{current.name}.{link}"
                    )
                current = self.type_of(attr.target_type)  # type: ignore[arg-type]
        return attrs

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def set_stats(self, collection_name: str, stats: CollectionStats) -> None:
        """Attach statistics to a collection (bumps the stats version)."""
        self.collection(collection_name)  # validate existence
        self._stats[collection_name] = stats
        self._bump(stats=True)

    def stats(self, collection_name: str) -> CollectionStats:
        """Statistics of a collection; raises when none were loaded."""
        if collection_name not in self._stats:
            raise CatalogError(f"no statistics for collection {collection_name!r}")
        return self._stats[collection_name]

    def has_stats(self, collection_name: str) -> bool:
        return collection_name in self._stats

    def cardinality(self, collection_name: str) -> int:
        return self.stats(collection_name).cardinality

    def pages(self, collection_name: str) -> int:
        """Page count of a densely packed collection."""
        card = self.cardinality(collection_name)
        size = self.element_type(collection_name).object_size
        per_page = max(1, self.page_size // size)
        return max(1, -(-card // per_page))  # ceiling division

    def type_population(self, type_name: str) -> int | None:
        """Instance count of a type, known only if the type has an extent.

        Reproduces the paper's limitation: "cardinality information is kept
        only with extents and set instances".  A type such as ``Plant``
        with no extent yields ``None``, which forces pessimistic assembly
        cost estimates (Query 1, Figure 7 discussion) — unless maintained
        type statistics were recorded (:meth:`set_type_population`, the
        paper's "additional cardinality information should be maintained
        whether or not the objects belong to a set or extent").
        """
        extent = self.extent_of(type_name)
        if extent is not None and self.has_stats(extent.name):
            return self.cardinality(extent.name)
        maintained = self._type_populations.get(type_name)
        if maintained is not None:
            return maintained[0]
        return None

    def set_type_population(
        self, type_name: str, population: int, pages: int
    ) -> None:
        """Record maintained statistics for a type without an extent.

        ``pages`` is the page count of the type's storage area, so sparse
        clustering (like ``Plant``'s) is represented faithfully.
        """
        self.type_of(type_name)  # validate
        if population < 0 or pages <= 0:
            raise CatalogError("population must be >= 0 and pages positive")
        self._type_populations[type_name] = (population, pages)
        self._bump(stats=True)

    def type_pages(self, type_name: str) -> int | None:
        """Page count of a type's population, when knowable.

        The extent's packed page count when an extent with statistics
        exists, else maintained type statistics, else None.
        """
        extent = self.extent_of(type_name)
        if extent is not None and self.has_stats(extent.name):
            return self.pages(extent.name)
        maintained = self._type_populations.get(type_name)
        if maintained is not None:
            return maintained[1]
        return None

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def add_index(self, index: IndexDef) -> IndexDef:
        """Register an index after validating its path against the schema."""
        if index.name in self._indexes:
            raise CatalogError(f"duplicate index {index.name!r}")
        # Validate the path against the schema: every link but the last must
        # be a single-valued reference; the last must be a scalar.
        coll = self.collection(index.collection)
        attrs = self.resolve_path(coll.element_type, index.path)
        for attr in attrs[:-1]:
            if attr.kind is not AttrKind.REF:
                raise CatalogError(
                    f"index {index.name!r}: path link {attr.name!r} is not a "
                    "single-valued reference"
                )
        if attrs[-1].kind is not AttrKind.SCALAR:
            raise CatalogError(
                f"index {index.name!r}: path must end in a scalar attribute"
            )
        self._indexes[index.name] = index
        self._bump()
        return index

    def drop_index(self, name: str) -> None:
        """Remove an index by name; raises when unknown."""
        if name not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        del self._indexes[name]
        self._bump()

    def indexes(self) -> tuple[IndexDef, ...]:
        return tuple(self._indexes.values())

    def index(self, name: str) -> IndexDef:
        """Look an index up by name; raises when unknown."""
        if name not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        return self._indexes[name]

    def find_index(self, collection_name: str, path: tuple[str, ...]) -> IndexDef | None:
        """The index on ``collection_name`` keyed exactly by ``path``, if any."""
        for index in self._indexes.values():
            if index.collection == collection_name and index.path == path:
                return index
        return None

    def indexes_on(self, collection_name: str) -> tuple[IndexDef, ...]:
        """Every index whose keyed collection is ``collection_name``."""
        return tuple(
            ix for ix in self._indexes.values() if ix.collection == collection_name
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def describe(self) -> str:
        """A Table 1 style rendering of the catalog."""
        header = (
            f"{'Type':<12} {'Set Name':<12} {'Set Card.':>9} "
            f"{'Obj. Size':>9} {'Extent?':>7} {'Extent Card.':>12}"
        )
        lines = [header, "-" * len(header)]
        for type_def in self._schema.types.values():
            named = [
                c
                for c in self._schema.collections.values()
                if c.element_type == type_def.name and not c.is_extent
            ]
            extent = self.extent_of(type_def.name)
            set_name = named[0].name if named else ""
            set_card = (
                str(self.cardinality(set_name))
                if set_name and self.has_stats(set_name)
                else ""
            )
            has_extent = "Yes" if extent is not None else "No"
            extent_card = (
                str(self.cardinality(extent.name))
                if extent is not None and self.has_stats(extent.name)
                else ""
            )
            lines.append(
                f"{type_def.name:<12} {set_name:<12} {set_card:>9} "
                f"{type_def.object_size:>9} {has_extent:>7} {extent_card:>12}"
            )
        return "\n".join(lines)


def build_catalog(schema: Schema, page_size: int = DEFAULT_PAGE_SIZE) -> Catalog:
    """Create a catalog, adding empty stats for collections lacking them."""
    catalog = Catalog(schema, page_size=page_size)
    return catalog


__all__ = [
    "Catalog",
    "DATA_DRIFT_THRESHOLD",
    "DEFAULT_PAGE_SIZE",
    "IndexDef",
    "build_catalog",
    "extent_name",
]
