"""Selectivity estimation.

The paper's rule, reproduced exactly: "If no index can be used to assist
in selectivity estimation, selectivity of selection predicates is assumed
to be 10%, which is naive and will later be replaced by a more accurate
selectivity estimation method."

Beyond the paper's equality predicates we also give range comparisons a
fixed default, and define reference-equality selectivity as one over the
referenced population — the choice that makes ``Mat`` and its ``Join``
rewriting estimate identical cardinalities (a requirement for memo-group
consistency).
"""

from __future__ import annotations

from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    RefAttr,
    SelfOid,
    VarRef,
)
from repro.catalog.catalog import Catalog
from repro.catalog.statistics import DEFAULT_SELECTIVITY
from repro.optimizer.logical_props import QueryVars

DEFAULT_RANGE_SELECTIVITY = 0.30
DEFAULT_UNNEST_FANOUT = 8.0


class SelectivityModel:
    """Index-assisted selectivity over the catalog."""

    def __init__(self, catalog: Catalog, query_vars: QueryVars) -> None:
        self.catalog = catalog
        self.query_vars = query_vars

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def predicate(self, predicate: Conjunction) -> float:
        """Product of the conjuncts' selectivities (independence)."""
        result = 1.0
        for comparison in predicate.comparisons:
            result *= self.comparison(comparison)
        return result

    def comparison(self, comparison: Comparison) -> float:
        """Selectivity of one comparison (see the module docstring)."""
        if comparison.truth is not None:
            # Decided without a row (e.g. the simplifier's canonical FALSE
            # predicate, or a comparison with null): exact.
            return 1.0 if comparison.truth else 0.0
        view = comparison.term_const
        if view is not None and isinstance(view[0], FieldRef):
            return self._field_vs_const(*view)

        left, op, right = comparison.left, comparison.op, comparison.right
        if self._is_reference_equality(left, right, op):
            return self._reference_equality(left, right)

        if op is CompOp.EQ:
            return DEFAULT_SELECTIVITY
        if op is CompOp.NE:
            return 1.0 - DEFAULT_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _field_vs_const(self, field: FieldRef, op: CompOp, const: Const) -> float:
        refined = self._refined_selectivity(field, op, const)
        if refined is not None:
            return refined
        distinct = self._indexed_distinct(field)
        if op is CompOp.EQ:
            if distinct is not None:
                return 1.0 / distinct
            return DEFAULT_SELECTIVITY
        if op is CompOp.NE:
            if distinct is not None:
                return 1.0 - 1.0 / distinct
            return 1.0 - DEFAULT_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    def _refined_selectivity(
        self, field: FieldRef, op: CompOp, const: Const
    ) -> float | None:
        """Histogram/MCV estimate when ``Database.analyze`` has run.

        The paper: the 10% default "is naive and will later be replaced by
        a more accurate selectivity estimation method" — this is that
        method, consulted before indexes and defaults.
        """
        stats = self._attribute_stats(field)
        if stats is None:
            return None
        value = const.value
        if op is CompOp.EQ or op is CompOp.NE:
            estimate = None
            if stats.mcv is not None:
                estimate = stats.mcv.selectivity_eq(value)
            elif stats.histogram is not None:
                estimate = stats.histogram.selectivity_eq(value)
            if estimate is None:
                return None
            return estimate if op is CompOp.EQ else 1.0 - estimate
        if stats.histogram is None:
            return None
        hist = stats.histogram
        if op in (CompOp.LT, CompOp.LE):
            return hist.selectivity_range(high=value, high_inclusive=op is CompOp.LE)
        if op in (CompOp.GT, CompOp.GE):
            return hist.selectivity_range(low=value, low_inclusive=op is CompOp.GE)
        return None

    def _attribute_stats(self, field: FieldRef):
        """The AttributeStats record that describes this field's values."""
        origin = self.query_vars.origins.get(field.var)
        if origin is None:
            return None
        if not origin.path and self.catalog.has_stats(origin.collection):
            stats = self.catalog.stats(origin.collection).attributes.get(field.attr)
            if stats is not None and (stats.histogram or stats.mcv):
                return stats
        extent = self.catalog.extent_of(origin.type_name)
        if extent is not None and self.catalog.has_stats(extent.name):
            stats = self.catalog.stats(extent.name).attributes.get(field.attr)
            if stats is not None and (stats.histogram or stats.mcv):
                return stats
        return None

    def _indexed_distinct(self, field: FieldRef) -> int | None:
        """Distinct-key count from any index that can assist this field.

        Two routes, both checked so the estimate is independent of which
        equivalent expression carries the predicate: the path index from
        the variable's origin (``Cities`` on ``mayor.name``) and an
        attribute index on the variable's type extent
        (``extent(Employee)`` on ``name``).
        """
        origin = self.query_vars.origins.get(field.var)
        if origin is None:
            return None
        index = self.catalog.find_index(
            origin.collection, origin.path + (field.attr,)
        )
        if index is not None:
            return index.distinct_keys
        extent = self.catalog.extent_of(origin.type_name)
        if extent is not None:
            index = self.catalog.find_index(extent.name, (field.attr,))
            if index is not None:
                return index.distinct_keys
        return None

    # ------------------------------------------------------------------
    # Reference equality (Mat <-> Join consistency)
    # ------------------------------------------------------------------

    @staticmethod
    def _is_reference_equality(left, right, op: CompOp) -> bool:
        if op is not CompOp.EQ:
            return False
        ref_like = (RefAttr, VarRef, SelfOid)
        return isinstance(left, ref_like) and isinstance(right, ref_like)

    def _reference_equality(self, left, right) -> float:
        # One side identifies the referenced object (SelfOid of a scanned
        # variable); its population sets the selectivity.
        for term in (left, right):
            if isinstance(term, SelfOid):
                origin = self.query_vars.origins.get(term.var)
                if origin is None:
                    continue
                if not origin.path and self.catalog.has_stats(origin.collection):
                    # An empty referenced collection means *nothing* can
                    # match — selectivity 0, not the 1.0 a max(1, card)
                    # floor would produce.  Sub-1 estimates are legal
                    # everywhere downstream; only final costs clamp.
                    cardinality = self.catalog.cardinality(origin.collection)
                    if cardinality <= 0:
                        return 0.0
                    return 1.0 / cardinality
                population = self.catalog.type_population(origin.type_name)
                if population:
                    return 1.0 / population
        # Reference-to-reference comparison with no scanned side.
        for term in (left, right):
            origin = self.query_vars.origins.get(getattr(term, "var", ""))
            if origin is not None:
                population = self.catalog.type_population(origin.type_name)
                if population:
                    return 1.0 / population
        return DEFAULT_SELECTIVITY

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------

    DEFAULT_GROUP_FRACTION = 0.1

    def grouping_cardinality(self, keys, child_cardinality: float) -> float:
        """Estimated number of groups for a GroupBy's key terms."""
        if not keys:
            return 1.0
        groups = 1.0
        for key in keys:
            groups *= self._key_distinct(key.term, child_cardinality)
        # No 1-row floor: a (near-)empty input yields (near-)zero groups,
        # and keeping the sub-1 estimate is what lets join ordering and
        # feedback error ratios tell "empty" apart from "one row".
        return min(child_cardinality, groups)

    def _key_distinct(self, term, child_cardinality: float) -> float:
        from repro.algebra.predicates import ObjectTerm

        if isinstance(term, (SelfOid, ObjectTerm)):
            return child_cardinality  # object identity: one group per object
        if isinstance(term, FieldRef):
            stats = self._stats_distinct(term)
            if stats is not None:
                return float(stats)
            indexed = self._indexed_distinct(term)
            if indexed is not None:
                return float(indexed)
        if isinstance(term, RefAttr):
            origin = self.query_vars.origins.get(term.var)
            if origin is not None:
                holder = self.catalog.type_of(origin.type_name)
                target = holder.attribute(term.attr).target_type
                population = self.catalog.type_population(target or "")
                if population:
                    return float(population)
        return child_cardinality * self.DEFAULT_GROUP_FRACTION

    def _stats_distinct(self, field: FieldRef) -> int | None:
        origin = self.query_vars.origins.get(field.var)
        if origin is None:
            return None
        if not origin.path and self.catalog.has_stats(origin.collection):
            distinct = self.catalog.stats(origin.collection).distinct_values(
                field.attr
            )
            if distinct is not None:
                return distinct
        extent = self.catalog.extent_of(origin.type_name)
        if extent is not None and self.catalog.has_stats(extent.name):
            return self.catalog.stats(extent.name).distinct_values(field.attr)
        return None

    # ------------------------------------------------------------------
    # Fan-outs
    # ------------------------------------------------------------------

    def unnest_fanout(self, var: str, attr: str) -> float:
        """Average set size of a set-valued attribute."""
        origin = self.query_vars.origins.get(var)
        if origin is not None and not origin.path:
            if self.catalog.has_stats(origin.collection):
                size = self.catalog.stats(origin.collection).avg_set_size(attr)
                if size is not None:
                    return size
        # Fall back to the attribute's stats on the holder type's extent.
        if origin is not None:
            extent = self.catalog.extent_of(origin.type_name)
            if extent is not None and self.catalog.has_stats(extent.name):
                size = self.catalog.stats(extent.name).avg_set_size(attr)
                if size is not None:
                    return size
        return DEFAULT_UNNEST_FANOUT


__all__ = [
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_UNNEST_FANOUT",
    "SelectivityModel",
]
