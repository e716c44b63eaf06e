"""Shared context threaded through implementation rules and the search."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.governor.context import QueryContext
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.cost import CostModel
from repro.optimizer.logical_props import QueryVars, tuple_width_bytes
from repro.optimizer.memo import Memo
from repro.optimizer.selectivity import SelectivityModel


@dataclass
class OptimizeContext:
    """Everything an implementation rule or enforcer needs to cost a plan."""

    memo: Memo
    catalog: Catalog
    cost_model: CostModel
    selectivity: SelectivityModel
    query_vars: QueryVars
    config: OptimizerConfig
    # Search-observability sink; the shared disabled instance by default,
    # so un-traced optimizations pay one `enabled` check per event site.
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    # Per-query governor (search deadline, cancel token); None means the
    # search runs unbounded, exactly as before the governor existed.
    governor: QueryContext | None = None
    mexpr_facts: dict = field(default_factory=dict)  # see facts_of

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------

    def facts_of(self, mexpr, derive, *args):
        """``derive(mexpr, *args, self)``, computed once per m-expr."""
        facts = self.mexpr_facts.get(mexpr)
        if facts is None:
            facts = self.mexpr_facts[mexpr] = derive(mexpr, *args, self)
        return facts

    def collection_pages(self, collection_name: str) -> int:
        return self.catalog.pages(collection_name)

    def type_pages(self, type_name: str) -> int | None:
        """Page count of a type's population, or None if unknowable.

        Mirrors the paper's catalog limitation: only types with a
        statistics-bearing extent (or maintained type statistics, the
        paper's suggested remedy) have a bounded population.
        """
        return self.catalog.type_pages(type_name)

    def scope_width(self, scope) -> float:
        """Approximate tuple width (bytes) for a scope's bindings."""
        return tuple_width_bytes(
            scope, self.catalog, self.config.cost.tuple_overhead_bytes
        )


__all__ = ["OptimizeContext"]
