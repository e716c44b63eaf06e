"""The ObjectStore-style greedy baseline.

"ObjectStore's query optimizer uses a fixed, greedy strategy designed to
exploit any available indexes.  We show that such a greedy strategy will
not always lead to the optimal plan."  The strategy reproduced here:

1. if any predicate conjunct is served by an index on the root collection
   (including a path index), use an index scan — the *first* applicable
   index, no cost comparison;
2. replay the path steps bottom-up; a materialize whose output variable
   carries an index-served conjunct on its type's extent becomes a hash
   join with an index scan on that extent (Figure 13's shape) — again
   unconditionally, because an index is available;
3. all other materializes are naive one-at-a-time navigation (assembly
   with window 1);
4. leftover conjuncts become a filter at the top.

Costs are attached with the same cost model the real optimizer uses, so
Table 3's greedy column is directly comparable.
"""

from __future__ import annotations

from repro.algebra.operators import LogicalOp, Mat, RefSource, Unnest, ref_path
from repro.algebra.predicates import Comparison, Conjunction, Const, FieldRef
from repro.baselines.builder import BaselineContext, QueryShape, decompose
from repro.catalog.catalog import Catalog, IndexDef
from repro.optimizer.cost import CostModel
from repro.optimizer.physical_props import PhysProps
from repro.optimizer.plans import (
    AlgProjectNode,
    AlgUnnestNode,
    AssemblyNode,
    FileScanNode,
    FilterNode,
    HashJoinNode,
    IndexScanNode,
    PhysicalNode,
)
from repro.storage.index import btree_shape, estimated_leaf_pages


def _field_const(comparison: Comparison) -> tuple[FieldRef, Const] | None:
    left, right = comparison.left, comparison.right
    if isinstance(left, Const) and isinstance(right, FieldRef):
        left, right = right, left
    if isinstance(left, FieldRef) and isinstance(right, Const):
        return left, right
    return None


class GreedyOptimizer:
    """Fixed-strategy, index-greedy, not cost-based."""

    def __init__(self, catalog: Catalog, cost_model: CostModel | None = None) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()

    def optimize(
        self, tree: LogicalOp, result_vars: tuple[str, ...] = ()
    ) -> PhysicalNode:
        """Build the fixed greedy plan for a simplified query tree."""
        ctx = BaselineContext.for_query(self.catalog, tree, self.cost_model)
        shape = decompose(tree)
        remaining = shape.predicate

        plan, rows, remaining, judged = self._root_scan(ctx, shape, remaining)
        # Conjuncts over the root object alone are applied during the scan
        # (ObjectStore evaluates the collection predicate as it navigates).
        root_only, remaining = remaining.split_by_vars(
            frozenset({shape.get.var})
        )
        if not root_only.is_true:
            input_rows = rows
            rows *= ctx.selectivity.predicate(root_only)
            plan = FilterNode(
                root_only,
                children=(plan,),
                delivered=plan.delivered,
                rows=rows,
                local_cost=self.cost_model.filter(
                    input_rows, len(root_only.comparisons)
                ),
            )
        steps = self._prune_unused_steps(shape, remaining, result_vars, judged)

        for step in steps:
            if isinstance(step, Unnest):
                rows *= ctx.selectivity.unnest_fanout(step.var, step.attr)
                plan = AlgUnnestNode(
                    step.var,
                    step.attr,
                    step.out,
                    children=(plan,),
                    delivered=plan.delivered,
                    rows=rows,
                    local_cost=self.cost_model.unnest(rows),
                )
            elif isinstance(step, Mat):
                plan, rows, remaining = self._materialize(
                    ctx, step, plan, rows, remaining
                )

        if not remaining.is_true:
            input_rows = rows
            rows *= ctx.selectivity.predicate(remaining)
            plan = FilterNode(
                remaining,
                children=(plan,),
                delivered=plan.delivered,
                rows=rows,
                local_cost=self.cost_model.filter(
                    input_rows, len(remaining.comparisons)
                ),
            )

        if shape.project is not None:
            plan = AlgProjectNode(
                shape.project.items,
                shape.project.distinct,
                children=(plan,),
                delivered=PhysProps.none(),
                rows=rows,
                local_cost=self.cost_model.project(rows, shape.project.distinct),
            )
        return plan

    # ------------------------------------------------------------------

    @staticmethod
    def _prune_unused_steps(
        shape: QueryShape,
        remaining: Conjunction,
        result_vars: tuple[str, ...],
        judged: frozenset[str] = frozenset(),
    ) -> list:
        """Drop materializes nothing downstream consumes.

        After an index scan consumes a path predicate, the path's Mats
        become dead — ObjectStore would not fetch the mayors Query 2's
        path index already judged.  Only those Mats (``judged``: the
        variables along the indexed path) may be dropped: index entries
        exist exactly for roots whose path resolved, so the pruned Mat
        could not have filtered anything.  Every other unconsumed Mat
        still runs — Mat has inner-join semantics on null references,
        and dropping it would change the result.
        """
        needed: set[str] = set(result_vars) | set(remaining.vars)
        if shape.project is not None:
            from repro.algebra.predicates import term_vars

            for item in shape.project.items:
                needed |= set(term_vars(item.term))
        kept: list = []
        for step in reversed(shape.steps):
            if isinstance(step, Unnest):
                kept.append(step)
                needed.add(step.var)
            elif isinstance(step, Mat):
                if step.out in needed or step.out not in judged:
                    kept.append(step)
                    needed.add(step.source.var)
        kept.reverse()
        return kept

    def _root_scan(
        self, ctx: BaselineContext, shape: QueryShape, remaining: Conjunction
    ) -> tuple[PhysicalNode, float, Conjunction, frozenset[str]]:
        collection = shape.get.collection
        base_rows = float(self.catalog.cardinality(collection))
        links = {
            step.out: step.source for step in shape.steps if isinstance(step, Mat)
        }
        for comparison in remaining.comparisons:
            pair = _field_const(comparison)
            if pair is None:
                continue
            field, _ = pair
            path = ref_path(field.var, shape.get.var, links)
            if path is None:
                continue
            index = self.catalog.find_index(collection, path + (field.attr,))
            if index is None:
                continue
            rows = base_rows * ctx.selectivity.comparison(comparison)
            plan = self._index_scan_node(
                ctx, collection, shape.get.var, index, comparison, rows
            )
            judged = self._vars_to_root(field.var, shape.get.var, links)
            return plan, rows, remaining.without(comparison), judged
        plan = FileScanNode(
            collection,
            shape.get.var,
            delivered=PhysProps.of(shape.get.var),
            rows=base_rows,
            local_cost=self.cost_model.file_scan(
                self.catalog.pages(collection), base_rows
            ),
        )
        return plan, base_rows, remaining, frozenset()

    def _materialize(
        self,
        ctx: BaselineContext,
        step: Mat,
        plan: PhysicalNode,
        rows: float,
        remaining: Conjunction,
    ) -> tuple[PhysicalNode, float, Conjunction]:
        target_type = ctx.query_vars.origin(step.out).type_name
        extent = self.catalog.extent_of(target_type)
        if extent is not None:
            for comparison in remaining.comparisons:
                pair = _field_const(comparison)
                if pair is None or pair[0].var != step.out:
                    continue
                index = self.catalog.find_index(extent.name, (pair[0].attr,))
                if index is None:
                    continue
                return self._index_join(
                    ctx, step, extent.name, index, comparison, plan, rows, remaining
                )
        plan = AssemblyNode(
            step.source,
            step.out,
            window=1,
            children=(plan,),
            delivered=plan.delivered.add(step.out),
            rows=rows,
            local_cost=self.cost_model.assembly(
                rows, ctx.type_pages(target_type), window=1
            ),
        )
        return plan, rows, remaining

    def _index_join(
        self,
        ctx: BaselineContext,
        step: Mat,
        extent_name: str,
        index: IndexDef,
        comparison: Comparison,
        plan: PhysicalNode,
        rows: float,
        remaining: Conjunction,
    ) -> tuple[PhysicalNode, float, Conjunction]:
        """Resolve a Mat by joining with an index scan on the target extent."""
        extent_rows = float(self.catalog.cardinality(extent_name))
        matches = extent_rows * ctx.selectivity.comparison(comparison)
        scan = self._index_scan_node(
            ctx, extent_name, step.out, index, comparison, matches
        )
        out_rows = rows * matches / max(1.0, extent_rows)
        scan_scope_width = float(
            self.catalog.type_of(
                self.catalog.collection(extent_name).element_type
            ).object_size
        )
        plan = HashJoinNode(
            step.source.oid_join(step.out),
            children=(scan, plan),
            delivered=plan.delivered.add(step.out),
            rows=out_rows,
            local_cost=self.cost_model.hybrid_hash_join(
                matches, rows, matches * scan_scope_width
            ),
        )
        return plan, out_rows, remaining.without(comparison)

    def _index_scan_node(
        self,
        ctx: BaselineContext,
        collection: str,
        var: str,
        index: IndexDef,
        comparison: Comparison,
        matches: float,
    ) -> IndexScanNode:
        page = self.cost_model.params.page_size
        height, leaf_pages = btree_shape(self.catalog.cardinality(collection), page)
        cost = self.cost_model.index_scan(
            matches,
            height,
            estimated_leaf_pages(matches, leaf_pages, page),
            self.catalog.pages(collection),
        )
        return IndexScanNode(
            collection,
            var,
            index,
            comparison,
            Conjunction.true(),
            delivered=PhysProps.of(var),
            rows=matches,
            local_cost=cost,
        )

    @staticmethod
    def _vars_to_root(
        var: str, root: str, links: dict[str, RefSource]
    ) -> frozenset[str]:
        """The Mat output variables along the path from ``var`` to ``root``."""
        judged: set[str] = set()
        current = var
        while current != root and current in links:
            judged.add(current)
            current = links[current].var
        return frozenset(judged)


__all__ = ["GreedyOptimizer"]
