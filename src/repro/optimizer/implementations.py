"""Implementation rules: logical operators -> execution algorithms.

"The implementation rules establish the correspondence between logical
algebra expressions and execution algorithms. ... The optimizer chooses
algorithms based on implementation rules, an algorithm's ability to
deliver a logical expression with the desired physical properties, and
cost estimations."

Each rule inspects one logical m-expr under a *required* physical property
vector and yields candidates: the input groups to optimize (each with its
own required properties), the candidate's local cost, and a builder that
assembles the plan node once the input plans are known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.algebra.operators import (
    AntiJoin,
    Get,
    GroupBy,
    Join,
    LogicalOp,
    Mat,
    Project,
    Select,
    SetOp,
    Unnest,
    ref_path,
)
from repro.algebra.predicates import (
    FieldRef,
    RefAttr,
    SelfOid,
    VarRef,
    term_memory_vars,
    term_vars,
)
from repro.algebra.scopes import BindingKind, Scope, VarBinding
from repro.optimizer import config as rule_names
from repro.optimizer.context import OptimizeContext
from repro.optimizer.cost import Cost
from repro.optimizer.memo import Group, MExpr
from repro.optimizer.physical_props import PhysProps, SortKey
from repro.optimizer.plans import (
    AlgProjectNode,
    AlgUnnestNode,
    AssemblyNode,
    FileScanNode,
    FilterNode,
    HashAntiJoinNode,
    HashGroupByNode,
    HashJoinNode,
    HashSetOpNode,
    IndexScanNode,
    MergeJoinNode,
    NestedLoopsNode,
    PhysicalNode,
    PointerJoinNode,
    WarmStartAssemblyNode,
)
from repro.storage.index import btree_shape, estimated_leaf_pages


@dataclass(slots=True)
class Candidate:
    """One way to implement a logical m-expr under required properties."""

    child_reqs: tuple[tuple[int, PhysProps], ...]
    local_cost: Cost
    build: Callable[[tuple[PhysicalNode, ...]], PhysicalNode]
    note: str = ""


class ImplementationRule:
    """Base class: maps one logical m-expr onto execution algorithms.

    ``operators`` declares the logical operator classes the rule matches:
    it is offered only those m-exprs (every m-expr if it declares nothing).
    """

    name: str = ""
    operators: tuple[type[LogicalOp], ...] | None = None

    def candidates(
        self,
        mexpr: MExpr,
        group: Group,
        required: PhysProps,
        ctx: OptimizeContext,
    ) -> Iterator[Candidate]:
        """Yield ways to implement ``mexpr`` under ``required`` properties.

        Each candidate names the input groups to optimize (with their own
        required property vectors), carries the algorithm's local cost,
        and a builder that assembles the plan node from the chosen input
        plans.  Rules yield nothing when the algorithm cannot deliver the
        required properties or its preconditions fail.  Stronger required
        properties only take candidates away: the search's per-group cost
        floor is read off the candidates under no required properties.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------


class FileScanImpl(ImplementationRule):
    """Get -> sequential file (extent or set) scan."""

    name = rule_names.FILE_SCAN
    operators = (Get,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        # A segment scan delivers objects in OID order (dense packing in
        # insertion order; named sets are dense prefixes).
        delivered = PhysProps.of(op.var, order=SortKey(op.var, None))
        if not delivered.satisfies(required):
            return
        if not ctx.catalog.has_stats(op.collection):
            return
        pages = ctx.collection_pages(op.collection)
        rows = group.props.cardinality
        cost = ctx.cost_model.file_scan(pages, rows)

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            return FileScanNode(
                op.collection,
                op.var,
                children=(),
                delivered=delivered,
                rows=rows,
                local_cost=cost,
            )

        yield Candidate((), cost, build)


def _mat_chains(gid: int, ctx: OptimizeContext, depth: int = 0):
    """All Mat* -> Get chains reachable inside a group.

    Yields ``(links, get_op, get_gid)`` where ``links`` maps each Mat
    output variable to its source.  Used by collapse-to-index-scan.
    """
    if depth > 8:
        return
    for mexpr in ctx.memo.group(gid).mexprs:
        op = mexpr.op
        if isinstance(op, Get):
            yield {}, op, gid
        elif isinstance(op, Mat):
            for links, get_op, get_gid in _mat_chains(
                mexpr.children[0], ctx, depth + 1
            ):
                if op.out not in links:
                    yield {**links, op.out: op.source}, get_op, get_gid


class CollapseToIndexScanImpl(ImplementationRule):
    """Select over a Mat*->Get chain -> a single (path-)index scan.

    The paper's crucial rule for Query 2: "an implementation rule that
    allows collapsing the select-materialize-file scan sequence into a
    single index scan with a predicate".  The scan delivers only the root
    objects in memory — materialized path components stay logical, which
    is exactly why Query 3 then needs the assembly enforcer.
    """

    name = rule_names.COLLAPSE_TO_INDEX_SCAN
    operators = (Select,)

    def candidates(self, mexpr, group, required, ctx):
        predicate = mexpr.op.predicate
        seen: set[tuple] = set()
        for links, get_op, get_gid in _mat_chains(mexpr.children[0], ctx):
            delivered = PhysProps.of(get_op.var)
            if not delivered.satisfies(required):
                continue
            for comparison in predicate.comparisons:
                candidate_key = self._try_match(
                    comparison, predicate, links, get_op, get_gid, ctx, seen
                )
                if candidate_key is None:
                    continue
                index, residual, matches = candidate_key
                page = ctx.config.cost.page_size
                height, leaf_pages = btree_shape(
                    ctx.catalog.cardinality(get_op.collection), page
                )
                cost = ctx.cost_model.index_scan(
                    matches,
                    height,
                    estimated_leaf_pages(matches, leaf_pages, page),
                    ctx.collection_pages(get_op.collection),
                )
                if not residual.is_true:
                    cost = cost + ctx.cost_model.filter(
                        matches, len(residual.comparisons)
                    )
                rows = group.props.cardinality

                def build(
                    children: tuple[PhysicalNode, ...],
                    index=index,
                    comparison=comparison,
                    residual=residual,
                    get_op=get_op,
                    delivered=delivered,
                    cost=cost,
                    rows=rows,
                ) -> PhysicalNode:
                    return IndexScanNode(
                        get_op.collection,
                        get_op.var,
                        index,
                        comparison,
                        residual,
                        children=(),
                        delivered=delivered,
                        rows=rows,
                        local_cost=cost,
                    )

                yield Candidate((), cost, build, note=index.name)

    def _try_match(self, comparison, predicate, links, get_op, get_gid, ctx, seen):
        view = comparison.term_const
        if view is None or not isinstance(view[0], FieldRef):
            return None
        field = view[0]
        path = ref_path(field.var, get_op.var, links)
        if path is None:
            return None
        index = ctx.catalog.find_index(get_op.collection, path + (field.attr,))
        if index is None:
            return None
        key = (index.name, comparison.canonical())
        if key in seen:
            return None
        seen.add(key)
        residual = predicate.without(comparison)
        if not (residual.memory_vars <= frozenset({get_op.var})):
            return None  # residual needs path components the scan won't fetch
        base_rows = ctx.memo.group(get_gid).props.cardinality
        matches = base_rows * ctx.selectivity.comparison(comparison)
        return index, residual, matches


# ----------------------------------------------------------------------
# Tuple-at-a-time operators
# ----------------------------------------------------------------------


class FilterImpl(ImplementationRule):
    """Select -> Filter; requires the predicate's variables in memory."""

    name = rule_names.FILTER
    operators = (Select,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        child_gid = mexpr.children[0]
        child_scope = ctx.memo.group(child_gid).props.scope
        needed = required.union(PhysProps(op.predicate.memory_vars))
        if not (needed.in_memory <= child_scope.object_names):
            return
        rows_in = ctx.memo.group(child_gid).props.cardinality
        cost = ctx.cost_model.filter(rows_in, len(op.predicate.comparisons))
        rows = group.props.cardinality

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            (child,) = children
            return FilterNode(
                op.predicate,
                children=children,
                delivered=child.delivered,
                rows=rows,
                local_cost=cost,
            )

        yield Candidate(((child_gid, needed),), cost, build)


class AlgUnnestImpl(ImplementationRule):
    """Unnest -> Alg-Unnest (requires the holding object resident)."""

    name = rule_names.ALG_UNNEST
    operators = (Unnest,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        child_gid = mexpr.children[0]
        child_scope = ctx.memo.group(child_gid).props.scope
        # Reading the set-valued attribute requires the holder in memory.
        needed = required.add(op.var)
        if not (needed.in_memory <= child_scope.object_names):
            return
        rows = group.props.cardinality
        cost = ctx.cost_model.unnest(rows)

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            (child,) = children
            return AlgUnnestNode(
                op.var,
                op.attr,
                op.out,
                children=children,
                delivered=child.delivered,
                rows=rows,
                local_cost=cost,
            )

        yield Candidate(((child_gid, needed),), cost, build)


class AlgProjectImpl(ImplementationRule):
    """Project -> Alg-Project; demands the projected (and ordering)
    variables resident from its input — the Figure 11 mechanism."""

    name = rule_names.ALG_PROJECT
    operators = (Project,)

    def candidates(self, mexpr, group, required, ctx):
        if not required.is_empty:
            return  # projection produces new objects; nothing to deliver
        op = mexpr.op
        child_gid = mexpr.children[0]
        child_scope = ctx.memo.group(child_gid).props.scope
        needed_vars: frozenset[str] = frozenset()
        for item in op.items:
            needed_vars |= term_memory_vars(item.term)
        order = None
        if op.order_by is not None:
            order_var, order_attr, ascending = op.order_by
            order = SortKey(order_var, order_attr, ascending)
            if order_attr is not None:
                needed_vars |= {order_var}
        needed = PhysProps(needed_vars, order)
        if not (needed.in_memory <= child_scope.object_names):
            return
        rows_in = ctx.memo.group(child_gid).props.cardinality
        cost = ctx.cost_model.project(rows_in, op.distinct)
        rows = group.props.cardinality

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            return AlgProjectNode(
                op.items,
                op.distinct,
                children=children,
                delivered=PhysProps.none(),
                rows=rows,
                local_cost=cost,
            )

        yield Candidate(((child_gid, needed),), cost, build)


# ----------------------------------------------------------------------
# Joins and set operations
# ----------------------------------------------------------------------


def _term_sort_key(term) -> SortKey | None:
    """The sort key under which a join-key term's values stream in order."""
    if isinstance(term, (FieldRef, RefAttr)):
        return SortKey(term.var, term.attr)
    if isinstance(term, (SelfOid, VarRef)):
        return SortKey(term.var, None)
    return None


def _join_builder(node_type, order_of, rows: float, cost: Cost, *node_args):
    """A join algorithm's plan builder; ``order_of(left, right)`` picks
    the delivered order from the two input plans."""

    def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
        left, right = children
        return node_type(
            *node_args,
            children=children,
            delivered=PhysProps(
                left.delivered.in_memory | right.delivered.in_memory,
                order_of(left, right),
            ),
            rows=rows,
            local_cost=cost,
        )

    return build


class _JoinFacts:
    """What the hash, merge and nested-loops rules need of one Join m-expr.

    Input properties, equi-join conjuncts and merge keys, each algorithm's
    local cost, output rows and plan builder are derived once per m-expr;
    a goal's residency split once for the three rules together.
    """

    __slots__ = (
        "left", "right", "hash_join", "merge_joins", "nested_loops",
        "_resident", "_splits",
    )

    def __init__(self, mexpr, group: Group, ctx: OptimizeContext) -> None:
        left = self.left = ctx.memo.group(mexpr.children[0]).props
        right = self.right = ctx.memo.group(mexpr.children[1]).props
        predicate = mexpr.op.predicate
        rows = group.props.cardinality
        model = ctx.cost_model
        left_names, right_names = left.scope.names, right.scope.names
        equijoins = [
            c
            for c in predicate.comparisons
            if c.is_equijoin_between(left_names, right_names)
        ]
        #: (cost, builder); the probe (right) input's order survives.
        self.hash_join = None
        if equijoins:
            build_bytes = left.cardinality * ctx.scope_width(left.scope)
            cost = model.hybrid_hash_join(
                left.cardinality, right.cardinality, build_bytes
            )
            self.hash_join = cost, _join_builder(
                HashJoinNode, lambda l, r: r.delivered.order, rows, cost, predicate
            )
        #: (left key, right key, cost, builder) per sortable equi-join.
        self.merge_joins = []
        cost = model.merge_join(left.cardinality, right.cardinality)
        for comparison in equijoins:
            left_term, right_term = comparison.left, comparison.right
            if not (term_vars(left_term) <= left_names):
                left_term, right_term = right_term, left_term
            left_key = _term_sort_key(left_term)
            right_key = _term_sort_key(right_term)
            if left_key is not None and right_key is not None:
                build = _join_builder(
                    MergeJoinNode, lambda l, r, key=left_key: key, rows, cost,
                    predicate, left_term, right_term,
                )
                self.merge_joins.append((left_key, right_key, cost, build))
        #: (cost, builder); outer-major iteration keeps the left order.
        cost = model.nested_loops_join(left.cardinality, right.cardinality)
        self.nested_loops = cost, _join_builder(
            NestedLoopsNode, lambda l, r: l.delivered.order, rows, cost, predicate
        )
        self._resident = predicate.memory_vars
        self._splits: dict[frozenset[str], tuple | None] = {}

    def child_reqs(self, mexpr, required: PhysProps, left_order, right_order):
        """The two input goals: required + predicate residency split across
        the inputs (None if a demanded variable is an object of neither)."""
        wanted = required.in_memory
        if wanted not in self._splits:
            demanded = wanted | self._resident
            left = demanded & self.left.scope.object_names
            right = demanded & self.right.scope.object_names
            self._splits[wanted] = None if demanded - (left | right) else (
                (mexpr.children[0], PhysProps(left)),
                (mexpr.children[1], PhysProps(right)),
            )
        reqs = self._splits[wanted]
        if reqs is None or left_order is right_order is None:
            return reqs  # the unordered goals are shared, hashes and all
        (left_gid, left), (right_gid, right) = reqs
        return (
            (left_gid, left.with_order(left_order)),
            (right_gid, right.with_order(right_order)),
        )


class HybridHashJoinImpl(ImplementationRule):
    """Join with at least one equality conjunct -> hybrid hash join.

    The build input is the left child; join commutativity in the logical
    space supplies the mirrored alternative.  "This algorithm also
    supports equality of a reference attribute on one side and object
    identifiers on the other side."
    """

    name = rule_names.HYBRID_HASH_JOIN
    operators = (Join,)

    def candidates(self, mexpr, group, required, ctx):
        facts = ctx.facts_of(mexpr, _JoinFacts, group)
        order = required.order
        if facts.hash_join is None or (
            order is not None and order.var not in facts.right.scope.names
        ):
            return  # only the probe input's order survives
        reqs = facts.child_reqs(mexpr, required, None, order)
        if reqs is not None:
            yield Candidate(reqs, *facts.hash_join)


class MergeJoinImpl(ImplementationRule):
    """Join -> merge join over inputs sorted on the join key.

    The sort-order property the paper calls "the standard example" — its
    optimizer omitted merge join and therefore tracked only presence in
    memory; this reproduction completes the pair.  Merge join wins when an
    input is already ordered (a file scan joined on its own OID) or when
    the query demands an order a hash join would destroy.
    """

    name = rule_names.MERGE_JOIN
    operators = (Join,)

    def candidates(self, mexpr, group, required, ctx):
        facts = ctx.facts_of(mexpr, _JoinFacts, group)
        for left_key, right_key, cost, build in facts.merge_joins:
            if required.order is not None and required.order != left_key:
                continue  # merge join delivers left-key order only
            reqs = facts.child_reqs(mexpr, required, left_key, right_key)
            if reqs is not None:
                yield Candidate(reqs, cost, build)


class NestedLoopsImpl(ImplementationRule):
    """Join with any predicate (including cartesian) -> nested loops."""

    name = rule_names.NESTED_LOOPS
    operators = (Join,)

    def candidates(self, mexpr, group, required, ctx):
        facts = ctx.facts_of(mexpr, _JoinFacts, group)
        order = required.order
        if order is not None and order.var not in facts.left.scope.names:
            return  # only the outer input's order survives
        reqs = facts.child_reqs(mexpr, required, order, None)
        if reqs is not None:
            yield Candidate(reqs, *facts.nested_loops)


class HashAntiJoinImpl(ImplementationRule):
    """AntiJoin -> hash anti-join (build right keys, stream left)."""

    name = rule_names.HASH_ANTI_JOIN
    operators = (AntiJoin,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        left_gid, right_gid = mexpr.children
        left_scope = ctx.memo.group(left_gid).props.scope
        right_scope = ctx.memo.group(right_gid).props.scope
        if not any(
            c.is_equijoin_between(left_scope.names, right_scope.names)
            for c in op.predicate.comparisons
        ):
            return
        demanded = required.union(PhysProps(op.predicate.memory_vars))
        left_req = demanded.restrict(left_scope.object_names)
        right_req = PhysProps(
            op.predicate.memory_vars & right_scope.object_names
        )
        if required.order is not None:
            if required.order.var not in left_scope.names:
                return  # output order follows the streamed left input
            left_req = left_req.with_order(required.order)
        left_props = ctx.memo.group(left_gid).props
        right_props = ctx.memo.group(right_gid).props
        cost = ctx.cost_model.hybrid_hash_join(
            right_props.cardinality,
            left_props.cardinality,
            right_props.cardinality * 24.0,  # key set only, not full tuples
        )
        rows = group.props.cardinality

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            left, right = children
            return HashAntiJoinNode(
                op.predicate,
                children=children,
                delivered=left.delivered,
                rows=rows,
                local_cost=cost,
            )

        yield Candidate(
            ((left_gid, left_req), (right_gid, right_req)), cost, build
        )


class HashGroupByImpl(ImplementationRule):
    """GroupBy -> hash aggregation (with optional sorted output)."""

    name = rule_names.HASH_GROUP_BY
    operators = (GroupBy,)

    def candidates(self, mexpr, group, required, ctx):
        if not required.is_empty:
            return  # aggregation produces new values; nothing to deliver
        op = mexpr.op
        child_gid = mexpr.children[0]
        child_scope = ctx.memo.group(child_gid).props.scope
        needed_vars: frozenset[str] = frozenset()
        for key in op.keys:
            needed_vars |= term_memory_vars(key.term)
        for agg in op.aggregates:
            if agg.term is not None:
                needed_vars |= term_memory_vars(agg.term)
        needed = PhysProps(needed_vars)
        if not (needed.in_memory <= child_scope.object_names):
            return
        rows_in = ctx.memo.group(child_gid).props.cardinality
        groups = group.props.cardinality
        cost = ctx.cost_model.hash_group_by(
            rows_in, groups, op.order_output is not None
        )

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            return HashGroupByNode(
                op.keys,
                op.aggregates,
                op.order_output,
                op.having,
                children=children,
                delivered=PhysProps.none(),
                rows=groups,
                local_cost=cost,
            )

        yield Candidate(((child_gid, needed),), cost, build)


class HashSetOpImpl(ImplementationRule):
    """Union/intersect/difference by hashed object identity."""

    name = rule_names.HASH_SET_OP
    operators = (SetOp,)

    def candidates(self, mexpr, group, required, ctx):
        op = mexpr.op
        left_gid, right_gid = mexpr.children
        scope = group.props.scope
        # Identity-based matching needs every object variable resident.
        needed = required.union(PhysProps(scope.object_names))
        left_props = ctx.memo.group(left_gid).props
        right_props = ctx.memo.group(right_gid).props
        cost = ctx.cost_model.hash_set_op(
            left_props.cardinality, right_props.cardinality
        )
        rows = group.props.cardinality

        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            left, right = children
            return HashSetOpNode(
                op.kind,
                children=children,
                delivered=PhysProps(
                    left.delivered.in_memory & right.delivered.in_memory
                ),
                rows=rows,
                local_cost=cost,
            )

        yield Candidate(((left_gid, needed), (right_gid, needed)), cost, build)


# ----------------------------------------------------------------------
# Materialize implementations
# ----------------------------------------------------------------------


def _mat_algorithms(
    mat: Mat,
    target_type: str,
    refs: float,
    width: float,
    rows: float,
    ctx: OptimizeContext,
) -> dict[str, tuple[Cost, Callable]]:
    """Each enabled algorithm that can resolve one Mat, by rule name, in
    promise order: its local cost and plan builder.

    ``mat`` is the Mat, resolving to objects of ``target_type`` for
    ``refs`` input tuples of ``width`` bytes; the plan node estimates
    ``rows``.  This is the one home of the Mat algorithms' admissibility
    tests, costs and plan nodes: each Mat rule takes its own entry, and a
    traversal Mat adds ``_extent_join``'s.
    """

    def algorithm(node_type, cost: Cost, *node_args) -> tuple[Cost, Callable]:
        def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
            (child,) = children
            return node_type(
                mat.source,
                mat.out,
                *node_args,
                children=children,
                delivered=child.delivered.add(mat.out),
                rows=rows,
                local_cost=cost,
            )

        return cost, build

    config = ctx.config
    params = config.cost
    model = ctx.cost_model
    pages = ctx.type_pages(target_type)
    found: dict[str, tuple[Cost, Callable]] = {}
    if config.is_enabled(rule_names.ASSEMBLY):
        window = params.assembly_window
        found[rule_names.ASSEMBLY] = algorithm(
            AssemblyNode, model.assembly(refs, pages, window), window
        )
    # Partitioning needs the target's segment layout, and the blocking
    # reference table must fit in workspace.
    if (
        config.is_enabled(rule_names.POINTER_JOIN)
        and pages is not None
        and refs * width <= params.work_mem_bytes
    ):
        found[rule_names.POINTER_JOIN] = algorithm(
            PointerJoinNode, model.pointer_join(refs, pages)
        )
    if (
        config.is_enabled(rule_names.WARM_START_ASSEMBLY)
        and pages is not None
        and pages <= params.buffer_pages
    ):
        extent = ctx.catalog.extent_of(target_type)
        if extent is not None:
            found[rule_names.WARM_START_ASSEMBLY] = algorithm(
                WarmStartAssemblyNode,
                model.warm_start_assembly(refs, pages),
                extent.name,
            )
    return found


def _lone_mat(mexpr, group: Group, ctx: OptimizeContext) -> tuple:
    """(input object variables, admissible algorithms) of one Mat
    m-expr — the same for the Mat rules under every goal."""
    op = mexpr.op
    child = ctx.memo.group(mexpr.children[0]).props
    target_type = group.props.scope.binding(op.out).type_name
    refs, rows = child.cardinality, group.props.cardinality
    algorithms = _mat_algorithms(
        op, target_type, refs, ctx.scope_width(child.scope), rows, ctx
    )
    if op.out in ctx.memo.traversals:
        joined = _extent_join(op, target_type, refs, rows, ctx)
        if joined is not None:
            algorithms[rule_names.HYBRID_HASH_JOIN] = joined
    return child.scope.object_names, algorithms


class _LoneMatImpl(ImplementationRule):
    """Mat -> the algorithm the rule is named after (``_mat_algorithms``)."""

    operators = (Mat,)

    def candidates(self, mexpr, group, required, ctx):
        objects, algorithms = ctx.facts_of(mexpr, _lone_mat, group)
        algorithm = algorithms.get(self.name)
        if algorithm is None:
            return
        op = mexpr.op
        child_req = required.remove(op.out)
        if op.source.attr is not None:
            # The holding object's record must be resident to read it.
            child_req = child_req.add(op.source.var)
        if child_req.in_memory <= objects:
            yield Candidate(((mexpr.children[0], child_req),), *algorithm)


class AssemblyImpl(_LoneMatImpl):
    """Mat -> the assembly operator (window of open references)."""

    name = rule_names.ASSEMBLY


class PointerJoinImpl(_LoneMatImpl):
    """Mat -> partitioned pointer-based join (Shekita and Carey).

    Requires a known target population (partitioning needs the segment
    layout) and workspace for the reference table.
    """

    name = rule_names.POINTER_JOIN


class WarmStartAssemblyImpl(_LoneMatImpl):
    """Lesson 7's warm-start assembly (off by default; see config)."""

    name = rule_names.WARM_START_ASSEMBLY


def _extent_join(
    mat: Mat, target_type: str, refs: float, rows: float, ctx: OptimizeContext
) -> tuple | None:
    """(local cost, plan builder) of resolving a traversal Mat by a hybrid
    hash join against the target type's extent — the plan Mat-to-Join
    would reach — or None without a scannable extent.  The join node
    estimates ``rows``; with feedback on, the scan carries the properties
    of a ``Get`` of the extent, as the one Mat-to-Join puts in the memo."""
    extent = ctx.catalog.extent_of(target_type)
    if extent is None or not ctx.catalog.has_stats(extent.name):
        return None
    out = mat.out
    extent_rows = float(ctx.catalog.cardinality(extent.name))
    scan_cost = ctx.cost_model.file_scan(
        ctx.collection_pages(extent.name), extent_rows
    )
    # Sized as the hybrid hash join rule sizes a build on the extent scan.
    scan_scope = Scope.of(VarBinding(out, target_type, BindingKind.OBJECT))
    join_cost = ctx.cost_model.hybrid_hash_join(
        extent_rows, refs, extent_rows * ctx.scope_width(scan_scope)
    )

    scan_rows, scan_props = extent_rows, None
    if ctx.memo.feedback is not None:
        scan_props = ctx.memo.derive_props(Get(extent.name, out), ())
        scan_rows = scan_props.cardinality

    def build(children: tuple[PhysicalNode, ...]) -> PhysicalNode:
        (child,) = children
        scan = FileScanNode(
            extent.name,
            out,
            children=(),
            delivered=PhysProps.of(out, order=SortKey(out, None)),
            rows=scan_rows,
            local_cost=scan_cost,
            props=scan_props,
        )
        return HashJoinNode(
            mat.source.oid_join(out),
            children=(scan, child),
            delivered=PhysProps(
                child.delivered.in_memory | {out}, child.delivered.order
            ),
            rows=rows,
            local_cost=join_cost,
        )

    return scan_cost + join_cost, build


class TraversalHashJoinImpl(_LoneMatImpl):
    """A traversal Mat -> a hybrid hash join against its target's extent.

    The traversal guard keeps Mat-to-Join off the Mat, so this rule offers
    the plan it would have reached; it is switched with the hybrid hash
    join rule.
    """

    name = rule_names.HYBRID_HASH_JOIN


ALL_RULES: tuple[ImplementationRule, ...] = (
    FileScanImpl(),
    CollapseToIndexScanImpl(),
    FilterImpl(),
    AlgUnnestImpl(),
    AlgProjectImpl(),
    HybridHashJoinImpl(),
    HashAntiJoinImpl(),
    HashGroupByImpl(),
    MergeJoinImpl(),
    NestedLoopsImpl(),
    HashSetOpImpl(),
    AssemblyImpl(),
    PointerJoinImpl(),
    WarmStartAssemblyImpl(),
    TraversalHashJoinImpl(),
)


__all__ = [
    "ALL_RULES",
    "Candidate",
    "ImplementationRule",
] + [rule.__class__.__name__ for rule in ALL_RULES]
