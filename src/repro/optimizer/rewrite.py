"""Pre-memo cost-based rewrite stage, and the search's traversal guard.

The memo makes every transformation pay rent forever: each Mat, each
cartesian join input, each Select placement multiplies the group count the
search must explore to fixpoint.  Following the cost-based-rewrite line of
work, this stage runs three cheap, almost-always-right rewrites on the
logical tree *before* the memo is built, so exploration starts from fewer,
better-shaped groups:

``rewrite-pushdown``
    sink single-input conjuncts (stacked Selects' merged) to the lowest
    operator that can evaluate them.  Conjuncts spanning two join inputs
    deliberately stay in Selects *above* the join tree: merging them into
    join predicates would trip the join-associativity rule's
    cartesian-avoidance guard and freeze the join order the paper's
    optimizer explores;
``rewrite-collection-join``
    turn an explicit OID join against a full extent (``v.a == w.self``
    with ``w`` otherwise unreferenced) into a Mat traversal — the Odra
    papers' join fusion.  Mat-to-Join can always re-derive the join form,
    so no plan is lost;
``rewrite-join-canon``
    order the inputs of cartesian join clusters by estimated cardinality,
    smallest first, so even budget-degraded greedy descents start from a
    sensible shape.

``rewrite-mat-chain`` reshapes no tree: it switches the guard
:func:`traversal_outputs` computes once per query, the Mats whose outputs
nothing but the Mats above them in their run reads.  Such a Mat is a pure
traversal, and the memo keeps it in place: the Mat-moving rules and
Mat-to-Join leave it alone, which is what actually shrinks the search
space (converting joins to Mats alone does nothing — Mat-to-Join just
converts them back).  Its implementation rules still choose assembly,
pointer join or a hash join against the target's extent, so only
join-order interleavings are given up.

The rule names are the only switch: ``config.without(rule)`` ablates one,
and with all of ``ALL_REWRITES`` disabled the optimizer skips the stage.
Each rule returns its tree and how often it fired; only under an enabled
tracer does it build each firing's detail, a ``rewrite`` event EXPLAIN shows.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from repro.algebra.operators import (
    AntiJoin,
    Get,
    GroupBy,
    Join,
    LogicalOp,
    Mat,
    Project,
    RefSource,
    Select,
    SetOp,
    Unnest,
)
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    RefAttr,
    SelfOid,
    VarRef,
)
from repro.algebra.scopes import derive_scope_tree
from repro.catalog.catalog import Catalog
from repro.catalog.schema import CollectionKind
from repro.errors import AlgebraError, OptimizerError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer import config as rule_names
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.logical_props import build_query_vars, derive_cardinality
from repro.optimizer.physical_props import PhysProps, SortKey
from repro.optimizer.selectivity import SelectivityModel


# ----------------------------------------------------------------------
# Tree analysis helpers
# ----------------------------------------------------------------------


def _bound_vars(op: LogicalOp) -> frozenset[str]:
    """The scope names an operator's output carries (no catalog needed)."""
    if isinstance(op, Get):
        return frozenset({op.var})
    if isinstance(op, Mat):
        return _bound_vars(op.child) | {op.out}
    if isinstance(op, Unnest):
        return _bound_vars(op.child) | {op.out}
    if isinstance(op, Select):
        return _bound_vars(op.child)
    if isinstance(op, Join):
        return _bound_vars(op.left) | _bound_vars(op.right)
    if isinstance(op, AntiJoin):
        return _bound_vars(op.left)
    if isinstance(op, SetOp):
        return _bound_vars(op.left)
    # Project / GroupBy: scope ends.
    return frozenset()


def _node_uses(op: LogicalOp) -> list[str]:
    """The variables one operator *reads*, with multiplicity (one entry
    per comparison / projection item); the operator's own definitions are
    excluded."""
    used: list[str] = []
    if isinstance(op, Mat):
        used.append(op.source.var)
    elif isinstance(op, Unnest):
        used.append(op.var)
    elif isinstance(op, (Select, Join, AntiJoin)):
        for comp in op.predicate.comparisons:
            used.extend(comp.vars)
    elif isinstance(op, Project):
        for item in op.items:
            if hasattr(item.term, "var"):
                used.append(item.term.var)
        if op.order_by is not None:
            used.append(op.order_by[0])
    elif isinstance(op, GroupBy):
        for key in op.keys:
            if hasattr(key.term, "var"):
                used.append(key.term.var)
        for agg in op.aggregates:
            if agg.term is not None and hasattr(agg.term, "var"):
                used.append(agg.term.var)
    return used


def _use_counts(tree: LogicalOp) -> Counter:
    """How many reads each variable gets, over the whole tree."""
    counts: Counter = Counter()

    def walk(op: LogicalOp) -> None:
        counts.update(_node_uses(op))
        for child in op.children:
            walk(child)

    walk(tree)
    return counts


def _wrap(pred_comps: list[Comparison], tree: LogicalOp) -> LogicalOp:
    if not pred_comps:
        return tree
    return Select(tree, Conjunction.from_iterable(pred_comps))


# ----------------------------------------------------------------------
# Rule: predicate pushdown
# ----------------------------------------------------------------------


def _pushdown(tree: LogicalOp, details: list | None) -> tuple[LogicalOp, int]:
    """Sink conjuncts; a conjunct counts (and is traced) once, below the
    first operator it sinks through, however many it passes after that."""
    fired = 0

    def push(
        op: LogicalOp, moved: list[Comparison], fresh: list[Comparison]
    ) -> LogicalOp:
        # ``moved`` already sank from above; ``fresh`` came from Selects
        # met on the way down and has not moved yet.
        nonlocal fired
        if isinstance(op, Select):
            return push(op.child, moved, fresh + list(op.predicate.comparisons))

        sunk: list[Comparison] = []
        if isinstance(op, Join):
            left_vars = _bound_vars(op.left)
            right_vars = _bound_vars(op.right)
            to_left: list[Comparison] = []
            to_right: list[Comparison] = []
            stay: list[Comparison] = []
            for comp in moved + fresh:
                if comp.vars and comp.vars <= left_vars:
                    to_left.append(comp)
                elif comp.vars and comp.vars <= right_vars:
                    to_right.append(comp)
                else:
                    # Spanning (or constant-only) conjuncts stay above the
                    # join: merging them into the join predicate would trip
                    # the associativity rule's cartesian guard.
                    stay.append(comp)
                    continue
                if comp in fresh:
                    sunk.append(comp)
            fired += len(sunk)
            if details is not None:
                details.extend(
                    (rule_names.REWRITE_PUSHDOWN, f"{comp} below Join")
                    for comp in sunk
                )
            new = Join(
                push(op.left, to_left, []), push(op.right, to_right, []), op.predicate
            )
            return _wrap(stay, new)

        if isinstance(op, (Mat, Unnest, AntiJoin)):
            # The first input carries the scope, so conjuncts over it sink
            # into it; an AntiJoin's right input only gets its own pushed.
            inner, *rest = op.children
            below_vars = _bound_vars(inner)
            below: list[Comparison] = []
            stay = []
            for comp in moved + fresh:
                if comp.vars and comp.vars <= below_vars:
                    below.append(comp)
                    if comp in fresh:
                        sunk.append(comp)
                else:
                    stay.append(comp)
            fired += len(sunk)
            if details is not None:
                details.extend(
                    (rule_names.REWRITE_PUSHDOWN, f"{comp} below {type(op).__name__}")
                    for comp in sunk
                )
            children = (push(inner, below, []), *(push(c, [], []) for c in rest))
            return _wrap(stay, op.with_children(children))

        # Project / GroupBy / SetOp / Get: conjuncts go no lower.
        children = tuple(push(c, [], []) for c in op.children)
        return _wrap(moved + fresh, op.with_children(children))

    return push(tree, [], []), fired


# ----------------------------------------------------------------------
# Rule: collection join -> Mat
# ----------------------------------------------------------------------


def _remove_extent_get(
    op: LogicalOp, var: str
) -> LogicalOp | None:
    """The tree with the Get leaf binding ``var`` spliced out of its join
    structure, or None when the leaf is not removable."""
    if isinstance(op, Join):
        for side, other in ((op.left, op.right), (op.right, op.left)):
            if isinstance(side, Get) and side.var == var:
                if op.predicate.is_true:
                    return other
                if var in op.predicate.vars:
                    return None
                return Select(other, op.predicate)
        left = _remove_extent_get(op.left, var)
        if left is not None:
            return Join(left, op.right, op.predicate)
        right = _remove_extent_get(op.right, var)
        if right is not None:
            return Join(op.left, right, op.predicate)
        return None
    if isinstance(op, Select):
        inner = _remove_extent_get(op.child, var)
        if inner is not None:
            return Select(inner, op.predicate)
        return None
    return None


def _place_mat(op: LogicalOp, source: RefSource, out: str) -> LogicalOp | None:
    """Insert ``Mat source: out`` directly above where ``source.var`` is
    bound (descending through scope-preserving operators), or None."""
    var = source.var
    if isinstance(op, Get):
        return Mat(op, source, out) if op.var == var else None
    if isinstance(op, (Select, Mat, Unnest)):
        child = op.children[0]
        if var in _bound_vars(child):
            placed = _place_mat(child, source, out)
            if placed is None:
                return None
            return op.with_children((placed,))
        if var in _bound_vars(op):
            return Mat(op, source, out)
        return None
    if isinstance(op, Join):
        if var in _bound_vars(op.left):
            placed = _place_mat(op.left, source, out)
            return None if placed is None else Join(placed, op.right, op.predicate)
        if var in _bound_vars(op.right):
            placed = _place_mat(op.right, source, out)
            return None if placed is None else Join(op.left, placed, op.predicate)
        return None
    # AntiJoin / SetOp / anything else: place above, never inside.
    if var in _bound_vars(op):
        return Mat(op, source, out)
    return None


def _collection_joins(
    tree: LogicalOp,
    catalog: Catalog,
    externals: frozenset[str],
    details: list | None,
) -> tuple[LogicalOp, int]:
    """Convert ``v.a == w.self`` extent joins into Mat traversals."""

    def try_convert(op: LogicalOp) -> LogicalOp | None:
        """One conversion somewhere in the tree, or None when none fires."""
        if isinstance(op, Select):
            uses = _use_counts(tree)
            for comp in op.predicate.comparisons:
                for self_term, ref_term in (
                    (comp.right, comp.left),
                    (comp.left, comp.right),
                ):
                    if comp.op is not CompOp.EQ:
                        continue
                    if not isinstance(self_term, SelfOid):
                        continue
                    if not isinstance(ref_term, (RefAttr, VarRef)):
                        continue
                    w = self_term.var
                    if w in externals or uses[w] != 1:
                        continue  # something else needs w in scope
                    get = _find_extent_get(op.child, w, catalog)
                    if get is None:
                        continue
                    removed = _remove_extent_get(op.child, w)
                    if removed is None:
                        continue
                    source = (
                        RefSource(ref_term.var, ref_term.attr)
                        if isinstance(ref_term, RefAttr)
                        else RefSource(ref_term.var, None)
                    )
                    placed = _place_mat(removed, source, w)
                    if placed is None:
                        continue
                    residual = op.predicate.without(comp)
                    if details is not None:
                        details.append((
                            rule_names.REWRITE_COLLECTION_JOIN,
                            f"{comp} -> Mat {source}: {w}",
                        ))
                    if residual.is_true:
                        return placed
                    return Select(placed, residual)
        for i, child in enumerate(op.children):
            converted = try_convert(child)
            if converted is not None:
                children = list(op.children)
                children[i] = converted
                return op.with_children(tuple(children))
        return None

    for fired in count():
        converted = try_convert(tree)
        if converted is None:
            return tree, fired
        tree = converted


def _find_extent_get(op: LogicalOp, var: str, catalog: Catalog) -> Get | None:
    """The Get leaf binding ``var``, when it scans a full extent with
    statistics (the precondition for Mat-to-Join to restore the join)."""
    if isinstance(op, Get):
        if op.var != var:
            return None
        coll = catalog.collection(op.collection)
        if coll.kind is not CollectionKind.EXTENT:
            return None
        if not catalog.has_stats(op.collection):
            return None
        return op
    for child in op.children:
        if var in _bound_vars(child):
            return _find_extent_get(child, var, catalog)
    return None


# ----------------------------------------------------------------------
# Rule: join-input canonicalization
# ----------------------------------------------------------------------


def _estimate(op: LogicalOp, sel: SelectivityModel, catalog: Catalog) -> float:
    """A subtree's estimated rows, derived as the memo derives a group's."""
    rows = tuple(_estimate(child, sel, catalog) for child in op.children)
    return derive_cardinality(op, rows, sel, catalog)


def _has_cartesian(tree: LogicalOp) -> bool:
    """True when any true-predicate Join exists (canon's only target),
    so the common no-cartesian case skips building a selectivity model."""
    if isinstance(tree, Join) and tree.predicate.is_true:
        return True
    return any(_has_cartesian(child) for child in tree.children)


def _canonicalize_joins(
    tree: LogicalOp,
    sel: SelectivityModel,
    catalog: Catalog,
    details: list | None,
) -> tuple[LogicalOp, int]:
    """Order cartesian join clusters smallest-estimated-input first."""
    fired = 0

    def flatten(op: LogicalOp) -> list[LogicalOp]:
        if isinstance(op, Join) and op.predicate.is_true:
            return flatten(op.left) + flatten(op.right)
        return [walk(op)]

    def walk(op: LogicalOp) -> LogicalOp:
        nonlocal fired
        if isinstance(op, Join) and op.predicate.is_true:
            inputs = flatten(op.left) + flatten(op.right)
            keyed = sorted(
                enumerate(inputs),
                key=lambda pair: (_estimate(pair[1], sel, catalog), pair[0]),
            )
            ordered = [item for _, item in keyed]
            if ordered != inputs:
                fired += 1
                if details is not None:
                    details.append((
                        rule_names.REWRITE_JOIN_CANON,
                        f"reordered {len(inputs)} cartesian inputs by size",
                    ))
            result = ordered[0]
            for item in ordered[1:]:
                result = Join(result, item, Conjunction.true())
            return result
        return op.with_children(tuple(walk(c) for c in op.children))

    return walk(tree), fired


# ----------------------------------------------------------------------
# The stage
# ----------------------------------------------------------------------


def _caller_needs(
    result_vars: tuple[str, ...],
    order: SortKey | None,
    required: PhysProps | None,
) -> frozenset[str]:
    """The variables the caller still needs after optimization."""
    needed: set[str] = set(result_vars)
    if order is not None:
        needed.add(order.var)
    if required is not None:
        needed |= required.in_memory
        if required.order is not None:
            needed.add(required.order.var)
    return frozenset(needed)


def rewrite_tree(
    tree: LogicalOp,
    catalog: Catalog,
    config: OptimizerConfig,
    *,
    result_vars: tuple[str, ...] = (),
    order: SortKey | None = None,
    required: PhysProps | None = None,
    tracer: Tracer = NULL_TRACER,
) -> LogicalOp:
    """Run the enabled rewrite rules; returns the rewritten tree.

    ``result_vars`` / ``order`` / ``required`` name the variables the
    caller will still need after optimization — they are treated as
    referenced, which gates every rewrite that would remove or hide a
    binding.  The rewritten tree is re-validated against the scope rules;
    a validation failure falls back to the original tree (traced), so a
    rewrite bug can cost performance but never correctness.  Firings are
    traced only once the tree stands: a fallback emits none.
    """
    externals = _caller_needs(result_vars, order, required)
    details: list[tuple[str, str]] | None = [] if tracer.enabled else None
    fired = 0
    original = tree
    try:
        if config.is_enabled(rule_names.REWRITE_PUSHDOWN):
            tree, fired = _pushdown(tree, details)
        if config.is_enabled(rule_names.REWRITE_COLLECTION_JOIN):
            tree, n = _collection_joins(tree, catalog, externals, details)
            fired += n
        if config.is_enabled(rule_names.REWRITE_JOIN_CANON) and _has_cartesian(
            tree
        ):
            sel = SelectivityModel(catalog, build_query_vars(original, catalog))
            tree, n = _canonicalize_joins(tree, sel, catalog, details)
            fired += n
    except (AlgebraError, OptimizerError) as exc:
        if tracer.enabled:
            tracer.event("rewrite", "failed", error=str(exc))
        return original

    if fired:
        try:
            derive_scope_tree(tree, catalog)
        except AlgebraError as exc:
            if tracer.enabled:
                tracer.event("rewrite", "invalid", error=str(exc))
            return original

    if details:
        for rule, detail in details:
            tracer.event("rewrite", rule, detail=detail)
    return tree


# ----------------------------------------------------------------------
# The traversal guard
# ----------------------------------------------------------------------


def traversal_outputs(
    tree: LogicalOp,
    result_vars: tuple[str, ...] = (),
    order: SortKey | None = None,
    required: PhysProps | None = None,
    tracer: Tracer = NULL_TRACER,
) -> frozenset[str]:
    """The outputs of the tree's pure traversals: the Mats the search
    leaves in place (``rewrite-mat-chain``).

    A Mat's output is one when the caller does not need it (the variables
    :func:`rewrite_tree` treats as referenced) and only the Mats directly
    above it in its run of adjacent Mats read it.  Under an enabled
    tracer each stretch of such Mats is one ``rewrite`` event.
    """
    needed = _caller_needs(result_vars, order, required)
    uses = _use_counts(tree)
    outs: set[str] = set()

    def trace(stretch: list[Mat]) -> None:
        if tracer.enabled:
            body = ", ".join(m.describe() for m in stretch)
            tracer.event("rewrite", rule_names.REWRITE_MAT_CHAIN,
                         detail=f"traversal [{body}]")
        stretch.clear()

    def walk(op: LogicalOp) -> None:
        run: list[Mat] = []
        while isinstance(op, Mat):
            run.append(op)
            op = op.child
        for child in op.children:
            walk(child)
        if not run:
            return
        in_run = Counter(m.source.var for m in run)
        stretch: list[Mat] = []
        for m in reversed(run):  # bottom-up
            if m.out not in needed and uses[m.out] == in_run[m.out]:
                outs.add(m.out)
                stretch.append(m)
            elif stretch:
                trace(stretch)
        if stretch:
            trace(stretch)

    walk(tree)
    return frozenset(outs)


__all__ = ["rewrite_tree", "traversal_outputs"]
