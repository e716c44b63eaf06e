"""Semantic subplan fingerprints, computable from both sides of the loop.

A fingerprint identifies *what a subplan computes*, not how: the same key
must come out of a memo group during optimization (from the logical
operator plus its children's keys) and out of a physical plan node during
execution (from the node plus its children's keys), across every
equivalent shape the optimizer can pick.  That is what lets a cardinality
observed under one plan inform the costing of another.

The shape-independence rules:

* ``Filter`` over a scan, a filter stacked on another filter, and an
  index scan with a residual all reduce to one flattened
  ``select(input, {conjuncts})`` key — predicates are compared by their
  canonical string rendering (:class:`~repro.algebra.predicates.
  Conjunction` orders and dedups conjuncts; a plan-cache template's
  slotted constants render the running statement's values inside
  ``predicates.showing(consts)``, which is how the execute and replan
  stages call in here, so a cached plan keys identically to a freshly
  parsed one);
* join inputs are unordered (commutativity) for ``Join`` and the
  commuting set operations, ordered where the operator is not symmetric
  (``AntiJoin``, ``difference``);
* the pure stream-shape operator ``Sort`` is transparent: it carries
  its input's key;
* every implementation of ``Mat`` (assembly, pointer join, warm-start)
  shares the ``mat`` key of its logical operator, and a fused
  ``MatChain`` folds into the same nested ``mat`` keys its per-link
  physical pipeline produces: one function keys a link, whichever of
  the three carries it.

Keys are plain nested tuples (hashable, order-canonical); ``None`` means
"this operator has no stable identity" and poisons the ancestors so no
wrong key is ever recorded.
"""

from __future__ import annotations

from repro.algebra.operators import (
    AntiJoin,
    Get,
    GroupBy,
    Join,
    LogicalOp,
    Mat,
    MatChain,
    Project,
    Select,
    SetOp,
    SetOpKind,
    Unnest,
)
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
    SortNode,
    WarmStartAssemblyNode,
)

# A fingerprint is a nested tuple; collections is the set of stored
# collections the keyed subplan reads (the staleness surface).
Fingerprint = tuple


def _get_key(collection: str, var: str) -> Fingerprint:
    return ("get", collection, var)


def _select_key(child: Fingerprint, conjuncts) -> Fingerprint | None:
    """Flattened selection: nested selects merge into one conjunct set."""
    if child is None:
        return None
    preds = frozenset(conjuncts)
    if not preds:
        return child
    if child and child[0] == "select":
        _, inner, existing = child
        return ("select", inner, existing | preds)
    return ("select", child, preds)


def _mat_key(child: Fingerprint, link) -> Fingerprint | None:
    """One Mat link's key: ``link`` is a lone Mat, a MatChain link or a
    plan node implementing one (each has ``source`` and ``out``)."""
    if child is None:
        return None
    return ("mat", child, link.source.var, link.source.attr, link.out)


def _join_key(left: Fingerprint, right: Fingerprint, conjuncts) -> Fingerprint | None:
    if left is None or right is None:
        return None
    # Unordered inputs: commuted joins share the key.
    inputs = tuple(sorted((left, right), key=repr))
    return ("join", inputs, frozenset(conjuncts))


def _conjuncts(predicate) -> tuple[str, ...]:
    return tuple(str(c) for c in predicate.comparisons)


def logical_fingerprint(
    op: LogicalOp, child_keys: tuple[Fingerprint | None, ...]
) -> Fingerprint | None:
    """The fingerprint of a memo group, from its operator and child keys."""
    if isinstance(op, Get):
        return _get_key(op.collection, op.var)
    if isinstance(op, Select):
        return _select_key(child_keys[0], _conjuncts(op.predicate))
    if isinstance(op, (Mat, MatChain)):
        key = child_keys[0]
        for link in op.links:
            key = _mat_key(key, link)
        return key
    if isinstance(op, Unnest):
        if child_keys[0] is None:
            return None
        return ("unnest", child_keys[0], op.var, op.attr, op.out)
    if isinstance(op, GroupBy):
        if child_keys[0] is None:
            return None
        # Aggregates and output order do not change the group count;
        # keys and HAVING do.
        keys = tuple(str(k) for k in op.keys)
        having = frozenset(str(h) for h in op.having)
        return ("groupby", child_keys[0], keys, having)
    if isinstance(op, Project):
        if child_keys[0] is None:
            return None
        # order_by is cardinality-irrelevant and physically realised by a
        # (transparent) sort, so it stays out of the key.
        items = tuple(str(item) for item in op.items)
        return ("project", child_keys[0], items, op.distinct)
    if isinstance(op, Join):
        return _join_key(child_keys[0], child_keys[1], _conjuncts(op.predicate))
    if isinstance(op, AntiJoin):
        if child_keys[0] is None or child_keys[1] is None:
            return None
        return (
            "antijoin",
            child_keys[0],
            child_keys[1],
            frozenset(_conjuncts(op.predicate)),
        )
    if isinstance(op, SetOp):
        left, right = child_keys
        if left is None or right is None:
            return None
        if op.kind is SetOpKind.DIFFERENCE:
            inputs: tuple = (left, right)
        else:
            inputs = tuple(sorted((left, right), key=repr))
        return ("setop", op.kind.value, inputs)
    return None


def _physical_key(
    node: PhysicalNode,
    child_infos: list[tuple[Fingerprint | None, frozenset[str]]],
) -> tuple[Fingerprint | None, frozenset[str]]:
    child_keys = [key for key, _ in child_infos]
    collections: frozenset[str] = frozenset().union(
        *(cols for _, cols in child_infos)
    ) if child_infos else frozenset()

    if isinstance(node, FileScanNode):
        return _get_key(node.collection, node.var), frozenset({node.collection})
    if isinstance(node, IndexScanNode):
        conjuncts = [str(node.comparison)]
        conjuncts.extend(str(c) for c in node.residual.comparisons)
        key = _select_key(_get_key(node.collection, node.var), conjuncts)
        return key, frozenset({node.collection})
    if isinstance(node, FilterNode):
        return _select_key(child_keys[0], _conjuncts(node.predicate)), collections
    if isinstance(node, SortNode):
        # Stream-shape only: same rows, carried key.
        return child_keys[0], collections
    if isinstance(node, (AssemblyNode, PointerJoinNode, WarmStartAssemblyNode)):
        return _mat_key(child_keys[0], node), collections
    if isinstance(node, AlgUnnestNode):
        if child_keys[0] is None:
            return None, collections
        return ("unnest", child_keys[0], node.var, node.attr, node.out), collections
    if isinstance(node, (HashJoinNode, MergeJoinNode, NestedLoopsNode)):
        key = _join_key(child_keys[0], child_keys[1], _conjuncts(node.predicate))
        return key, collections
    if isinstance(node, HashAntiJoinNode):
        if child_keys[0] is None or child_keys[1] is None:
            return None, collections
        key = (
            "antijoin",
            child_keys[0],
            child_keys[1],
            frozenset(_conjuncts(node.predicate)),
        )
        return key, collections
    if isinstance(node, AlgProjectNode):
        if child_keys[0] is None:
            return None, collections
        items = tuple(str(item) for item in node.items)
        return ("project", child_keys[0], items, node.distinct), collections
    if isinstance(node, HashGroupByNode):
        if child_keys[0] is None:
            return None, collections
        keys = tuple(str(k) for k in node.keys)
        having = frozenset(str(h) for h in node.having)
        return ("groupby", child_keys[0], keys, having), collections
    if isinstance(node, HashSetOpNode):
        left, right = child_keys
        if left is None or right is None:
            return None, collections
        if node.kind is SetOpKind.DIFFERENCE:
            inputs: tuple = (left, right)
        else:
            inputs = tuple(sorted((left, right), key=repr))
        return ("setop", node.kind.value, inputs), collections
    return None, collections


def fingerprint_plan(
    plan: PhysicalNode,
) -> dict[int, tuple[Fingerprint | None, frozenset[str]]]:
    """Every node's ``(fingerprint, collections-read)``, keyed by
    ``id(node)`` (plan nodes are unhashable dataclasses; the plan tree
    outlives every use of the map)."""
    out: dict[int, tuple[Fingerprint | None, frozenset[str]]] = {}

    def visit(node: PhysicalNode) -> tuple[Fingerprint | None, frozenset[str]]:
        infos = [visit(child) for child in node.children]
        info = _physical_key(node, infos)
        out[id(node)] = info
        return info

    visit(plan)
    return out


def render_fingerprint(key: Fingerprint | None, limit: int = 96) -> str:
    """A compact single-line rendering for stats output and traces."""
    if key is None:
        return "<unkeyed>"

    def render(part) -> str:
        if isinstance(part, tuple):
            if part and isinstance(part[0], str) and part[0] in (
                "get", "select", "mat", "unnest", "project", "groupby",
                "join", "antijoin", "setop",
            ):
                head, *rest = part
                return f"{head}({', '.join(render(p) for p in rest)})"
            return "[" + ", ".join(render(p) for p in part) + "]"
        if isinstance(part, frozenset):
            return "{" + " && ".join(sorted(str(p) for p in part)) + "}"
        return str(part)

    text = render(key)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


__all__ = [
    "Fingerprint",
    "fingerprint_plan",
    "logical_fingerprint",
    "render_fingerprint",
]
