"""Semantic subplan fingerprints: the key of a memo group.

A fingerprint identifies *what a subplan computes*, not how.  It is a
property of the memo group (the equivalence class), derived once, when
the group is created, from its first operator and its input groups' keys
(:func:`logical_fingerprint`); the memo looks the key up in the feedback
store right then.  With feedback on, every plan node the search picks
is marked with the properties of the group it implements, so a node is
observed under its group's key, whichever algorithm or expression of the
group it runs: an index scan, the filter over a file scan it collapsed
from, or the hash join Mat-to-Join made of a ``Mat``.  :func:`group_key`
re-derives that key for the cardinality monitor from the operator and
input properties the group keeps.  A lowered ``MatChain``'s lower links
carry the properties of a ``Mat`` over the link before, so each observes
its partial chain under the same rule.

Predicates are compared by their canonical string rendering
(:class:`~repro.algebra.predicates.Conjunction` orders and dedups
conjuncts).  A plan-cache template's slotted constants render the
running statement's values inside ``predicates.showing(consts)``: the
search looks keys up and the monitor re-derives them under the
statement's own constants, so two bindings of one template are two
subplans.  Join inputs are unordered for ``Join`` and the commuting set
operations, ordered where the operator is not symmetric (``AntiJoin``,
``difference``).

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
    """One Mat link's key: ``link`` is a lone Mat or a MatChain link."""
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


def group_key(
    props, known: dict | None = None
) -> tuple[Fingerprint | None, frozenset[str]]:
    """``(fingerprint, collections read)`` of the group ``props`` belongs to.

    ``props`` is a :class:`~repro.optimizer.logical_props.LogicalProps`
    (a plan node's ``props``): the key is re-derived from the operator and
    input properties the memo derived it from, so it is the key the memo
    looked up, rendered under the caller's ``predicates.showing(consts)``.
    ``known`` caches the answer per properties object across one plan.
    """
    if known is None:
        known = {}
    found = known.get(id(props))
    if found is None:
        inputs = [group_key(child, known) for child in props.inputs]
        op = props.op
        if isinstance(op, Get):
            collections = frozenset({op.collection})
        else:
            collections = frozenset().union(*(cols for _, cols in inputs))
        key = logical_fingerprint(op, tuple(key for key, _ in inputs))
        found = known[id(props)] = (key, collections)
    return found


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
    "group_key",
    "logical_fingerprint",
    "render_fingerprint",
]
