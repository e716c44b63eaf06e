"""The memo: groups of logically equivalent expressions.

The memo is the Volcano search engine's core data structure.  A *group*
collects logically equivalent expressions (m-exprs); an m-expr is an
operator whose inputs are groups.  Inserting an expression dedups it
against everything seen so far, which is how the framework provides
global common-subexpression factorization "for free" (the paper's reply
to Cluet and Delobel's factorization technique).

A group is keyed by what it computes (``logical_props.derive_key``), so an
expression a rule builds lands in its group on insertion: groups are never
discovered equivalent later, and never merged.  An m-expr is keyed by its
operator's signature and its input groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Union

from repro.algebra.operators import LogicalOp
from repro.algebra.scopes import Scope, derive_scope
from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError
from repro.feedback.fingerprint import feedback_key
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.logical_props import (
    GroupKey,
    LogicalProps,
    derive_cardinality,
    derive_key,
)
from repro.optimizer.selectivity import SelectivityModel


# A group's estimated rows, read off its properties in C (no Python frame).
_ROWS = attrgetter("cardinality")

# A tree produced by a transformation rule: an operator template whose
# children are either group ids (reuse) or nested trees (new expressions).
Tree = tuple[LogicalOp, tuple[Union[int, "Tree"], ...]]


@dataclass(frozen=True, eq=False)
class MExpr:
    """One operator with group-valued inputs: a memo entry.  The object
    is its identity (per-m-expr facts are keyed by it); :meth:`key`,
    built once, is what the memo deduplicates on.  ``origin`` names the
    transformation rule whose output it is (None for the query's own
    expressions and a rule's nested sub-expressions); the key ignores it."""

    __slots__ = ("op", "children", "origin", "_key")

    op: LogicalOp
    children: tuple[int, ...]
    origin: str | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (self.op.signature(), self.children))

    def key(self) -> tuple:
        return self._key


@dataclass
class Group:
    gid: int
    props: LogicalProps
    mexprs: list[MExpr] = field(default_factory=list)


class Memo:
    """Groups, found by what they compute, and the m-expr dedup index."""

    def __init__(
        self,
        catalog: Catalog,
        selectivity: SelectivityModel,
        tracer: Tracer = NULL_TRACER,
        feedback=None,
        traversals: frozenset[str] = frozenset(),
    ) -> None:
        self.catalog = catalog
        self.selectivity = selectivity
        self.tracer = tracer
        # Optional FeedbackStore: observed cardinalities override the
        # statistics-derived estimate for groups with a fresh observation.
        self.feedback = feedback
        # The outputs of the query's pure traversals (the Mats the rules
        # leave in place; ``rewrite.traversal_outputs``).
        self.traversals = traversals
        self._groups: list[Group] = []
        # Group id per m-expr key, and per group key.
        self._index: dict[tuple, int] = {}
        self._keyed: dict[GroupKey, int] = {}
        # Per group id: the m-exprs that take the group as an input.
        self._readers: list[list[MExpr]] = []
        # The m-exprs exploration has yet to match: new ones, and readers
        # of a group that gained m-exprs since they were last visited.
        self.pending: set[MExpr] = set()
        self.mexpr_count = 0

    def group(self, gid: int) -> Group:
        return self._groups[gid]

    def groups(self) -> list[Group]:
        """Every group, in creation order (a copy: insertion appends)."""
        return list(self._groups)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert_expression(self, expr: LogicalOp) -> int:
        """Insert a full logical operator tree; returns its group id."""
        child_gids = tuple(self.insert_expression(c) for c in expr.children)
        gid, _ = self.insert_mexpr(expr, child_gids)
        return gid

    def insert_tree(
        self, tree: Tree, target_gid: int | None = None, origin: str | None = None
    ) -> int:
        """Insert a rule-produced tree (group ids at reuse points); a new
        top m-expr records ``origin``, the rule that produced the tree."""
        op, children = tree
        child_gids = tuple(
            [c if isinstance(c, int) else self.insert_tree(c) for c in children]
        )
        gid, _ = self.insert_mexpr(op, child_gids, target_gid, origin)
        return gid

    def insert_mexpr(
        self,
        op: LogicalOp,
        child_gids: tuple[int, ...],
        target_gid: int | None = None,
        origin: str | None = None,
    ) -> tuple[int, bool]:
        """Insert one m-expr into ``target_gid``, or else into the group
        that computes what it computes (a new one if none does).

        Returns ``(group id, inserted_new)``.  Raises OptimizerError when
        the m-expr already sits in a group other than ``target_gid``: the
        rule ``origin`` and the group key disagree on what it computes.
        """
        key = (op.signature(), child_gids)
        gid = self._index.get(key)
        if gid is not None:
            if target_gid is not None and gid != target_gid:
                raise OptimizerError(
                    f"rule {origin} put {op.describe()} in group "
                    f"{target_gid}, but it computes group {gid}"
                )
            return gid, False
        if target_gid is None:
            child_props = tuple([self._groups[g].props for g in child_gids])
            scope = derive_scope(
                op, tuple([p.scope for p in child_props]), self.catalog
            )
            computes = derive_key(op, child_props, scope, self.catalog)
            gid = self._keyed.get(computes)
            if gid is None:
                gid = self._new_group(
                    op, self._props(op, child_props, scope, computes)
                )
        else:
            gid = target_gid
        mexpr = MExpr(op, child_gids, origin)
        self._groups[gid].mexprs.append(mexpr)
        self._index[key] = gid
        readers = self._readers
        for child in child_gids:
            readers[child].append(mexpr)
        self.pending.update(readers[gid])
        self.pending.add(mexpr)
        self.mexpr_count += 1
        return gid, True

    def _new_group(self, op: LogicalOp, props: LogicalProps) -> int:
        gid = len(self._groups)
        self._groups.append(Group(gid, props))
        self._keyed[props.key] = gid
        self._readers.append([])
        if self.tracer.enabled:
            self.tracer.event(
                "memo",
                "new-group",
                gid=gid,
                op=type(op).__name__,
                cardinality=props.cardinality,
            )
        return gid

    # ------------------------------------------------------------------
    # Logical property derivation (order-independent; see logical_props)
    # ------------------------------------------------------------------

    def derive_props(
        self, op: LogicalOp, child_props: tuple[LogicalProps, ...]
    ) -> LogicalProps:
        """The properties of ``op`` over inputs with ``child_props``: those
        of a plan node built below a group's winner (the extent scan of a
        traversal's hash join), which the node carries as a winner carries
        its group's."""
        scope = derive_scope(op, tuple(p.scope for p in child_props), self.catalog)
        key = derive_key(op, child_props, scope, self.catalog)
        return self._props(op, child_props, scope, key)

    def _props(
        self,
        op: LogicalOp,
        child_props: tuple[LogicalProps, ...],
        scope: Scope,
        key: GroupKey,
    ) -> LogicalProps:
        card = derive_cardinality(
            op, tuple(map(_ROWS, child_props)), self.selectivity, self.catalog
        )
        fed = False
        if self.feedback is not None:
            card, fed = self.feedback.estimate(
                feedback_key(key)[0], self.catalog, card
            )
        return LogicalProps(scope, card, key, fed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Debug rendering: every group with its m-exprs and properties."""
        lines = []
        for group in self.groups():
            lines.append(f"group {group.gid}: {group.props}")
            for mexpr in group.mexprs:
                children = ", ".join(map(str, mexpr.children))
                lines.append(f"  {mexpr.op.describe()} [{children}]")
        return "\n".join(lines)


__all__ = ["Group", "MExpr", "Memo", "Tree"]
