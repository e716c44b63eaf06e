"""The memo: groups of logically equivalent expressions.

The memo is the Volcano search engine's core data structure.  A *group*
collects logically equivalent expressions (m-exprs); an m-expr is an
operator whose inputs are groups.  Inserting an expression dedups it
against everything seen so far, which is how the framework provides
global common-subexpression factorization "for free" (the paper's reply
to Cluet and Delobel's factorization technique).

Rule applications can discover that two existing groups are equivalent
(e.g. via Mat commutativity followed by Mat-to-Join); a union-find over
group ids merges them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Union

from repro.algebra.operators import LogicalOp
from repro.algebra.scopes import derive_scope
from repro.catalog.catalog import Catalog
from repro.feedback.fingerprint import logical_fingerprint
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optimizer.logical_props import LogicalProps, derive_cardinality
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
    """Groups, dedup index, and union-find merging."""

    def __init__(
        self,
        catalog: Catalog,
        selectivity: SelectivityModel,
        tracer: Tracer = NULL_TRACER,
        feedback=None,
    ) -> None:
        self.catalog = catalog
        self.selectivity = selectivity
        self.tracer = tracer
        # Optional FeedbackStore: observed cardinalities override the
        # statistics-derived estimate for groups with a fresh observation.
        self.feedback = feedback
        self._groups: list[Group] = []
        self._parent: list[int] = []
        self._index: dict[tuple, int] = {}
        # Per group id: the m-exprs that take the group as an input.
        self._readers: list[list[MExpr]] = []
        # The m-exprs exploration has yet to match: new ones, and readers
        # of a group that gained m-exprs since they were last visited.
        self.pending: set[MExpr] = set()
        # Per merged-away group: the group that absorbed it, and where its
        # m-exprs start in that group's list.
        self._absorbed: dict[int, tuple[int, int]] = {}
        self.mexpr_count = 0
        self.merge_count = 0

    # ------------------------------------------------------------------
    # Union-find over group ids
    # ------------------------------------------------------------------

    def find(self, gid: int) -> int:
        """Canonical (root) group id under merges, with path compression."""
        root = gid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[gid] != root:
            self._parent[gid], gid = root, self._parent[gid]
        return root

    def group(self, gid: int) -> Group:
        """The live group ``gid`` names (its own ``gid`` is canonical)."""
        if self._parent[gid] == gid:
            return self._groups[gid]
        return self._groups[self.find(gid)]

    def relocate(self, gid: int) -> tuple[int, int]:
        """Where group ``gid``'s m-exprs sit now: the live group holding
        them and the position they start at in its list (a merge appends
        the absorbed group's list to the survivor's)."""
        offset = 0
        while gid in self._absorbed:
            gid, start = self._absorbed[gid]
            offset += start
        return gid, offset

    def groups(self) -> list[Group]:
        """All live (root) groups."""
        return [g for g in self._groups if self._parent[g.gid] == g.gid]

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
        child_gids: list[int] = []
        for child in children:
            if isinstance(child, int):
                child_gids.append(self.find(child))
            else:
                child_gids.append(self.insert_tree(child))
        gid, _ = self.insert_mexpr(op, tuple(child_gids), target_gid, origin)
        return gid

    def insert_mexpr(
        self,
        op: LogicalOp,
        child_gids: tuple[int, ...],
        target_gid: int | None = None,
        origin: str | None = None,
    ) -> tuple[int, bool]:
        """Insert one m-expr; dedup, create or merge groups as needed.

        Returns ``(group id, inserted_new)``.
        """
        find = self.find
        child_gids = tuple([find(c) for c in child_gids])
        # Most insertions rediscover a known expression: key first.
        key = (op.signature(), child_gids)
        existing = self._index.get(key)
        if existing is not None:
            existing = find(existing)
            if target_gid is not None:
                target = find(target_gid)
                if target != existing:
                    self._merge(existing, target)
                    existing = find(existing)
            return existing, False

        if target_gid is None:
            child_props = tuple(self.group(g).props for g in child_gids)
            props = self.derive_props(op, child_props)
            gid = len(self._groups)
            self._groups.append(Group(gid, props))
            self._parent.append(gid)
            self._readers.append([])
            if self.tracer.enabled:
                self.tracer.event(
                    "memo",
                    "new-group",
                    gid=gid,
                    op=type(op).__name__,
                    cardinality=props.cardinality,
                )
        else:
            gid = self.find(target_gid)
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

    def _merge(self, a: int, b: int) -> None:
        """Union two groups discovered to be equivalent."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        keep, drop = (a, b) if len(self._groups[a].mexprs) >= len(
            self._groups[b].mexprs
        ) else (b, a)
        self._absorbed[drop] = (keep, len(self._groups[keep].mexprs))
        self._groups[keep].mexprs.extend(self._groups[drop].mexprs)
        self._groups[drop].mexprs.clear()
        self._parent[drop] = keep
        # Keep's readers gain drop's m-exprs; drop's readers now read keep.
        readers = self._readers[keep]
        readers.extend(self._readers[drop])
        self._readers[drop] = []
        self.pending.update(readers)
        self.merge_count += 1
        if self.tracer.enabled:
            self.tracer.event("memo", "merge", keep=keep, drop=drop)

    def dedup_group(self, gid: int) -> None:
        """Re-canonicalize one group's m-exprs after merges."""
        group = self.group(gid)
        seen: dict[tuple, MExpr] = {}
        for mexpr in group.mexprs:
            canon = MExpr(
                mexpr.op, tuple(self.find(c) for c in mexpr.children), mexpr.origin
            )
            seen.setdefault(canon.key(), canon)
        group.mexprs = list(seen.values())

    # ------------------------------------------------------------------
    # Logical property derivation (order-independent; see logical_props)
    # ------------------------------------------------------------------

    def derive_props(
        self, op: LogicalOp, child_props: tuple[LogicalProps, ...]
    ) -> LogicalProps:
        """The properties of ``op`` over inputs with ``child_props``: a new
        group's, or those of a plan node a lowered MatChain builds below
        the group's winner (a Mat over the link before, a Get of an
        extent), which the node carries as a winner carries its group's."""
        scope = derive_scope(op, tuple(p.scope for p in child_props), self.catalog)
        card = derive_cardinality(
            op, tuple(map(_ROWS, child_props)), self.selectivity, self.catalog
        )
        fingerprint = logical_fingerprint(
            op, tuple(p.fingerprint for p in child_props)
        )
        fed = False
        if self.feedback is not None and fingerprint is not None:
            card, fed = self.feedback.estimate(fingerprint, self.catalog, card)
        return LogicalProps(
            scope, card, fingerprint=fingerprint, fed=fed, op=op, inputs=child_props
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def dump(self) -> str:
        """Debug rendering: every group with its m-exprs and properties."""
        lines = []
        for group in self.groups():
            lines.append(f"group {group.gid}: {group.props}")
            for mexpr in group.mexprs:
                children = ", ".join(str(self.find(c)) for c in mexpr.children)
                lines.append(f"  {mexpr.op.describe()} [{children}]")
        return "\n".join(lines)


__all__ = ["Group", "MExpr", "Memo", "Tree"]
