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
    built once, is what the memo deduplicates on."""

    __slots__ = ("op", "children", "_key")

    op: LogicalOp
    children: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", (self.op.signature(), self.children))

    def key(self) -> tuple:
        return self._key


@dataclass
class Group:
    gid: int
    props: LogicalProps
    mexprs: list[MExpr] = field(default_factory=list)
    # Bumped whenever the group gains an m-expr or absorbs another group;
    # exploration uses it to skip re-running rules against unchanged inputs.
    version: int = 0


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

    def insert_tree(self, tree: Tree, target_gid: int | None = None) -> int:
        """Insert a rule-produced tree (group ids at reuse points)."""
        op, children = tree
        child_gids: list[int] = []
        for child in children:
            if isinstance(child, int):
                child_gids.append(self.find(child))
            else:
                child_gids.append(self.insert_tree(child))
        gid, _ = self.insert_mexpr(op, tuple(child_gids), target_gid)
        return gid

    def insert_mexpr(
        self,
        op: LogicalOp,
        child_gids: tuple[int, ...],
        target_gid: int | None = None,
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
            props = self._derive_props(op, child_gids)
            gid = len(self._groups)
            self._groups.append(Group(gid, props))
            self._parent.append(gid)
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
        self._groups[gid].mexprs.append(MExpr(op, child_gids))
        self._groups[gid].version += 1
        self._index[key] = gid
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
        self._groups[keep].mexprs.extend(self._groups[drop].mexprs)
        self._groups[drop].mexprs.clear()
        self._parent[drop] = keep
        self._groups[keep].version += 1
        self.merge_count += 1
        if self.tracer.enabled:
            self.tracer.event("memo", "merge", keep=keep, drop=drop)

    def dedup_group(self, gid: int) -> None:
        """Re-canonicalize one group's m-exprs after merges."""
        group = self.group(gid)
        seen: dict[tuple, MExpr] = {}
        for mexpr in group.mexprs:
            canon = MExpr(mexpr.op, tuple(self.find(c) for c in mexpr.children))
            seen.setdefault(canon.key(), canon)
        group.mexprs = list(seen.values())

    # ------------------------------------------------------------------
    # Logical property derivation (order-independent; see logical_props)
    # ------------------------------------------------------------------

    def _derive_props(self, op: LogicalOp, child_gids: tuple[int, ...]) -> LogicalProps:
        child_props = tuple(self.group(g).props for g in child_gids)
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
        return LogicalProps(scope, card, fingerprint=fingerprint, fed=fed)

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
