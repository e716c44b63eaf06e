"""Logical transformation rules.

"Since our logical algebra is based on the relational algebra, our
transformation rules include known relational transformations plus some
new ones pertaining to the materialize operator.  These transformations
move materialize operators above and beneath ('through') selection, join,
and set operators, provided none of the other operators depends on a
scope defined by materialize."  Plus the rule the paper singles out as
very important: **Mat-to-Join** — "not because joins are always a good
choice but because joins are an alternative execution strategy that
should be chosen or rejected based on anticipated execution costs".

Every rule consumes one m-expr (whose inputs are memo groups), matches
it against m-exprs of the one input its pattern looks inside, and yields
equivalent trees to be inserted back into the same group.

A Mat whose output is in ``memo.traversals`` is a pure traversal: the
rules that move a Mat (past a Select, a Join or another Mat) or turn it
into a join leave it where it is.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.algebra.operators import (
    Get,
    Join,
    LogicalOp,
    Mat,
    RefSource,
    Select,
    SetOp,
    SetOpKind,
    Unnest,
)
from repro.algebra.predicates import CompOp, Conjunction, RefAttr, SelfOid, VarRef
from repro.algebra.scopes import link_target
from repro.catalog.schema import CollectionKind
from repro.optimizer import config as rule_names
from repro.optimizer.memo import Memo, MExpr, Tree


class TransformationRule:
    """Base class; subclasses define ``name``, ``operators`` and ``apply``.

    ``operators`` declares the operator classes the pattern is rooted at:
    the rule is offered only those m-exprs (all, if it declares nothing).
    ``input`` is the position of the input whose m-exprs the pattern
    looks inside; None when the output depends on the m-expr alone, so
    the rule fires once per m-expr.  ``not_after`` names the rules whose
    output this rule does not fire on (its inverses: their source is in
    the group already), and ``inner_not_from`` the rule whose output the
    rule skips among the input's m-exprs.
    """

    name: str = ""
    operators: tuple[type[LogicalOp], ...] | None = None
    input: int | None = None
    not_after: frozenset[str] = frozenset()
    inner_not_from: str | None = None

    def apply(
        self, mexpr: MExpr, memo: Memo, inners: Iterable[MExpr]
    ) -> Iterator[Tree]:
        """Yield equivalent trees for one m-expr (children = group ids).

        ``inners`` are m-exprs of the input at position ``input`` (empty
        when ``input`` is None); the search engine passes each one once,
        and inserts every yielded tree back into the m-expr's own group.
        """
        raise NotImplementedError


def _select(pred: Conjunction, child: Union[int, Tree]) -> Union[int, Tree]:
    """Wrap a child in a Select unless the predicate is trivially true."""
    if pred.is_true:
        return child
    return (Select(_PLACEHOLDER, pred), (child,))


# Operator templates in trees never use their child fields; a shared
# placeholder keeps constructors happy.
_PLACEHOLDER = Get("__placeholder__", "__placeholder__")


def _mk_select(pred: Conjunction) -> Select:
    return Select(_PLACEHOLDER, pred)


def _mk_mat(source: RefSource, out: str) -> Mat:
    return Mat(_PLACEHOLDER, source, out)


def _mk_join(pred: Conjunction) -> Join:
    return Join(_PLACEHOLDER, _PLACEHOLDER, pred)


def _mk_unnest(var: str, attr: str, out: str) -> Unnest:
    return Unnest(_PLACEHOLDER, var, attr, out)


class SelectMerge(TransformationRule):
    """Select(p, Select(q, X)) -> Select(p AND q, X)."""

    name = rule_names.SELECT_MERGE
    operators = (Select,)
    input = 0

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        for inner in inners:
            if isinstance(inner.op, Select):
                merged = mexpr.op.predicate.conjoin(inner.op.predicate)
                yield (_mk_select(merged), (inner.children[0],))


class SelectPastMat(TransformationRule):
    """Push selection conjuncts beneath a Mat that they do not depend on.

    Select(p, Mat(s: v, X)) -> Select(p_above, Mat(s: v, Select(p_below, X)))
    where p_below is the conjuncts not referencing v.  ``beneath`` names
    the scope-extending operator the conjuncts move under.
    """

    name = rule_names.SELECT_PAST_MAT
    operators = (Select,)
    input = 0
    beneath: type[LogicalOp] = Mat

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        predicate = mexpr.op.predicate
        for inner in inners:
            if not isinstance(inner.op, self.beneath):
                continue
            below_scope = memo.group(inner.children[0]).props.scope.names
            below, above = predicate.split_by_vars(below_scope)
            if below.is_true:
                continue
            pushed: Tree = (
                inner.op.with_children((_PLACEHOLDER,)),
                (_select(below, inner.children[0]),),
            )
            if above.is_true:
                yield pushed
            else:
                yield (_mk_select(above), (pushed,))


class MatPastSelect(TransformationRule):
    """Pull a Mat above a Select (the inverse direction).

    Mat(s: v, Select(p, X)) -> Select(p, Mat(s: v, X)).
    Always valid: Mat only extends scope.
    """

    name = rule_names.MAT_PAST_SELECT
    operators = (Mat,)
    input = 0

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        if mexpr.op.out in memo.traversals:
            return
        for inner in inners:
            if isinstance(inner.op, Select):
                yield (
                    _mk_select(inner.op.predicate),
                    ((_mk_mat(mexpr.op.source, mexpr.op.out), (inner.children[0],)),),
                )


class SelectPastUnnest(SelectPastMat):
    """Push conjuncts not referencing the unnested element beneath Unnest."""

    name = rule_names.SELECT_PAST_UNNEST
    beneath = Unnest


class UnnestPastSelect(TransformationRule):
    """Unnest(Select(p, X)) -> Select(p, Unnest(X))."""

    name = rule_names.UNNEST_PAST_SELECT
    operators = (Unnest,)
    input = 0

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        for inner in inners:
            if isinstance(inner.op, Select):
                yield (
                    _mk_select(inner.op.predicate),
                    (
                        (
                            _mk_unnest(mexpr.op.var, mexpr.op.attr, mexpr.op.out),
                            (inner.children[0],),
                        ),
                    ),
                )


class SelectPastJoin(TransformationRule):
    """Distribute selection conjuncts over a join.

    Single-side conjuncts move into that input; conjuncts spanning both
    sides merge into the join predicate (this is also how the cartesian
    products that simplification emits acquire their join predicates).
    """

    name = rule_names.SELECT_PAST_JOIN
    operators = (Select,)
    input = 0
    # Pushing past a commuted join gives the commuted push.
    inner_not_from = rule_names.JOIN_COMMUTATIVITY

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        predicate = mexpr.op.predicate
        for inner in inners:
            if not isinstance(inner.op, Join):
                continue
            left_gid, right_gid = inner.children
            left_scope = memo.group(left_gid).props.scope.names
            right_scope = memo.group(right_gid).props.scope.names
            left_pred, rest = predicate.split_by_vars(left_scope)
            right_pred, spanning = rest.split_by_vars(right_scope)
            join_pred = inner.op.predicate.conjoin(spanning)
            yield (
                _mk_join(join_pred),
                (_select(left_pred, left_gid), _select(right_pred, right_gid)),
            )


class JoinCommutativity(TransformationRule):
    """Join(A, B, p) -> Join(B, A, p).

    The rule the paper disables to simulate a naive pointer-chasing
    optimizer (Table 2, "W/o Comm."): without it, references are only
    resolved in their stored direction.
    """

    name = rule_names.JOIN_COMMUTATIVITY
    operators = (Join,)
    not_after = frozenset({rule_names.JOIN_COMMUTATIVITY})

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        left, right = mexpr.children
        yield (_mk_join(mexpr.op.predicate), (right, left))


class JoinAssociativity(TransformationRule):
    """Join(Join(A, B, p1), C, p2) -> Join(A, Join(B, C, p'), p'')."""

    name = rule_names.JOIN_ASSOCIATIVITY
    operators = (Join,)
    input = 0

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        outer_pred = mexpr.op.predicate
        c_gid = mexpr.children[1]
        c_scope = memo.group(c_gid).props.scope.names
        for inner in inners:
            if not isinstance(inner.op, Join):
                continue
            a_gid, b_gid = inner.children
            b_scope = memo.group(b_gid).props.scope.names
            combined = inner.op.predicate.conjoin(outer_pred)
            inner_pred, rest = combined.split_by_vars(b_scope | c_scope)
            if inner_pred.is_true and not combined.is_true:
                # Avoid fabricating cartesian intermediates when real join
                # predicates exist; commutativity + this rule still reach
                # every connected order.
                continue
            yield (
                _mk_join(rest),
                (a_gid, (_mk_join(inner_pred), (b_gid, c_gid))),
            )


class MatCommutativity(TransformationRule):
    """Reorder adjacent Mats that do not depend on each other.

    Mat(a, Mat(b, X)) -> Mat(b, Mat(a, X)) when a's source variable is
    bound below b ("the materialize operators can trade their positions
    ... with the condition that country must be materialized before
    president").
    """

    name = rule_names.MAT_COMMUTATIVITY
    operators = (Mat,)
    input = 0

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        outer = mexpr.op
        traversals = memo.traversals
        if outer.out in traversals:
            return
        for inner in inners:
            if not isinstance(inner.op, Mat) or inner.op.out in traversals:
                continue
            base_gid = inner.children[0]
            base_scope = memo.group(base_gid).props.scope.names
            if outer.source.var not in base_scope:
                continue  # outer depends on inner's output
            yield (
                _mk_mat(inner.op.source, inner.op.out),
                ((_mk_mat(outer.source, outer.out), (base_gid,)),),
            )


class MatIntoJoin(TransformationRule):
    """Push a Mat into the join input that binds its source variable.

    Mat(v.a: w, Join(L, R, p)) -> Join(Mat(v.a: w, L), R, p) when v is
    bound by L (mirrored for R).  This is the "move materialize through
    join" direction that lets Query 1 assemble plants once per department
    instead of once per employee.
    """

    name = rule_names.MAT_PAST_JOIN
    operators = (Mat,)
    input = 0
    # Pushing into a commuted join gives the commuted push.
    inner_not_from = rule_names.JOIN_COMMUTATIVITY

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        op = mexpr.op
        if op.out in memo.traversals:
            return
        for inner in inners:
            if not isinstance(inner.op, Join):
                continue
            left_gid, right_gid = inner.children
            left_scope = memo.group(left_gid).props.scope.names
            right_scope = memo.group(right_gid).props.scope.names
            if op.source.var in left_scope:
                yield (
                    _mk_join(inner.op.predicate),
                    ((_mk_mat(op.source, op.out), (left_gid,)), right_gid),
                )
            if op.source.var in right_scope:
                yield (
                    _mk_join(inner.op.predicate),
                    (left_gid, (_mk_mat(op.source, op.out), (right_gid,))),
                )


class MatOutOfJoin(TransformationRule):
    """Pull a Mat out of one join input (the inverse direction).

    Join(Mat(v.a: w, L), R, p) -> Mat(v.a: w, Join(L, R, p)) when p does
    not reference w; ``MatOutOfJoin(1)`` pulls it out of the right input.
    """

    name = rule_names.MAT_PAST_JOIN
    operators = (Join,)

    def __init__(self, input: int = 0) -> None:
        self.input = input

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        predicate = mexpr.op.predicate
        other_gid = mexpr.children[1 - self.input]
        for inner in inners:
            if not isinstance(inner.op, Mat):
                continue
            if inner.op.out in predicate.vars or inner.op.out in memo.traversals:
                continue
            join_children = (
                (inner.children[0], other_gid)
                if self.input == 0
                else (other_gid, inner.children[0])
            )
            yield (
                _mk_mat(inner.op.source, inner.op.out),
                ((_mk_join(predicate), join_children),),
            )


class MatToJoin(TransformationRule):
    """Mat(v.a: w, X) -> Join(X, Get(extent(T), w), v.a == w.self).

    Applicable when the referenced type has a scannable extent — a named
    set would not be guaranteed to contain every referenced object.
    """

    name = rule_names.MAT_TO_JOIN
    operators = (Mat,)
    not_after = frozenset({rule_names.JOIN_TO_MAT})

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        op = mexpr.op
        if op.out in memo.traversals:
            return
        child_scope = memo.group(mexpr.children[0]).props.scope
        extent = memo.catalog.extent_of(
            link_target(op.source, child_scope, memo.catalog)
        )
        if extent is None or not memo.catalog.has_stats(extent.name):
            return
        yield (
            _mk_join(op.source.oid_join(op.out)),
            (mexpr.children[0], (Get(extent.name, op.out), ())),
        )


class JoinToMat(TransformationRule):
    """Join(X, Get(extent(T), w), v.a == w.self) -> Mat(v.a: w, X).

    The inverse of Mat-to-Join: a join against a full extent on a stored
    reference *is* a traversal, so it can also be executed by assembly —
    including when the user wrote the query as an explicit OID join.
    """

    name = rule_names.JOIN_TO_MAT
    operators = (Join,)
    input = 1
    not_after = frozenset({rule_names.MAT_TO_JOIN})

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        pred = mexpr.op.predicate
        if len(pred.comparisons) != 1:
            return
        comparison = pred.comparisons[0]
        if comparison.op is not CompOp.EQ:
            return
        left_gid = mexpr.children[0]
        left_scope = memo.group(left_gid).props.scope.names
        for self_term, ref_term in (
            (comparison.right, comparison.left),
            (comparison.left, comparison.right),
        ):
            if not isinstance(self_term, SelfOid):
                continue
            if not isinstance(ref_term, (RefAttr, VarRef)):
                continue
            if not (frozenset({ref_term.var}) <= left_scope):
                continue
            for inner in inners:
                if not isinstance(inner.op, Get):
                    continue
                if inner.op.var != self_term.var:
                    continue
                coll = memo.catalog.collection(inner.op.collection)
                if coll.kind is not CollectionKind.EXTENT:
                    continue
                source = (
                    RefSource(ref_term.var, ref_term.attr)
                    if isinstance(ref_term, RefAttr)
                    else RefSource(ref_term.var, None)
                )
                yield (_mk_mat(source, inner.op.var), (left_gid,))
                break


class SetOpCommutativity(TransformationRule):
    """Union and intersection commute."""

    name = rule_names.SETOP_COMMUTATIVITY
    operators = (SetOp,)
    not_after = frozenset({rule_names.SETOP_COMMUTATIVITY})

    def apply(self, mexpr: MExpr, memo: Memo, inners) -> Iterator[Tree]:
        if mexpr.op.kind is SetOpKind.DIFFERENCE:
            return
        left, right = mexpr.children
        yield (SetOp(mexpr.op.kind, _PLACEHOLDER, _PLACEHOLDER), (right, left))


ALL_RULES: tuple[TransformationRule, ...] = (
    SelectMerge(),
    SelectPastMat(),
    MatPastSelect(),
    SelectPastUnnest(),
    UnnestPastSelect(),
    SelectPastJoin(),
    JoinCommutativity(),
    JoinAssociativity(),
    MatCommutativity(),
    MatIntoJoin(),
    MatOutOfJoin(0),
    MatOutOfJoin(1),
    MatToJoin(),
    JoinToMat(),
    SetOpCommutativity(),
)


__all__ = ["ALL_RULES", "TransformationRule"] + list(
    dict.fromkeys(rule.__class__.__name__ for rule in ALL_RULES)
)
