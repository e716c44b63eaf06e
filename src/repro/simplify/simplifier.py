"""The simplification stage.

What simplification does (and deliberately does *not* do):

* every link of a path expression becomes one ``Mat`` operator, emitted in
  prefix order directly above the scan tree (Figure 5's shape);
* a range over a set-valued path becomes ``Unnest`` (plus a ``Mat`` for the
  element reference if the element's attributes are used — Figure 3);
* existentially quantified subqueries are flattened into the outer block
  with Muralikrishna-style unnesting: their ranges and conjuncts join the
  outer block (the paper's Query 4 shape — note this preserves the paper's
  multiplicity behaviour: an outer tuple with several matching members
  appears several times unless DISTINCT is requested);
* multiple collection ranges become cartesian ``Join`` operators with an
  empty predicate; turning select conjuncts into join predicates is the
  *optimizer's* job (the SelectIntoJoin transformation), not simplification's,
  because simplification makes no choices;
* no optimization of any kind is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.algebra.operators import (
    Get,
    Join,
    LogicalOp,
    Mat,
    Project,
    ProjectItem,
    RefSource,
    Select,
    SetOp,
    SetOpKind,
    Unnest,
)
from repro.algebra.predicates import (
    CompOp,
    Comparison,
    Conjunction,
    Const,
    FieldRef,
    ObjectTerm,
    RefAttr,
    SelfOid,
    Term,
    VarRef,
)
from repro.algebra.scopes import derive_scope_tree
from repro.catalog.catalog import Catalog
from repro.catalog.schema import AttrKind
from repro.errors import QueryTypeError, SimplificationError
from repro.lang.ast import (
    AggregateAst,
    ComparisonAst,
    ConstAst,
    ExistsAst,
    ParamAst,
    PathAst,
    QueryAst,
    RangeAst,
    SelectItemAst,
    SetQueryAst,
)

_SET_OP_KINDS = {
    "union": SetOpKind.UNION,
    "intersect": SetOpKind.INTERSECT,
    "except": SetOpKind.DIFFERENCE,
}

_COMP_OPS = {op.value: op for op in CompOp}


@dataclass
class _Binding:
    """Where a user-visible variable's object value comes from."""

    var: str
    type_name: str
    # For a set-range variable: the name of the REF binding produced by
    # Unnest.  The OBJECT binding (named `var`) is created lazily by a Mat
    # only when the query actually touches the element's attributes.
    ref_name: str | None = None
    materialized: bool = False


@dataclass(frozen=True)
class SimplifiedQuery:
    """A simplification result: the algebra tree plus the variables the
    user-visible result consists of (empty when a Project produces new
    objects — then the root requires no physical properties), plus the
    requested output order for SELECT * queries (for projections the
    order is carried by the Project operator itself)."""

    tree: LogicalOp
    result_vars: tuple[str, ...]
    order: tuple[str, str | None, bool] | None = None


# An unsatisfiable predicate kept representable in the simple algebra: the
# optimizer estimates it at zero selectivity and the executor drops all rows.
FALSE_PREDICATE = Conjunction.of(Comparison(Const(0), CompOp.EQ, Const(1)))


class Simplifier:
    """Translates one query block (plus nested EXISTS blocks) to algebra.

    ``argument_rules`` is the Lesson 9 second rule engine: predicate
    (operator-argument) transformations applied before the algebraic
    optimizer ever sees the query.
    """

    def __init__(self, catalog: Catalog, argument_rules=None) -> None:
        from repro.simplify.argument_rules import DEFAULT_RULES

        self.catalog = catalog
        self.argument_rules = (
            DEFAULT_RULES if argument_rules is None else tuple(argument_rules)
        )
        self._collection_ranges: list[tuple[str, str]] = []
        self._anti_joins: list[tuple[LogicalOp, Conjunction]] = []
        self._anti_counter = 0
        self._bindings: dict[str, _Binding] = {}
        self._mat_vars: dict[str, str] = {}  # canonical path -> scope var
        self._tree: LogicalOp | None = None
        self._conjuncts: list[Comparison] = []
        self._outer_range_vars: list[str] = []

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def simplify(self, query: Union[QueryAst, SetQueryAst]) -> LogicalOp:
        return self.simplify_full(query).tree

    def simplify_full(self, query: Union[QueryAst, SetQueryAst]) -> SimplifiedQuery:
        """Translate a parsed query, reporting result vars and ordering."""
        if isinstance(query, SetQueryAst):
            rules = self.argument_rules
            left = Simplifier(self.catalog, rules).simplify_full(query.left)
            right = Simplifier(self.catalog, rules).simplify_full(query.right)
            result = SimplifiedQuery(
                SetOp(_SET_OP_KINDS[query.kind], left.tree, right.tree),
                left.result_vars,
            )
        else:
            result = self._simplify_block(query)
        # Validate the produced expression: simplification must always emit
        # well-scoped algebra.
        derive_scope_tree(result.tree, self.catalog)
        return result

    def _simplify_block(self, query: QueryAst) -> SimplifiedQuery:
        self._collect_block(query, outer=True)
        assert self._tree is not None
        has_aggregates = any(
            isinstance(item, AggregateAst) for item in query.select_items
        )
        if has_aggregates or query.group_by:
            return self._simplify_aggregate_block(query)
        if query.having:
            raise QueryTypeError("HAVING requires GROUP BY or aggregates")
        # Materialize every path the select list needs, then filter, then
        # project — the Figure 5 operator order.
        select_terms = [
            (item, self._select_term(item)) for item in query.select_items
        ]
        result_vars: tuple[str, ...] = ()
        if not select_terms:
            # SELECT *: the user receives the range variables' objects, so
            # every one of them must be materialized and delivered resident.
            result_vars = tuple(
                self._object_var(var)[0] for var in self._outer_range_vars
            )
        order = None
        if query.order_by is not None:
            order = self._resolve_order_key(query.order_by)
        tree = self._tree
        if self._conjuncts:
            from repro.simplify.argument_rules import normalize_predicate

            normalized = normalize_predicate(
                Conjunction.from_iterable(self._conjuncts), self.argument_rules
            )
            if normalized.contradiction:
                tree = Select(tree, FALSE_PREDICATE)
            elif not normalized.predicate.is_true:
                tree = Select(tree, normalized.predicate)
        tree = self._apply_anti_joins(tree)
        if select_terms:
            items = tuple(
                ProjectItem(item.alias or str(item.path), term)
                for item, term in select_terms
            )
            tree = Project(tree, items, distinct=query.distinct, order_by=order)
            return SimplifiedQuery(tree, result_vars, None)
        if query.distinct:
            raise SimplificationError("DISTINCT requires an explicit select list")
        return SimplifiedQuery(tree, result_vars, order)

    def _simplify_aggregate_block(self, query: QueryAst) -> SimplifiedQuery:
        """GROUP BY / aggregate queries -> the GroupBy operator.

        An extension beyond the paper's simplification scope ("but no
        aggregates").  Rules: every plain select item must name a GROUP BY
        path; WHERE filters before grouping (no HAVING); ORDER BY must
        name an output column (a group key path or an aggregate alias).
        """
        from repro.algebra.operators import AggFunc, AggSpec, GroupBy

        if query.distinct:
            raise SimplificationError("DISTINCT with aggregates is redundant")

        # Column names: select-list aliases win over path spellings.
        aliases: dict[str, str] = {}
        plain_paths: list[str] = []
        for item in query.select_items:
            if isinstance(item, AggregateAst):
                continue
            spelled = str(item.path)
            plain_paths.append(spelled)
            if item.alias:
                aliases[spelled] = item.alias

        group_paths = [str(p) for p in query.group_by]
        for spelled in plain_paths:
            if spelled not in group_paths:
                raise QueryTypeError(
                    f"select item {spelled!r} must appear in GROUP BY"
                )

        keys = tuple(
            ProjectItem(aliases.get(str(path), str(path)), self._group_key_term(path))
            for path in query.group_by
        )

        aggregates: list[AggSpec] = []
        for item in query.select_items:
            if not isinstance(item, AggregateAst):
                continue
            func = AggFunc(item.func)
            name = item.alias or str(item)
            if item.path is None:
                aggregates.append(AggSpec(name, func, None))
                continue
            term = self._convert_operand(item.path)
            if func is not AggFunc.COUNT and not isinstance(term, FieldRef):
                raise QueryTypeError(
                    f"{item.func}({item.path}) needs a scalar attribute"
                )
            aggregates.append(AggSpec(name, func, term))

        columns = {k.name for k in keys} | {a.name for a in aggregates}

        def output_column(path: PathAst, clause: str) -> str:
            spelled = str(path)
            column = aliases.get(spelled, spelled)
            if column not in columns:
                raise QueryTypeError(
                    f"{clause} {spelled} must name a group key or aggregate "
                    "alias"
                )
            return column

        having = []
        for condition in query.having:
            left, op_text, right = condition.left, condition.op, condition.right
            if isinstance(left, ConstAst) and isinstance(right, PathAst):
                left, right = right, left
                op_text = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                    op_text, op_text
                )
            if not (isinstance(left, PathAst) and isinstance(right, ConstAst)):
                raise QueryTypeError(
                    f"HAVING supports column-vs-constant comparisons, got "
                    f"{condition}"
                )
            from repro.algebra.operators import HavingClause

            having.append(
                HavingClause(
                    output_column(left, "HAVING"),
                    _COMP_OPS[op_text],
                    Const(right.value, right.slot),
                )
            )

        order_output = None
        if query.order_by is not None:
            column = output_column(query.order_by.path, "ORDER BY")
            order_output = (column, query.order_by.ascending)

        tree = self._tree
        assert tree is not None
        if self._conjuncts:
            from repro.simplify.argument_rules import normalize_predicate

            normalized = normalize_predicate(
                Conjunction.from_iterable(self._conjuncts), self.argument_rules
            )
            if normalized.contradiction:
                tree = Select(tree, FALSE_PREDICATE)
            elif not normalized.predicate.is_true:
                tree = Select(tree, normalized.predicate)
        tree = self._apply_anti_joins(tree)
        tree = GroupBy(
            tree, keys, tuple(aggregates), order_output, tuple(having)
        )
        return SimplifiedQuery(tree, (), None)

    def _apply_anti_joins(self, tree: LogicalOp) -> LogicalOp:
        from repro.algebra.operators import AntiJoin

        for right, correlation in self._anti_joins:
            tree = AntiJoin(tree, right, correlation)
        return tree

    def _group_key_term(self, path: PathAst) -> Term:
        """A GROUP BY path as a term (object identity for whole objects)."""
        if path.is_bare_var:
            var, _ = self._object_var(path.root)
            return ObjectTerm(var)
        term = self._convert_operand(path)
        if isinstance(term, (FieldRef, RefAttr)):
            return term
        raise QueryTypeError(f"cannot group by {path}")

    def _resolve_order_key(self, order_by) -> tuple[str, str | None, bool]:
        """ORDER BY path -> a (var, attr, ascending) sort key, emitting
        Mats for any path prefix (like any other path expression)."""
        path = order_by.path
        if path.is_bare_var:
            var, _ = self._object_var(path.root)
            return (var, None, order_by.ascending)
        holder_var, holder_type = self._materialize_prefix(
            path.root, path.links[:-1]
        )
        last = path.links[-1]
        self.catalog.attribute(holder_type, last)  # validate
        return (holder_var, last, order_by.ascending)

    # ------------------------------------------------------------------
    # Block flattening (ranges + conjuncts, including EXISTS subqueries)
    # ------------------------------------------------------------------

    def _collect_block(self, query: QueryAst, outer: bool) -> None:
        for range_ast in query.ranges:
            self._add_range(range_ast)
            if outer:
                self._outer_range_vars.append(range_ast.var)
        for condition in query.where:
            if isinstance(condition, ExistsAst):
                if condition.negated:
                    self._add_anti_join(condition.query)
                else:
                    self._collect_block(condition.query, outer=False)
            elif isinstance(condition, ComparisonAst):
                self._conjuncts.append(self._convert_comparison(condition))
            else:
                raise SimplificationError(f"unsupported condition {condition!r}")
        if not outer and query.select_items:
            # The inner select list of an EXISTS is irrelevant to the result.
            pass

    def _add_anti_join(self, inner: QueryAst) -> None:
        """Decorrelate a NOT EXISTS subquery into an AntiJoin input.

        Unlike EXISTS (which flattens, per the paper), NOT EXISTS cannot:
        a missing match must *keep* the outer tuple.  We rebuild the inner
        block over *clones* of the outer collection ranges it references
        and anti-join on the clones' object identity.
        """
        from repro.algebra.operators import AntiJoin  # noqa: F401 (doc aid)

        self._anti_counter += 1
        suffix = f"__a{self._anti_counter}"
        inner_range_vars = {r.var for r in inner.ranges}
        referenced = _query_path_roots(inner) - inner_range_vars
        collection_vars = {var for var, _ in self._collection_ranges}
        unsupported = referenced - collection_vars
        if unsupported:
            raise SimplificationError(
                "NOT EXISTS may only correlate through outer collection "
                f"ranges; cannot decorrelate through {sorted(unsupported)}"
            )
        mapping = {var: var + suffix for var in referenced}
        sub = Simplifier(self.catalog, self.argument_rules)
        for var, collection in self._collection_ranges:
            if var in mapping:
                sub._add_collection_range(mapping[var], collection, None)
        renamed = _rename_query(inner, mapping)
        sub._collect_block(renamed, outer=False)
        if sub._anti_joins:
            raise SimplificationError("nested NOT EXISTS is not supported")
        right = sub._tree
        assert right is not None
        if sub._conjuncts:
            from repro.simplify.argument_rules import normalize_predicate

            normalized = normalize_predicate(
                Conjunction.from_iterable(sub._conjuncts), self.argument_rules
            )
            if normalized.contradiction:
                # An unsatisfiable subquery never matches: NOT EXISTS is
                # vacuously true, so no anti-join is needed at all.
                return
            if not normalized.predicate.is_true:
                right = Select(right, normalized.predicate)
        correlation = Conjunction.from_iterable(
            Comparison(SelfOid(var), CompOp.EQ, SelfOid(clone))
            for var, clone in mapping.items()
        )
        if correlation.is_true:
            raise SimplificationError(
                "NOT EXISTS subquery is uncorrelated; use EXCEPT instead"
            )
        self._anti_joins.append((right, correlation))

    def _add_range(self, range_ast) -> None:
        var = range_ast.var
        if var in self._bindings:
            raise QueryTypeError(f"duplicate range variable {var!r}")
        if isinstance(range_ast.source, str):
            self._add_collection_range(var, range_ast.source, range_ast.type_name)
        else:
            self._add_set_range(var, range_ast.source, range_ast.type_name)

    def _add_collection_range(
        self, var: str, collection: str, declared_type: str | None
    ) -> None:
        if not self.catalog.has_collection(collection):
            raise QueryTypeError(f"unknown collection {collection!r}")
        element = self.catalog.collection(collection).element_type
        self._check_declared_type(var, declared_type, element)
        get = Get(collection, var)
        self._tree = get if self._tree is None else Join(self._tree, get, Conjunction.true())
        self._bindings[var] = _Binding(var, element, materialized=True)
        self._collection_ranges.append((var, collection))

    def _add_set_range(
        self, var: str, path: PathAst, declared_type: str | None
    ) -> None:
        if self._tree is None:
            raise QueryTypeError(
                f"first range must be over a named collection, not path {path}"
            )
        # Materialize the path prefix, then unnest the final set attribute.
        holder_var, holder_type = self._materialize_prefix(path.root, path.links[:-1])
        set_attr = path.links[-1]
        attr = self.catalog.attribute(holder_type, set_attr)
        if attr.kind is not AttrKind.SET_REF:
            raise QueryTypeError(f"range source {path} is not a set-valued path")
        self._check_declared_type(var, declared_type, attr.target_type or "")
        ref_name = f"{var}_ref"
        self._tree = Unnest(self._tree, holder_var, set_attr, ref_name)
        self._bindings[var] = _Binding(
            var, attr.target_type or "", ref_name=ref_name, materialized=False
        )

    def _check_declared_type(
        self, var: str, declared: str | None, actual: str
    ) -> None:
        if declared is not None and declared != actual:
            raise QueryTypeError(
                f"range variable {var!r} declared {declared!r} but ranges over "
                f"{actual!r}"
            )

    # ------------------------------------------------------------------
    # Path handling
    # ------------------------------------------------------------------

    def _object_var(self, user_var: str) -> tuple[str, str]:
        """Scope variable and type for a user variable, materializing a
        set-range element on first attribute access (Figure 3's Mat)."""
        if user_var not in self._bindings:
            raise QueryTypeError(f"unknown variable {user_var!r}")
        binding = self._bindings[user_var]
        if not binding.materialized:
            assert binding.ref_name is not None and self._tree is not None
            self._tree = Mat(
                self._tree, RefSource(binding.ref_name, None), binding.var
            )
            binding.materialized = True
        return binding.var, binding.type_name

    def _materialize_prefix(
        self, root: str, links: tuple[str, ...]
    ) -> tuple[str, str]:
        """Emit Mat operators for every link of a path prefix.

        Returns the scope variable holding the final prefix object and its
        type.  Variables are canonically named ``root.l1.l2`` so repeated
        paths share one Mat (common subexpression sharing at the
        simplification level)."""
        var, type_name = self._object_var(root)
        canonical = root
        for link in links:
            attr = self.catalog.attribute(type_name, link)
            if attr.kind is not AttrKind.REF:
                raise QueryTypeError(
                    f"path link {canonical}.{link} is not a single-valued reference"
                )
            canonical = f"{canonical}.{link}"
            if canonical not in self._mat_vars:
                assert self._tree is not None
                self._tree = Mat(self._tree, RefSource(var, link), canonical)
                self._mat_vars[canonical] = canonical
            var = self._mat_vars[canonical]
            type_name = attr.target_type or ""
        return var, type_name

    def _convert_operand(self, operand) -> Term:
        if isinstance(operand, ConstAst):
            return Const(operand.value, operand.slot)
        if isinstance(operand, ParamAst):
            raise SimplificationError(
                f"unbound parameter ${operand.name}; prepare the query with "
                "Database.prepare(...) and bind values via execute(...)"
            )
        if not isinstance(operand, PathAst):
            raise SimplificationError(f"unsupported operand {operand!r}")
        if operand.is_bare_var:
            binding = self._bindings.get(operand.root)
            if binding is None:
                raise QueryTypeError(f"unknown variable {operand.root!r}")
            if not binding.materialized and binding.ref_name is not None:
                # Comparing the bare element of a set range: use the raw
                # reference value (no materialization required).
                return VarRef(binding.ref_name)
            return SelfOid(binding.var)
        holder_var, holder_type = self._materialize_prefix(
            operand.root, operand.links[:-1]
        )
        last = operand.links[-1]
        attr = self.catalog.attribute(holder_type, last)
        if attr.kind is AttrKind.SCALAR:
            return FieldRef(holder_var, last)
        if attr.kind is AttrKind.REF:
            return RefAttr(holder_var, last)
        raise QueryTypeError(
            f"set-valued path {operand} cannot be used as a comparison operand; "
            "range over it with FROM or EXISTS"
        )

    def _convert_comparison(self, comparison: ComparisonAst) -> Comparison:
        left = self._convert_operand(comparison.left)
        right = self._convert_operand(comparison.right)
        op = _COMP_OPS.get(comparison.op)
        if op is None:
            raise SimplificationError(f"unknown operator {comparison.op!r}")
        return Comparison(left, op, right)

    def _select_term(self, item: SelectItemAst) -> Term:
        path = item.path
        if path.is_bare_var:
            var, _ = self._object_var(path.root)
            return ObjectTerm(var)
        holder_var, holder_type = self._materialize_prefix(
            path.root, path.links[:-1]
        )
        last = path.links[-1]
        attr = self.catalog.attribute(holder_type, last)
        if attr.kind is AttrKind.SCALAR:
            return FieldRef(holder_var, last)
        if attr.kind is AttrKind.REF:
            # Projecting a reference-valued path: materialize the target and
            # project the whole object.
            var, _ = self._materialize_prefix(path.root, path.links)
            return ObjectTerm(var)
        raise QueryTypeError(f"cannot project set-valued path {path}")


def _query_path_roots(query: QueryAst) -> set[str]:
    """All path roots a query block mentions (ranges, conditions, items)."""
    roots: set[str] = set()

    def path(p) -> None:
        if isinstance(p, PathAst):
            roots.add(p.root)

    for range_ast in query.ranges:
        path(range_ast.source)
    for condition in query.where:
        if isinstance(condition, ComparisonAst):
            path(condition.left)
            path(condition.right)
        elif isinstance(condition, ExistsAst):
            inner = _query_path_roots(condition.query)
            roots |= inner - {r.var for r in condition.query.ranges}
    for item in query.select_items:
        if isinstance(item, SelectItemAst):
            path(item.path)
        elif isinstance(item, AggregateAst) and item.path is not None:
            path(item.path)
    for p in query.group_by:
        path(p)
    if query.order_by is not None:
        path(query.order_by.path)
    return roots


def _rename_query(query: QueryAst, mapping: dict[str, str]) -> QueryAst:
    """Rewrite path roots per ``mapping`` (inner ranges shadow outer names)."""
    mapping = {
        k: v for k, v in mapping.items()
        if k not in {r.var for r in query.ranges}
    }

    def path(p):
        if isinstance(p, PathAst) and p.root in mapping:
            return PathAst(mapping[p.root], p.links)
        return p

    ranges = tuple(
        RangeAst(r.var, path(r.source), r.type_name)
        if isinstance(r.source, PathAst)
        else r
        for r in query.ranges
    )
    where = []
    for condition in query.where:
        if isinstance(condition, ComparisonAst):
            where.append(
                ComparisonAst(path(condition.left), condition.op, path(condition.right))
            )
        elif isinstance(condition, ExistsAst):
            where.append(
                ExistsAst(_rename_query(condition.query, mapping), condition.negated)
            )
        else:
            where.append(condition)
    items = tuple(
        SelectItemAst(path(i.path), i.alias)
        if isinstance(i, SelectItemAst)
        else AggregateAst(i.func, path(i.path) if i.path else None, i.alias)
        for i in query.select_items
    )
    return QueryAst(
        items,
        ranges,
        tuple(where),
        query.distinct,
        query.order_by,
        tuple(path(p) for p in query.group_by),
        query.having,
    )


def simplify(
    query: Union[QueryAst, SetQueryAst], catalog: Catalog
) -> LogicalOp:
    """Translate a parsed query into the optimizer-input algebra."""
    return Simplifier(catalog).simplify(query)


def simplify_full(
    query: Union[QueryAst, SetQueryAst], catalog: Catalog
) -> SimplifiedQuery:
    """Like :func:`simplify`, also reporting the user-visible result vars."""
    return Simplifier(catalog).simplify_full(query)


__all__ = ["SimplifiedQuery", "Simplifier", "simplify", "simplify_full"]
