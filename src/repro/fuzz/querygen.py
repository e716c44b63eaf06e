"""Random ZQL queries over a fuzz world.

A :class:`QuerySpec` is a structured, JSON-serializable description of
one query — range(s), path predicates, DISTINCT, ORDER BY, aggregation,
EXISTS/NOT EXISTS subqueries — that renders to ZQL text.  Keeping the
structure (instead of raw text) is what makes shrinking tractable: the
shrinker drops predicates, clauses, and ranges field by field.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.fuzz.worldgen import AttrSpec, TypeSpec, WorldSpec

_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class PredicateSpec:
    """One WHERE conjunct.

    ``left`` is a path rooted at a range variable (``("x", "r0", "s1")``
    renders as ``x.r0.s1``).  ``right`` is either a constant (int, str
    or ``null``) or — when ``right_is_path`` — another rooted path, giving
    path-vs-path joins and same-object comparisons.
    """

    left: tuple[str, ...]
    op: str
    right: object = 0
    right_is_path: bool = False

    def render(self) -> str:
        """ZQL text of this conjunct."""
        return f"{_path(self.left)} {self.op} {_operand(self)}"


@dataclass(frozen=True)
class SubquerySpec:
    """An (NOT) EXISTS subquery correlated with the outer query."""

    negated: bool
    collection: str
    var: str
    predicate: PredicateSpec  # inner-var path vs. outer-var path/const

    def render(self) -> str:
        """ZQL text of the (NOT) EXISTS clause."""
        keyword = "NOT EXISTS" if self.negated else "EXISTS"
        return (
            f"{keyword} (SELECT * FROM {self.var} IN {self.collection} "
            f"WHERE {self.predicate.render()})"
        )


@dataclass(frozen=True)
class QuerySpec:
    """One complete query; ``render()`` produces the ZQL text."""

    ranges: tuple[tuple[str, str], ...]  # (var, collection) pairs
    select_paths: tuple[tuple[str, ...], ...] = ()  # () = SELECT *
    distinct: bool = False
    predicates: tuple[PredicateSpec, ...] = ()
    subqueries: tuple[SubquerySpec, ...] = ()
    order_path: tuple[str, ...] | None = None
    order_ascending: bool = True
    group_path: tuple[str, ...] | None = None
    agg: tuple[str, tuple[str, ...] | None, str] | None = None

    def render(self) -> str:
        """The complete ZQL query text."""
        if self.agg is not None:
            func, path, alias = self.agg
            items = []
            if self.group_path is not None:
                items.append(_path(self.group_path))
            arg = _path(path) if path is not None else "*"
            items.append(f"{func.upper()}({arg}) AS {alias}")
            select = ", ".join(items)
        elif self.select_paths:
            select = ", ".join(_path(p) for p in self.select_paths)
        else:
            select = "*"
        distinct = "DISTINCT " if self.distinct else ""
        ranges = ", ".join(f"{var} IN {coll}" for var, coll in self.ranges)
        text = f"SELECT {distinct}{select} FROM {ranges}"
        conditions = [p.render() for p in self.predicates]
        conditions += [s.render() for s in self.subqueries]
        if conditions:
            text += " WHERE " + " && ".join(conditions)
        if self.agg is not None and self.group_path is not None:
            text += f" GROUP BY {_path(self.group_path)}"
        if self.order_path is not None:
            direction = "ASC" if self.order_ascending else "DESC"
            text += f" ORDER BY {_path(self.order_path)} {direction}"
        return text

    # -- JSON round-trip ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "ranges": [list(r) for r in self.ranges],
            "select_paths": [list(p) for p in self.select_paths],
            "distinct": self.distinct,
            "predicates": [
                {
                    "left": list(p.left),
                    "op": p.op,
                    "right": list(p.right) if p.right_is_path else p.right,
                    "right_is_path": p.right_is_path,
                }
                for p in self.predicates
            ],
            "subqueries": [
                {
                    "negated": s.negated,
                    "collection": s.collection,
                    "var": s.var,
                    "predicate": {
                        "left": list(s.predicate.left),
                        "op": s.predicate.op,
                        "right": list(s.predicate.right)
                        if s.predicate.right_is_path
                        else s.predicate.right,
                        "right_is_path": s.predicate.right_is_path,
                    },
                }
                for s in self.subqueries
            ],
            "order_path": list(self.order_path) if self.order_path else None,
            "order_ascending": self.order_ascending,
            "group_path": list(self.group_path) if self.group_path else None,
            "agg": [
                self.agg[0],
                list(self.agg[1]) if self.agg[1] is not None else None,
                self.agg[2],
            ]
            if self.agg
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuerySpec":
        """Rebuild a spec from :meth:`to_dict` output."""

        def pred(d: dict) -> PredicateSpec:
            right_is_path = d.get("right_is_path", False)
            right = tuple(d["right"]) if right_is_path else d["right"]
            return PredicateSpec(tuple(d["left"]), d["op"], right, right_is_path)

        agg = data.get("agg")
        return cls(
            ranges=tuple((r[0], r[1]) for r in data["ranges"]),
            select_paths=tuple(tuple(p) for p in data.get("select_paths", ())),
            distinct=data.get("distinct", False),
            predicates=tuple(pred(p) for p in data.get("predicates", ())),
            subqueries=tuple(
                SubquerySpec(
                    s["negated"], s["collection"], s["var"], pred(s["predicate"])
                )
                for s in data.get("subqueries", ())
            ),
            order_path=tuple(data["order_path"]) if data.get("order_path") else None,
            order_ascending=data.get("order_ascending", True),
            group_path=tuple(data["group_path"]) if data.get("group_path") else None,
            agg=(agg[0], tuple(agg[1]) if agg[1] is not None else None, agg[2])
            if agg
            else None,
        )


def _path(path: tuple[str, ...] | None) -> str:
    return ".".join(path or ())


def _operand(pred: PredicateSpec) -> str:
    if pred.right_is_path:
        return _path(pred.right)  # type: ignore[arg-type]
    if pred.right is None:
        return "null"
    if isinstance(pred.right, str):
        return f'"{pred.right}"'
    return str(pred.right)


# ----------------------------------------------------------------------
# Random generation
# ----------------------------------------------------------------------


def random_query(rng: random.Random, world: WorldSpec) -> QuerySpec:
    """Draw a random query over one world collection, occasionally two or
    three."""
    collections = world.collections()
    collection, type_name = rng.choice(collections)
    var = "x"
    ranges = [(var, collection)]
    predicates: list[PredicateSpec] = []
    subqueries: list[SubquerySpec] = []

    for _ in range(rng.randint(0, 2)):
        pred = _random_predicate(rng, world, var, type_name)
        if pred is not None:
            predicates.append(pred)

    second: tuple[str, str] | None = None
    if rng.random() < 0.2 and len(collections) > 0:
        coll2, type2 = rng.choice(collections)
        join = _join_predicate(rng, world, var, type_name, "y", type2)
        if join is not None:
            second = ("y", coll2)
            ranges.append(second)
            predicates.append(join)
            if rng.random() < 0.5:
                # A third range joined to either: a join order to choose.
                coll3, type3 = rng.choice(collections)
                near, near_type = rng.choice(((var, type_name), ("y", type2)))
                join = _join_predicate(rng, world, near, near_type, "w", type3)
                if join is not None:
                    ranges.append(("w", coll3))
                    predicates.append(join)
    elif rng.random() < 0.18:
        coll2, type2 = rng.choice(collections)
        join = _join_predicate(rng, world, "z", type2, var, type_name)
        if join is not None:
            # Subquery decorrelation needs an equi-conjunct.
            join = replace(join, op="==")
            subqueries.append(
                SubquerySpec(
                    negated=rng.random() < 0.5,
                    collection=coll2,
                    var="z",
                    predicate=join,
                )
            )

    shape = rng.random()
    if shape < 0.2 and second is None and not subqueries:
        # Aggregate query: GROUP BY a scalar path, one aggregate.
        group = _random_scalar_path(rng, world, var, type_name, max_depth=1)
        if group is not None:
            func = rng.choice(("count", "sum", "min", "max", "avg"))
            agg_path = None
            if func != "count":
                agg_path = _random_scalar_path(
                    rng, world, var, type_name, max_depth=1, scalar_type="int"
                )
                if agg_path is None:
                    func = "count"
            order_alias = rng.random() < 0.5
            return QuerySpec(
                ranges=tuple(ranges),
                predicates=tuple(predicates),
                group_path=group,
                agg=(func, agg_path, "agg0"),
                order_path=("agg0",) if order_alias else None,
                order_ascending=rng.random() < 0.5,
            )

    select_paths: tuple[tuple[str, ...], ...] = ()
    distinct = False
    if shape > 0.6:
        paths = []
        for _ in range(rng.randint(1, 2)):
            p = _random_scalar_path(rng, world, var, type_name)
            if p is not None:
                paths.append(p)
        if paths:
            select_paths = tuple(paths)
            distinct = rng.random() < 0.5

    order_path = None
    order_ascending = True
    if rng.random() < 0.45:
        order_path = _random_scalar_path(rng, world, var, type_name)
        order_ascending = rng.random() < 0.5

    return QuerySpec(
        ranges=tuple(ranges),
        select_paths=select_paths,
        distinct=distinct,
        predicates=tuple(predicates),
        subqueries=tuple(subqueries),
        order_path=order_path,
        order_ascending=order_ascending,
    )


def _walk_refs(
    rng: random.Random, world: WorldSpec, type_name: str, max_depth: int
) -> tuple[list[str], TypeSpec]:
    links: list[str] = []
    current = world.type_spec(type_name)
    for _ in range(rng.randint(0, max_depth)):
        refs = [a for a in current.attrs if a.kind == "ref"]
        if not refs:
            break
        chosen = rng.choice(refs)
        links.append(chosen.name)
        current = world.type_spec(chosen.target or "")
    return links, current


def _pick_scalar(
    rng: random.Random, spec: TypeSpec, scalar_type: str | None = None
) -> AttrSpec | None:
    scalars = [
        a
        for a in spec.attrs
        if a.kind == "scalar"
        and (scalar_type is None or a.scalar_type == scalar_type)
    ]
    return rng.choice(scalars) if scalars else None


def _random_scalar_path(
    rng: random.Random,
    world: WorldSpec,
    var: str,
    type_name: str,
    max_depth: int = 2,
    scalar_type: str | None = None,
) -> tuple[str, ...] | None:
    links, current = _walk_refs(rng, world, type_name, max_depth)
    attr = _pick_scalar(rng, current, scalar_type)
    if attr is None:
        return None
    return (var, *links, attr.name)


def _random_predicate(
    rng: random.Random, world: WorldSpec, var: str, type_name: str
) -> PredicateSpec | None:
    links, current = _walk_refs(rng, world, type_name, max_depth=2)
    attr = _pick_scalar(rng, current)
    if attr is None:
        return None
    left = (var, *links, attr.name)
    if rng.random() < 0.15:
        other = _random_scalar_path(
            rng, world, var, type_name, scalar_type=attr.scalar_type
        )
        if other is not None:
            return PredicateSpec(left, rng.choice(_OPS), other, True)
    choice = rng.randint(0, attr.distinct)  # may fall outside the domain
    value: object = choice
    if attr.scalar_type == "str":
        value = f"{attr.name}_{choice}"
    value = None if rng.random() < 0.05 else value  # `x op null`: always false
    op = rng.choice(_OPS)
    return PredicateSpec(left, op, value)


def _join_predicate(
    rng: random.Random,
    world: WorldSpec,
    left_var: str,
    left_type: str,
    right_var: str,
    right_type: str,
) -> PredicateSpec | None:
    """An equi/ineq comparison joining two range variables on scalars."""
    left = _random_scalar_path(rng, world, left_var, left_type, max_depth=1)
    if left is None:
        return None
    left_attr = _attr_of_path(world, left_type, left[1:])
    right = _random_scalar_path(
        rng,
        world,
        right_var,
        right_type,
        max_depth=1,
        scalar_type=left_attr.scalar_type if left_attr else None,
    )
    if right is None:
        return None
    op = "==" if rng.random() < 0.8 else rng.choice(_OPS)
    return PredicateSpec(left, op, right, True)


def _attr_of_path(
    world: WorldSpec, type_name: str, links: tuple[str, ...]
) -> AttrSpec | None:
    current = world.type_spec(type_name)
    attr: AttrSpec | None = None
    for link in links:
        attr = next((a for a in current.attrs if a.name == link), None)
        if attr is None:
            return None
        if attr.kind == "ref":
            current = world.type_spec(attr.target or "")
    return attr


__all__ = [
    "PredicateSpec",
    "QuerySpec",
    "SubquerySpec",
    "random_query",
]
