"""Unit tests for the presence-in-memory property vectors."""

from repro.optimizer.physical_props import PhysProps


class TestPhysProps:
    def test_satisfies_superset(self):
        assert PhysProps.of("a", "b").satisfies(PhysProps.of("a"))
        assert PhysProps.of("a").satisfies(PhysProps.none())
        assert not PhysProps.of("a").satisfies(PhysProps.of("a", "b"))

    def test_union_add_remove(self):
        props = PhysProps.of("a").union(PhysProps.of("b"))
        assert props == PhysProps.of("a", "b")
        assert props.add("c") == PhysProps.of("a", "b", "c")
        assert props.remove("a") == PhysProps.of("b")
        assert props.remove("zzz") == props

    def test_restrict(self):
        props = PhysProps.of("a", "b", "c")
        assert props.restrict(frozenset({"b", "z"})) == PhysProps.of("b")

    def test_hashable_and_eq(self):
        assert PhysProps.of("a", "b") == PhysProps.of("b", "a")
        assert len({PhysProps.of("a"), PhysProps.of("a")}) == 1

    def test_iteration_sorted(self):
        assert list(PhysProps.of("b", "a")) == ["a", "b"]

    def test_str(self):
        assert str(PhysProps.none()) == "{}"
        assert str(PhysProps.of("c", "a")) == "{a, c}"

    def test_is_empty(self):
        assert PhysProps.none().is_empty
        assert not PhysProps.of("x").is_empty


class TestComputedOnce:
    """PhysProps, SortKey and Cost are slotted values; the goal hash is
    cached and equals the field-tuple hash the dataclass generated."""

    def _samples(self):
        import random

        from repro.optimizer.physical_props import SortKey

        rng = random.Random(11)
        names = ["c", "c.mayor", "e", "d", "e.department"]
        orders = [
            None, SortKey("c"), SortKey("e", "name"), SortKey("d", "floor", False),
        ]
        return [
            PhysProps(
                frozenset(rng.sample(names, rng.randrange(len(names) + 1))),
                rng.choice(orders),
            )
            for _ in range(100)
        ]

    def test_hash_is_the_field_tuple_hash(self):
        for props in self._samples():
            expected = hash((props.in_memory, props.order))
            assert hash(props) == expected
            assert hash(props) == expected  # second read: the cached value

    def test_no_instance_dict(self):
        from repro.optimizer.cost import Cost
        from repro.optimizer.physical_props import SortKey

        for obj in (PhysProps.of("a"), SortKey("a", "b"), Cost(1.0, 2.0)):
            assert not hasattr(obj, "__dict__")

    def test_pickle_deepcopy_and_replace(self):
        import copy
        import dataclasses
        import pickle

        from repro.optimizer.cost import Cost
        from repro.optimizer.physical_props import SortKey

        for props in self._samples():
            for clone in (pickle.loads(pickle.dumps(props)), copy.deepcopy(props)):
                assert clone == props and hash(clone) == hash(props)
            hash(props)
            other = dataclasses.replace(props, order=SortKey("z"))
            assert other.order == SortKey("z")
            assert hash(other) == hash((other.in_memory, other.order))
        cost = Cost(1.5, 0.25)
        assert pickle.loads(pickle.dumps(cost)) == cost == copy.deepcopy(cost)
        assert [f.name for f in dataclasses.fields(PhysProps)] == ["in_memory", "order"]
        assert PhysProps.__slots__ == ("in_memory", "order")

    def test_order_variants_keep_value_semantics(self):
        from repro.optimizer.physical_props import SortKey

        props = PhysProps.of("a", "b", order=SortKey("a"))
        assert props.without_order() == PhysProps.of("a", "b")
        assert props.with_order(SortKey("b")).order == SortKey("b")
        assert PhysProps() == PhysProps.none() == PhysProps(frozenset(), None)
        assert repr(PhysProps.of("a")) == (
            "PhysProps(in_memory=frozenset({'a'}), order=None)"
        )
