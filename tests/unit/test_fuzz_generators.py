"""Unit tests for the fuzzer's generators, shrinker, and corpus format."""

import json
import random

from repro.fuzz import (
    PlanMode,
    PredicateSpec,
    QuerySpec,
    WorldSpec,
    build_database,
    load,
    random_query,
    random_world,
    save,
    shrink_case,
)
from repro.fuzz.worldgen import MAX_COUNT


class TestWorldGeneration:
    def test_deterministic_per_seed(self):
        a = random_world(random.Random("w:1"))
        b = random_world(random.Random("w:1"))
        assert a == b

    def test_distinct_across_seeds(self):
        worlds = {random_world(random.Random(f"w:{i}")).to_dict().__str__()
                  for i in range(8)}
        assert len(worlds) > 1

    def test_populations_bounded(self):
        for i in range(10):
            world = random_world(random.Random(i))
            assert all(0 < t.count <= MAX_COUNT for t in world.types)

    def test_json_round_trip(self):
        world = random_world(random.Random("rt"))
        assert WorldSpec.from_dict(world.to_dict()) == world

    def test_builds_running_database(self):
        world = random_world(random.Random("db"))
        db = build_database(world)
        collection, _ = world.collections()[0]
        assert len(db.query(f"SELECT * FROM x IN {collection}").rows) >= 0


class TestQueryGeneration:
    def test_deterministic_per_seed(self):
        world = random_world(random.Random("w"))
        a = random_query(random.Random("q:1"), world)
        b = random_query(random.Random("q:1"), world)
        assert a == b and a.render() == b.render()

    def test_json_round_trip(self):
        world = random_world(random.Random("w"))
        for i in range(20):
            query = random_query(random.Random(i), world)
            again = QuerySpec.from_dict(query.to_dict())
            assert again == query
            assert again.render() == query.render()

    def test_reference_accepts_generated_queries(self):
        world = random_world(random.Random("accept"))
        db = build_database(world)
        accepted = 0
        for i in range(15):
            query = random_query(random.Random(i), world)
            db.query(query.render(), use_cache=False)
            accepted += 1
        assert accepted == 15


class TestShrinker:
    def test_drops_irrelevant_predicates(self):
        world = random_world(random.Random("shrink"))
        query = random_query(random.Random("shrink-q"), world)
        target = PredicateSpec(("x", "s0"), "==", 1)
        query = QuerySpec(
            ranges=query.ranges[:1],
            predicates=(PredicateSpec(("x", "s1"), "<", 3), target),
        )
        # Synthetic oracle: the case "fails" while the target survives.
        world2, shrunk = shrink_case(
            (world, query),
            PlanMode().candidates,
            lambda case: target in case[1].predicates,
        )
        assert shrunk.predicates == (target,)
        assert shrunk.order_path is None
        # World shrinking keeps only types the query still touches.
        assert len(world2.types) <= len(world.types)

    def test_result_still_fails(self):
        world = random_world(random.Random("sf"))
        query = random_query(random.Random("sf-q"), world)
        fails = lambda case: len(case[0].types) > 0
        shrunk = shrink_case((world, query), PlanMode().candidates, fails)
        assert fails(shrunk)


class TestCorpusFormat:
    def test_save_load_round_trip(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        path = save(tmp_path, PlanMode(), (world, query), note="unit test")
        mode, case = load(path)
        assert isinstance(mode, PlanMode)
        assert case == (world, query)

    def test_content_hashed_idempotent(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        first = save(tmp_path, PlanMode(), (world, query), note="one")
        second = save(tmp_path, PlanMode(), (world, query), note="two")
        assert first == second  # re-finding the same bug rewrites in place
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_document_carries_readable_query(self, tmp_path):
        world = random_world(random.Random("c"))
        query = random_query(random.Random("c-q"), world)
        path = save(tmp_path, PlanMode(), (world, query), note="n")
        document = json.loads(path.read_text())
        assert document["query_text"] == query.render()
        assert PlanMode().decode(document) == (world, query)
