"""The digest path must agree with the parser it stands in for.

``Database.query`` recognises a statement it has seen before — up to its
literal values — from one lexical pass (``strip_literals``) and the plan
cache's digest memo, and then never parses it.  That is only sound if,
for every text, the memo yields exactly what
``parameterize(parse_statement(text))`` would have: the same template key,
the same slots in the same order, the same values of the same types, and
the same cacheability.  Checked here over the differential fuzzer's query
generator, the paper's queries and shapes whose literals stay literal,
each also re-spaced, re-cased, with ``&&`` spelled ``AND`` and with every
literal redrawn.
"""

import random
import re

import pytest

from repro.cache.fingerprint import digest_entry, parameterize
from repro.cache.plan_cache import PlanCache
from repro.errors import QuerySyntaxError
from repro.fuzz.querygen import random_query
from repro.fuzz.worldgen import random_world
from repro.lang.lexer import (
    TokenKind,
    literal_positions,
    literal_value,
    strip_literals,
    tokenize,
)
from repro.lang.parser import parse_statement

from tests.conftest import QUERY_1, QUERY_2, QUERY_3, QUERY_4

HANDWRITTEN = (
    QUERY_1, QUERY_2, QUERY_3, QUERY_4,
    # Two bounds on one path: a guarded range, and redraws cross the guard.
    "SELECT * FROM City c IN Cities WHERE c.population > 3 AND c.population < 9",
    "SELECT * FROM City c IN Cities "
    "WHERE c.population > 3 AND c.name == 'x' AND c.population < 9.5",
    "SELECT * FROM City c IN Cities WHERE 1 == 1 AND c.name == \"it's\"",
    "SELECT * FROM City c IN Cities WHERE c.port == true AND c.population != 7",
    "SELECT d.floor, COUNT(*) AS n FROM Department d IN extent(Department) "
    "WHERE d.floor > 1 GROUP BY d.floor HAVING n >= 2 ORDER BY n DESC",
    "SELECT c.name FROM City c IN Cities WHERE c.population == 5 UNION "
    "SELECT c.name FROM City c IN Cities WHERE c.population == 5",
    "SELECT * FROM Task t IN Tasks WHERE 100 == t.time AND NOT EXISTS ("
    "SELECT m FROM Employee m IN t.team_members WHERE m.name == 'Fred')",
    "select c1.name from City c1 in Cities where c1.population<=12.50;",
)


def generated(seed: int, count: int = 40) -> list[str]:
    rng = random.Random(seed)
    world = random_world(rng)
    return [random_query(rng, world).render() for _ in range(count)]


def redraw(text: str, rng: random.Random) -> str:
    """``text`` with every literal replaced by another of its kind."""
    digest, raws = strip_literals(text)
    fresh = []
    for raw in raws:
        if raw[0] in "\"'":
            fresh.append(raw[0] + f"v{rng.randrange(100)}" + raw[0])
        elif "." in raw:
            fresh.append(f"{rng.randrange(100)}.{rng.randrange(10)}5")
        else:
            fresh.append(str(rng.randrange(1000)))
    pieces = [digest[0]]
    for raw, rest in zip(fresh, digest[1:]):
        pieces += [raw, rest]
    return "".join(pieces)


def variants(text: str, rng: random.Random) -> list[str]:
    keywords = r"\b(SELECT|DISTINCT|FROM|WHERE|IN|EXISTS|NOT|AND|AS|ORDER|GROUP|HAVING|BY|ASC|DESC|UNION)\b"
    outside_strings = not re.search(r"[\"'].*(\s|&&).*[\"']", text)
    out = [redraw(text, rng), redraw(text, rng)]
    out.append(re.sub(keywords, lambda m: m.group().lower(), text))
    if outside_strings:
        out.append(text.replace(" ", "\n  "))
        out.append(text.replace(" && ", " AND ").replace(" and ", " && "))
    return out + [redraw(variant, rng) for variant in out[2:]]


def via_parser(text: str):
    parsed = parameterize(parse_statement(text), auto=True)
    return (
        parsed.text_key,
        tuple((s.name, s.index, s.auto) for s in parsed.slots),
        repr(parsed.consts),
        parsed.cacheable,
    )


def via_digest(cache: PlanCache, text: str):
    """What ``Database.query`` does, and whether the memo already knew."""
    digest, raws = strip_literals(text)
    known = cache.recall(digest, raws)
    recalled = known is not None
    if not recalled:
        parsed = parameterize(parse_statement(text), auto=True)
        cache.remember(digest, digest_entry(parsed, digest, raws))
        known = cache.recall(digest, raws)
        assert known is not None, "a text must recall what it just taught"
    template, consts = known
    return (
        template.text_key,
        tuple((s.name, s.index, s.auto) for s in template.slots),
        repr(consts),
        template.cacheable,
    ), recalled


@pytest.mark.parametrize("seed", range(6))
def test_digest_path_equals_parse_and_parameterize(seed):
    rng = random.Random(seed)
    cache = PlanCache()
    recalls = 0
    texts = list(HANDWRITTEN) + generated(seed)
    for text in texts:
        for candidate in [text] + variants(text, rng):
            try:
                expected = via_parser(candidate)
            except QuerySyntaxError:
                continue  # the generator can spell things ZQL rejects
            got, recalled = via_digest(cache, candidate)
            assert got == expected, candidate
            recalls += recalled
    assert recalls > len(texts)  # the redrawn variants took the fast path


def test_a_small_memo_evicts_but_never_answers_wrongly():
    rng = random.Random(11)
    cache = PlanCache(capacity=3)
    texts = [t for t in generated(11, 30)]
    for _ in range(3):
        for text in texts:
            candidate = redraw(text, rng)
            try:
                expected = via_parser(candidate)
            except QuerySyntaxError:
                continue
            assert via_digest(cache, candidate)[0] == expected
    assert len(cache._digests) <= 3


@pytest.mark.parametrize("seed", range(3))
def test_stripped_literals_are_the_lexers_literal_tokens(seed):
    """One grammar: the literal pass and ``tokenize`` see the same
    literals, at the same places, whatever else is in the text."""
    rng = random.Random(seed)
    alphabet = "abc_AB019 .,()<>=!&*;$\"'\t\n%xyz"
    texts = generated(seed, 20) + [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(30)))
        for _ in range(3000)
    ]
    for text in texts:
        try:
            tokens = tokenize(text)
        except QuerySyntaxError:
            continue
        literals = [
            t for t in tokens if t.kind in (TokenKind.STRING, TokenKind.NUMBER)
        ]
        digest, raws = strip_literals(text)
        assert [literal_value(raw) for raw in raws] == [t.value for t in literals]
        assert [type(literal_value(raw)) for raw in raws] == [
            type(t.value) for t in literals
        ]
        assert literal_positions(digest, raws) == [t.position for t in literals]
        assert len(digest) == len(raws) + 1


@pytest.mark.parametrize("seed", range(4))
def test_template_plans_answer_like_fresh_plans_for_redrawn_constants(seed):
    """End to end: a statement served by digest recall and a cached plan
    template (index probes, residuals, HAVING, EXISTS) returns the rows of
    the same text parsed and optimized from scratch."""
    from repro.engine.tuples import row_key
    from repro.errors import ReproError
    from repro.fuzz.worldgen import build_database

    rng = random.Random(seed)
    world = random_world(rng)
    db = build_database(world)
    texts = [random_query(rng, world).render() for _ in range(25)]
    pools: dict[bool, list[str]] = {True: ['"zz"'], False: ["0"]}
    for text in texts:
        for raw in strip_literals(text)[1]:
            pools[raw[0] in "\"'"].append(raw)

    def bag(rows):
        return sorted(repr(row_key(row)) for row in rows)

    hits = 0
    for text in texts:
        digest, raws = strip_literals(text)
        for _ in range(4):
            fresh = [rng.choice(pools[raw[0] in "\"'"]) for raw in raws]
            candidate = digest[0] + "".join(
                raw + rest for raw, rest in zip(fresh, digest[1:])
            )
            try:
                expected = db.query(candidate, use_cache=False)
            except ReproError:
                continue
            cached = db.query(candidate)
            hits += cached.cache.outcome == "hit"
            assert bag(cached.rows) == bag(expected.rows), candidate
            assert cached.consts == parameterize(
                parse_statement(candidate), auto=True
            ).consts
    assert hits > len(texts)
    assert db.plan_cache._digests  # and repeated shapes skipped the parser


# ---------------------------------------------------------------------------
# Two-sided ranges, and DML, through the cache and around it
# ---------------------------------------------------------------------------

RANGES = {
    # (path, with an index on it?): the two spellings of one range shape
    ("population", True): (
        "SELECT * FROM City c IN Cities WHERE c.population >= {} "
        "AND c.population < {}",
        "SELECT * FROM City c IN Cities WHERE {} <= c.population "
        "AND c.population <= {}",
    ),
    ("name", False): (
        "SELECT * FROM City c IN Cities WHERE c.name > {} AND c.name <= {}",
        "SELECT * FROM City c IN Cities WHERE {} < c.name AND {} > c.name",
    ),
}


def bound_pairs(rng: random.Random, strings: bool) -> list[tuple]:
    """Redraws on both sides of the ``lo < hi`` guard: ordered, reversed,
    equal, and of mixed kinds."""
    if strings:
        pick = lambda: f'"city{rng.randrange(200)}"'  # noqa: E731
        other = lambda: str(rng.randrange(1000))  # noqa: E731
    else:
        pick = lambda: str(rng.randrange(0, 1_000_000))  # noqa: E731
        other = lambda: f'"v{rng.randrange(10)}"'  # noqa: E731
    pairs = []
    for _ in range(6):
        lo, hi = sorted((pick(), pick()), key=literal_value)
        pairs += [(lo, hi), (hi, lo), (lo, lo), (lo, other()), (other(), hi)]
    rng.shuffle(pairs)
    return pairs


def ordered(lo: str, hi: str) -> bool:
    """Is the lower bound's literal strictly below the upper's?"""
    try:
        return literal_value(lo) < literal_value(hi)
    except TypeError:
        return False


def rows_bag(rows):
    from repro.engine.tuples import row_key

    return sorted(repr(row_key(row)) for row in rows)


def plan_lines(result) -> list[str]:
    """``explain()`` without its timing header."""
    return result.explain().splitlines()[1:]


@pytest.mark.parametrize("path,indexed", sorted(RANGES))
@pytest.mark.parametrize("seed", range(2))
def test_two_sided_ranges_answer_like_the_uncached_path(path, indexed, seed):
    """Every redraw of a two-sided range — including the ones whose bounds
    the argument rules merge by value — returns the rows, and the plan, of
    its own literal text planned without the cache."""
    from repro.api import Database
    from repro.errors import ReproError

    rng = random.Random(seed)
    db = Database.sample(scale=0.02)
    if indexed:
        db.create_index("ix_" + path, "Cities", (path,))
    for shape in RANGES[path, indexed]:
        for lo, hi in bound_pairs(rng, strings=path == "name"):
            text = shape.format(lo, hi)
            try:
                expected = db.query(text, use_cache=False)
            except ReproError as exc:
                with pytest.raises(type(exc)):
                    db.query(text)
                continue
            cached = db.query(text)
            assert rows_bag(cached.rows) == rows_bag(expected.rows), text
            if not ordered(lo, hi):
                # Merged by value or unorderable: planned as its literal text.
                assert plan_lines(cached) == plan_lines(expected), text


#: The two value-dependent rewrites of a two-sided range, as planned without
#: the cache (sample(scale=0.02), an index on population): ``lo >= hi``
#: is a contradiction, and ``lo == hi`` under ``>=`` / ``<=`` an equality
#: that can use the index.
CONTRADICTION = (
    "SELECT * FROM City c IN Cities "
    "WHERE c.population >= 900000 AND c.population < 3000",
    ["Filter 0 == 1", "  File Scan Cities: c"],
)
EQUALITY = (
    "SELECT * FROM City c IN Cities "
    "WHERE c.population >= 16613 AND c.population <= 16613",
    ["Index Scan Cities: c, 16613 == c.population"],
)


@pytest.mark.parametrize("text,plan", [CONTRADICTION, EQUALITY])
def test_value_merged_ranges_keep_their_literal_plans(text, plan):
    from repro.api import Database

    db = Database.sample(scale=0.02)
    db.create_index("ix_pop", "Cities", ("population",))
    assert plan_lines(db.query(text, use_cache=False)) == plan
    # The same shape, with bounds that do not merge, goes through the
    # cache first; the merged binding still gets its literal plan.
    digest, _ = strip_literals(text)
    db.query(digest[0] + "1000" + digest[1] + "500000" + digest[2])
    db.query(digest[0] + "2000" + digest[1] + "600000" + digest[2])
    cached = db.query(text)
    assert plan_lines(cached) == plan
    assert len(cached.rows) == len(db.query(text, use_cache=False).rows)


UPDATE_CITY = 'UPDATE c IN Cities SET c.population = {} WHERE c.name == "{}"'
READ_CITY = 'SELECT c.name, c.population FROM City c IN Cities WHERE c.name == "{}"'
UPDATE_RANGE = (
    "UPDATE c IN Cities SET c.population = {} "
    "WHERE c.population >= {} AND c.population < {}"
)


@pytest.mark.parametrize("seed", range(3))
def test_dml_shapes_write_alike_with_and_without_the_cache(seed):
    """The statement benchmark's write mix — UPDATE by name, INSERT,
    DELETE, a two-UPDATE transaction that reads its own write — plus a
    range UPDATE whose bounds cross the guard, with every literal redrawn:
    a cache-on and a cache-off database report the same affected counts,
    the same transactional read and the same final Cities."""
    from repro.api import Database
    from repro.errors import TransactionError

    rng = random.Random(seed)
    dbs = []
    for cached in (True, False):
        db = Database.sample(scale=0.02)
        db.create_index("ix_cities_name", "Cities", ("name",))
        db.create_index("ix_cities_mayor_name", "Cities", ("mayor", "name"))
        db.cache_plans = cached
        dbs.append(db)
    names = [row["c.name"] for row in dbs[0].query(
        "SELECT c.name FROM City c IN Cities").rows]
    inserted: list[str] = []

    def value() -> str:
        return rng.choice((str(rng.randrange(1_000, 1_000_000)),
                           f"{rng.randrange(1_000)}.5"))

    for step in range(120):
        kind = rng.choice(("upd", "upd", "upd", "ins", "del", "txn", "range"))
        if kind == "del" and not inserted:
            kind = "ins"
        if kind == "txn":
            first, second = rng.sample(names, 2)
            texts = (UPDATE_CITY.format(value(), first),
                     UPDATE_CITY.format(value(), second))
            outcomes = []
            for db in dbs:
                txn = db.begin()
                affected = [db.query(t, transaction=txn).affected for t in texts]
                read = db.query(READ_CITY.format(first), transaction=txn)
                txn.commit()
                outcomes.append((affected, rows_bag(read.rows)))
            assert outcomes[0] == outcomes[1], texts
            continue
        if kind == "upd":
            text = UPDATE_CITY.format(value(), rng.choice(names + ["nowhere"]))
        elif kind == "ins":
            name = f"bench{seed}_{step}"
            inserted.append(name)
            text = (f"INSERT INTO Cities (name, population) "
                    f"VALUES ('{name}', {value()})")
        elif kind == "del":
            name = inserted.pop(rng.randrange(len(inserted)))
            text = f'DELETE c IN Cities WHERE c.name == "{name}"'
        else:
            lo, hi = rng.randrange(1_000_000), rng.randrange(1_000_000)
            text = UPDATE_RANGE.format(value(), lo, rng.choice((hi, lo)))
        affected = [db.query(text).affected for db in dbs]
        assert affected[0] == affected[1], text
    for db in dbs:
        csn = db.store.mvcc.current_csn
        with pytest.raises(TransactionError):
            db.query(UPDATE_CITY.format(1, names[0]), execute=False)
        assert db.store.mvcc.current_csn == csn
    final = [
        rows_bag(db.query(
            "SELECT c.name, c.population FROM City c IN Cities").rows)
        for db in dbs
    ]
    assert final[0] == final[1]
