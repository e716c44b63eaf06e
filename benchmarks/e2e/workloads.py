"""The five workloads: set-up, seeded statement streams, and result checks.

Everything the program under test sees is generated here from
``--seed``: the data (``Database.sample(seed=...)``), the constants
(harvested from a reference copy of that data, so they always exist)
and the op order.  The *set of statement shapes* is fixed — a seed never
changes how much work a workload is, only which rows it touches.

Streams are endless and made of blocks: every ``Spec.block`` consecutive
ops have the workload's exact class mix, so a pass that stops at a block
boundary is comparable with a longer or shorter pass of the same workload.
"""

from __future__ import annotations

import itertools
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import Database, OptimizerConfig

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

IX_MAYOR = ("ix_cities_mayor_name", "Cities", ("mayor", "name"))
IX_TIME = ("ix_tasks_time", "Tasks", ("time",))
IX_EMP = ("ix_employees_name", "extent(Employee)", ("name",))
IX_CITY = ("ix_cities_name", "Cities", ("name",))

READ, WRITE, TXN = "read", "write", "txn"


@dataclass(frozen=True)
class Spec:
    name: str
    scale: float
    indexes: tuple
    # Statements per second on the sizing sandbox; fixes the op count of
    # the traced passes so their counts repeat exactly on any machine.
    nominal_rate: float
    block: int
    # Ops run before timing (counted in set-up): every distinct statement
    # once where that is few, else 50.
    warmup: int
    classes: tuple[str, ...]
    write_classes: tuple[str, ...] = ()
    durable: bool = False
    served: bool = False

    @property
    def read_classes(self) -> tuple[str, ...]:
        return tuple(c for c in self.classes if c not in self.write_classes)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("adhoc_plan", 0.02, (IX_MAYOR, IX_TIME, IX_EMP), 55.0, 160, 50,
             ("emp_pred", "chain")),
        Spec("point_hit", 0.2, (IX_MAYOR, IX_TIME, IX_EMP, IX_CITY), 1400.0,
             100, 200, ("pt_city", "pt_mayor", "pt_task", "pt_emp")),
        Spec("scan_exec", 0.2, (), 30.0, 8, 8, ("q1", "q2", "q3", "q4")),
        Spec("durable_mix", 0.05, (IX_CITY, IX_MAYOR), 400.0, 100, 50,
             ("pt_city", "scan_city", "upd", "ins", "del", "txn"),
             write_classes=("upd", "ins", "del", "txn"), durable=True),
        Spec("served_mix", 0.05, (IX_CITY, IX_MAYOR), 500.0, 100, 50,
             ("pt_city", "pt_mayor", "upd", "scan_city"),
             write_classes=("upd",), served=True),
    )
}

#: Every statement class any workload reports (``api.class_ms.<class>``).
ALL_CLASSES = (
    "q1", "q2", "q3", "q4", "pt_city", "pt_mayor", "pt_task", "pt_emp",
    "scan_city", "upd", "ins", "del", "txn", "chain", "emp_pred",
)


@dataclass
class Op:
    cls: str
    kind: str
    text: object  # one statement, or a tuple of them for a transaction
    # [rows, digest] for a read whose answer the generator's model knows,
    # the affected-row count for a write, None to look the text up in the
    # reference results.
    expect: object = None


def build_database(spec: Spec, seed: int) -> Database:
    """The database a workload runs against (public API only)."""
    db = Database.sample(scale=spec.scale, seed=seed)
    for name, collection, path in spec.indexes:
        db.create_index(name, collection, path)
    return db


def cache_counters(db: Database) -> dict[str, int]:
    """The plan cache's counters, for taking a delta over a pass."""
    stats = db.plan_cache.stats
    return {"hits": stats.hits, "misses": stats.misses,
            "evictions": stats.evictions}


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------


def _canon(value):
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    oid = getattr(value, "oid", None)
    if oid is not None:
        # Object bindings compare by identity: whether the record is
        # resident depends on the plan, not on the answer.
        return str(oid)
    if isinstance(value, dict):  # an object binding as the wire sends it
        return value["oid"]
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    return str(value)


def digest(rows) -> list[int]:
    """Order-insensitive ``[row count, checksum]`` of a result."""
    total = 0
    for row in rows:
        key = repr(sorted((name, _canon(value)) for name, value in row.items()))
        total += zlib.crc32(key.encode())
    return [len(rows), total]


class Reference:
    """Expected results: the committed golden file, else the reference run.

    The reference configuration is the plain pipeline — no plan cache, no
    pre-memo rewrites, interpreted, serial — run on a private copy of the
    seeded database, so the database under test is never touched by it.
    """

    CONFIG = OptimizerConfig().with_rewrites(False)

    def __init__(self, spec: Spec, seed: int) -> None:
        self.db = build_database(spec, seed)
        self.golden: dict[str, list[int]] = {}
        path = EXPECTED_DIR / f"{spec.name}-seed{seed}.json"
        if path.exists():
            self.golden = json.loads(path.read_text())
        self.computed: dict[str, list[int]] = {}

    def rows(self, text: str) -> list[dict]:
        return self.db.query(text, config=self.CONFIG, use_cache=False).rows

    def column(self, text: str) -> list:
        """Sorted distinct values of a one-column query (a constant pool)."""
        return sorted({next(iter(row.values())) for row in self.rows(text)})

    def expected(self, text: str) -> list[int]:
        known = self.golden.get(text)
        if known is None:
            known = self.computed.get(text)
        if known is None:
            known = self.computed[text] = digest(self.rows(text))
        return known

    def release(self) -> None:
        """Drop the private database once every answer is known, so its
        memory is not counted against the program under test."""
        self.db = None


class Checker:
    """Counts attempted and failed statements (``fail_ratio``'s inputs)."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def raised(self, op: Op, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{op.cls}: {type(exc).__name__}: {exc}")

    def check(self, op: Op, rows, affected) -> None:
        self.attempted += 1
        if op.kind == WRITE:
            if affected != op.expect:
                self.fail(f"{op.cls}: affected {affected}, expected {op.expect}")
            return
        expect = op.expect
        if expect is None:
            expect = self.reference.expected(op.text)
        got = digest(rows)
        if got != expect:
            self.fail(f"{op.cls}: result {got}, expected {expect}: {op.text}")

    def check_state(self, what: str, rows, model: dict[str, int]) -> None:
        """A full read of Cities must equal the harness's model."""
        self.attempted += 1
        got = {row["c.name"]: row["c.population"] for row in rows}
        if got != model or len(rows) != len(model):
            self.fail(f"{what}: Cities differs from the model")


# ----------------------------------------------------------------------
# Statement streams
# ----------------------------------------------------------------------

ALL_CITIES = "SELECT c.name, c.population FROM City c IN Cities"
CITY_BY_NAME = 'SELECT c.name, c.population FROM City c IN Cities WHERE c.name == "{}"'
UPDATE_CITY = 'UPDATE c IN Cities SET c.population = {} WHERE c.name == "{}"'


def _city_row(name: str, population: int) -> dict:
    return {"c.name": name, "c.population": population}


def _adhoc_shapes(rng: random.Random, ref: Reference) -> list[Op]:
    names = ref.column("SELECT DISTINCT e.name FROM Employee e IN Employees")
    locations = ref.column(
        "SELECT DISTINCT d.plant.location FROM Department d IN extent(Department)"
    )
    countries = ref.column("SELECT DISTINCT n.name FROM Country n IN extent(Country)")
    ages = range(25, 60)
    salaries = range(30_000, 90_000, 5_000)
    floors = range(1, 11)
    grades = range(1, 21)
    populations = range(100_000, 900_000, 50_000)

    def fill(template, pool):
        return template.format(rng.choice(pool))

    predicates = [
        ('e.name == "{}"', names),
        ("e.age > {}", ages),
        ("e.salary >= {}", salaries),
        ("e.department.floor == {}", floors),
        ('e.department.plant.location == "{}"', locations),
        ("e.job.pay_grade == {}", grades),
    ]
    columns = ["e.name", "e.salary", "e.department.name", "e.job.name"]
    ops = []
    combos = [
        (chosen, cols)
        for width in (1, 2, 3)
        for chosen in itertools.combinations(predicates, width)
        for count in (1, 2)
        for cols in itertools.combinations(columns, count)
    ]
    for chosen, cols in combos[::3][:136]:
        where = " AND ".join(fill(t, pool) for t, pool in chosen)
        ops.append(Op(
            "emp_pred", READ,
            f"SELECT {', '.join(cols)} FROM Employee e IN Employees WHERE {where}",
        ))

    emp, dept, job = (
        "Employee e IN Employees", "Department d IN extent(Department)",
        "Job j IN extent(Job)",
    )
    city, country, person, president, capital = (
        "City c IN Cities", "Country n IN extent(Country)",
        "Person p IN extent(Person)", "Person q IN extent(Person)",
        "Capital k IN Capitals",
    )
    by_age = ("p.age == {}", ages)
    big = ("c.population > {}", populations)
    # (ranges, join predicates, predicate, extra predicate, columns):
    # join chains of width 2 to 5 over both halves of the schema.
    chains = [
        ([emp, dept], ["e.department == d"], ("d.floor == {}", floors),
         ("e.age > {}", ages), ["e.name", "d.name"]),
        ([emp, job], ["e.job == j"], ("j.pay_grade == {}", grades),
         ("e.salary >= {}", salaries), ["e.name", "j.name"]),
        ([emp, dept, job], ["e.department == d", "e.job == j"],
         ("d.floor == {}", floors), ("j.pay_grade == {}", grades),
         ["e.name", "j.name"]),
        ([city, country], ["c.country == n"], ('n.name == "{}"', countries),
         big, ["c.name", "n.name"]),
        ([city, person], ["c.mayor == p"], by_age, big, ["c.name", "p.name"]),
        ([city, country, person], ["c.country == n", "c.mayor == p"], by_age,
         ('n.name == "{}"', countries), ["c.name", "n.name"]),
        ([city, country, person, president],
         ["c.country == n", "c.mayor == p", "n.president == q"], by_age, big,
         ["c.name", "q.name"]),
        ([city, country, person, president, capital],
         ["c.country == n", "c.mayor == p", "n.president == q",
          "n.capital == k"], by_age, big, ["c.name", "k.name"]),
    ]
    for ranges, joins, predicate, extra, cols in chains:
        for width, with_extra in ((1, False), (2, False), (2, True)):
            where = joins + [fill(*predicate)]
            if with_extra:
                where.append(fill(*extra))
            ops.append(Op(
                "chain", READ,
                f"SELECT {', '.join(cols[:width])} FROM {', '.join(ranges)} "
                f"WHERE {' AND '.join(where)}",
            ))
    # One fixed order for every seed (only the cycle matters to the plan
    # cache), so any prefix — the warm-up — costs the same on every seed.
    random.Random("adhoc-order").shuffle(ops)
    return ops


def _cycle(block):
    while True:
        yield from block


def _plan_adhoc(pools, ref):
    # 160 distinct shapes cycled in one fixed order through a 128-entry
    # LRU plan cache: every lookup misses.
    shapes = _adhoc_shapes(pools, ref)
    return [op.text for op in shapes], lambda rng, model, connection: _cycle(shapes)


Q1 = (
    "SELECT Newobject(e.name(), e.department().name(), e.job().name()) "
    "FROM Employee e IN Employees "
    'WHERE e.department().plant().location() == "{}"'
)
Q2 = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{}"'
Q3 = 'SELECT c.mayor.age, c.name FROM City c IN Cities WHERE c.mayor.name == "{}"'
Q4 = (
    "SELECT * FROM Task t IN Tasks WHERE t.time == {} AND EXISTS ("
    'SELECT m FROM Employee m IN t.team_members WHERE m.name == "{}")'
)
MAYOR_NAMES = "SELECT DISTINCT c.mayor.name FROM City c IN Cities"


def _pool(pools, ref, text, size=40):
    values = ref.column(text)
    return pools.sample(values, min(size, len(values)))


def _plan_point(pools, ref):
    mayors = _pool(pools, ref, MAYOR_NAMES)
    templates = [
        ("pt_city", 'SELECT * FROM City c IN Cities WHERE c.name == "{}"',
         _pool(pools, ref, "SELECT c.name FROM City c IN Cities")),
        ("pt_mayor", Q2, mayors),
        ("pt_mayor", Q3, mayors),
        ("pt_task", "SELECT * FROM Task t IN Tasks WHERE t.time == {}",
         _pool(pools, ref, "SELECT DISTINCT t.time FROM Task t IN Tasks")),
        ("pt_emp", 'SELECT * FROM Employee e IN extent(Employee) WHERE e.name == "{}"',
         _pool(pools, ref, "SELECT DISTINCT e.name FROM Employee e IN extent(Employee)")),
    ]

    def blocks(rng, model, connection):
        while True:
            block = [
                Op(cls, READ, template.format(rng.choice(constants)))
                for cls, template, constants in templates
                for _ in range(20)
            ]
            rng.shuffle(block)
            yield from block

    texts = [t.format(c) for _, t, constants in templates for c in constants]
    return texts, blocks


def _plan_scan(pools, ref):
    # The paper's Queries 1-4 with the paper's constants, then the same
    # four with one seeded constant each.
    location, = _pool(pools, ref, (
        "SELECT DISTINCT d.plant.location FROM Department d IN extent(Department)"
    ), 1)
    mayor, = _pool(pools, ref, MAYOR_NAMES, 1)
    time_value, = _pool(pools, ref, "SELECT DISTINCT t.time FROM Task t IN Tasks", 1)
    member, = _pool(pools, ref, "SELECT DISTINCT e.name FROM Employee e IN Employees", 1)
    block = [
        Op("q1", READ, Q1.format("Dallas")),
        Op("q2", READ, Q2.format("Joe")),
        Op("q3", READ, Q3.format("Joe")),
        Op("q4", READ, Q4.format(100, "Fred")),
        Op("q1", READ, Q1.format(location)),
        Op("q2", READ, Q2.format(mayor)),
        Op("q3", READ, Q3.format(mayor)),
        Op("q4", READ, Q4.format(time_value, member)),
    ]
    return [op.text for op in block], lambda rng, model, connection: _cycle(block)


class CityModel:
    """A plain-dict model of Cities: the by-name DML is trivially modelled."""

    def __init__(self, cities: dict[str, int]) -> None:
        self.population = dict(cities)
        self.base = sorted(cities)
        self.inserted: list[str] = []
        self.fresh = itertools.count()

    def read(self, name: str) -> list[int]:
        return digest([_city_row(name, self.population[name])])


def _plan_durable(pools, ref):
    kinds = (
        ["pt_city"] * 45 + ["scan_city"] * 10 + ["upd"] * 28
        + ["ins"] * 6 + ["del"] * 4 + ["txn"] * 7
    )

    def blocks(rng, model, connection):
        population = model.population

        def new_population():
            return rng.randrange(1_000, 1_000_000)

        def make(kind):
            if kind == "pt_city":
                name = rng.choice(model.base)
                return Op(kind, READ, CITY_BY_NAME.format(name), model.read(name))
            if kind == "scan_city":
                low = rng.randrange(1_000, 950_000)
                high = low + 50_000
                rows = [
                    _city_row(name, value)
                    for name, value in population.items()
                    if low <= value < high
                ]
                return Op(
                    kind, READ,
                    f"{ALL_CITIES} WHERE c.population >= {low} "
                    f"AND c.population < {high}",
                    digest(rows),
                )
            if kind == "upd":
                name, value = rng.choice(model.base), new_population()
                population[name] = value
                return Op(kind, WRITE, UPDATE_CITY.format(value, name), 1)
            if kind == "ins":
                name, value = f"bench{next(model.fresh)}", new_population()
                population[name] = value
                model.inserted.append(name)
                return Op(
                    kind, WRITE,
                    "INSERT INTO Cities (name, population) "
                    f"VALUES ('{name}', {value})",
                    1,
                )
            if kind == "del":
                name = model.inserted.pop(rng.randrange(len(model.inserted)))
                del population[name]
                return Op(
                    kind, WRITE, f'DELETE c IN Cities WHERE c.name == "{name}"', 1
                )
            first, second = rng.sample(model.base, 2)
            one, two = new_population(), new_population()
            population[first], population[second] = one, two
            # The read inside the transaction must see its own write.
            return Op(kind, TXN, (
                UPDATE_CITY.format(one, first),
                UPDATE_CITY.format(two, second),
                CITY_BY_NAME.format(first),
            ), model.read(first))

        # Ops are made one at a time, as they are asked for, so the model
        # is never ahead of the database.
        while True:
            order = kinds[:]
            rng.shuffle(order)
            for index in range(len(order)):
                if order[index] == "del" and not model.inserted:
                    # Nothing to delete yet: bring the next insert forward.
                    later = order.index("ins", index)
                    order[index], order[later] = "ins", "del"
                yield make(order[index])

    return [], blocks


def _plan_served(pools, ref):
    # Connections update disjoint halves of Cities, and each point-reads
    # only its own half, so every answer is known without ordering the
    # two sessions.  The shared reads project attributes no one writes.
    names = ref.column("SELECT c.name FROM City c IN Cities")
    lookups = [Q3.format(name) for name in _pool(pools, ref, MAYOR_NAMES)]
    ranges = [
        "SELECT c.name FROM City c IN Cities "
        f'WHERE c.name >= "{names[start]}" AND c.name < "{names[start + 10]}"'
        for start in pools.sample(range(len(names) - 10), 20)
    ]
    kinds = ["pt_city"] * 60 + ["pt_mayor"] * 25 + ["upd"] * 10 + ["scan_city"] * 5

    def blocks(rng, model, connection):
        own = model.base[connection::2]
        while True:
            order = kinds[:]
            rng.shuffle(order)
            for kind in order:
                if kind == "pt_city":
                    name = rng.choice(own)
                    yield Op(kind, READ, CITY_BY_NAME.format(name), model.read(name))
                elif kind == "pt_mayor":
                    yield Op(kind, READ, rng.choice(lookups))
                elif kind == "upd":
                    name, value = rng.choice(own), rng.randrange(1_000, 1_000_000)
                    model.population[name] = value
                    yield Op(kind, WRITE, UPDATE_CITY.format(value, name), 1)
                else:
                    yield Op(kind, READ, rng.choice(ranges))

    return lookups + ranges, blocks


_PLANNERS = {
    "adhoc_plan": _plan_adhoc,
    "point_hit": _plan_point,
    "scan_exec": _plan_scan,
    "durable_mix": _plan_durable,
    "served_mix": _plan_served,
}


class Plan:
    """One workload's seeded inputs, drawn once from the reference data.

    After construction the reference database is no longer needed:
    constants are harvested, every model-free answer is known, and
    ``ops`` replays the identical stream as often as asked.
    """

    def __init__(self, spec: Spec, seed: int, ref: Reference) -> None:
        self.spec = spec
        self.seed = seed
        pools = random.Random(f"{spec.name}/{seed}/pools")
        self.texts, self._blocks = _PLANNERS[spec.name](pools, ref)
        for text in self.texts:
            ref.expected(text)
        self.cities: dict[str, int] = {}
        if spec.durable or spec.served:
            self.cities = {
                row["c.name"]: row["c.population"] for row in ref.rows(ALL_CITIES)
            }

    def model(self) -> CityModel:
        return CityModel(self.cities)

    def ops(self, model: CityModel | None = None, connection: int = 0):
        """A fresh, endless op stream; any ``spec.block`` consecutive ops
        carry the workload's class mix."""
        rng = random.Random(f"{self.spec.name}/{self.seed}/{connection}")
        return self._blocks(rng, model, connection)
