#!/usr/bin/env python3
"""Prepared queries and the plan cache: optimize once, execute many times.

Run with:  python examples/prepared_queries.py [scale]

Shows the three layers of plan reuse:

1. transparent caching — identical query shapes with different constants
   share one optimized plan automatically;
2. prepared queries — ``db.prepare`` with ``$params`` for explicit reuse
   plus parameter validation;
3. catalog versioning — index DDL invalidates affected plans, so the
   next execution re-optimizes against the indexes that exist.
"""

import sys

from repro import Database
from repro.errors import ParameterBindingError


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Building the Table 1 sample database at scale {scale} ...")
    db = Database.sample(scale=scale)
    print()

    # --- 1. Transparent caching --------------------------------------
    # The second query differs only in its constant: same digest, same
    # fingerprint, so it is neither parsed nor optimized again — the
    # cached plan runs as it is, with this statement's constant beside it.
    for name in ("Joe", "Fred"):
        result = db.query(
            f'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{name}"'
        )
        print(
            f"mayor == {name!r}: {len(result.rows)} rows, "
            f"cache {result.cache.outcome}"
        )
    print(f"  {db.plan_cache.stats.describe()}")
    print()

    # --- 2. Prepared queries -----------------------------------------
    prepared = db.prepare(
        "SELECT * FROM City c IN Cities WHERE c.mayor.name == $who"
    )
    print(f"prepared query parameters: {prepared.param_names}")
    for who in ("Joe", "Fred", "Harry"):
        result = prepared.execute(who=who)
        print(f"  who={who!r}: {len(result.rows)} rows, cache {result.cache.outcome}")

    # Bindings are validated before anything runs.
    try:
        prepared.execute()
    except ParameterBindingError as exc:
        print(f"  missing binding -> {exc}")
    try:
        prepared.execute(who=["Joe"])
    except ParameterBindingError as exc:
        print(f"  bad type       -> {exc}")
    print()

    # --- 3. Catalog versioning ---------------------------------------
    # Creating an index bumps the catalog version: the cached sequential
    # plan is invalidated and the next execution picks the index scan.
    db.create_index("ix_cities_mayor_name", "Cities", ("mayor", "name"))
    result = prepared.execute(who="Joe")
    print(f"after create_index: cache {result.cache.outcome}; plan:")
    print(result.explain())
    print()

    # The plan is a template shared by every binding; `explain` shows it
    # with the constants of the statement that asked.
    result = prepared.execute(who="Fred")
    print(f"who='Fred': cache {result.cache.outcome}, consts {result.consts}; plan:")
    print(result.explain())
    print()

    # Dropping the index moves the catalog version again: the index plan
    # is invalidated, never run against an index that is gone.
    db.drop_index("ix_cities_mayor_name")
    result = prepared.execute(who="Joe")
    print(f"after drop_index: cache {result.cache.outcome}; plan:")
    print(result.explain())
    print()
    print(db.plan_cache.describe())


if __name__ == "__main__":
    main()
