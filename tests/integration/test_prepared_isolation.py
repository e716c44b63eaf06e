"""Concurrent executions sharing one cache entry must not cross-contaminate.

A cached plan is an immutable template: every statement of its shape runs
the *same* plan object, and the constants travel beside it in the
statement's ``consts``.  Nothing per-statement may therefore live on the
plan.  These tests hammer one entry from several threads — through a
prepared query and through literal texts recognised by their digest — and
check (a) every thread always gets the rows (and the EXPLAIN text) its
own constant selects, and (b) the cached plan is bit-identical afterwards.
"""

import threading

from repro.engine.tuples import row_key

Q_PREPARED = "SELECT * FROM City c IN Cities WHERE c.mayor.name == $who"
Q_LITERAL = 'SELECT * FROM City c IN Cities WHERE c.mayor.name == "{who}"'

NAMES = ("Joe", "Fred", "Ann", "Mary")


def _bag(rows):
    keys = [row_key(r) for r in rows]
    return sorted(keys, key=repr)


class TestConcurrentRebinds:
    def test_threads_with_different_params_stay_isolated(self, fresh_db):
        expected = {
            who: _bag(fresh_db.query(Q_LITERAL.format(who=who),
                                     use_cache=False).rows)
            for who in NAMES
        }
        prepared = fresh_db.prepare(Q_PREPARED)
        # Warm the cache: one entry per spelling ($who / lifted literal).
        cached = (
            fresh_db.query(Q_LITERAL.format(who=NAMES[0])).plan,
            prepared.execute(who=NAMES[0]).plan,
        )
        snapshot = repr(cached)

        failures = []

        def hammer(who: str) -> None:
            try:
                for round_ in range(10):
                    if round_ % 2:
                        result = prepared.execute(who=who)
                    else:  # same entry, reached through the digest memo
                        result = fresh_db.query(Q_LITERAL.format(who=who))
                    if (
                        result.cache.outcome != "hit"
                        or result.plan is not cached[round_ % 2]
                    ):
                        failures.append(f"{who}: not served by the shared entry")
                        return
                    if _bag(result.rows) != expected[who]:
                        failures.append(
                            f"{who}: got rows for someone else's binding"
                        )
                        return
                    if f"{who!r} == c.mayor.name" not in result.explain():
                        failures.append(f"{who}: EXPLAIN shows another binding")
                        return
            except Exception as exc:  # noqa: BLE001 - worker thread: any
                # crash must be surfaced in the main thread's assertion
                failures.append(f"{who}: {exc!r}")

        threads = [
            threading.Thread(target=hammer, args=(who,)) for who in NAMES
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, "\n".join(failures)
        entries = fresh_db.plan_cache.entries()
        assert tuple(e.optimization.plan for e in entries) == cached
        assert repr(cached) == snapshot, "a statement mutated a cached plan"

    def test_statements_never_mutate_the_shared_template(self, fresh_db):
        prepared = fresh_db.prepare(Q_PREPARED)
        prepared.execute(who="Joe")
        (entry,) = fresh_db.plan_cache.entries()
        cached = entry.optimization.plan
        before = repr(cached)
        first = prepared.execute(who="Fred")
        second = prepared.execute(who="Ann")
        assert first.plan is second.plan is cached
        assert repr(cached) == before
        assert first.consts == ("Fred",) and second.consts == ("Ann",)
        # Each result still shows and answers for its own binding.
        assert "'Fred'" in first.explain() and "'Ann'" in second.explain()
        assert "'Ann'" not in first.explain()
