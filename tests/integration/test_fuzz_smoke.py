"""Quick in-process differential fuzz: fixed seeds, a few dozen cases.

This is the tier-1 guard against *new* divergences between the Volcano
search, the rule-restricted variants, the naive and greedy baselines,
and the plan-cache/prepared paths.  Seeds are fixed so the run is
deterministic; the nightly long-fuzz workflow covers fresh seeds at
scale.
"""

from repro.fuzz import fuzz


def test_fuzz_smoke_seed_2026():
    stats = fuzz(seed=2026, iterations=25, shrink=False)
    assert stats.iterations == 25
    assert stats.pairs_run > 150  # the oracle really exercised pairs
    assert stats.ok, "\n".join(str(m) for m in stats.mismatches)


def test_fuzz_smoke_seed_7():
    stats = fuzz(seed=7, iterations=15, shrink=False)
    assert stats.ok, "\n".join(str(m) for m in stats.mismatches)
