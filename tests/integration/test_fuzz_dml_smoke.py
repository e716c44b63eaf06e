"""Quick in-process DML-interleaved differential fuzz with fixed seeds.

Each case applies one seeded batch of INSERT/UPDATE/DELETE statements
(some grouped into explicit transactions) to fresh builds of the same
generated world under every engine configuration — cache off,
restricted rule sets — and requires byte-identical transcripts:
per-statement affected counts, typed error names, commit CSNs, and
totally-ordered reads after every commit.  Fixed seeds keep tier-1
deterministic; the nightly soak covers fresh seeds at scale.
"""

from repro.fuzz.dml import DML_CONFIGS, dml_fuzz


def test_dml_fuzz_smoke_seed_11():
    stats = dml_fuzz(seed=11, iterations=8, shrink=False)
    assert stats.iterations == 8
    # Every non-skipped case replayed under every configuration.
    assert stats.pairs_run >= (stats.iterations - stats.skipped) * len(
        DML_CONFIGS
    )
    assert stats.ok, "\n".join(str(m) for m in stats.mismatches)


def test_dml_fuzz_smoke_seed_42():
    stats = dml_fuzz(seed=42, iterations=6, shrink=False)
    assert stats.ok, "\n".join(str(m) for m in stats.mismatches)
