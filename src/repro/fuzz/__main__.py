"""CLI for the differential fuzzer.

::

    PYTHONPATH=src python -m repro.fuzz --seed 0 --iterations 200
    PYTHONPATH=src python -m repro.fuzz --seed 7 --iterations 1000 \\
        --write-corpus --corpus tests/corpus

Exit status 0 when every configuration pair agreed on every case,
1 when any mismatch was found (repros written when requested).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fuzz.runner import DEFAULT_QUERIES_PER_WORLD, fuzz


def main(argv: list[str] | None = None) -> int:
    """Parse CLI arguments, run the fuzz loop, print a summary."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential plan-equivalence fuzzer.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument(
        "--queries-per-world",
        type=int,
        default=DEFAULT_QUERIES_PER_WORLD,
        help="queries drawn from each generated world",
    )
    parser.add_argument(
        "--corpus",
        default="tests/corpus",
        help="directory for failing repros (with --write-corpus)",
    )
    parser.add_argument(
        "--write-corpus",
        action="store_true",
        help="shrink failures and save them under --corpus",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimization of failing cases",
    )
    parser.add_argument(
        "--dml",
        action="store_true",
        help="run the DML-interleaved oracle: the same seeded write "
        "batch under every engine configuration must produce "
        "byte-identical transcripts (reads, counts, typed errors)",
    )
    parser.add_argument(
        "--ops-per-batch",
        type=int,
        default=None,
        help="DML statements per batch for --dml (default 8)",
    )
    parser.add_argument(
        "--crash",
        action="store_true",
        help="run the crash-recovery oracle: a seeded DML workload is "
        "killed at a seeded crash point, recovered from disk, and must "
        "byte-match a clean engine that executed exactly the "
        "acknowledged-commit prefix",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the oracle under seeded fault injection: every case "
        "must match the fault-free run or fail with a typed governor "
        "error",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help="transient-fault probability for --chaos (default 0.05)",
    )
    parser.add_argument(
        "--no-rewrites",
        action="store_true",
        help="run the whole sweep with the pre-memo rewrite stage "
        "disabled on the reference database (rewrite-ablation config)",
    )
    parser.add_argument(
        "--feedback",
        action="store_true",
        help="run the whole sweep with cardinality feedback enabled on "
        "the reference database (fed estimates and mid-query adaptive "
        "replans in every pair)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    log = (lambda message: None) if args.quiet else print
    started = time.perf_counter()
    if args.dml:
        from repro.fuzz.dml import DEFAULT_OPS_PER_BATCH, dml_fuzz

        stats = dml_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            ops_per_batch=(
                args.ops_per_batch
                if args.ops_per_batch is not None
                else DEFAULT_OPS_PER_BATCH
            ),
            shrink=not args.no_shrink,
            corpus_dir=args.corpus if args.write_corpus else None,
            log=log,
        )
        elapsed = time.perf_counter() - started
        print(
            f"{stats.iterations} DML cases ({stats.skipped} skipped), "
            f"{stats.pairs_run} configuration replays, "
            f"{stats.index_checks} index-equality checks, "
            f"{len(stats.mismatches)} mismatch(es) in {elapsed:.1f}s"
        )
        for mismatch in stats.mismatches:
            print(f"  {mismatch}")
        for path in stats.repro_paths:
            print(f"  repro: {path}")
        return 0 if stats.ok else 1
    if args.crash:
        from repro.fuzz.crash import crash_fuzz
        from repro.fuzz.dml import DEFAULT_OPS_PER_BATCH

        stats = crash_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            ops_per_batch=(
                args.ops_per_batch
                if args.ops_per_batch is not None
                else DEFAULT_OPS_PER_BATCH
            ),
            shrink=not args.no_shrink,
            corpus_dir=args.corpus if args.write_corpus else None,
            log=log,
        )
        elapsed = time.perf_counter() - started
        print(
            f"{stats.iterations} crash cases ({stats.skipped} skipped, "
            f"{stats.crashed} commit-point crashes), "
            f"{stats.replayed_commits} commits exercised, "
            f"{stats.index_checks} index-equality checks, "
            f"{len(stats.divergences)} divergence(s) in {elapsed:.1f}s"
        )
        for divergence in stats.divergences:
            print(f"  {divergence}")
        for path in stats.repro_paths:
            print(f"  repro: {path}")
        return 0 if stats.ok else 1
    if args.chaos:
        from repro.fuzz.chaos import DEFAULT_FAULT_RATE, chaos_fuzz

        stats = chaos_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            fault_rate=(
                args.fault_rate
                if args.fault_rate is not None
                else DEFAULT_FAULT_RATE
            ),
            queries_per_world=args.queries_per_world,
            corpus_dir=args.corpus if args.write_corpus else None,
            log=log,
        )
        elapsed = time.perf_counter() - started
        print(
            f"{stats.iterations} chaos cases ({stats.skipped} skipped): "
            f"{stats.matched} matched, {stats.typed_failures} typed "
            f"failure(s), {stats.degraded} degraded, "
            f"{len(stats.mismatches)} mismatch(es) in {elapsed:.1f}s"
        )
        for mismatch in stats.mismatches:
            print(f"  {mismatch}")
        for path in stats.repro_paths:
            print(f"  repro: {path}")
        return 0 if stats.ok else 1
    stats = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        queries_per_world=args.queries_per_world,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus if args.write_corpus else None,
        no_rewrites=args.no_rewrites,
        feedback=args.feedback,
        log=log,
    )
    elapsed = time.perf_counter() - started
    print(
        f"{stats.iterations} cases ({stats.skipped} skipped), "
        f"{stats.pairs_run} configuration pairs, "
        f"{len(stats.mismatches)} mismatch(es) in {elapsed:.1f}s"
    )
    for mismatch in stats.mismatches:
        print(f"  {mismatch}")
    for path in stats.repro_paths:
        print(f"  repro: {path}")
    return 0 if stats.ok else 1


if __name__ == "__main__":
    sys.exit(main())
