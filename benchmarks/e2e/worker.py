"""Runs one workload in this process and prints its result as one JSON line.

Started by ``run.py`` as a fresh child (``PYTHONHASHSEED=0``, GC left
on).  With ``--trace 0`` it sets the workload up several times, times
one untraced pass of ``--seconds`` and reports the end-to-end metrics;
with ``--trace 1`` it runs three passes over an identical, fixed op
prefix — untraced, traced, call-counted — each on a fresh set-up, and
reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import harness
import tracing
import workloads
from repro import Database, QueryResult
from repro.errors import WriteConflict
from repro.server import ServerClient
from workloads import READ, TXN

SETUPS = 5
RECOVERIES = 5
CHECKPOINT_EVERY = 200
CONNECTIONS = 2
# Share of ``--seconds`` the fixed-count passes of a traced run are sized to.
TRACE_SHARE = 0.3


class PassStats:
    """What one pass over the op stream observed (beyond latencies)."""

    def __init__(self) -> None:
        self.samples = harness.Samples()
        self.rows = 0
        self.reads = 0
        self.sim_io_ms = 0.0
        self.page_reads = 0
        self.buffer_hits = 0.0
        self.commits = 0
        self.conflicts = 0


class Embedded:
    """One set-up of an embedded workload: the process under test is us."""

    def __init__(self, spec, seed: int, plan, workdir: str) -> None:
        self.spec = spec
        self.db = workloads.build_database(spec, seed)
        self.directory = None
        if spec.durable:
            self.directory = os.path.join(tempfile.mkdtemp(dir=workdir), "db")
            self.db.enable_durability(
                self.directory, checkpoint_every=CHECKPOINT_EVERY
            )
        self.model = plan.model() if plan.cities else None
        self.ops = plan.ops(self.model)

    def execute(self, op):
        """Time one op; a transaction is timed begin to commit."""
        db = self.db
        clock = time.perf_counter
        if op.kind == TXN:
            started = clock()
            txn = db.begin()
            for text in op.text:
                result = db.query(text, transaction=txn)
            txn.commit()
            return clock() - started, result
        started = clock()
        result = db.query(op.text)
        return clock() - started, result

    def _record(self, op, elapsed, result, slice_index, checker, stats) -> None:
        """Check one result and note what it cost (outside the timed call)."""
        stats.samples.add(op.cls, elapsed, slice_index)
        if isinstance(result, QueryResult):
            checker.check(op, result.rows, None)
            stats.rows += len(result.rows)
            execution = result.execution
            if execution is not None and op.kind == READ:
                stats.reads += 1
                stats.sim_io_ms += execution.simulated_io_seconds * 1000.0
                stats.page_reads += execution.page_reads
                stats.buffer_hits += execution.buffer_hit_rate
        else:
            checker.check(op, None, result.affected)
        if op.kind != READ:
            stats.commits += 1

    def run(self, count, seconds, clock, checker, stats, tracer=None, counter=None):
        """Run ``count`` ops, or whole blocks until ``seconds`` have passed."""
        samples = stats.samples
        block = self.spec.block
        clock.open()
        pass_started = slice_started = time.perf_counter()
        busy = 0.0
        done = 0
        while True:
            op = next(self.ops)
            done += 1
            if tracer is not None:
                tracer.begin_statement(done)
            try:
                if counter is not None:
                    elapsed, result = counter.run(lambda: self.execute(op))
                else:
                    elapsed, result = self.execute(op)
            except Exception as exc:  # noqa: BLE001 — a failed statement is a counted outcome, not a crash
                stats.conflicts += isinstance(exc, WriteConflict)
                checker.raised(op, exc)
            else:
                self._record(op, elapsed, result, len(clock.scales), checker, stats)
                busy += elapsed
            now = time.perf_counter()
            if count is not None:
                finished = done >= count
            else:
                # Stop at the block boundary nearest to the deadline.
                spent = now - pass_started
                finished = (
                    done % block == 0
                    and spent + 0.5 * block * spent / done >= seconds
                )
            if finished or now - slice_started >= harness.SLICE_SECONDS:
                samples.slice_wall.append((len(clock.scales), busy))
                clock.close()
                busy = 0.0
                slice_started = time.perf_counter()
                if finished:
                    return

    def final_check(self, checker) -> None:
        if self.model is not None:
            rows = self.db.query(workloads.ALL_CITIES).rows
            checker.check_state("final state", rows, self.model.population)

    def recover(self, clock, checker, workdir: str) -> tuple[float, int]:
        """``Database.open`` on copies of the un-closed directory.

        The copy is taken after the last acknowledged commit and without
        ``close()``, so it holds exactly what a crash would leave: the
        newest checkpoint plus the log tail.  Every acknowledged commit
        must be there.
        """
        times = []
        for _ in range(RECOVERIES):
            copy = os.path.join(tempfile.mkdtemp(dir=workdir), "db")
            shutil.copytree(self.directory, copy)
            seconds, recovered = clock.timed(lambda: Database.open(copy))
            times.append(seconds)
            replayed = recovered.durability.last_recovery["replayed"]
            rows = recovered.query(workloads.ALL_CITIES).rows
            checker.check_state("after recovery", rows, self.model.population)
            recovered.close()
        return statistics.median(times), replayed

    def close(self) -> None:
        self.db.close()
        self.db = None


class Served:
    """One set-up of ``served_mix``: a server child and two connections."""

    def __init__(self, spec, seed: int, plan, workdir: str, trace: bool = False,
                 spans: bool = False) -> None:
        self.spec = spec
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.child = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), "--seed", str(seed),
             "--trace", str(int(trace)), "--spans", str(int(spans))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            port = json.loads(self.child.stdout.readline())["port"]
            self.clients = [
                ServerClient("127.0.0.1", port, connect_retries=5)
                for _ in range(CONNECTIONS)
            ]
        except BaseException:
            self.child.kill()
            self.child.wait()
            raise
        self.model = plan.model()
        self.streams = [
            plan.ops(self.model, connection) for connection in range(CONNECTIONS)
        ]
        self.report: dict = {}

    def _ask(self, command: str) -> dict:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())

    def mark(self) -> dict:
        """Have the child forget the warm-up; returns its counters so far."""
        return self._ask("mark")

    def run(self, count, seconds, clock, checker, stats, connections=CONNECTIONS):
        """``count`` ops per connection, or until ``seconds`` have passed.

        Both closed-loop connections are driven from this process with
        zero think time; checks wait until the slice is over.
        """
        samples = stats.samples
        clock.open()
        pass_started = time.perf_counter()
        remaining = [count] * connections  # None: run until the deadline

        def drive(index, deadline, out):
            client, ops = self.clients[index], self.streams[index]
            perf = time.perf_counter
            first = perf()
            while perf() < deadline and remaining[index] != 0:
                op = next(ops)
                started = perf()
                try:
                    payload = client.query(op.text)
                except Exception as exc:  # noqa: BLE001 — counted as a failed statement
                    payload = exc
                out.append((op, perf() - started, payload))
                if remaining[index] is not None:
                    remaining[index] -= 1
            out.append((first, perf()))

        finished = False
        with ThreadPoolExecutor(connections) as pool:
            while not finished:
                deadline = time.perf_counter() + harness.SLICE_SECONDS
                outs = [[] for _ in range(connections)]
                driven = [
                    pool.submit(drive, index, deadline, outs[index])
                    for index in range(connections)
                ]
                for future in driven:
                    future.result()  # a harness bug must not pass silently
                spans = [out.pop() for out in outs]
                wall = max(end for _, end in spans) - min(start for start, _ in spans)
                slice_index = len(clock.scales)
                samples.slice_wall.append((slice_index, wall))
                clock.close()
                for out in outs:
                    for op, elapsed, payload in out:
                        self._record(op, elapsed, payload, slice_index, checker, stats)
                if count is not None:
                    finished = not any(remaining)
                else:
                    finished = time.perf_counter() - pass_started >= seconds

    @staticmethod
    def _record(op, elapsed, payload, slice_index, checker, stats) -> None:
        if isinstance(payload, Exception):
            stats.conflicts += isinstance(payload, WriteConflict)
            checker.raised(op, payload)
            return
        stats.samples.add(op.cls, elapsed, slice_index)
        if "rows" in payload:
            checker.check(op, payload["rows"], None)
            stats.rows += len(payload["rows"])
        else:
            checker.check(op, None, payload["affected"])
            stats.commits += 1

    def final_check(self, checker) -> None:
        rows = self.clients[0].query(workloads.ALL_CITIES)["rows"]
        checker.check_state("final state", rows, self.model.population)

    def close(self) -> None:
        """Stop the child and wait for it; keeps its last report."""
        try:
            for client in self.clients:
                client.close()
            self.report = self._ask("stop")
        finally:
            self.child.stdin.close()
            try:
                self.child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()


def set_up(spec, seed, plan, workdir, checker, clock, **served_options):
    """A fresh target, warmed up through the same path as the timed ops
    (warm-up results are checked too)."""
    if spec.served:
        target = Served(spec, seed, plan, workdir, **served_options)
    else:
        target = Embedded(spec, seed, plan, workdir)
    try:
        target.run(spec.warmup, None, clock, checker, PassStats())
    except BaseException:
        target.close()
        raise
    return target


def run_untraced(spec, seed, seconds, plan, workdir, checker, clock):
    """``--trace 0``: several set-ups, one timed pass, the end-to-end metrics."""
    setups = []
    target = None
    for _ in range(SETUPS):
        if target is not None:
            target.close()
            target = None
            gc.collect()
        # The warm-up closes calibration slices of its own, so the set-up
        # is scaled by the median of every sample taken around and in it.
        before = len(clock.samples)
        clock.open()
        started = time.perf_counter()
        target = set_up(spec, seed, plan, workdir, checker, clock)
        raw = time.perf_counter() - started
        clock.open()
        around = clock.samples[before:]
        setups.append(raw * harness.REF_CALIB_MS / statistics.median(around))
    try:
        stats = PassStats()
        target.run(None, seconds, clock, checker, stats)
        target.final_check(checker)
        # Taken before the recovery check, whose five extra databases are
        # the harness's doing, not the workload's.
        rss = harness.peak_rss_mb()
        if spec.durable:
            target.recover(clock, checker, workdir)
    finally:
        target.close()
    summary = harness.latency_summary(stats.samples, clock.scales)
    if spec.served:
        rss = target.report["rss_mb"]
    metrics = {
        "setup_s": statistics.median(setups),
        "stmt_ms_mean": summary["stmt_ms_mean"],
        "stmt_ms_typ": summary["stmt_ms_typ"],
        "stmts_per_s": summary["stmts_per_s"],
        "peak_rss_mb": rss,
    }
    # How far to trust the run; printed beside its result, never gated.
    diagnostics = {
        **clock.diagnostics(),
        "harness.raw_stmt_ms_mean": summary["raw_stmt_ms_mean"],
        "statements": summary["statements"],
    }
    return metrics, diagnostics


def run_traced(spec, seed, seconds, plan, workdir, checker, clock, spans_path) -> dict:
    """``--trace 1``: untraced, traced and call-counted passes over one
    fixed op prefix, each on a fresh set-up; the per-layer metrics."""
    count = max(1, round(spec.nominal_rate * seconds * TRACE_SHARE / spec.block))
    count *= spec.block
    if spec.served:
        count //= CONNECTIONS
    metrics = dict.fromkeys(METRIC_NAMES, 0.0)
    gen2_before = gc.get_stats()[2]["collections"]

    # Pass A: untraced, the baseline the overhead ratio divides by.
    target = set_up(spec, seed, plan, workdir, checker, clock)
    try:
        plain = PassStats()
        target.run(count, None, clock, checker, plain)
        target.final_check(checker)
        if spec.durable:
            recover_s, replayed = target.recover(clock, checker, workdir)
            metrics["durability.recover_s"] = recover_s
            metrics["durability.recover_replayed"] = replayed
        if spec.served:
            # One connection over the same server, for the scaling ratio.
            single = PassStats()
            target.run(count // 2, None, clock, checker, single, connections=1)
    finally:
        target.close()
    base = harness.latency_summary(plain.samples, clock.scales)
    if spec.served:
        one = harness.latency_summary(single.samples, clock.scales)
        metrics["server.scaling_2c"] = base["stmts_per_s"] / one["stmts_per_s"]

    # Pass B: the same ops with every layer boundary wrapped.
    tracer = tracing.Tracer()
    traced = PassStats()
    if spec.served:
        target = set_up(spec, seed, plan, workdir, checker, clock, trace=True,
                        spans=spans_path is not None)
        try:
            cache_before = target.mark()["cache"]
            target.run(count, None, clock, checker, traced)
        finally:
            target.close()
        report = target.report
        layers, counts, cache_after = report["layers"], report["counts"], report["cache"]
        records = report.get("records", [])
    else:
        target = set_up(spec, seed, plan, workdir, checker, clock)
        try:
            cache_before = workloads.cache_counters(target.db)
            tracer.install()
            try:
                target.run(count, None, clock, checker, traced, tracer=tracer)
            finally:
                tracer.uninstall()
            cache_after = workloads.cache_counters(target.db)
        finally:
            target.close()
        layers, counts, records = tracer.summary(), tracer.counts, tracer.records
    with_trace = harness.latency_summary(traced.samples, clock.scales)

    # Pass C: a quarter of the ops under sys.setprofile (embedded only).
    if not spec.served:
        counter = tracing.CallCounter()
        target = set_up(spec, seed, plan, workdir, checker, clock)
        try:
            quarter = max(1, count // 4)
            target.run(quarter, None, clock, checker, PassStats(), counter=counter)
        finally:
            target.close()
        metrics["api.py_calls_per_stmt"] = counter.calls / quarter

    n = len(traced.samples)
    # Span times are raw; bring them to reference speed with the traced
    # pass's own (latency-weighted) scale.
    scale = with_trace["stmt_ms_mean"] / with_trace["raw_stmt_ms_mean"]

    def self_ms(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0) * 1000.0 * scale / n

    for metric, span in SPAN_METRICS.items():
        metrics[metric] = self_ms(span)
    hits, misses, evictions = (
        cache_after[key] - cache_before[key]
        for key in ("hits", "misses", "evictions")
    )
    if hits + misses:
        metrics["cache.hit_ratio"] = hits / (hits + misses)
    metrics["cache.evictions"] = evictions
    if counts.get("optimizer.runs"):
        metrics["optimizer.memo_groups_per_stmt"] = (
            counts["optimizer.memo_groups"] / counts["optimizer.runs"]
        )
    statement_ms = with_trace["stmt_ms_mean"]
    metrics["optimizer.share"] = (
        sum(self_ms(name) for name in tracing.OPTIMIZER_SIDE) / statement_ms
    )
    execute_s = layers.get("engine.execute", {}).get("self", 0.0) * scale
    metrics["engine.rows_per_stmt"] = traced.rows / n
    if execute_s:
        metrics["engine.rows_per_s"] = traced.rows / execute_s
        metrics["storage.scan_objects_per_s"] = (
            counts.get("storage.objects", 0) / execute_s
        )
    metrics["storage.objects_scanned_per_stmt"] = counts.get("storage.objects", 0) / n
    if counts.get("storage.views"):
        metrics["storage.versioned_read_share"] = (
            counts.get("storage.versioned_views", 0) / counts["storage.views"]
        )
    metrics["storage.write_conflicts"] = traced.conflicts
    if plain.reads:
        metrics["storage.buffer_hit_ratio"] = plain.buffer_hits / plain.reads
        metrics["storage.sim_io_ms_per_stmt"] = plain.sim_io_ms / plain.reads
        metrics["storage.page_reads_per_stmt"] = plain.page_reads / plain.reads
    if traced.commits:
        wal = counts.get("durability.wal_bytes", 0)
        checkpoint_bytes = counts.get("durability.checkpoint_bytes", 0)
        metrics["durability.wal_bytes_per_commit"] = wal / traced.commits
        metrics["durability.log_bytes_per_commit"] = (
            wal + checkpoint_bytes
        ) / traced.commits
        metrics["durability.checkpoint_bytes"] = checkpoint_bytes
    checkpoints = layers.get("durability.checkpoint")
    if checkpoints:
        metrics["durability.checkpoints"] = checkpoints["calls"]
        metrics["durability.checkpoint_ms_mean"] = (
            checkpoints["total"] / checkpoints["calls"] * 1000.0 * scale
        )
        metrics["durability.checkpoint_ms_max"] = checkpoints["max"] * 1000.0 * scale
    if spec.served:
        handled = layers["server.handle"]["total"] * 1000.0 * scale / n
        metrics["server.rtt_overhead_ms"] = statement_ms - handled

    metrics["api.stmt_ms_p95"] = base["p95"]
    metrics["api.stmt_ms_p99"] = base["p99"]
    metrics["api.read_ms_typ"] = harness.typ(base["class_ms"], spec.read_classes)
    metrics["api.write_ms_typ"] = harness.typ(base["class_ms"], spec.write_classes)
    for cls, value in base["class_ms"].items():
        metrics[f"api.class_ms.{cls}"] = value
    metrics.update(clock.diagnostics())
    metrics["harness.raw_stmt_ms_mean"] = base["raw_stmt_ms_mean"]
    metrics["harness.gc_gen2_collections"] = (
        gc.get_stats()[2]["collections"] - gen2_before
    )
    metrics["harness.trace_overhead_ratio"] = (
        with_trace["stmt_ms_mean"] / base["stmt_ms_mean"]
    )
    if spans_path is not None:
        Path(spans_path).write_text(json.dumps({
            "workload": spec.name,
            "columns": ["id", "name", "parent", "statement", "start", "end"],
            "spans": records,
        }))
    return metrics


#: Per-statement self-time metrics and the span each is the self time of.
SPAN_METRICS = {
    "lang.parse_ms": "lang.parse",
    "cache.parameterize_ms": "cache.parameterize",
    "cache.lookup_ms": "cache.lookup",
    "cache.rebind_ms": "cache.rebind",
    "simplify.ms": "simplify",
    "optimizer.rewrite_ms": "optimizer.rewrite",
    "optimizer.search_ms": "optimizer.search",
    "engine.execute_ms": "engine.execute",
    "engine.materialise_ms": "engine.materialise",
    "storage.view_ms": "storage.view",
    "storage.commit_ms": "storage.commit",
    "durability.log_commit_ms": "durability.log_commit",
    "durability.wal_append_ms": "durability.wal_append",
    "governor.admission_wait_ms": "governor.admission_wait",
    "server.handle_ms": "server.handle",
    "server.codec_ms": "server.codec",
    "api.query_self_ms": "api.query",
}

#: Every per-layer metric, reported (0 where a layer is not on the path)
#: by every workload.  ``BENCHMARK.json`` lists the same names with units.
METRIC_NAMES = (
    *SPAN_METRICS,
    "cache.hit_ratio", "cache.evictions",
    "optimizer.memo_groups_per_stmt", "optimizer.share",
    "engine.rows_per_stmt", "engine.rows_per_s",
    "storage.objects_scanned_per_stmt", "storage.scan_objects_per_s",
    "storage.buffer_hit_ratio", "storage.versioned_read_share",
    "storage.write_conflicts", "storage.sim_io_ms_per_stmt",
    "storage.page_reads_per_stmt",
    "durability.wal_bytes_per_commit", "durability.log_bytes_per_commit",
    "durability.checkpoints", "durability.checkpoint_ms_mean",
    "durability.checkpoint_ms_max", "durability.checkpoint_bytes",
    "durability.recover_replayed", "durability.recover_s",
    "server.rtt_overhead_ms", "server.scaling_2c",
    "api.py_calls_per_stmt", "api.stmt_ms_p95", "api.stmt_ms_p99",
    "api.read_ms_typ", "api.write_ms_typ",
    *(f"api.class_ms.{cls}" for cls in workloads.ALL_CLASSES),
    "harness.calib_ms", "harness.calib_spread", "harness.raw_stmt_ms_mean",
    "harness.gc_gen2_collections", "harness.trace_overhead_ratio",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced pass's raw spans here")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="(re)write expected/<workload>-seed<seed>.json from the reference run",
    )
    args = parser.parse_args(argv)

    spec = workloads.SPECS[args.workload]
    reference = workloads.Reference(spec, args.seed)
    if args.write_expected:
        reference.golden = {}
    plan = workloads.Plan(spec, args.seed, reference)
    if args.write_expected:
        path = workloads.EXPECTED_DIR / f"{spec.name}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference.computed, indent=0, sort_keys=True) + "\n")
        return 0
    reference.release()
    gc.collect()

    checker = workloads.Checker(reference)
    clock = harness.Clock()
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    diagnostics = {}
    try:
        if args.trace:
            metrics = run_traced(
                spec, args.seed, args.seconds, plan, workdir, checker, clock,
                args.spans,
            )
        else:
            metrics, diagnostics = run_untraced(
                spec, args.seed, args.seconds, plan, workdir, checker, clock
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "errors": checker.errors,
        "diagnostics": diagnostics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
