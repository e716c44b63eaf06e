"""An interactive ZQL shell over the sample database.

Run with ``python -m repro`` (options: ``--scale``, ``--seed``).

Dot-commands:

===================  ====================================================
``.help``            this text
``.catalog``         Table 1 style catalog dump
``.indexes``         list indexes
``.index NAME COLLECTION path.to.attr``   create an index
``.drop NAME``       drop an index
``.analyze COLLECTION``                   build histograms/MCVs
``.explain QUERY``   show the plan without executing
``.explain analyze QUERY``   execute with per-operator instrumentation:
                     estimated vs actual rows, next() time, buffer
                     hits/misses, and the search's enforcer events
``.trace QUERY``     show the goal-directed search states (Figure 11)
                     plus a traced-event summary (rules, prunes,
                     enforcers, warnings)
``.validate``        cost-formula vs simulator micro-experiments
``.cache``           plan-cache entries and counters
``.cache clear``     drop every cached plan ( .cache on / off toggles use )
``.feedback``        observed-cardinality feedback store: entries and
                     counters ( .feedback on / off toggles the loop for
                     subsequent queries; .feedback clear drops the
                     observations )
``.prepare NAME QUERY``   prepare a query with $params for reuse
``.exec NAME p=v ...``    execute a prepared query with bound values
``.rules``           list togglable rule names
``.disable NAME``    disable a rule for the session ( .enable to undo )
``.timeout MS``      deadline for subsequent queries, in milliseconds;
                     queries over it fail with QueryTimeout
                     ( .timeout off clears; bare .timeout shows it )
``.memory BYTES``    per-query operator memory budget; sorts and hash
                     joins beyond it spill to temp segments
                     ( .memory off clears; bare .memory shows it )
``.chaos SEED``      seeded fault injection (transient read errors,
                     latency spikes, corrupt indexes) for subsequent
                     queries ( .chaos off clears; bare .chaos shows it )
``.begin``           open a transaction: subsequent queries see its
                     snapshot (plus its own writes); DML buffers into it
``.commit``          commit the open transaction; a concurrent write to
                     the same object reports a write conflict and rolls
                     back (first committer wins)
``.rollback``        discard the open transaction's writes
``.durability DIR``  make the database durable in DIR: write-ahead log
                     every commit, checkpoint on ``.checkpoint`` and
                     exit; reopen later with ``python -m repro --open
                     DIR`` ( bare .durability shows status )
``.checkpoint``      write a checkpoint now and truncate the log
``.server start [PORT]``   serve this database over TCP (JSON-line
                     protocol, one session per connection; port 0 picks
                     a free port).  ``.server stop`` drains and stops;
                     bare ``.server`` shows the address
``.sessions``        list the server's live sessions
``.quit``            leave
===================  ====================================================

Anything else is parsed as a ZQL statement (query or INSERT/UPDATE/
DELETE), optimized, executed, and printed with its plan and simulated
I/O cost.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Database
from repro.engine.dml import DmlResult
from repro.engine.tuples import Obj
from repro.errors import ReproError, WriteConflict
from repro.obs.tracer import Tracer, search_states
from repro.optimizer import OptimizerConfig
from repro.optimizer.config import (
    ALL_IMPLEMENTATIONS,
    ALL_REWRITES,
    ALL_TRANSFORMATIONS,
    ASSEMBLY_ENFORCER,
    SORT_ENFORCER,
)

_PROMPT = "zql> "
#: Every rule name ``.rules`` lists and ``.disable`` / ``.enable`` accept.
_RULES = (
    ALL_REWRITES
    + ALL_TRANSFORMATIONS
    + ALL_IMPLEMENTATIONS
    + (ASSEMBLY_ENFORCER, SORT_ENFORCER)
)
_MAX_ROWS = 20


class Shell:
    """The interactive loop: dot-commands plus ZQL query execution.

    ``out`` redirects everything the shell prints; the serving tier runs
    one Shell per remote session with a per-request buffer, so the TCP
    protocol and the terminal share one command surface.
    """

    def __init__(self, db: Database, out=None) -> None:
        self.db = db
        self.out = out
        # The session's optimizer configuration: the database's, with the
        # rule toggles (.disable / .enable) and .feedback on/off applied.
        self.config: OptimizerConfig = db.config
        self.prepared: dict[str, object] = {}
        # Session resource limits (None = unlimited), applied to every
        # subsequent query via the governor's $-options.
        self.timeout_ms: float | None = None
        self.memory_bytes: int | None = None
        self.chaos_seed: int | None = None
        # Open transaction (None = auto-commit) and embedded server.
        self.transaction = None
        self.server = None

    def echo(self, *args, **kwargs) -> None:
        """`print` onto the shell's output stream.

        ``sys.stdout`` is resolved at call time (not construction) so
        output-capturing wrappers like ``contextlib.redirect_stdout``
        keep working for terminal shells.
        """
        print(*args, file=self.out if self.out is not None else sys.stdout, **kwargs)

    # ------------------------------------------------------------------

    def run(self, stream=sys.stdin, interactive: bool = True) -> None:
        """Read-eval-print until EOF or ``.quit``."""
        if interactive:
            self.echo("Open OODB query optimizer shell — .help for commands")
        while True:
            if interactive:
                self.echo(_PROMPT, end="", flush=True)
            line = stream.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            if line in (".quit", ".exit"):
                break
            try:
                self.dispatch(line)
            except ReproError as exc:
                self.echo(f"error: {exc}")
        self._shutdown()

    def _shutdown(self) -> None:
        """Roll back any open transaction and stop an embedded server."""
        if self.transaction is not None:
            self.transaction.rollback()
            self.transaction = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        # A durable database checkpoints on the way out, so restart
        # recovery replays nothing.
        self.db.close()

    def dispatch(self, line: str) -> None:
        """Route one input line to a dot-command or the query pipeline."""
        if line.startswith("."):
            self._command(line)
        else:
            self._print_result(self.statement(line))

    # ------------------------------------------------------------------

    def _command(self, line: str) -> None:
        parts = line.split()
        command, args = parts[0], parts[1:]
        if command == ".help":
            self.echo(__doc__)
        elif command == ".catalog":
            self.echo(self.db.catalog.describe())
        elif command == ".indexes":
            for index in self.db.catalog.indexes():
                self.echo(f"  {index.name}: {index.describe()}")
        elif command == ".index" and len(args) == 3:
            name, collection, path = args
            self.db.create_index(name, collection, tuple(path.split(".")))
            self.echo(f"created {name}")
        elif command == ".drop" and len(args) == 1:
            self.db.drop_index(args[0])
            self.echo(f"dropped {args[0]}")
        elif command == ".analyze" and len(args) == 1:
            analyzed = self.db.analyze(args[0])
            self.echo(f"analyzed {args[0]}: {', '.join(analyzed)}")
        elif command == ".explain":
            rest = line[len(".explain") :].strip()
            if rest.startswith("analyze ") or rest == "analyze":
                query = rest[len("analyze") :].strip()
                self.echo(self.db.explain(query, config=self.config, analyze=True))
            else:
                self.echo(self.db.explain(rest, config=self.config, costs=True))
        elif command == ".trace":
            rest = line[len(".trace") :].strip()
            self._trace(rest)
        elif command == ".validate":
            from repro.optimizer.calibration import CostModelValidator

            if self.db.store is None:
                self.echo("error: no populated store")
                return
            for row in CostModelValidator(self.db.store).validate_all():
                self.echo(
                    f"  {row.operation:34} formula {row.predicted_io_s:7.3f}s"
                    f"  simulated {row.simulated_io_s:7.3f}s"
                    f"  ratio {row.ratio:5.2f}x"
                )
        elif command == ".cache":
            if args == ["clear"]:
                self.db.plan_cache.clear()
                self.echo("plan cache cleared")
            elif args == ["off"]:
                self.db.cache_plans = False
                self.echo("plan cache disabled")
            elif args == ["on"]:
                self.db.cache_plans = True
                self.echo("plan cache enabled")
            else:
                self.echo(self.db.plan_cache.describe())
        elif command == ".feedback":
            if args == ["clear"]:
                self.db.feedback.clear()
                self.echo("feedback store cleared")
            elif args == ["off"]:
                self.config = self.config.with_feedback(False)
                self.echo("feedback disabled")
            elif args == ["on"]:
                self.config = self.config.with_feedback(True)
                self.echo("feedback enabled")
            else:
                self.echo(self.db.feedback.describe())
        elif command == ".prepare" and len(args) >= 2:
            name = args[0]
            text = line[len(".prepare") :].strip()[len(name) :].strip()
            prepared = self.db.prepare(text, config=self.config)
            self.prepared[name] = prepared
            params = ", ".join(f"${p}" for p in prepared.param_names)
            self.echo(f"prepared {name} ({params or 'no parameters'})")
        elif command == ".exec" and len(args) >= 1:
            prepared = self.prepared.get(args[0])
            if prepared is None:
                self.echo(f"error: no prepared query {args[0]!r}; use .prepare first")
                return
            bindings = dict(self._parse_binding(arg) for arg in args[1:])
            self._print_result(prepared.execute(**bindings))
        elif command == ".rules":
            for name in _RULES:
                marker = "" if self.config.is_enabled(name) else " (disabled)"
                self.echo(f"  {name}{marker}")
        elif command in (".disable", ".enable") and len(args) == 1:
            name = args[0]
            if name not in _RULES:
                self.echo(
                    f"error: unknown rule {name!r}; known rules: {', '.join(_RULES)}"
                )
            elif command == ".disable":
                self.config = self.config.without(name)
                self.echo(f"disabled {name}")
            else:
                self.config = self.config.with_rules(name)
                self.echo(f"enabled {name}")
        elif command == ".timeout" and len(args) <= 1:
            self.timeout_ms = self._limit(
                args, self.timeout_ms, "timeout", float, "ms"
            )
        elif command == ".memory" and len(args) <= 1:
            self.memory_bytes = self._limit(
                args, self.memory_bytes, "memory budget", int, "bytes"
            )
        elif command == ".chaos" and len(args) <= 1:
            self.chaos_seed = self._limit(
                args, self.chaos_seed, "chaos seed", int, ""
            )
        elif command == ".begin" and not args:
            if self.transaction is not None:
                self.echo("error: a transaction is already open")
                return
            self.transaction = self.db.begin()
            self.echo(f"begin (snapshot csn {self.transaction.snapshot})")
        elif command == ".commit" and not args:
            if self.transaction is None:
                self.echo("error: no open transaction")
                return
            # Commit rolls the transaction back itself on WriteConflict;
            # the conflict propagates as a typed error (the interactive
            # loop prints it, the serving tier encodes it).
            txn, self.transaction = self.transaction, None
            csn = txn.commit()
            self.echo(f"committed at csn {csn}")
        elif command == ".rollback" and not args:
            if self.transaction is None:
                self.echo("error: no open transaction")
                return
            self.transaction.rollback()
            self.transaction = None
            self.echo("rolled back")
        elif command == ".durability" and len(args) <= 1:
            if not args:
                if self.db.durability is None:
                    self.echo("durability: off")
                else:
                    status = self.db.durability.status()
                    self.echo(
                        f"durability: on ({status['directory']}), csn "
                        f"{status['csn']}, {status['commits_since_checkpoint']}"
                        " commit(s) since last checkpoint"
                    )
                    if status["last_recovery"] is not None:
                        rec = status["last_recovery"]
                        self.echo(
                            f"  recovered from checkpoint csn "
                            f"{rec['checkpoint_csn']}, replayed "
                            f"{rec['replayed']} log record(s)"
                        )
                return
            if self.db.durability is not None:
                self.echo("error: durability already enabled")
                return
            self.db.enable_durability(args[0])
            self.echo(f"durability enabled in {args[0]}")
        elif command == ".checkpoint" and not args:
            if self.db.durability is None:
                self.echo("error: durability not enabled; use .durability DIR")
                return
            csn = self.db.checkpoint()
            self.echo(f"checkpoint written at csn {csn}")
        elif command == ".server":
            self._server_command(args)
        elif command == ".sessions" and not args:
            if self.server is None:
                self.echo("server not running; use .server start")
                return
            sessions = self.server.session_info()
            self.echo(f"{len(sessions)} session(s)")
            for info in sessions:
                self.echo(f"  {info}")
        else:
            self.echo(f"unknown command {line!r}; try .help")

    def _server_command(self, args: list[str]) -> None:
        """``.server start [PORT]`` / ``.server stop`` / bare ``.server``."""
        from repro.server import DatabaseServer

        if not args:
            if self.server is None:
                self.echo("server not running")
            else:
                host, port = self.server.address
                self.echo(f"serving on {host}:{port}")
            return
        if args[0] == "start":
            if self.server is not None:
                host, port = self.server.address
                self.echo(f"error: already serving on {host}:{port}")
                return
            port = 0
            if len(args) > 1:
                try:
                    port = int(args[1])
                except ValueError:
                    self.echo(f"error: expected a port, got {args[1]!r}")
                    return
            self.server = DatabaseServer(self.db, port=port)
            host, port = self.server.start()
            self.echo(f"serving on {host}:{port}")
        elif args[0] == "stop":
            if self.server is None:
                self.echo("error: server not running")
                return
            self.server.stop()
            self.server = None
            self.echo("server stopped")
        else:
            self.echo(f"error: expected start/stop, got {args[0]!r}")

    def _limit(self, args, current, label, parse, unit):
        """Shared show/set/clear handling for .timeout/.memory/.chaos."""
        if not args:
            shown = "off" if current is None else f"{current:g} {unit}".strip()
            self.echo(f"{label}: {shown}")
            return current
        if args[0] in ("off", "none"):
            self.echo(f"{label} cleared")
            return None
        try:
            value = parse(args[0])
        except ValueError:
            self.echo(f"error: expected a number, got {args[0]!r}")
            return current
        if value <= 0 and label != "chaos seed":
            self.echo(f"error: {label} must be positive")
            return current
        self.echo(f"{label} set to {value:g} {unit}".rstrip())
        return value

    def _trace(self, text: str) -> None:
        """Optimize ``text`` with an enabled tracer and print the trace.

        Search states first (the paper's Figure 11 view), then the
        structured events: a per-category summary with the rare,
        decision-revealing ones (prunes, enforcers, warnings) in full.
        The tracer is also attached to the database for the duration, so
        library warnings that would otherwise be invisible route here.
        """
        tracer = Tracer()
        previous = self.db.tracer
        self.db.tracer = tracer
        try:
            result = self.db.optimize(text, config=self.config, tracer=tracer)
        finally:
            self.db.tracer = previous
        for entry in search_states(result.trace_events):
            self.echo(f"  {entry}")
        counts = tracer.counts()
        summary = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
        self.echo(f"-- {len(tracer.events)} events ({summary}) --")
        for event in tracer.events:
            if event.category in ("prune", "enforcer", "warning", "phase"):
                self.echo(f"  {event.format()}")

    def _options(self) -> dict | None:
        """The session's resource limits as `Database.query` $-options."""
        options: dict = {}
        if self.timeout_ms is not None:
            options["$timeout"] = self.timeout_ms
        if self.memory_bytes is not None:
            options["$memory"] = self.memory_bytes
        if self.chaos_seed is not None:
            options["$chaos"] = self.chaos_seed
        return options or None

    def statement(self, text: str):
        """Run one statement under this shell's config, limits and open
        transaction (the shell's and a server session's one path).

        An eager write-write conflict (detected at write time,
        mid-statement) rolls the transaction back inside the storage
        layer; keeping the dead handle would make every later statement
        fail with ``TransactionError``, so the shell drops it — and says
        so — as part of reporting the conflict.
        """
        try:
            return self.db.query(
                text,
                config=self.config,
                options=self._options(),
                transaction=self.transaction,
            )
        except WriteConflict:
            if self.transaction is not None and self.transaction.status != "active":
                self.transaction = None
                self.echo("open transaction rolled back by write-write conflict")
            raise

    def _print_result(self, result) -> None:
        """Render one result: DML summary, or plan + rows + I/O summary."""
        if isinstance(result, DmlResult):
            suffix = (
                f" (committed at csn {result.csn})"
                if result.csn is not None
                else " (buffered in open transaction)"
            )
            self.echo(f"{result.operation}: {result.affected} object(s){suffix}")
            return
        self.echo(result.explain(costs=True))
        for row in result.rows[:_MAX_ROWS]:
            self.echo("  " + self._format_row(row))
        remaining = len(result.rows) - _MAX_ROWS
        if remaining > 0:
            self.echo(f"  ... {remaining} more rows")
        if result.execution is not None:
            spill = ""
            if result.execution.spill_page_writes:
                spill = (
                    f", spilled {result.execution.spill_page_writes} pages"
                )
            self.echo(
                f"-- {len(result.rows)} rows, simulated I/O "
                f"{result.execution.simulated_io_seconds:.3f}s, "
                f"{result.execution.page_reads} page reads, wall "
                f"{result.execution.wall_seconds * 1000:.1f} ms{spill}"
            )
        if result.governor is not None and result.governor.degraded:
            reasons = ", ".join(dict.fromkeys(result.governor.degraded))
            self.echo(f"-- degraded: {reasons}")
        if result.cache is not None:
            saved = (
                f", saved {result.cache.saved_seconds * 1000:.1f} ms"
                if result.cache.hit
                else ""
            )
            self.echo(
                f"-- plan cache: {result.cache.outcome} "
                f"(catalog v{result.cache.catalog_version}{saved})"
            )

    @staticmethod
    def _parse_binding(text: str) -> tuple[str, object]:
        """``name=value`` → (name, value) with int/float/str coercion."""
        name, sep, raw = text.partition("=")
        if not sep or not name:
            raise ReproError(f"expected name=value, got {text!r}")
        value: object
        if len(raw) >= 2 and raw[0] in "\"'" and raw[-1] == raw[0]:
            value = raw[1:-1]
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        return name, value

    @staticmethod
    def _format_row(row: dict) -> str:
        parts = []
        for name, value in row.items():
            if isinstance(value, Obj):
                label = value.field("name") if value.resident and "name" in (
                    value.data or {}
                ) else value.oid
                parts.append(f"{name}={label}")
            else:
                parts.append(f"{name}={value}")
        return ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Open OODB query optimizer shell"
    )
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=20130526)
    parser.add_argument(
        "--open",
        metavar="DIR",
        help="open (and recover) a durable database directory",
    )
    parser.add_argument(
        "-c", "--command", help="run one query/command and exit"
    )
    options = parser.parse_args(argv)
    if options.open:
        print(f"recovering durable database from {options.open} ...")
        try:
            db = Database.open(options.open)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        recovery = db.durability.last_recovery or {}
        print(
            f"recovered: checkpoint csn {recovery.get('checkpoint_csn', 0)}, "
            f"replayed {recovery.get('replayed', 0)} log record(s)"
        )
    else:
        print(f"loading Table 1 sample database (scale {options.scale}) ...")
        db = Database.sample(scale=options.scale, seed=options.seed)
    shell = Shell(db)
    try:
        if options.command:
            try:
                shell.dispatch(options.command)
            finally:
                shell._shutdown()
        else:
            shell.run()
    except ReproError as exc:
        # One-shot (-c) commands bypass the shell loop's error handling;
        # report the failure and exit nonzero instead of dying with a
        # traceback (interactive runs are handled inside Shell.run).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; normal exit.
        try:
            sys.stdout.close()
        except OSError as exc:
            # Closing an already-broken pipe may fail again; stdout is
            # gone, so say so on stderr rather than swallowing it.
            print(f"warning: could not close stdout: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
