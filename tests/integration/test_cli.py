"""Integration tests for the interactive shell (driven via a Shell object)."""

import io

import pytest

from repro.cli import Shell


@pytest.fixture()
def shell(fresh_db) -> Shell:
    return Shell(fresh_db)


def run_lines(shell: Shell, *lines: str) -> str:
    """Feed lines to the shell, capturing stdout."""
    import contextlib

    out = io.StringIO()
    stream = io.StringIO("\n".join(lines) + "\n")
    with contextlib.redirect_stdout(out):
        shell.run(stream, interactive=False)
    return out.getvalue()


class TestCommands:
    def test_catalog(self, shell):
        output = run_lines(shell, ".catalog")
        assert "Cities" in output

    def test_help(self, shell):
        assert ".analyze" in run_lines(shell, ".help")

    def test_index_lifecycle(self, shell):
        output = run_lines(
            shell,
            ".index ixm Cities mayor.name",
            ".indexes",
            ".drop ixm",
            ".indexes",
        )
        assert "created ixm" in output
        assert "Cities on mayor.name" in output
        assert "dropped ixm" in output

    def test_analyze(self, shell):
        output = run_lines(shell, ".analyze Cities")
        assert "analyzed Cities" in output

    def test_explain_does_not_execute(self, shell):
        output = run_lines(
            shell, ".explain SELECT * FROM c IN Cities WHERE c.name == 'x'"
        )
        assert "File Scan Cities" in output
        assert "simulated I/O" not in output  # no execution summary

    def test_rules_listing_and_toggle(self, shell):
        output = run_lines(
            shell, ".disable collapse-to-index-scan", ".rules"
        )
        assert "collapse-to-index-scan (disabled)" in output
        output = run_lines(shell, ".enable collapse-to-index-scan", ".rules")
        assert "collapse-to-index-scan\n" in output

    def test_rule_toggles_act_on_the_sessions_config(self, shell):
        """The shell starts from the database's config: a rule that is off
        by default lists as disabled and is enabled for real, the rewrite
        rules are listed, and an unknown name is rejected."""
        from repro.optimizer.config import ALL_REWRITES, WARM_START_ASSEMBLY

        listing = run_lines(shell, ".rules")
        assert f"{WARM_START_ASSEMBLY} (disabled)\n" in listing
        for name in ALL_REWRITES:
            assert f"  {name}\n" in listing
        output = run_lines(shell, f".enable {WARM_START_ASSEMBLY}", ".rules")
        assert f"enabled {WARM_START_ASSEMBLY}" in output
        assert f"{WARM_START_ASSEMBLY} (disabled)" not in output
        assert shell.config.is_enabled(WARM_START_ASSEMBLY)
        output = run_lines(shell, ".disable no-such-rule", ".rules")
        assert "error: unknown rule 'no-such-rule'" in output
        assert "known rules: rewrite-pushdown," in output
        assert "(disabled)" not in output

    def test_disabled_rule_changes_plan(self, shell):
        run_lines(shell, ".index ixm Cities mayor.name")
        with_rule = run_lines(
            shell, ".explain SELECT * FROM c IN Cities WHERE c.mayor.name == 'Joe'"
        )
        assert "Index Scan" in with_rule
        without = run_lines(
            shell,
            ".disable collapse-to-index-scan",
            ".explain SELECT * FROM c IN Cities WHERE c.mayor.name == 'Joe'",
        )
        assert "Index Scan" not in without

    def test_unknown_command(self, shell):
        assert "unknown command" in run_lines(shell, ".bogus")

    def test_parallel_execution_is_deleted_not_deprecated(self, shell, fresh_db):
        """Serial is the engine: no knob, no module, no rule, no command."""
        import importlib

        from repro.optimizer import OptimizerConfig
        from repro.optimizer import config as rule_names
        from repro.optimizer.implementations import ALL_RULES

        with pytest.raises(TypeError):
            fresh_db.query("SELECT * FROM c IN Cities", parallelism=2)
        with pytest.raises(TypeError):
            OptimizerConfig(parallelism=2)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.parallel")
        gone = {"parallel-scan", "exchange-enforcer"}
        registered = {rule.name for rule in ALL_RULES} | {
            value for value in vars(rule_names).values() if isinstance(value, str)
        }
        assert not gone & registered
        assert not gone & set(run_lines(shell, ".rules").split())
        assert run_lines(shell, ".parallel 4") == run_lines(shell, ".bogus 4").replace(
            ".bogus", ".parallel"
        )

    def test_error_reported_not_raised(self, shell):
        output = run_lines(shell, "SELECT * FROM x IN Nowhere")
        assert "error:" in output

    def test_quit_stops(self, shell):
        output = run_lines(shell, ".quit", ".catalog")
        assert "Cities" not in output


class TestQueries:
    def test_query_prints_plan_rows_and_costs(self, shell):
        output = run_lines(
            shell,
            "SELECT c.name FROM c IN Cities WHERE c.population >= 900000",
        )
        assert "File Scan Cities" in output
        assert "simulated I/O" in output
        assert "c.name=" in output

    def test_row_cap(self, shell):
        output = run_lines(shell, "SELECT c.name FROM c IN Cities")
        assert "more rows" in output

    def test_object_rows_render_names(self, shell):
        output = run_lines(
            shell, "SELECT * FROM c IN Cities WHERE c.population >= 990000"
        )
        assert "c=city" in output


class TestExtendedCommands:
    def test_trace_command(self, shell):
        output = run_lines(
            shell,
            ".index ixm Cities mayor.name",
            ".trace SELECT c.mayor.age, c.name FROM c IN Cities "
            "WHERE c.mayor.name == 'Joe'",
        )
        assert "optimize(group" in output
        assert "require {c, c.mayor}" in output

    def test_trace_prints_event_summary(self, shell):
        output = run_lines(
            shell,
            ".index ixm Cities mayor.name",
            ".trace SELECT c.mayor.age, c.name FROM c IN Cities "
            "WHERE c.mayor.name == 'Joe'",
        )
        assert "events (" in output
        assert "enforcer assembly" in output

    def test_explain_analyze_command(self, shell):
        output = run_lines(
            shell,
            ".explain analyze SELECT c.name FROM c IN Cities "
            "WHERE c.population >= 900000",
        )
        assert "EXPLAIN ANALYZE" in output
        assert "est " in output
        assert "act " in output
        assert "hits" in output

    def test_validate_command(self, shell):
        output = run_lines(shell, ".validate")
        assert "sequential scan" in output
        assert "ratio" in output


class TestResourceLimits:
    """Satellite (c): .timeout / .memory / .chaos session limits."""

    def test_help_documents_limits(self, shell):
        output = run_lines(shell, ".help")
        assert ".timeout" in output
        assert ".memory" in output
        assert ".chaos" in output

    def test_show_set_clear_cycle(self, shell):
        output = run_lines(
            shell,
            ".timeout",
            ".timeout 5000",
            ".timeout",
            ".timeout off",
            ".timeout",
        )
        assert "timeout: off" in output
        assert "timeout set to 5000 ms" in output
        assert "timeout: 5000 ms" in output
        assert "timeout cleared" in output

    def test_rejects_non_positive_limits(self, shell):
        output = run_lines(shell, ".timeout -3", ".memory 0")
        assert "timeout must be positive" in output
        assert "memory budget must be positive" in output
        assert shell.timeout_ms is None
        assert shell.memory_bytes is None

    def test_memory_budget_spills_queries(self, shell):
        output = run_lines(
            shell,
            ".memory 512",
            "SELECT c.name, c.population FROM c IN Cities ORDER BY c.name",
        )
        assert "memory budget set to 512 bytes" in output
        assert "spilled" in output

    def test_expired_timeout_reports_typed_error(self, shell):
        output = run_lines(
            shell,
            ".timeout 0.00001",
            "SELECT c.name FROM c IN Cities ORDER BY c.name",
        )
        assert "exceeded its 1e-05 ms deadline" in output

    def test_chaos_seed_keeps_answers_right(self, shell):
        clean = run_lines(
            shell, "SELECT c.name FROM c IN Cities WHERE c.population >= 0"
        )
        chaotic = run_lines(
            shell,
            ".chaos 7",
            "SELECT c.name FROM c IN Cities WHERE c.population >= 0",
        )
        assert "chaos seed set to 7" in chaotic
        clean_rows = [l for l in clean.splitlines() if l.startswith("  ")]
        chaos_rows = [l for l in chaotic.splitlines() if l.startswith("  ")]
        assert sorted(clean_rows) == sorted(chaos_rows)


class TestTransactionsAndServer:
    """Serving-tier dot-commands: .begin/.commit/.rollback/.server/.sessions."""

    def test_help_documents_serving_commands(self, shell):
        output = run_lines(shell, ".help")
        for command in (".begin", ".commit", ".rollback", ".server", ".sessions"):
            assert command in output

    def test_begin_commit_cycle(self, shell):
        output = run_lines(
            shell,
            ".begin",
            "UPDATE c IN Cities SET c.population = 7 WHERE c.name == 'city0'",
            ".commit",
            "SELECT c.population FROM c IN Cities WHERE c.name == 'city0'",
        )
        assert "begin (snapshot csn" in output
        assert "buffered in open transaction" in output
        assert "committed at csn" in output
        assert "c.population=7" in output
        assert shell.transaction is None

    def test_rollback_discards(self, shell):
        output = run_lines(
            shell,
            ".begin",
            "UPDATE c IN Cities SET c.population = 7 WHERE c.name == 'city0'",
            ".rollback",
            "SELECT c.population FROM c IN Cities WHERE c.name == 'city0'",
        )
        assert "rolled back" in output
        assert "c.population=7" not in output

    def test_autocommit_dml_renders_csn(self, shell):
        output = run_lines(
            shell, "INSERT INTO Cities (name, population) VALUES ('cli', 1)"
        )
        assert "insert: 1 object(s) (committed at csn" in output

    def test_nested_begin_and_stray_commit_report_errors(self, shell):
        output = run_lines(
            shell, ".begin", ".begin", ".rollback", ".commit", ".rollback"
        )
        assert "already open" in output
        assert "rolled back" in output
        assert output.count("error: no open transaction") == 2

    def test_server_lifecycle_and_sessions(self, fresh_db):
        # Drive _command directly: run() tears the server down at EOF,
        # and this test needs it alive while a client connects.
        from repro.server import ServerClient

        out = io.StringIO()
        shell = Shell(fresh_db, out=out)
        shell._command(".sessions")
        assert "server not running; use .server start" in out.getvalue()
        shell._command(".server start")
        assert "serving on 127.0.0.1:" in out.getvalue()
        try:
            host, port = shell.server.address
            with ServerClient(host, port) as client:
                client.hello()
                shell._command(".sessions")
                assert "1 session(s)" in out.getvalue()
        finally:
            shell._command(".server stop")
        assert "server stopped" in out.getvalue()
        assert shell.server is None
        shell._command(".server")
        assert "server not running" in out.getvalue()

    def test_eof_rolls_back_and_stops_server(self, shell):
        run_lines(shell, ".server start", ".begin")
        # run() hit EOF, which must have cleaned up both.
        assert shell.server is None
        assert shell.transaction is None


class TestWriteConflictHandling:
    def test_conflict_drops_open_transaction(self, shell):
        # Drive dispatch directly: run() would roll the transaction back
        # itself at EOF, which is not the path under test.
        import pytest

        from repro.errors import WriteConflict

        shell.out = io.StringIO()
        shell.dispatch(".begin")
        assert shell.transaction is not None
        # Another writer commits to city0 after the shell's snapshot.
        shell.db.query(
            "UPDATE x IN Cities SET x.population = 1 WHERE x.name == 'city0'"
        )
        with pytest.raises(WriteConflict):
            shell.dispatch(
                "UPDATE x IN Cities SET x.population = 2 "
                "WHERE x.name == 'city0'"
            )
        assert shell.transaction is None  # dead handle dropped
        # The session keeps working, auto-committed.
        shell.dispatch("SELECT x.name FROM x IN Cities WHERE x.name == 'city0'")
