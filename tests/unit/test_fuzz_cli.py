"""The fuzz CLI: one mode per run, only the options that mode reads, and
chaos repros that replay under their own fault plan."""

import json
from collections import Counter

import pytest

from repro.api import Database
from repro.fuzz import corpus_files
from repro.fuzz.__main__ import main

QUICK = ["--iterations", "1", "--quiet"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dml", "--crash"], "argument --crash: not allowed with argument --dml"),
        (["--chaos", "--no-rewrites"], "--no-rewrites does not apply to the chaos oracle"),
        (["--crash", "--feedback"], "--feedback does not apply to the crash oracle"),
        (["--fault-rate", "0.1"], "--fault-rate does not apply to the plan oracle"),
        (["--ops-per-batch", "3"], "--ops-per-batch does not apply to the plan oracle"),
        (["--dml", "--queries-per-world", "2"], "--queries-per-world does not apply to the dml oracle"),
    ],
)
def test_options_the_mode_does_not_read_are_refused(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + QUICK)
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["--no-rewrites", "--queries-per-world", "1"], "2 plan cases"),
        (["--chaos", "--fault-rate", "0.2", "--queries-per-world", "1"], "2 chaos cases"),
        (["--dml", "--ops-per-batch", "3"], "2 dml cases"),
        (["--crash", "--ops-per-batch", "3"], "2 crash cases"),
    ],
)
def test_options_the_mode_reads_are_accepted(argv, summary, capsys):
    assert main(argv + ["--iterations", "2", "--quiet"]) == 0
    assert capsys.readouterr().out.startswith(summary)


def test_chaos_repro_keeps_its_fault_plan(tmp_path, monkeypatch):
    from repro.fuzz import ChaosMode, load

    clean_query = Database.query

    def untyped_under_faults(self, text, *args, governor=None, **kwargs):
        if governor is not None:
            raise RuntimeError("injected untyped failure")
        return clean_query(self, text, *args, **kwargs)

    monkeypatch.setattr(Database, "query", untyped_under_faults)
    argv = ["--chaos", "--fault-rate", "0.2", "--write-corpus", "--corpus", str(tmp_path)]
    assert main(argv + QUICK) == 1
    [path] = corpus_files(tmp_path)
    assert path.name.startswith("repro-chaos-")
    document = json.loads(path.read_text())
    assert (document["fault_seed"], document["fault_rate"]) == (0, 0.2)
    assert "chaos-untyped-error" in document["note"]
    # Every candidate fails too, so the shrinker drops every predicate.
    assert " WHERE " not in document["query_text"]

    mode, case = load(path)
    assert isinstance(mode, ChaosMode)
    assert case[2:] == (0, 0.2)
    # The shrunk case still fails the chaos check under the same faults ...
    [finding] = mode.check(case, Counter())
    assert finding.kind == "chaos-untyped-error"
    # ... and passes once the engine keeps the governor's contract again.
    monkeypatch.setattr(Database, "query", clean_query)
    assert mode.check(case, Counter()) == []
