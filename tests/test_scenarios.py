"""Every registered scenario: the subsystem experiments end to end, the
paper figures' shapes over the recorded ``bench_results.json``, and the
one command that runs them (``python -m repro scenario``)."""

import io
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import (
    FIGURES,
    PAPER,
    SCENARIOS,
    FigureTable,
    run_scenario,
    summary,
)
from repro.scenarios.paper import provenance
from repro.scenarios.record import render_experiments
from repro.scenarios.report import Check

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((ROOT / "bench_results.json").read_text())

#: The subsystem experiments: fast enough to run end to end in tier-1.
#: The paper figures take minutes, so tier-1 checks what they recorded.
SUBSYSTEMS = [name for name in SCENARIOS if name not in PAPER]

#: Figure ids each subsystem scenario reproduces, in the order it
#: returns them.
SUBSYSTEM_FIGURES = {
    "durability": ["Durability D1", "Durability D2"],
    "resilience": ["Resilience R-slow", "Resilience R-flaky"],
    "observability": [],
    "introspection": [],
    "balancer": ["Balancer B-1"],
    "replication": ["Replication MTTR", "Replication hedged reads"],
    "streaming": ["Streaming continuous queries"],
    "monitoring": ["Monitoring pipeline"],
}

#: Text a scenario's narration must contain.
NARRATION = {
    "durability": ["[ok] SYNC never loses an acknowledged write",
                   "periodic", "async"],
    "observability": ["EXPLAIN ANALYZE", "RegionScan[",
                      "kvstore.cache_hit_ratio",
                      "server.statement_sim_ms_p95", "slow-query log"],
    "streaming": ["recompute: identical", "sys.streams"],
    "monitoring": ["sys.metrics_history", "sys.slos", "sys.alerts"],
}

#: Region and trace ids are process-wide counters, and some narration
#: prints them (EXPLAIN ANALYZE leaves, sys.regions, alert exemplars).
_ID_COUNTERS = (("repro.kvstore.region._REGION_IDS", 0),
                ("repro.observability.profile._TRACE_IDS", 1))


def _as_in_a_new_process(monkeypatch):
    for target, first in _ID_COUNTERS:
        monkeypatch.setattr(target, itertools.count(first))


@pytest.mark.parametrize("name", SUBSYSTEMS)
def test_scenario(name, monkeypatch):
    _as_in_a_new_process(monkeypatch)
    out = io.StringIO()
    assert main(["scenario", name], out=out) == 0
    text = out.getvalue()
    assert "[ok]" in text and "[FAIL]" not in text
    for expected in NARRATION.get(name, ()):
        assert expected in text

    # A second run prints the same text and returns the same tables.
    _as_in_a_new_process(monkeypatch)
    again = io.StringIO()
    result = run_scenario(name, again)
    assert again.getvalue() == text
    assert result.checks and all(check.passed for check in result.checks)

    # A change that moves a number regenerates bench_results.json (one
    # run of benchmarks/reproduce.py) in the same diff.
    assert [t.figure_id for t in result.tables] == SUBSYSTEM_FIGURES[name]
    for table in result.tables:
        assert json.loads(json.dumps(table.as_json())) == \
            COMMITTED[table.figure_id]


def test_unknown_scenario_exits_2_naming_the_valid_ones(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scenario", "nope"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "nope" in err
    assert all(name in err for name in SCENARIOS)


def test_help_lists_every_scenario_with_its_summary(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scenario", "-h"])
    assert info.value.code == 0
    listing = capsys.readouterr().out
    for name in SCENARIOS:
        assert re.search(rf"^  {name} +{re.escape(summary(name))}$",
                         listing, re.MULTILINE)


def test_scenarios_take_no_options(capsys):
    with pytest.raises(SystemExit) as info:
        main(["scenario", "--quick"])
    assert info.value.code == 2


@pytest.mark.parametrize("word", ["faults", "resilience", "metrics", "top",
                                  "balance", "replicate", "stream", "dash"])
def test_old_demo_words_are_plain_statements(word):
    out = io.StringIO()
    assert main([word], out=out) == 1
    assert out.getvalue().startswith("error:")


def test_readme_table_lists_exactly_the_registered_scenarios():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Scenarios\n")[1].split("\n## ")[0]
    assert re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE) == \
        list(SCENARIOS)


def test_recorded_results_are_one_run_of_every_scenario():
    """Every table in registry order, plus what it was measured with."""
    subsystems = [fid for name in SUBSYSTEMS
                  for fid in SUBSYSTEM_FIGURES[name]]
    assert list(COMMITTED) == ["_provenance", *FIGURES, *subsystems]
    assert COMMITTED["_provenance"] == provenance()


@pytest.mark.parametrize("figure_id", FIGURES)
def test_every_shape_has_its_declared_outcome_on_the_recorded_table(
        figure_id):
    figure = FIGURES[figure_id]
    table = FigureTable.from_json(COMMITTED[figure_id])
    assert (table.title, table.param_name) == (figure.title,
                                               figure.param_name)
    for check in figure.check(table):
        assert check.passed, str(check)


def test_experiments_md_is_the_render_of_the_recorded_results():
    assert (ROOT / "EXPERIMENTS.md").read_text() == \
        render_experiments(COMMITTED, FIGURES)


def test_every_expected_failure_names_a_roadmap_item():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    items = {int(n) for n in re.findall(r"^(\d+)\. \*\*", roadmap, re.M)}
    declared = {shape.expected_fail for figure in FIGURES.values()
                for shape in figure.shapes} - {None}
    assert declared and declared <= items


def test_an_expected_failure_that_holds_fails_the_run():
    assert Check("c", True).passed and not Check("c", False).passed
    assert Check("c", False, 4).passed and not Check("c", True, 4).passed
    assert str(Check("c", False, 4)) == "[xfail: ROADMAP item 4] c"
    assert str(Check("c", True, 4)) == "[XPASS: ROADMAP item 4] c"


def test_a_table_survives_its_json_round_trip():
    table = FigureTable("Fig X", "title", "data size %")
    table.add("JUST", 20, 1.5)
    table.add("JUST", 100, "OOM")
    table.add("other", "1h", 3)
    again = FigureTable.from_json(json.loads(json.dumps(table.as_json())))
    assert again.series == table.series
    assert again.markdown() == table.markdown() == (
        "| data size % | 20 | 100 | 1h |\n|---|---|---|---|\n"
        "| JUST | 1.5 | OOM | - |\n| other | - | - | 3 |")
