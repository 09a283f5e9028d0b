"""Every registered scenario end to end, and the one command that runs
them (``python -m repro scenario``)."""

import io
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenarios import SCENARIOS, run_scenario, summary

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((ROOT / "bench_results.json").read_text())

#: Figure ids each scenario reproduces, in the order it returns them.
FIGURES = {
    "durability": [],
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


@pytest.mark.parametrize("name", SCENARIOS)
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
    assert result.checks and all(ok for _, ok in result.checks)

    # A change that moves a number regenerates bench_results.json (one
    # run of benchmarks/bench_scenarios.py) in the same diff.
    assert [t.figure_id for t in result.tables] == FIGURES[name]
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
