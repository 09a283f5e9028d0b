"""Subsystem scenarios: record their tables, assert their claims.

Not paper figures — durability, resilience, balancing, replication,
streaming and monitoring are what the paper's PaaS deployment sits on.
Each is one function in :mod:`repro.scenarios` (the same one ``python -m
repro scenario`` and tier-1 run, at the same and only size); this module
records the figure tables they return to ``bench_results.json``.
"""

import sys

import pytest

from repro.scenarios import SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario(name, report):
    result = SCENARIOS[name](sys.stdout)
    for table in result.tables:
        report.record(table)
    for claim, ok in result.checks:
        assert ok, claim
