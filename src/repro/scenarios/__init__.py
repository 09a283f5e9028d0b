"""Every subsystem experiment, written once and run by one command.

A scenario is a plain function ``run(out) -> ScenarioResult``: it
narrates to ``out`` and returns the figure tables it reproduces plus the
claims it checks.  :data:`SCENARIOS` is the registry; three consumers
read it — ``python -m repro scenario [NAME ...]`` (this module's
:func:`main`), ``benchmarks/bench_scenarios.py`` (records the tables to
``bench_results.json``) and ``tests/test_scenarios.py`` (tier-1).
Scenarios take no options: every size and seed is the one
``bench_results.json`` records, and two runs print identical text.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import (
    balancer,
    durability,
    introspection,
    monitoring,
    observability,
    replication,
    resilience,
    streaming,
)
from repro.scenarios.report import FigureTable, ScenarioResult

__all__ = ["SCENARIOS", "FigureTable", "ScenarioResult", "main",
           "run_scenario", "summary"]

SCENARIOS = {
    "durability": durability.run,
    "resilience": resilience.run,
    "observability": observability.run,
    "introspection": introspection.run,
    "balancer": balancer.run,
    "replication": replication.run,
    "streaming": streaming.run,
    "monitoring": monitoring.run,
}


def summary(name: str) -> str:
    """The scenario's one-line description (its docstring)."""
    return SCENARIOS[name].__doc__.strip()


def run_scenario(name: str, out) -> ScenarioResult:
    """Run one scenario; print its narration, tables and checks."""
    print(f"=== scenario {name}: {summary(name)} ===", file=out)
    result = SCENARIOS[name](out)
    for table in result.tables:
        print(f"\n{table.render()}", file=out)
    print(file=out)
    for claim, ok in result.checks:
        print(f"[{'ok' if ok else 'FAIL'}] {claim}", file=out)
    print(file=out)
    return result


def main(argv: list[str], out=None) -> int:
    """``python -m repro scenario [NAME ...]``; 1 if any check is false."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Run the named scenarios (all of them without a "
                    "name); exit 1 if any check is false.",
        epilog="scenarios:\n" + "\n".join(
            f"  {name:<14} {summary(name)}" for name in SCENARIOS),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="NAME")
    names = parser.parse_args(argv).names or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario {', '.join(unknown)} "
                     f"(choose from {', '.join(SCENARIOS)})")
    failed = [claim for name in names
              for claim, ok in run_scenario(name, out).checks if not ok]
    return 1 if failed else 0
