"""Every paper figure and subsystem experiment, written once and run by
one command.

A scenario is a plain function ``run(out) -> ScenarioResult``: it
narrates to ``out`` and returns the figure tables it reproduces plus the
claims it checks.  :data:`SCENARIOS` is the registry: first the paper's
Section VIII tables, figures and ablations (whose claims are named
shapes of their tables, :data:`FIGURES`), then the subsystem
experiments.  Three consumers read it — ``python -m repro scenario [NAME
...]`` (this module's :func:`main`), ``benchmarks/reproduce.py``
(regenerates ``bench_results.json`` and EXPERIMENTS.md from one run of
all of them) and ``tests/test_scenarios.py`` (tier-1).  Scenarios take
no options: every size and seed is the one ``bench_results.json``
records, and two runs print identical text.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import (
    ablations,
    balancer,
    durability,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    introspection,
    monitoring,
    observability,
    replication,
    resilience,
    streaming,
    tables,
)
from repro.scenarios.report import FigureTable, ScenarioResult

__all__ = ["FIGURES", "PAPER", "SCENARIOS", "FigureTable", "ScenarioResult",
           "main", "run_scenario", "summary"]

#: The paper's Section VIII tables, figures and ablations, by scenario.
PAPER = {
    "tables": tables,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "ablations": ablations,
}

SCENARIOS = {
    **{name: module.run for name, module in PAPER.items()},
    "durability": durability.run,
    "resilience": resilience.run,
    "observability": observability.run,
    "introspection": introspection.run,
    "balancer": balancer.run,
    "replication": replication.run,
    "streaming": streaming.run,
    "monitoring": monitoring.run,
}

#: Every paper table, figure and ablation, by figure id.
FIGURES = {fig.figure_id: fig
           for module in PAPER.values() for fig in module.FIGURES}


def summary(name: str) -> str:
    """The scenario's one-line description (its docstring)."""
    return SCENARIOS[name].__doc__.strip()


def run_scenario(name: str, out) -> ScenarioResult:
    """Run one scenario; print its narration, tables and checks."""
    print(f"=== scenario {name}: {summary(name)} ===", file=out)
    result = SCENARIOS[name](out)
    for table in result.tables:
        print(f"\n== {table.figure_id}: {table.title} ==\n"
              f"{table.markdown()}", file=out)
    print(file=out)
    for check in result.checks:
        print(check, file=out)
    print(file=out)
    return result


def main(argv: list[str], out=None) -> int:
    """``python -m repro scenario [NAME ...]``; 1 if a check fails."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="Run the named scenarios (all of them without a "
                    "name; the paper figures take minutes); exit 1 if a "
                    "check is false, or a declared expected failure "
                    "holds.",
        epilog="scenarios:\n" + "\n".join(
            f"  {name:<14} {summary(name)}" for name in SCENARIOS),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="NAME")
    names = parser.parse_args(argv).names or list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario {', '.join(unknown)} "
                     f"(choose from {', '.join(SCENARIOS)})")
    failed = [check for name in names
              for check in run_scenario(name, out).checks
              if not check.passed]
    return 1 if failed else 0
