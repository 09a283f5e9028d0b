"""Client policies against a sick region server."""

from __future__ import annotations

from repro.scenarios.fixtures import (
    LATENCY_BUDGET_MS,
    resilience_service,
    run_policy_workload,
)
from repro.scenarios.report import FigureTable, ScenarioResult

_MODES = ("baseline", "deadline", "partial")


def _sweep(fault: str, out) -> tuple[dict, FigureTable]:
    """All three client policies against one fault kind."""
    results = {mode: run_policy_workload(resilience_service(fault), mode)
               for mode in _MODES}
    header = (f"{'mode':>10} | {'ok':>4} | {'t/o':>4} | {'err':>4} | "
              f"{'part':>4} | {'p50 ms':>8} | {'p95 ms':>8} | "
              f"{'p99 ms':>8} | {'goodput':>7}")
    print(f"\nfault={fault} over 40 queries "
          f"(deadline {LATENCY_BUDGET_MS:.0f} ms)", file=out)
    print(header, file=out)
    print("-" * len(header), file=out)
    table = FigureTable(f"Resilience R-{fault}",
                        f"Client policies vs a {fault} region server",
                        "metric")
    for mode, run_ in results.items():
        print(f"{mode:>10} | {run_.ok:>4} | {run_.timeouts:>4} | "
              f"{run_.errors:>4} | {run_.partial:>4} | "
              f"{run_.percentile(0.50):>8.1f} | "
              f"{run_.percentile(0.95):>8.1f} | "
              f"{run_.percentile(0.99):>8.1f} | "
              f"{run_.goodput:>7.2f}", file=out)
        table.add(mode, "ok", run_.ok)
        table.add(mode, "timeouts", run_.timeouts)
        table.add(mode, "errors", run_.errors)
        table.add(mode, "partial", run_.partial)
        table.add(mode, "p50 ms", run_.percentile(0.50))
        table.add(mode, "p95 ms", run_.percentile(0.95))
        table.add(mode, "p99 ms", run_.percentile(0.99))
        table.add(mode, "goodput", round(run_.goodput, 3))
    return results, table


def run(out) -> ScenarioResult:
    """Deadlines and partial results against a slow, then a flaky server."""
    result = ScenarioResult()

    slow, table = _sweep("slow", out)
    result.tables.append(table)
    baseline, deadline = slow["baseline"], slow["deadline"]
    result.check("slow server: unprotected requests all complete",
                 baseline.goodput == 1.0)
    result.check("slow server: unprotected p99 > 10 deadline budgets",
                 baseline.percentile(0.99) > 10 * LATENCY_BUDGET_MS)
    result.check("slow server: deadlines turn stalls into timeouts",
                 deadline.timeouts > 0)
    result.check("slow server: every deadline-bound latency < 2 budgets",
                 max(deadline.latencies_ms) < 2 * LATENCY_BUDGET_MS)
    result.check("slow server: deadline p99 < baseline p99 / 5",
                 deadline.percentile(0.99)
                 < baseline.percentile(0.99) / 5)

    flaky, table = _sweep("flaky", out)
    result.tables.append(table)
    baseline, partial = flaky["baseline"], flaky["partial"]
    result.check("flaky server: unprotected goodput < 0.5 despite "
                 "SDK retries", baseline.goodput < 0.5)
    result.check("flaky server: partial goodput > 0.9",
                 partial.goodput > 0.9)
    result.check("flaky server: partial results are flagged as partial",
                 partial.partial > 0)
    result.check("flaky server: partial results report skipped regions",
                 partial.regions_skipped > 0)
    return result
