"""Monitoring pipeline: scrape overhead and alert time-to-fire.

Not a paper figure — JUST's paper shows dashboards but never costs
them.  This measures what the scrape → history → SLO → alert pipeline
costs on the simulated cluster, and what it buys:

* **Scrape overhead.**  The same seeded query workload runs against an
  unmonitored service and a monitored one (50 sim-ms scrape cadence).
  Every scrape charges its modeled cost to the shared clock, so the
  overhead is an honest fraction of statement time — gated at < 5%.

* **Time-to-fire.**  A :class:`~repro.faults.plan.SlowServer` gray
  failure is injected on one region server and the workload keeps
  running until the latency SLO's page-severity burn-rate alert fires.
  Reported: simulated milliseconds and statements from injection to
  firing — gated on the alert actually firing, with the availability
  SLO staying quiet (the failure is gray: nothing errors, everything
  slows).

Also usable standalone (no pytest)::

    PYTHONPATH=src python benchmarks/bench_observability.py [--quick]
"""

from harness import FigureTable

from repro.observability.dash import (
    build_dash_service,
    inject_slow_server,
    workload_queries,
)
from repro.service.client import JustClient

_USER = "ops"
_MAX_FAULT_PASSES = 20


def _drive(client, queries) -> float:
    """One workload pass; returns its total statement sim-ms."""
    return sum(client.execute_query(sql).sim_ms for sql in queries)


def run_overhead_experiment(rows=400, passes=6, seed=11) -> dict:
    """Identical seeded workload, monitoring off vs on."""
    queries = workload_queries(seed)
    results = {}
    for monitored in (False, True):
        server = build_dash_service(rows=rows, seed=seed,
                                    monitored=monitored)
        client = JustClient(server, _USER)
        statement_ms = sum(_drive(client, queries)
                           for _ in range(passes))
        results[monitored] = (server, statement_ms)
        client.close()
    _, base_ms = results[False]
    server, monitored_ms = results[True]
    monitor = server.engine.monitor
    scrape_ms = monitor.scraper.total_scrape_ms
    return {
        "statements": passes * len(queries),
        "unmonitored_ms": base_ms,
        "monitored_ms": monitored_ms,
        "scrapes": monitor.scraper.scrapes,
        "series": len(monitor.history),
        "scrape_ms": scrape_ms,
        "overhead": scrape_ms / monitored_ms if monitored_ms else 0.0,
    }


def run_time_to_fire_experiment(rows=400, healthy_passes=2,
                                latency_ms=120.0, seed=11) -> dict:
    """Inject SlowServer, run until the latency page fires."""
    server = build_dash_service(rows=rows, seed=seed)
    client = JustClient(server, _USER)
    queries = workload_queries(seed)
    for _ in range(healthy_passes):
        _drive(client, queries)
    monitor = server.engine.monitor
    injected_ms = server.engine.events.now_ms
    inject_slow_server(server, latency_ms=latency_ms, seed=seed)
    statements = 0
    alert = monitor.slos.alert("statement-latency", "page")
    while alert.state != "firing" and statements < \
            _MAX_FAULT_PASSES * len(queries):
        for sql in queries:
            client.execute_query(sql)
            statements += 1
            if alert.state == "firing":
                break
    fired = alert.state == "firing"
    availability = monitor.slos.worst_state("statement-availability")
    alert_events = server.events.events(kind="alert")
    client.close()
    return {
        "fired": fired,
        "statements_to_fire": statements,
        "time_to_fire_ms": (alert.fired_at_ms - injected_ms)
        if fired else float("inf"),
        "pending_ms": (alert.fired_at_ms - alert.pending_since_ms)
        if fired and alert.pending_since_ms is not None else 0.0,
        "burn_long": alert.burn_long,
        "trace_id": alert.trace_id,
        "availability_state": availability,
        "alert_events": len(alert_events),
    }


def _record(report, overhead, fire) -> FigureTable:
    table = FigureTable(
        "Monitoring pipeline",
        "Scrape -> history -> SLO -> alert: overhead and time-to-fire "
        "under a SlowServer gray failure", "metric")
    table.add("overhead", "statements", overhead["statements"])
    table.add("overhead", "scrapes", overhead["scrapes"])
    table.add("overhead", "series", overhead["series"])
    table.add("overhead", "statement sim-ms",
              round(overhead["monitored_ms"], 1))
    table.add("overhead", "scrape sim-ms",
              round(overhead["scrape_ms"], 2))
    table.add("overhead", "overhead %",
              round(100.0 * overhead["overhead"], 3))
    table.add("time-to-fire", "fired", int(fire["fired"]))
    table.add("time-to-fire", "statements", fire["statements_to_fire"])
    table.add("time-to-fire", "sim-ms",
              round(fire["time_to_fire_ms"], 1))
    table.add("time-to-fire", "burn rate (long)",
              round(fire["burn_long"], 2))
    table.add("time-to-fire", "alert events", fire["alert_events"])
    return report.record(table)


def _gate(overhead, fire) -> None:
    assert overhead["overhead"] < 0.05, (
        f"scraping cost {100 * overhead['overhead']:.2f}% of statement "
        f"time (budget 5%)")
    assert overhead["scrapes"] > 0
    assert fire["fired"], "latency page never fired under SlowServer"
    assert fire["availability_state"] == "ok", (
        "gray failure should not trip the availability SLO")
    assert fire["alert_events"] >= 1


def test_scrape_overhead_under_budget(report, benchmark):
    """Monitoring charges < 5% of statement time to the shared clock."""
    overhead = run_overhead_experiment()
    fire = run_time_to_fire_experiment()
    _record(report, overhead, fire)
    _gate(overhead, fire)
    benchmark(lambda: run_overhead_experiment(rows=150, passes=2))


def test_gray_failure_pages_with_exemplar(report):
    """The firing page carries a trace-id exemplar of a slow query."""
    fire = run_time_to_fire_experiment()
    assert fire["fired"]
    assert fire["trace_id"], "firing alert should carry an exemplar"


def main(argv=None) -> int:
    """Standalone entry point (CI smoke): run + record + gates."""
    import argparse

    from harness import REPORT

    parser = argparse.ArgumentParser(
        description="Monitoring benchmark: scrape overhead and "
                    "SLO-alert time-to-fire.")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    args = parser.parse_args(argv)
    if args.quick:
        overhead = run_overhead_experiment(rows=200, passes=3)
        fire = run_time_to_fire_experiment(rows=200, healthy_passes=1)
    else:
        overhead = run_overhead_experiment()
        fire = run_time_to_fire_experiment()
    _record(REPORT, overhead, fire)
    _gate(overhead, fire)
    print(f"\nscrape overhead "
          f"{100 * overhead['overhead']:.3f}% of statement time over "
          f"{overhead['scrapes']} scrapes; page fired "
          f"{fire['time_to_fire_ms']:.0f} sim-ms "
          f"({fire['statements_to_fire']} statements) after the gray "
          f"fault, exemplar trace {fire['trace_id'] or '(none)'}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
