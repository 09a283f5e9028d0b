"""The scrape -> history -> SLO -> alert pipeline under a gray failure."""

from __future__ import annotations

from repro.scenarios.fixtures import (
    LATENCY_BUDGET_MS,
    MONITOR_USER,
    run_overhead_experiment,
    run_time_to_fire_experiment,
)
from repro.scenarios.report import FigureTable, ScenarioResult, show_query
from repro.service.client import JustClient

_SPARK = "▁▂▃▄▅▆▇█"

#: (label, history series, column) triples the dashboard plots.
_PANELS = (
    ("stmt rate (ok/s)", "server.statements{status=ok}", "rate_per_s"),
    ("stmt p95 sim-ms", "server.statement_sim_ms_p95", "value"),
    ("scrapes", "monitor.scrapes", "value"),
)


def sparkline(values: list[float]) -> str:
    """Render the last 48 points of a series as a unicode sparkline."""
    tail = [v for v in values if v is not None][-48:]
    if not tail:
        return "(no data)"
    lo, hi = min(tail), max(tail)
    span = (hi - lo) or 1.0
    chars = "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in tail)
    return f"{chars}  [{lo:.1f} .. {hi:.1f}]"


def _dashboard(server, out) -> None:
    """One frame over the sys.* monitoring tables, via plain JustQL."""
    with JustClient(server, MONITOR_USER) as client:
        print("\n== sparklines (sys.metrics_history) ==", file=out)
        for title, series, column in _PANELS:
            rows = client.execute_query(
                f"SELECT ts_ms, value, rate_per_s FROM sys.metrics_history "
                f"WHERE name = '{series}' AND tier = 0 ORDER BY ts_ms").rows
            print(f"{title:>18} {sparkline([r[column] for r in rows])}",
                  file=out)
        show_query(client.execute_query,
                   "SELECT slo, kind, target, state, budget_remaining, "
                   "burn_short, burn_long FROM sys.slos", out,
                   "SLO scoreboard (sys.slos)")
        show_query(client.execute_query,
                   "SELECT slo, severity, state, burn_short, burn_long, "
                   "factor, times_fired FROM sys.alerts", out,
                   "alerts (sys.alerts)")
        show_query(client.execute_query,
                   "SELECT seq, sim_ms, kind, detail FROM sys.events "
                   "WHERE kind = 'alert' OR kind = 'slo_burn' "
                   "ORDER BY seq LIMIT 12", out,
                   "alerting event feed (sys.events)")


def run(out) -> ScenarioResult:
    """Scrape overhead; a SlowServer gray failure pages the latency SLO."""
    result = ScenarioResult()

    overhead = run_overhead_experiment()
    print(f"== scrape overhead: {overhead['statements']} statements, "
          f"monitoring off vs on ==", file=out)
    print(f"statement sim-ms {overhead['unmonitored_ms']:.1f} -> "
          f"{overhead['monitored_ms']:.1f}; {overhead['scrapes']} scrapes "
          f"of {overhead['series']} series cost "
          f"{overhead['scrape_ms']:.2f} sim-ms "
          f"({100 * overhead['overhead']:.3f}% of statement time)",
          file=out)

    fire = run_time_to_fire_experiment()
    print(f"\n== SlowServer(+120 ms) on server 0, latency SLO < "
          f"{LATENCY_BUDGET_MS:g} sim-ms ==", file=out)
    print(f"page fired {fire['time_to_fire_ms']:.0f} sim-ms "
          f"({fire['statements_to_fire']} statements) after the fault, "
          f"exemplar trace {fire['trace_id'] or '(none)'}", file=out)
    _dashboard(fire["server"], out)

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
    result.tables.append(table)

    result.check("scrape overhead < 5 % of statement sim-ms",
                 overhead["overhead"] < 0.05)
    result.check("the monitored run was scraped", overhead["scrapes"] > 0)
    result.check("the latency page fires under SlowServer", fire["fired"])
    # The failure is gray: nothing errors, everything slows.
    result.check("the availability SLO stays ok",
                 fire["availability_state"] == "ok")
    result.check("the page is in the sys.events feed",
                 fire["alert_events"] >= 1)
    result.check("the firing page carries a slow-trace exemplar",
                 bool(fire["trace_id"]))
    return result
