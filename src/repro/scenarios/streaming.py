"""Streaming continuous queries over a transit-delay feed."""

from __future__ import annotations

from repro.datagen.transitgen import TRANSIT_TIME_START
from repro.scenarios.fixtures import (
    STREAM_DISORDER_S,
    run_stream_experiment,
)
from repro.scenarios.report import FigureTable, ScenarioResult, show_query


def run(out) -> ScenarioResult:
    """Watermarked windows, geofence alerts, a live view over a late feed."""
    result = ScenarioResult()
    run_ = run_stream_experiment()

    print(f"== continuous ingest: {run_['events']} realtime events, "
          f"disorder <= {STREAM_DISORDER_S:.0f}s, published 2x faster "
          f"than consumed ==", file=out)
    for number, poll in enumerate(run_["poll_log"], start=1):
        print(f"poll {number:>3}: consumed {poll['consumed']:>3}"
              f"  lag {poll['lag']:>3}"
              f"  watermark +{poll['watermark'] - TRANSIT_TIME_START:>7.0f}s"
              f"  finalized rows {poll['emitted']:>3}"
              f"  alerts {poll['alerts']:>2}"
              f"  ({poll['sim_ms']:.2f} sim-ms)", file=out)
    print(f"end of feed: flushed {run_['tail_rows']} tail window rows; "
          f"view segment_delay has {run_['view_rows']} rows", file=out)
    print(f"stream vs cold batch recompute: "
          f"{'identical' if run_['parity'] else 'PARITY FAILED'}; "
          f"{run_['late_events']} late events dropped", file=out)
    print(f"alerts: {run_['alerts']}; publish->alert "
          f"p50 {run_['alert_p50_ms']:.2f} / "
          f"p95 {run_['alert_p95_ms']:.2f} sim-ms", file=out)

    table = FigureTable(
        "Streaming continuous queries",
        "Transit-delay pipeline: watermarked windows, geofence alerts, "
        "materialized views", "metric")
    table.add("pipeline", "events", run_["events"])
    table.add("pipeline", "polls", run_["polls"])
    table.add("pipeline", "ingest sim-ms", round(run_["ingest_ms"], 2))
    table.add("pipeline", "late events", run_["late_events"])
    table.add("event->alert", "alerts", run_["alerts"])
    table.add("event->alert", "p50 sim-ms",
              round(run_["alert_p50_ms"], 2))
    table.add("event->alert", "p95 sim-ms",
              round(run_["alert_p95_ms"], 2))
    table.add("view refresh", "view rows", run_["view_rows"])
    table.add("view refresh", "incremental sim-ms",
              round(run_["incremental_refresh_ms"], 3))
    table.add("view refresh", "recompute sim-ms",
              round(run_["naive_refresh_ms"], 3))
    result.tables.append(table)

    result.check("finalized stream windows equal a cold batch recompute",
                 run_["parity"])
    result.check("no event is dropped as late (disorder <= watermark "
                 "delay)", run_["late_events"] == 0)
    result.check("geofence alerts fire", run_["alerts"] > 0)
    # Backlogged events wait in the topic: the p95 alert sees real queue
    # delay on the simulated clock.
    result.check("backlogged alerts see queue delay (p95 > 0)",
                 run_["alert_p95_ms"] > 0.0)
    result.check("incremental view refresh < recompute",
                 run_["incremental_refresh_ms"]
                 < run_["naive_refresh_ms"])

    sql = run_["engine"].sql
    for statement in (
            "SELECT route, seq, arrivals, avg_delay, avg_dwell "
            "FROM segment_delay ORDER BY avg_delay DESC, route, seq "
            "LIMIT 5",
            "SELECT loader, offset, lag, watermark, finalized_windows, "
            "late_events, alerts, views FROM sys.streams",
            "SELECT table, count(*) AS alerts FROM sys.events "
            "WHERE kind = 'geofence_alert' GROUP BY table"):
        show_query(sql, statement, out)
    return result
