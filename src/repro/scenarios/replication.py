"""Region replication: promote failover and hedged reads."""

from __future__ import annotations

from repro.core.engine import JustEngine
from repro.kvstore import SyncPolicy
from repro.scenarios.fixtures import (
    STALL_MS,
    hedged_read_latencies,
    load_taxi_table,
    run_crash_experiment,
)
from repro.scenarios.report import (
    FigureTable,
    ScenarioResult,
    print_comparison,
    show_query,
)
from repro.service.client import JustClient
from repro.service.server import JustServer


def _replayed(run_) -> int:
    return run_.recovery.replayed_records + run_.recovery.catchup_records


def _sql_surface(out) -> int:
    """A replicated engine through JustQL; returns promotions seen."""
    server = JustServer(JustEngine(wal_policy=SyncPolicy.SYNC,
                                   replication_factor=3,
                                   split_bytes=64 * 1024,
                                   flush_bytes=16 * 1024))
    with JustClient(server, "ops") as client:
        load_taxi_table(client, "presplit=4", rows=120)
        show_query(client.execute_query,
                   "SELECT server, role, count(*) AS replicas, "
                   "sum(lag_records) AS lag FROM sys.replication "
                   "GROUP BY server, role ORDER BY server", out,
                   "sys.replication (replica placement and lag)")

        # Crash a region server under the SQL surface: its primaries
        # promote, and the anti-entropy chore re-replicates in background.
        server.engine.store.crash_server(0)
        show_query(client.execute_query,
                   "SELECT kind, count(*) AS n FROM sys.events "
                   "WHERE kind = 'replica_promote' "
                   "OR kind = 'replica_rebuild' OR kind = 'failover' "
                   "GROUP BY kind", out,
                   "after crash_server(0): replication events")
        show_query(client.execute_query,
                   "SELECT state, count(*) AS followers, "
                   "sum(lag_records) AS lag FROM sys.replication "
                   "WHERE role = 'follower' GROUP BY state", out,
                   "after crash_server(0): follower states")
    return server.engine.store.replication.promotions


def run(out) -> ScenarioResult:
    """Crash failover at rf=1 vs rf=3; hedged reads past a slow primary."""
    result = ScenarioResult()

    print("== crash after 1500/2000 SYNC writes: rf=1 WAL replay vs "
          "rf=3 follower promotion ==", file=out)
    runs = {factor: run_crash_experiment(
                SyncPolicy.SYNC, num_keys=2000, kill_after=1500,
                replication_factor=factor, presplit=True)
            for factor in (1, 3)}
    replay, promote = runs[1], runs[3]
    print_comparison([
        ("acked writes", replay.acked_writes, promote.acked_writes),
        ("lost acked writes", replay.lost_acked_writes,
         promote.lost_acked_writes),
        ("regions failed over", replay.recovery.regions_reassigned,
         promote.recovery.regions_reassigned),
        ("regions promoted", replay.recovery.promoted_regions,
         promote.recovery.promoted_regions),
        ("WAL records replayed", _replayed(replay), _replayed(promote)),
        ("recovery (sim-ms)", f"{replay.recovery.recovery_ms:.1f}",
         f"{promote.recovery.recovery_ms:.1f}"),
    ], "rf=1 replay", "rf=3 promote", out)
    table = FigureTable("Replication MTTR",
                        "Crash failover: WAL replay vs follower "
                        "promotion (SYNC ingest)", "metric")
    for factor, run_ in runs.items():
        series = f"rf={factor}"
        table.add(series, "acked writes", run_.acked_writes)
        table.add(series, "lost acked writes", run_.lost_acked_writes)
        table.add(series, "regions promoted",
                  run_.recovery.promoted_regions)
        table.add(series, "records replayed", _replayed(run_))
        table.add(series, "recovery ms",
                  round(run_.recovery.recovery_ms, 2))
    result.tables.append(table)
    result.check("rf=1 WAL replay loses zero acked writes",
                 replay.lost_acked_writes == 0)
    result.check("rf=3 promotion loses zero acked writes",
                 promote.lost_acked_writes == 0)
    result.check("rf=3 recovers by promoting followers",
                 promote.recovery.promoted_regions > 0)
    # Promotion replays only the catch-up, never the whole live WAL.
    result.check("rf=3 promotion recovers faster than rf=1 replay",
                 promote.recovery.recovery_ms
                 < replay.recovery.recovery_ms)

    print(f"\n== point reads while server 0 stalls every op "
          f"{STALL_MS:.0f} ms ==", file=out)
    latencies = {
        "unreplicated": hedged_read_latencies(1, "primary"),
        "rf=3 hedged": hedged_read_latencies(3, "hedged"),
    }
    hedged = latencies["rf=3 hedged"]
    print(f"hedged reads: {hedged['hedged_reads']}, "
          f"hedge wins: {hedged['hedge_wins']}", file=out)
    table = FigureTable("Replication hedged reads",
                        "Read latency under a gray-slow primary "
                        f"(+{STALL_MS:.0f}ms per op)", "metric")
    for series, stats in latencies.items():
        print(f"{series:>14}: p50 {stats['p50']:.1f}  "
              f"p95 {stats['p95']:.1f} sim-ms", file=out)
        table.add(series, "p50 ms", round(stats["p50"], 2))
        table.add(series, "p95 ms", round(stats["p95"], 2))
    result.tables.append(table)
    # One region server in five stalls every op: the unreplicated p95
    # eats the full stall, the hedge pays only its small delay.
    result.check("unreplicated read p95 eats the full stall",
                 latencies["unreplicated"]["p95"] >= STALL_MS)
    result.check("hedged read p95 < stall / 4",
                 hedged["p95"] < STALL_MS / 4)
    result.check("hedged read p95 < unreplicated read p95",
                 hedged["p95"] < latencies["unreplicated"]["p95"])

    promotions = _sql_surface(out)
    result.check("a crash under the SQL surface promotes followers",
                 promotions > 0)
    return result
