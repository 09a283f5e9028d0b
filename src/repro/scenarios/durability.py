"""Crash recovery per WAL sync policy, and per crash point."""

from __future__ import annotations

from repro.kvstore import SyncPolicy
from repro.scenarios.fixtures import run_crash_experiment
from repro.scenarios.report import FigureTable, ScenarioResult

_CRASH_POINTS = (500, 1500, 2500)


def run(out) -> ScenarioResult:
    """Kill a region server mid-ingest under each WAL sync policy."""
    result = ScenarioResult()
    print("crash after 2000/3000 writes on server 0", file=out)
    runs = {policy: run_crash_experiment(policy) for policy in SyncPolicy}
    table = FigureTable("Durability D1",
                        "Crash mid-ingest: loss & recovery by WAL policy",
                        "metric")
    for policy, run_ in runs.items():
        series = f"wal={policy.value}"
        table.add(series, "acked", run_.acked_writes)
        table.add(series, "lost", run_.lost_acked_writes)
        table.add(series, "ingest ms", run_.ingest_ms)
        table.add(series, "fsyncs", run_.wal_syncs)
        table.add(series, "replayed B", run_.recovery.replayed_bytes)
        table.add(series, "recovery ms", run_.recovery.recovery_ms)
    result.tables.append(table)

    sync, periodic, relaxed = (runs[p] for p in (
        SyncPolicy.SYNC, SyncPolicy.PERIODIC, SyncPolicy.ASYNC))
    result.check("SYNC never loses an acknowledged write",
                 sync.lost_acked_writes == 0)
    result.check("SYNC recovery replays the unflushed WAL tail",
                 sync.recovery.replayed_bytes > 0)
    result.check("fsyncs fall as the policy relaxes "
                 "(sync > periodic > async)",
                 sync.wal_syncs > periodic.wal_syncs > relaxed.wal_syncs)
    result.check("ASYNC trades its unsynced tail for cheaper ingest "
                 "than SYNC", relaxed.ingest_ms < sync.ingest_ms)

    print("SYNC crash 200 writes before the end, at three points",
          file=out)
    sweep = {kill_after: run_crash_experiment(
                 SyncPolicy.SYNC, num_keys=kill_after + 200,
                 kill_after=kill_after)
             for kill_after in _CRASH_POINTS}
    table = FigureTable("Durability D2",
                        "Recovery cost vs crash point (SYNC), sim ms",
                        "kill after")
    for kill_after, run_ in sweep.items():
        table.add("replayed B", kill_after, run_.recovery.replayed_bytes)
        table.add("recovery ms", kill_after, run_.recovery.recovery_ms)
    result.tables.append(table)
    result.check("SYNC loses no acknowledged write at any crash point",
                 all(run_.lost_acked_writes == 0 for run_ in sweep.values()))
    # Flush checkpoints retire replay volume, but an early crash must not
    # replay more than a late one.
    early, late = sweep[_CRASH_POINTS[0]], sweep[_CRASH_POINTS[-1]]
    result.check("an early crash replays no more WAL than a late one",
                 early.recovery.replayed_bytes
                 <= late.recovery.replayed_bytes)
    return result
