"""Durability: crash-recovery cost and loss per WAL sync policy.

Not a paper figure — JUST inherits HBase's WAL, so this quantifies the
durability subsystem the engine sits on: for each sync policy, inject a
region-server crash mid-ingest, fail its regions over, and report

* acknowledged writes lost (SYNC must lose zero — the acceptance bar),
* WAL bytes replayed during recovery,
* simulated recovery time and ingest-side fsync overhead.
"""

from harness import FigureTable

from repro.kvstore import SyncPolicy
from repro.scenarios.fixtures import run_crash_experiment

_KEYS = 3000
_KILL_AFTER = 2000


def _sweep(data):
    results = {}
    for policy in SyncPolicy:
        results[policy] = run_crash_experiment(
            policy, num_keys=_KEYS, kill_after=_KILL_AFTER,
            cost_model=data.cost_model)
    return results


def test_recovery_per_sync_policy(data, report, benchmark):
    """Crash after 2000/3000 writes: loss and recovery cost by policy."""
    results = _sweep(data)

    table = FigureTable("Durability D1",
                        "Crash mid-ingest: loss & recovery by WAL policy",
                        "metric")
    for policy, result in results.items():
        series = f"wal={policy.value}"
        table.add(series, "acked", result.acked_writes)
        table.add(series, "lost", result.lost_acked_writes)
        table.add(series, "ingest ms", result.ingest_ms)
        table.add(series, "fsyncs", result.wal_syncs)
        table.add(series, "replayed B", result.recovery.replayed_bytes)
        table.add(series, "recovery ms", result.recovery.recovery_ms)
    report.record(table)
    benchmark(lambda: run_crash_experiment(
        SyncPolicy.ASYNC, num_keys=600, kill_after=400,
        cost_model=data.cost_model))

    sync = results[SyncPolicy.SYNC]
    # The acceptance property: SYNC acknowledges only durable writes.
    assert sync.lost_acked_writes == 0
    assert sync.recovery.replayed_bytes > 0
    # Fewer fsyncs as the policy relaxes; ingest cost follows.
    assert sync.wal_syncs > results[SyncPolicy.PERIODIC].wal_syncs \
        > results[SyncPolicy.ASYNC].wal_syncs
    assert sync.ingest_ms > results[SyncPolicy.ASYNC].ingest_ms


def test_recovery_time_scales_with_replay_volume(data, report, benchmark):
    """Later crashes leave more unflushed log to replay, costing more."""
    table = FigureTable("Durability D2",
                        "Recovery cost vs crash point (SYNC), sim ms",
                        "kill after")
    points = (500, 1500, 2500)
    replayed = {}
    for kill_after in points:
        result = run_crash_experiment(
            SyncPolicy.SYNC, num_keys=kill_after + 200,
            kill_after=kill_after, cost_model=data.cost_model)
        replayed[kill_after] = result.recovery.replayed_bytes
        table.add("replayed B", kill_after,
                  result.recovery.replayed_bytes)
        table.add("recovery ms", kill_after,
                  result.recovery.recovery_ms)
        assert result.lost_acked_writes == 0
    report.record(table)
    benchmark(lambda: replayed)
    # Replay volume is bounded by what flush checkpoints already retired,
    # but an early crash must not replay more than a late one.
    assert replayed[points[0]] <= replayed[points[-1]]
