"""Crash recovery per WAL sync policy."""

from __future__ import annotations

from repro.kvstore import SyncPolicy
from repro.scenarios.fixtures import run_crash_experiment
from repro.scenarios.report import ScenarioResult


def run(out) -> ScenarioResult:
    """Kill a region server mid-ingest under each WAL sync policy."""
    result = ScenarioResult()
    runs = {policy: run_crash_experiment(policy) for policy in SyncPolicy}

    header = (f"{'policy':>10} | {'acked':>7} | {'lost':>5} | "
              f"{'ingest ms':>10} | {'fsyncs':>7} | "
              f"{'replayed B':>10} | {'recovery ms':>11}")
    print("crash after 2000/3000 writes on server 0", file=out)
    print(header, file=out)
    print("-" * len(header), file=out)
    for policy, run_ in runs.items():
        print(f"{policy.value:>10} | {run_.acked_writes:>7} | "
              f"{run_.lost_acked_writes:>5} | {run_.ingest_ms:>10.1f} | "
              f"{run_.wal_syncs:>7} | "
              f"{run_.recovery.replayed_bytes:>10} | "
              f"{run_.recovery.recovery_ms:>11.1f}", file=out)

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
    return result
