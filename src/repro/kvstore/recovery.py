"""Crash recovery: region failover and WAL replay.

When a region server dies, its memstores die with it.  Recovery gives
each of its regions a new primary — a promoted follower replica when
one is caught up enough, else a fresh memstore on a surviving server —
and replays the dead server's surviving write-ahead log into it
(re-logging the edits on the new server so durability holds across
chained failures).  The result is summarized in a
:class:`RecoveryReport` — recovery time here is simulated milliseconds
from the cluster cost model, exactly like query latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kvstore.wal import WALRecord
from repro.observability.events import FailoverEvent, ReplicaPromotedEvent


@dataclass
class RecoveryReport:
    """What one server failover cost and recovered."""

    server: int
    regions_reassigned: int = 0
    replayed_records: int = 0
    replayed_bytes: int = 0
    #: Records lost at the crash: the unsynced WAL tail plus any
    #: corruption-discarded records.  Under SYNC with no corruption
    #: this is always zero.
    discarded_records: int = 0
    recovery_ms: float = 0.0
    #: Regions recovered by *promoting* a follower replica instead of
    #: replaying the WAL (always 0 without replication).
    promoted_regions: int = 0
    #: Surviving primary-log records the promoted followers had not yet
    #: applied and replayed at promotion (their replication lag).
    catchup_records: int = 0
    #: region_id -> new hosting server.
    reassignments: dict[int, int] = field(default_factory=dict)


def recover_server(store, server: int, records: list[WALRecord],
                   discarded_records: int = 0) -> RecoveryReport:
    """Recover every region whose primary lived on the dead ``server``.

    Each region restarts on its most-caught-up promotable follower when
    replication has one — adopting the follower's memstore, seqno
    watermark and warm cache — or else reopens cold, with an empty
    memstore, on the next placeable server.  One pass over ``records``
    (the surviving synced, unflushed log suffix from
    :meth:`WriteAheadLog.crash`; empty without a WAL, which silently
    loses every unflushed edit) then re-applies each record above the
    new copy's applied seqno, re-logging it on the new server so
    durability holds across chained failures.  The replica sets are
    repaired last: that work is not part of the unavailability window
    that ``recovery_ms`` prices.
    """
    model = store.cost_model
    replication = store.replication
    report = RecoveryReport(server=server,
                            discarded_records=discarded_records)
    before = store.stats.snapshot()
    # region_id -> (table, region, promoted follower or None)
    recovered = {}
    for table in store.tables():
        for region in table.regions():
            if region.server != server:
                continue
            region.memstore.clear()  # the server's RAM is gone
            follower = None
            if replication is not None:
                follower = replication.promote(region)
            if follower is None:
                store.reopen_region(region, store.next_server())
            if replication is not None:
                replication.resync(region)
            recovered[region.region_id] = (table, region, follower)
            report.reassignments[region.region_id] = region.server
    report.regions_reassigned = len(recovered)

    reapplied = dict.fromkeys(recovered, 0)
    for record in records:
        entry = recovered.get(record.region_id)
        if entry is None:
            # A region split or dropped after the append, or one this
            # server only held a follower copy of.
            continue
        _table, region, follower = entry
        if follower is not None and record.seqno <= follower.applied_seqno:
            continue  # the promoted copy holds it already
        seqno = None
        if region.wal is not None:
            seqno = region.wal.append(record.table, record.region_id,
                                      record.key, record.value)
        region.put(record.key, record.value, seqno)
        reapplied[record.region_id] += 1
        report.replayed_records += 1
        report.replayed_bytes += record.nbytes
    for table, region, follower in recovered.values():
        if follower is None:
            continue
        report.promoted_regions += 1
        report.catchup_records += reapplied[region.region_id]
        store.events.emit(ReplicaPromotedEvent(
            table=table.name, region_id=region.region_id,
            server=region.server, from_server=server,
            applied_seqno=follower.applied_seqno,
            catchup_records=reapplied[region.region_id]))
    # Re-applied edits bypass KVStore.write_batch, so re-check the split
    # threshold for every recovered region rather than deferring to the
    # next mutation.
    for table, region, _follower in recovered.values():
        if region.total_bytes >= store.split_bytes:
            table._split(region)
    store.stats.record_wal_replay(report.replayed_bytes, server)
    delta = store.stats.snapshot().delta(before)

    scale = model.effective_record_scale
    report.recovery_ms = (
        # split & sequentially read the dead server's surviving log
        # (nothing to split when it hosted no primary),
        model.disk_read_ms(sum(r.nbytes for r in records)
                           if recovered else 0)
        # re-log the edits on the new primaries' servers,
        + model.disk_write_ms(delta.wal_bytes_written)
        + delta.wal_syncs * model.fsync_ms
        # flushes triggered mid-replay,
        + model.disk_write_ms(delta.disk_bytes_written)
        # re-insert each edit and reopen each region.
        + report.replayed_records * model.kv_put_us * scale / 1000.0
        + report.regions_reassigned * model.region_reopen_ms)
    if replication is not None:
        # In HBase a region serves as soon as it is reassigned and
        # re-replication is background work, so it stays out of
        # recovery_ms — but under SYNC the repair restores a write
        # quorum before failover returns.
        replication.repair(server, [(table, region) for table, region, _f
                                    in recovered.values()])
    store.events.emit(FailoverEvent(
        server=server,
        regions_reassigned=report.regions_reassigned,
        replayed_records=report.replayed_records,
        discarded_records=report.discarded_records,
        recovery_ms=round(report.recovery_ms, 3)))
    return report
