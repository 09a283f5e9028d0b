"""Per-region-server write-ahead logs.

HBase durability in miniature: every mutation is appended to the hosting
region server's WAL before it reaches the memstore.  An append is only
*durable* once it has been synced; the gap between the two is what a
crash loses.  Three sync policies span the paper's durability/throughput
trade-off:

``SYNC``
    every append is fsynced before it is acknowledged — zero acknowledged
    writes are ever lost, at one fsync per group commit (one region's
    segment of a write batch, :meth:`WriteAheadLog.append_batch`).
``PERIODIC``
    appends accumulate and one group-commit fsync covers the whole batch
    once ``periodic_bytes`` are pending — bounded loss window, amortized
    sync cost.
``ASYNC``
    appends are only synced at explicit barriers (memstore flush) — the
    fastest policy, and the whole unsynced tail is exposed to a crash.

All byte and sync counts feed :class:`~repro.kvstore.iostats.IOStats`, so
the cluster cost model can convert WAL traffic into simulated latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.kvstore.iostats import IOStats

#: Per-record framing overhead: seqno, key/value lengths, CRC.
RECORD_HEADER_BYTES = 24


class SyncPolicy(Enum):
    """When WAL appends become durable."""

    SYNC = "sync"
    PERIODIC = "periodic"
    ASYNC = "async"


@dataclass(frozen=True, slots=True)
class WALRecord:
    """One logged mutation (``value=None`` is a delete tombstone)."""

    seqno: int
    table: str
    region_id: int
    key: bytes
    value: bytes | None

    @property
    def nbytes(self) -> int:
        value_len = len(self.value) if self.value is not None else 0
        return RECORD_HEADER_BYTES + len(self.key) + value_len


#: Group-commit batch size for the PERIODIC policy.
DEFAULT_PERIODIC_BYTES = 64 * 1024


class WriteAheadLog:
    """Append-only mutation log for one region server.

    Sequence numbers are monotonic per server.  Regions checkpoint the
    log at every memstore flush; records at or below a region's
    checkpoint are persisted in SSTables and get truncated away, so
    replay after a crash touches only the unflushed suffix.
    """

    def __init__(self, server: int, stats: IOStats,
                 policy: SyncPolicy = SyncPolicy.ASYNC,
                 periodic_bytes: int = DEFAULT_PERIODIC_BYTES):
        self.server = server
        self.policy = policy
        self.periodic_bytes = periodic_bytes
        self._stats = stats
        self._records: list[WALRecord] = []
        self._floors: dict[int, int] = {}  # region_id -> flushed seqno
        self._retired: set[int] = set()    # regions gone via split/drop
        self._next_seqno = 1
        self.appended_seqno = 0
        self.synced_seqno = 0
        self._pending_bytes = 0
        self.total_bytes = 0
        self.sync_count = 0
        self.crashed = False

    # -- write path ----------------------------------------------------------
    def append(self, table: str, region_id: int, key: bytes,
               value: bytes | None) -> int:
        """Log one mutation (a group of one, then :meth:`maybe_sync`);
        returns its sequence number."""
        seqno = self.append_batch(table, region_id, ((key, value),))[0].seqno
        self.maybe_sync()
        return seqno

    def append_batch(self, table: str, region_id: int,
                     mutations) -> list[WALRecord]:
        """Log ``(key, value-or-None)`` mutations of one region as one
        group commit; returns their records, seqnos ascending.

        Under ``SYNC`` one fsync makes the whole group durable before
        this returns.  ``PERIODIC`` and ``ASYNC`` leave it in the
        unsynced tail: the writer calls :meth:`maybe_sync` when its
        batch ends (``KVStore.write_batch`` once per call).
        """
        first = self._next_seqno
        records = [WALRecord(seqno, table, region_id, key, value)
                   for seqno, (key, value) in enumerate(mutations, first)]
        self._next_seqno = first + len(records)
        self._records += records
        self.appended_seqno = self._next_seqno - 1
        nbytes = sum(record.nbytes for record in records)
        self._pending_bytes += nbytes
        self.total_bytes += nbytes
        self._stats.record_wal_append(nbytes, self.server, len(records))
        if self.policy is SyncPolicy.SYNC:
            self.sync()
        return records

    def maybe_sync(self) -> None:
        """End of a write batch: under ``PERIODIC``, one group-commit
        sync once ``periodic_bytes`` are pending."""
        if self.policy is SyncPolicy.PERIODIC and \
                self._pending_bytes >= self.periodic_bytes:
            self.sync()

    def sync(self) -> None:
        """Group-commit: one fsync makes every pending append durable."""
        if self.synced_seqno == self.appended_seqno:
            return
        self.synced_seqno = self.appended_seqno
        self._pending_bytes = 0
        self.sync_count += 1
        self._stats.record_wal_sync()

    # -- checkpoints and truncation -------------------------------------------
    def checkpoint(self, region_id: int, seqno: int) -> None:
        """All of ``region_id``'s edits up to ``seqno`` are now in SSTables.

        A flush also acts as a sync barrier (HBase syncs the WAL before
        flushing), so the ASYNC policy's loss window resets here.
        """
        self._floors[region_id] = max(self._floors.get(region_id, 0), seqno)
        self.sync()
        self.truncate()

    def retire_region(self, region_id: int) -> None:
        """Drop a region's edits outright (split or table drop)."""
        self._retired.add(region_id)
        self._floors.pop(region_id, None)
        self.truncate()

    def truncate(self) -> None:
        """Discard records already persisted via flush (or retired)."""
        self._records = [r for r in self._records if self._is_live(r)]

    def _is_live(self, record: WALRecord) -> bool:
        if record.region_id in self._retired:
            return False
        return record.seqno > self._floors.get(record.region_id, 0)

    # -- crash path ----------------------------------------------------------
    def crash(self, lost_tail_records: int = 0) -> tuple[list[WALRecord], int]:
        """Simulate the hosting server dying.

        The unsynced tail never reached disk and is discarded;
        ``lost_tail_records`` additionally drops that many records off the
        *synced* end (torn-tail / lying-disk corruption, detected by
        recovery as CRC failures).  Returns ``(surviving, discarded)``
        where surviving records are live (not yet flushed) and replayable.
        """
        self.crashed = True
        durable = [r for r in self._records if r.seqno <= self.synced_seqno]
        discarded = len(self._records) - len(durable)
        if lost_tail_records > 0:
            discarded += min(lost_tail_records, len(durable))
            durable = durable[:len(durable) - lost_tail_records] \
                if lost_tail_records < len(durable) else []
        survivors = [r for r in durable if self._is_live(r)]
        self._records = []
        self._pending_bytes = 0
        return survivors, discarded

    # -- introspection ---------------------------------------------------------
    @property
    def unsynced_records(self) -> int:
        return sum(1 for r in self._records
                   if r.seqno > self.synced_seqno)

    @property
    def live_records(self) -> int:
        return sum(1 for r in self._records if self._is_live(r))

    @property
    def live_bytes(self) -> int:
        return sum(r.nbytes for r in self._records if self._is_live(r))

    def __len__(self) -> int:
        return len(self._records)
