"""A region: one contiguous key range of a table."""

from __future__ import annotations

import itertools

from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.memstore import MemStore
from repro.kvstore.merge import CANCEL_CHECK_ROWS, run_merge
from repro.kvstore.sstable import DEFAULT_BLOCK_BYTES, SSTable
from repro.kvstore.wal import WriteAheadLog
from repro.observability.events import (
    CompactionEvent,
    DecayedRate,
    FlushEvent,
    WalCheckpointEvent,
)

_REGION_IDS = itertools.count()

#: Flush the memstore to an SSTable once it exceeds this many bytes.
DEFAULT_FLUSH_BYTES = 512 * 1024
#: Merge SSTables once a region accumulates this many runs.
DEFAULT_COMPACT_RUNS = 8


class Region:
    """Memstore + SSTable runs for the key range ``[start_key, end_key)``.

    ``end_key=None`` means unbounded above.  Each region is hosted by one
    region server (``server``); scans charge that server's I/O counters so
    the cost model can account for parallelism across servers.  When the
    store runs with a write-ahead log, the region checkpoints the WAL at
    every flush so replay after a crash only covers unflushed edits.
    """

    def __init__(self, start_key: bytes, end_key: bytes | None,
                 stats: IOStats, server: int = 0,
                 flush_bytes: int = DEFAULT_FLUSH_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 wal: WriteAheadLog | None = None,
                 cache_lookup=None, *,
                 events=None, table: str = ""):
        self.region_id = next(_REGION_IDS)
        self.start_key = start_key
        self.end_key = end_key
        self.server = server
        self._stats = stats
        self._flush_bytes = flush_bytes
        self._block_bytes = block_bytes
        self.wal = wal
        #: ``server -> BlockCache | None``; lets the region evict dead
        #: SSTables' blocks when compaction/split/failover retires them.
        #: Without it (standalone regions in tests) nothing is evicted,
        #: matching the store-less construction signature.
        self.cache_lookup = cache_lookup
        #: Cluster event log (None for standalone regions in tests) and
        #: the owning table's name, for flush/compaction events.
        self.events = events
        self.table = table
        #: Highest WAL sequence number absorbed into this region.
        self.max_seqno = 0
        #: The store's :class:`~repro.replication.manager.
        #: ReplicationManager` once the region has follower replicas
        #: (set by ``attach_region``); ``None`` without replication.
        self.replication = None
        #: Simulated-clock instant until which the region is offline
        #: (set by a balancer move while it reopens on the destination).
        self.unavailable_until_ms = 0.0
        #: Simulated-clock birth instant; the balancer refuses to merge
        #: young regions (a freshly pre-split table is cold by
        #: definition — merging it away would undo the DDL's intent).
        self.created_ms = events.now_ms if events is not None else 0.0
        self.memstore = MemStore()
        self.sstables: list[SSTable] = []  # oldest first
        #: Hotness accounting for ``sys.regions``: lifetime counters plus
        #: exponentially-decayed per-second rates on the simulated clock.
        self.reads = 0
        self.writes = 0
        self.read_rate = DecayedRate()
        self.write_rate = DecayedRate()

    def _now_ms(self) -> float:
        return self.events.now_ms if self.events is not None else 0.0

    def record_read(self) -> None:
        """Count one read visit (a get, or one scan touching the region)."""
        self.reads += 1
        self.read_rate.record(self._now_ms())

    # -- write path ----------------------------------------------------------
    def put(self, key: bytes, value: bytes | None,
            seqno: int | None = None) -> None:
        self.apply(((key, value),), seqno)

    def apply(self, mutations, seqno: int | None = None) -> None:
        """Absorb ``(key, value-or-None)`` mutations logged up to
        ``seqno``, then flush once if the memstore is full.

        Only the last mutation may fill the memstore — the store cuts a
        write batch into segments that way (DESIGN §7.1) — so one check
        at the end flushes exactly where one put at a time would.
        """
        if seqno is not None:
            self.max_seqno = max(self.max_seqno, seqno)
        memstore = self.memstore
        now_ms = self._now_ms()
        for key, value in mutations:
            self.writes += 1
            self.write_rate.record(now_ms)
            memstore.put(key, value)
        if memstore.size_bytes >= self._flush_bytes:
            self.flush()

    def flush(self) -> None:
        """Persist the memstore as a new SSTable run."""
        if not len(self.memstore):
            return
        flushed_bytes = self.memstore.size_bytes
        entries = list(self.memstore.items_sorted())
        self.sstables.append(
            SSTable(entries, self._stats, self._block_bytes))
        self.memstore.clear()
        if self.events is not None:
            self.events.emit(FlushEvent(
                table=self.table, region_id=self.region_id,
                server=self.server, bytes_flushed=flushed_bytes,
                entries=len(entries)))
        if self.wal is not None:
            self.wal.checkpoint(self.region_id, self.max_seqno)
            if self.events is not None:
                self.events.emit(WalCheckpointEvent(
                    table=self.table, region_id=self.region_id,
                    server=self.server, seqno=self.max_seqno))
        if self.replication is not None:
            # Ship the flush marker down the replication stream so
            # followers drop their memstore copies and checkpoint too.
            self.replication.on_flush(self, self.max_seqno)
        if len(self.sstables) >= DEFAULT_COMPACT_RUNS:
            self.compact()

    def compact(self) -> None:
        """Merge all runs into one, dropping masked values and tombstones.

        The replaced runs' cached blocks are invalidated: left behind
        they would hold cache budget as dead weight, evicting live
        blocks and corrupting the cache-hit metrics (an HBase compaction
        likewise drops the old HFiles' blocks from the block cache).
        """
        if len(self.sstables) <= 1:
            return
        runs = len(self.sstables)
        merged: dict[bytes, bytes | None] = {}
        read_bytes = 0
        for sstable in self.sstables:  # oldest first: newer overwrite older
            read_bytes += sstable.total_bytes
            for key, value in sstable.entries():
                merged[key] = value
        self._stats.record_disk_read(read_bytes, self.server)
        live = [(k, v) for k, v in sorted(merged.items()) if v is not None]
        self.evict_cached_blocks()
        self.sstables = [SSTable(live, self._stats, self._block_bytes)]
        if self.events is not None:
            self.events.emit(CompactionEvent(
                table=self.table, region_id=self.region_id,
                server=self.server, runs=runs, read_bytes=read_bytes,
                bytes_after=self.sstables[0].total_bytes))

    def evict_cached_blocks(self, sstables: list[SSTable] | None = None,
                            server: int | None = None) -> int:
        """Invalidate cached blocks of ``sstables`` (default: all runs).

        With ``server`` the eviction targets that one server's cache;
        by default it covers every server serving this region — the
        primary plus, under replication, all follower servers, whose
        caches hold blocks of the same shared SSTables from follower
        reads.  Returns the bytes released; 0 without a cache lookup.
        """
        if self.cache_lookup is None:
            return 0
        if server is not None:
            servers = [server]
        else:
            servers = [self.server]
            if self.replication is not None:
                servers += self.replication.follower_servers(
                    self.region_id)
        released = 0
        for target in set(servers):
            cache = self.cache_lookup(target)
            if cache is None:
                continue
            for sstable in (self.sstables if sstables is None
                            else sstables):
                released += cache.invalidate_sstable(sstable.sstable_id)
        return released

    # -- read path -----------------------------------------------------------
    def get(self, key: bytes, cache: BlockCache | None,
            replica=None) -> bytes | None:
        """Newest-version lookup, optionally served by a follower.

        With ``replica`` (a :class:`~repro.replication.replica.
        FollowerReplica`) the lookup uses the follower's private
        memstore and charges I/O to the follower's server; the SSTables
        are shared storage, identical from every replica.
        """
        self.record_read()
        memstore = self.memstore if replica is None else replica.memstore
        server = self.server if replica is None else replica.server
        found, value = memstore.get(key)
        if found:
            self._stats.record_memstore_read(
                len(key) + (len(value) if value is not None else 0))
            return value
        for sstable in reversed(self.sstables):  # newest first
            found, value = sstable.get(key, cache, server)
            if found:
                return value
        return None

    #: Merged entries between cooperative deadline checks during a scan.
    CANCEL_CHECK_ROWS = CANCEL_CHECK_ROWS

    def run_merge(self, ranges, cache: BlockCache | None, ctx=None,
                  replica=None, key_filter=None):
        """The entries of ``ranges``, key-sorted, as the
        :func:`~repro.kvstore.merge.run_merge` generator of ``(keys,
        values)`` lists (``None`` when the region holds none) of the
        SSTable runs and the memstore (a follower's, with ``replica``,
        whose server then pays the block reads), handing out only the
        entries whose key passes ``key_filter`` and counting the rest as
        rejected.

        ``ranges`` are sorted, disjoint half-open bounds; the region
        holds only keys of its own span, so nothing needs clipping.
        Each source seeks through the range list in a single forward
        pass that pays per span of its own keys, not per range
        (:func:`~repro.kvstore.scan.seek_spans`).  Memory stays bounded
        by the sources' current spans, SSTable blocks are only charged
        as the merge reaches them (an early ``LIMIT`` or cancellation
        stops paying for them), and the deadline is checked every
        ``CANCEL_CHECK_ROWS`` *merged* entries — a cancelled query
        aborts mid-merge instead of after materializing the region.
        """
        memstore = self.memstore if replica is None else replica.memstore
        server = self.server if replica is None else replica.server
        return run_merge(
            [(sstable._keys, sstable._values,
              sstable.spans(ranges, cache, server))
             for sstable in self.sstables],
            memstore.spans(ranges), self._stats.record_memstore_read,
            ctx, f"region {self.region_id} scan", key_filter,
            self._stats.record_key_rejected)

    # -- sizing --------------------------------------------------------------
    @property
    def disk_bytes(self) -> int:
        return sum(s.total_bytes for s in self.sstables)

    @property
    def total_bytes(self) -> int:
        return self.disk_bytes + self.memstore.size_bytes

    def all_entries(self) -> list[tuple[bytes, bytes]]:
        """Every live entry, used when the region splits."""
        merged: dict[bytes, bytes | None] = {}
        for sstable in self.sstables:
            for key, value in sstable.entries():
                merged[key] = value
        for key, value in self.memstore.items_sorted():
            merged[key] = value
        return [(k, v) for k, v in sorted(merged.items()) if v is not None]
