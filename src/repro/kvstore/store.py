"""Tables and the store facade."""

from __future__ import annotations

import heapq
import zlib
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import islice
from operator import itemgetter

# One key-value list decodes into one RowBatch, so the list size is
# the dataframe layer's batch size, not a second constant.
from repro.dataframe.batch import DEFAULT_BATCH_ROWS
from repro.errors import (
    RegionUnavailableError,
    TableExistsError,
    TableNotFoundError,
)
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.recovery import RecoveryReport, recover_server
from repro.kvstore.region import DEFAULT_FLUSH_BYTES, Region
from repro.kvstore.scan import Bounds, ScanSpec
from repro.kvstore.sstable import DEFAULT_BLOCK_BYTES, SSTable
from repro.kvstore.wal import (
    DEFAULT_PERIODIC_BYTES,
    SyncPolicy,
    WriteAheadLog,
)
from repro.observability.events import (
    EventLog,
    RegionMergedEvent,
    RegionMovedEvent,
    SplitEvent,
)

#: Split a region once its data exceeds this many bytes.
DEFAULT_SPLIT_BYTES = 4 * 1024 * 1024
#: Block cache per region server.
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

#: Upper bound on pre-split regions and salt buckets (one key byte).
MAX_BUCKETS = 255


_range_start = itemgetter(0)


def salt_of(key: bytes, buckets: int) -> int:
    """Deterministic salt bucket for a key (HBase-style key salting)."""
    return zlib.crc32(key) % buckets


class KVTable:
    """One sorted table, split into key-range regions across servers.

    ``presplit=N`` creates the table with ``N`` regions up front
    (HBase pre-splitting), spreading a write burst across servers from
    the first put instead of waiting for size-triggered splits.

    ``salt_buckets=K`` (>= 2) prepends a one-byte deterministic salt —
    ``crc32(key) % K`` — to every stored key, so even a monotonic or
    SFC-clustered key stream spreads over K contiguous key spaces.
    Point operations recompute the salt; range scans fan out one scan
    per bucket and merge them back into logical key order (the salted
    scan fan-out cost is the classic salting trade-off).  With salting,
    pre-splitting places region boundaries on bucket boundaries.
    """

    def __init__(self, name: str, store: "KVStore", presplit: int = 0,
                 salt_buckets: int = 0):
        if presplit < 0 or presplit > MAX_BUCKETS:
            raise ValueError(f"presplit must be in [0, {MAX_BUCKETS}], "
                             f"got {presplit}")
        if salt_buckets < 0 or salt_buckets > MAX_BUCKETS:
            raise ValueError(f"salt_buckets must be in [0, {MAX_BUCKETS}]"
                             f", got {salt_buckets}")
        self.name = name
        self._store = store
        self._stats = store.stats
        self.salt_buckets = salt_buckets if salt_buckets >= 2 else 0
        self._regions: list[Region] = [
            self._new_region(start, end)
            for start, end in self._initial_ranges(presplit)]
        # _region_starts[i] == _regions[i].start_key, kept sorted for routing
        self._region_starts: list[bytes] = [r.start_key
                                            for r in self._regions]

    def _region(self, start: bytes, end: bytes | None,
                server: int) -> Region:
        """A region of this table over ``[start, end)`` on ``server``."""
        store = self._store
        return Region(start, end, self._stats, server=server,
                      flush_bytes=store.flush_bytes,
                      block_bytes=store.block_bytes,
                      wal=store.wal_for(server),
                      cache_lookup=store.cache_for,
                      events=store.events, table=self.name)

    def _new_region(self, start: bytes, end: bytes | None) -> Region:
        region = self._region(start, end, self._store.next_server())
        self._store.region_created(region)
        return region

    def _initial_ranges(self, presplit: int) -> list[tuple[bytes,
                                                           bytes | None]]:
        """Key ranges for the initial regions (one without pre-split)."""
        starts = [b""]
        if presplit > 1:
            if self.salt_buckets:
                # Boundaries on salt-bucket edges so every bucket lives
                # entirely inside one region.
                bounds = {self.salt_buckets * i // presplit
                          for i in range(1, presplit)}
            else:
                bounds = {256 * i // presplit for i in range(1, presplit)}
            starts += [bytes([b]) for b in sorted(bounds) if 0 < b < 256]
        ends: list[bytes | None] = starts[1:] + [None]
        return list(zip(starts, ends))

    # -- key salting ---------------------------------------------------------
    def _salted(self, key: bytes) -> bytes:
        if not self.salt_buckets:
            return key
        return bytes([salt_of(key, self.salt_buckets)]) + key

    # -- routing -------------------------------------------------------------
    def _region_for(self, key: bytes) -> Region:
        index = bisect_right(self._region_starts, key) - 1
        return self._regions[index]

    def _regions_overlapping(self, bounds: Sequence[Bounds]
                             ) -> list[tuple[Region, Sequence[Bounds]]]:
        """Every region ``bounds`` (a :attr:`ScanSpec.ranges`) touch,
        in key order, each with the slice of ``bounds`` overlapping it.

        Regions and slices both come from bisects: regions no range
        reaches are never looked at, and only a range straddling a
        region boundary appears in two slices.
        """
        starts = self._region_starts
        visits = []
        taken, index = 0, -1
        while taken < len(bounds):
            # The region after a straddled boundary, or else the owner
            # of the next range's start.
            index = max(index + 1,
                        bisect_right(starts, bounds[taken][0]) - 1)
            region = self._regions[index]
            end = region.end_key
            upto = len(bounds) if end is None else bisect_left(
                bounds, end, taken, key=_range_start)
            visits.append((region, bounds[taken:upto]))
            last_stop = bounds[upto - 1][1]
            straddles = end is not None and (last_stop is None
                                             or last_stop > end)
            taken = upto - 1 if straddles else upto
        return visits

    def regions(self) -> list[Region]:
        return list(self._regions)

    # -- API -----------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one cell (a one-mutation
        :meth:`KVStore.write_batch`).

        With a write-ahead log configured, the mutation is logged on the
        hosting region server before it reaches the memstore; under the
        ``SYNC`` policy it is durable when this returns.
        """
        self._store.write_batch(((self, key, value),))

    def delete(self, key: bytes) -> None:
        """Delete one cell (tombstone until compaction)."""
        self._store.write_batch(((self, key, None),))

    def get(self, key: bytes, ctx=None) -> bytes | None:
        self._store.tick_faults("get")
        key = self._salted(key)
        region = self._region_for(key)
        replica = self._store.route_read(self.name, region, "get", ctx)
        server = region.server if replica is None else replica.server
        return region.get(key, self._store.cache_for(server),
                          replica=replica)

    def scan(self, spec: ScanSpec, ctx=None):
        """:meth:`scan_batches` one ``(key, value)`` pair at a time."""
        for keys, values in self.scan_batches(spec, ctx):
            yield from zip(keys, values)

    def scan_batches(self, spec: ScanSpec, ctx=None):
        """Yield live entries across regions, key-sorted, as
        ``(keys, values)`` lists of at most :data:`DEFAULT_BATCH_ROWS`.

        One scan serves the spec's whole range list: faults tick and
        ``scans_started`` rises once, and every region the ranges touch
        is visited once (see :meth:`_scan_regions`).  On an unsalted
        table a list never spans regions.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) makes the
        scan deadline-aware — the remaining budget is checked before
        each region and periodically within one — and enables graceful
        degradation: in partial-results mode an unavailable (or
        gray-failing) region is recorded in the context's skipped-region
        report and the scan continues over the live regions instead of
        failing all-or-nothing.
        """
        self._store.tick_faults("scan")
        self._stats.record_scan()
        if self.salt_buckets:
            yield from self._scan_salted(spec.ranges, ctx, spec.key_filter)
        else:
            yield from self._scan_regions(spec.ranges, ctx, spec.key_filter)

    def _scan_salted(self, bounds: Sequence[Bounds], ctx=None,
                     key_filter=None):
        """Fan the logical ranges out over every salt bucket and merge.

        Each bucket holds a contiguous salted copy of the logical key
        space, so one per-bucket pass over every ``salt + [start, stop)``
        with the salt byte stripped yields the bucket's rows in logical
        order; a ``heapq.merge`` over the buckets restores the global
        order, cut again into lists.  A logical key lives in exactly one
        bucket, so merge comparisons never tie (and never reach the
        values).  A ``key_filter`` sees the logical key, behind the salt
        byte.
        """
        salted_filter = None if key_filter is None \
            else lambda key: key_filter(key[1:])

        def bucket_stream(bucket: int):
            prefix = bytes([bucket])
            # An unbounded range ends with the bucket's key space
            # (buckets are < 255, so prefix+1 exists).
            salted = [(prefix + start,
                       bytes([bucket + 1]) if stop is None
                       else prefix + stop)
                      for start, stop in bounds]
            for keys, values in self._scan_regions(salted, ctx, salted_filter):
                for key, value in zip(keys, values):
                    yield key[1:], value

        merged = heapq.merge(*(bucket_stream(b)
                               for b in range(self.salt_buckets)))
        while chunk := list(islice(merged, DEFAULT_BATCH_ROWS)):
            yield [key for key, _ in chunk], [value for _, value in chunk]

    def _scan_regions(self, bounds: Sequence[Bounds], ctx=None,
                      key_filter=None):
        """Yield the live entries of ``bounds`` as the region merges'
        ``(keys, values)`` lists, one visit per region: one
        routing/availability check, one hotness tick, one trace span and
        one :meth:`Region.run_merge` over the ranges that fall in it.
        Each list's result bytes are counted as it is handed out.

        Entries whose key fails ``key_filter`` stay in the region's
        merge: they were read (their blocks are charged) but are not a
        result.
        """
        profile = getattr(ctx, "profile", None) if ctx is not None \
            else None
        record_result = self._stats.record_result
        for region, ranges in self._regions_overlapping(bounds):
            if ctx is not None:
                ctx.check(f"scan of {self.name!r}")
            try:
                replica = self._store.route_read(self.name, region,
                                                 "scan", ctx)
            except RegionUnavailableError as exc:
                if ctx is not None and ctx.partial_results:
                    ctx.record_skip(self.name, region.region_id,
                                    region.server, str(exc))
                    continue
                raise
            server = region.server if replica is None \
                else replica.server
            cache = self._store.cache_for(server)
            region.record_read()
            before = self._stats.snapshot() if profile is not None \
                else None
            runs = region.run_merge(ranges, cache, ctx, replica,
                                    key_filter)
            rows = 0
            try:
                for keys, values in runs or ():
                    record_result(sum(map(len, keys)) + sum(map(len, values)))
                    rows += len(keys)
                    yield keys, values
            finally:  # however the visit ends
                if profile is not None:
                    self._record_region_span(profile, region, before, rows,
                                             len(ranges))

    def _record_region_span(self, profile, region, before,
                            region_rows: int, num_ranges: int) -> None:
        """Merge one region visit into the trace's per-region scan span.

        One operator may visit a region more than once (a salted table
        visits per bucket, k-NN scans cell after cell); one span per
        (table, region) under the current operator keeps the trace
        readable — counts accumulate across visits.
        """
        delta = self._stats.snapshot().delta(before)
        span = None
        for child in profile.current.children:
            if child.kind == "region_scan" and \
                    child.attrs.get("table") == self.name and \
                    child.attrs.get("region") == region.region_id:
                span = child
                break
        if span is None:
            span = profile.add_event(
                f"RegionScan[{self.name} r{region.region_id} "
                f"s{region.server}]",
                kind="region_scan", table=self.name,
                region=region.region_id, server=region.server,
                rows=0, rejected=0, blocks_read=0, cache_hits=0,
                disk_bytes_read=0, ranges=0)
        span.attrs["rows"] += region_rows
        span.attrs["rejected"] += delta.scan_keys_rejected
        span.attrs["blocks_read"] += delta.blocks_read
        span.attrs["cache_hits"] += delta.cache_hits
        span.attrs["disk_bytes_read"] += delta.disk_bytes_read
        span.attrs["ranges"] += num_ranges
        model = self._store.cost_model
        span.sim_ms += (
            model.disk_read_ms(delta.disk_bytes_read)
            + model.memory_scan_ms(delta.cache_bytes_read
                                   + delta.memstore_bytes_read))

    def flush(self) -> None:
        """Flush every region's memstore (used before size measurements)."""
        for region in self._regions:
            region.flush()

    def compact(self) -> None:
        for region in self._regions:
            region.compact()

    # -- splitting -----------------------------------------------------------
    def _split(self, region: Region) -> None:
        entries = region.all_entries()
        if len(entries) < 2:
            return
        mid = len(entries) // 2
        split_key = entries[mid][0]
        if split_key <= region.start_key:
            return
        left = self._region(region.start_key, split_key, region.server)
        right = self._region(split_key, region.end_key,
                             self._store.next_server())
        # An HBase split creates reference files rather than rewriting
        # data, so the daughters' SSTables are built without write charges.
        left.sstables = [SSTable(entries[:mid], self._stats,
                                 self._store.block_bytes,
                                 charge_write=False)]
        right.sstables = [SSTable(entries[mid:], self._stats,
                                  self._store.block_bytes,
                                  charge_write=False)]
        # Every parent entry (memstore included) is now persisted in the
        # daughters' SSTables, so the parent's log records are obsolete —
        # and so are its SSTables' cached blocks (on every replica
        # server).
        self._store.region_retired(region)
        self._store.region_created(left)
        self._store.region_created(right)
        index = self._regions.index(region)
        self._regions[index:index + 1] = [left, right]
        self._region_starts = [r.start_key for r in self._regions]
        self._store.events.emit(SplitEvent(
            table=self.name, region_id=region.region_id,
            server=region.server, left_region_id=left.region_id,
            right_region_id=right.region_id,
            split_key=split_key.hex()))

    def split_region(self, region: Region) -> bool:
        """Split one region now (the balancer's load-triggered split).

        Same mechanics as a size-triggered split; returns False when the
        region is too small or too narrow to split.
        """
        if region not in self._regions:
            raise ValueError(f"region {region.region_id} is not part of "
                             f"table {self.name!r}")
        before = len(self._regions)
        self._split(region)
        return len(self._regions) > before

    # -- merging -------------------------------------------------------------
    def merge_regions(self, left: Region, right: Region) -> Region:
        """Merge two adjacent regions into one hosted on ``left``'s server.

        The HBase ``merge_region`` analogue for cold neighbours: both
        parents' live entries land in one reference SSTable (no write
        charge, like a split), both parents' cached blocks are dropped,
        and both parents' WAL records are retired — every entry is
        persisted in the merged region's SSTable, so nothing needs
        replay on their behalf.
        """
        index = self._regions.index(left)
        if index + 1 >= len(self._regions) \
                or self._regions[index + 1] is not right:
            raise ValueError(
                f"regions {left.region_id} and {right.region_id} are "
                f"not adjacent in table {self.name!r}")
        entries = left.all_entries() + right.all_entries()
        merged = self._region(left.start_key, right.end_key, left.server)
        if entries:
            merged.sstables = [SSTable(entries, self._stats,
                                       self._store.block_bytes,
                                       charge_write=False)]
        for parent in (left, right):
            self._store.region_retired(parent)
        self._store.region_created(merged)
        self._regions[index:index + 2] = [merged]
        self._region_starts = [r.start_key for r in self._regions]
        self._store.events.emit(RegionMergedEvent(
            table=self.name, region_id=merged.region_id,
            server=merged.server, left_region_id=left.region_id,
            right_region_id=right.region_id,
            bytes_after=merged.disk_bytes))
        return merged

    # -- introspection ---------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self._regions)

    @property
    def disk_bytes(self) -> int:
        """Bytes persisted in SSTables (index keys plus values)."""
        return sum(r.disk_bytes for r in self._regions)

    @property
    def total_bytes(self) -> int:
        return sum(r.total_bytes for r in self._regions)

    def count(self) -> int:
        """Number of live entries (full scan, charges I/O)."""
        return sum(len(keys) for keys, _ in self.scan_batches(ScanSpec.full()))

    def servers_used(self) -> set[int]:
        return {r.server for r in self._regions}


class KVStore:
    """The store facade: named tables on ``num_servers`` region servers.

    ``wal_policy=None`` (the default) runs without durability, exactly as
    before; passing a :class:`~repro.kvstore.wal.SyncPolicy` gives every
    region server a write-ahead log and enables crash recovery via
    :meth:`crash_server` / :meth:`failover`.
    """

    def __init__(self, num_servers: int = 5,
                 cache_bytes_per_server: int = DEFAULT_CACHE_BYTES,
                 flush_bytes: int = DEFAULT_FLUSH_BYTES,
                 split_bytes: int = DEFAULT_SPLIT_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 wal_policy: SyncPolicy | None = None,
                 wal_periodic_bytes: int = DEFAULT_PERIODIC_BYTES,
                 cost_model=None,
                 events=None,
                 replication_factor: int = 1,
                 read_mode="primary"):
        self.num_servers = num_servers
        self.flush_bytes = flush_bytes
        self.split_bytes = split_bytes
        self.block_bytes = block_bytes
        self.stats = IOStats()
        #: Cluster event log; always present so regions, recovery, and
        #: the service layer can emit unconditionally.
        self.events = events if events is not None else EventLog()
        self.wal_policy = wal_policy
        if cost_model is None:
            from repro.cluster.simclock import CostModel
            cost_model = CostModel()
        self.cost_model = cost_model
        #: A :class:`~repro.faults.FaultInjector` once one is attached.
        self.fault_injector = None
        self._wals: list[WriteAheadLog] | None = None
        if wal_policy is not None:
            self._wals = [WriteAheadLog(s, self.stats, wal_policy,
                                        wal_periodic_bytes)
                          for s in range(num_servers)]
        self.dead_servers: set[int] = set()
        #: Crashed servers whose failover has not run yet; their regions
        #: raise RegionUnavailableError until :meth:`failover` completes.
        self.recovering_servers: set[int] = set()
        self._pending_crashes: dict[int, tuple[list, int]] = {}
        self.recovery_log: list[RecoveryReport] = []
        self._tables: dict[str, KVTable] = {}
        self._caches = [BlockCache(cache_bytes_per_server)
                        for _ in range(num_servers)]
        self._server_cursor = 0
        #: :class:`~repro.replication.manager.ReplicationManager` once
        #: region replication is on; ``None`` runs single-copy.
        self.replication = None
        if replication_factor > 1:
            self.enable_replication(replication_factor, read_mode)

    def next_server(self) -> int:
        """Round-robin region placement across the placeable servers.

        Recovering servers are skipped too: a region placed on a
        crashed-but-not-yet-failed-over server would be born
        unavailable (every access raises RegionUnavailableError until
        its failover completes, which never covers the new region).
        """
        for _ in range(self.num_servers):
            server = self._server_cursor
            self._server_cursor = (self._server_cursor + 1) % self.num_servers
            if server not in self.dead_servers \
                    and server not in self.recovering_servers:
                return server
        raise RuntimeError("no surviving region servers")

    @property
    def alive_servers(self) -> list[int]:
        return [s for s in range(self.num_servers)
                if s not in self.dead_servers]

    @property
    def placeable_servers(self) -> list[int]:
        """Servers that can host regions right now (alive, recovered)."""
        return [s for s in self.alive_servers
                if s not in self.recovering_servers]

    def cache_for(self, server: int) -> BlockCache:
        return self._caches[server]

    def wal_for(self, server: int) -> WriteAheadLog | None:
        if self._wals is None:
            return None
        return self._wals[server]

    def clear_caches(self) -> None:
        """Drop every block cache (benchmarks do this between queries)."""
        for cache in self._caches:
            cache.clear()

    # -- write path ------------------------------------------------------------
    def write_batch(self, mutations) -> None:
        """Apply ``(kv_table, key, value-or-None)`` mutations in order,
        with exactly the effect of applying them one at a time.

        The call is one fault-injection op, and each region it visits is
        gated (availability, gray faults) once.  The batch is cut into
        chunks, each ending after any mutation that could bring its
        region to ``split_bytes``: the prediction adds every mutation's
        full size and ignores overwrites, so it is never later than the
        real trigger, and the size check runs there — splits happen at
        the points and in the order of one put at a time, and
        :meth:`next_server` places the daughters as it would.  Inside a
        chunk each region is visited once, in order of first appearance,
        and its mutations are cut into segments where its memstore
        fills (:meth:`_segments`).  Each segment is one WAL group
        commit, then one replica ship (one quorum ack under ``SYNC``)
        and one memstore apply that ends with the flush (and compaction)
        one put at a time makes there.  See DESIGN §7.1.

        An exception raised from a batch carries ``landed``: the
        positions in ``mutations``, ascending, of the mutations that
        were applied before it.  These need not be a prefix, since a
        chunk is applied region by region.
        """
        if not mutations:
            return
        split_bytes = self.split_bytes
        routed = [(table, table._salted(key), value)
                  for table, key, value in mutations]
        gated: set[int] = set()
        start = 0
        applied: dict[Region, int] = {}  # region -> its mutations applied
        try:
            self.tick_faults("put")
            while start < len(routed):
                # region -> its (key, value) mutations in this chunk; the
                # dict keeps the regions in order of first appearance.
                chunk: dict[Region, list] = {}
                grown: dict[Region, int] = {}
                for end in range(start, len(routed)):
                    table, key, value = routed[end]
                    region = table._region_for(key)
                    size = grown.get(region)
                    if size is None:
                        size = region.total_bytes
                        chunk[region] = []
                    size += len(key) if value is None \
                        else len(key) + len(value)
                    grown[region] = size
                    chunk[region].append((key, value))
                    if size >= split_bytes:
                        break
                # Only the chunk's last mutation can have brought its
                # region to split_bytes.
                last_table, last_region = table, region
                for region in chunk:
                    if region.region_id not in gated:
                        self.check_available(region.table, region, "put")
                        gated.add(region.region_id)
                # Every segment of the chunk is logged before any is
                # applied, so the chunk's flushes find all its appends in
                # their logs and one checkpoint sync covers them, as it
                # would one put at a time.
                logged = [(region, segment,
                           self.wal_append(region, region.table, segment))
                          for region, items in chunk.items()
                          for segment in self._segments(region, items)]
                for region, segment, records in logged:
                    seqno = None
                    if records is not None:
                        # A failed SYNC quorum raises here, before the
                        # memstore apply: the rest of the chunk is at
                        # worst ghost records in the logs (indeterminate,
                        # like any timed-out distributed commit).
                        self.replicate_append(region, records)
                        seqno = records[-1].seqno
                    region.apply(segment, seqno)
                    applied[region] = applied.get(region, 0) + len(segment)
                start, applied = end + 1, {}
                if last_region.total_bytes >= split_bytes:
                    last_table._split(last_region)
            for wal in self._wals or ():
                wal.maybe_sync()
        except Exception as exc:
            exc.landed = self._landed(routed, start, applied)
            raise

    @staticmethod
    def _landed(routed: list, start: int,
                applied: dict[Region, int]) -> list[int]:
        """Positions of the mutations a failed :meth:`write_batch`
        applied: every one before the failing chunk (which starts at
        ``start``), and of that chunk each region's first ``applied``.
        No region splits inside a chunk, so the routing still holds."""
        landed = list(range(start))
        if applied:
            seen: dict[Region, int] = {}
            for index in range(start, len(routed)):
                table, key, _ = routed[index]
                region = table._region_for(key)
                rank = seen.get(region, 0)
                seen[region] = rank + 1
                if rank < applied.get(region, 0):
                    landed.append(index)
        return landed

    def _segments(self, region: Region, items: list):
        """Cut one region's mutations of a chunk after each one that
        brings its memstore to ``flush_bytes``.

        The memstore size is followed exactly — an overwrite frees the
        bytes of the entry it replaces, a flush empties it — so a
        segment ends where one put at a time flushes, and nowhere else.
        """
        memstore = region.memstore
        size = memstore.size_bytes
        written: dict[bytes, int] = {}  # entry bytes since the last flush
        flushed = False
        first = 0
        for index, (key, value) in enumerate(items):
            entry = len(key) if value is None else len(key) + len(value)
            old = written.get(key)
            if old is None:
                old = 0 if flushed else memstore.entry_bytes(key)
            size += entry - old
            written[key] = entry
            if size >= self.flush_bytes:
                yield items[first:index + 1]
                first = index + 1
                size = 0
                written = {}
                flushed = True
        if first < len(items):
            yield items[first:]

    # -- replication -----------------------------------------------------------
    def enable_replication(self, factor: int = 3,
                           read_mode="primary") -> "object":
        """Turn on region replication (requires a WAL policy).

        Every existing and future region gets ``factor - 1`` follower
        replicas on distinct servers; see
        :class:`~repro.replication.manager.ReplicationManager`.
        ``read_mode`` sets the default serving mode for reads
        (``primary`` / ``follower`` / ``hedged``).
        """
        from repro.replication.manager import ReplicationManager
        if self.replication is not None:
            return self.replication
        self.replication = ReplicationManager(self, factor=factor,
                                              read_mode=read_mode)
        for table in self.tables():
            for region in table.regions():
                self.replication.attach_region(region)
        return self.replication

    def region_created(self, region: Region) -> None:
        """A region came into existence (create/presplit/split/merge)."""
        if self.replication is not None:
            self.replication.attach_region(region)

    def region_retired(self, region: Region) -> None:
        """A region ceased to exist (split parent, merge parent, drop):
        its cached blocks are evicted on every server serving it (which
        reads its followers, so before they detach), its log records
        retired and its replicas detached."""
        region.evict_cached_blocks()
        if region.wal is not None:
            region.wal.retire_region(region.region_id)
        if self.replication is not None:
            self.replication.detach_region(region)

    def replicate_append(self, region: Region, records) -> None:
        """Ship one segment's primary WAL records to the region's
        followers (one quorum ack under ``SYNC``)."""
        if self.replication is not None:
            self.replication.on_append(region, records)

    def route_read(self, table: str, region: Region, op: str,
                   ctx=None):
        """Pick the replica serving one read; ``None`` means primary.

        Without replication this is exactly :meth:`check_available`;
        with it, follower/hedged modes may return a
        :class:`~repro.replication.replica.FollowerReplica` to serve
        from instead.
        """
        if self.replication is None:
            self.check_available(table, region, op, ctx)
            return None
        return self.replication.route_read(table, region, op, ctx)

    def replica_servers(self, region: Region) -> set[int]:
        """Servers hosting any replica of ``region`` (primary included).

        The balancer planner consults this for anti-affinity: moving a
        primary onto a follower's server would co-locate two copies.
        """
        servers = {region.server}
        if self.replication is not None:
            servers.update(
                self.replication.follower_servers(region.region_id))
        return servers

    # -- durability and fault tolerance ----------------------------------------
    def tick_faults(self, op: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_op(self, op)

    def wal_append(self, region: Region, table: str, mutations):
        """Log one segment of ``region``'s mutations on its server as
        one group commit; its WAL records, or ``None`` without a log."""
        wal = self.wal_for(region.server)
        if wal is None:
            return None
        return wal.append_batch(table, region.region_id, mutations)

    def check_available(self, table: str, region: Region,
                        op: str = "scan", ctx=None) -> None:
        """Gate one region access: crash-recovery windows and gray faults.

        A region on a crashed-but-not-failed-over server raises
        :class:`RegionUnavailableError`; an attached fault injector may
        additionally charge gray-failure latency to ``ctx`` or raise an
        intermittent per-op error for regions on gray-failing servers.
        """
        if region.server in self.recovering_servers:
            raise RegionUnavailableError(table, region.region_id,
                                         region.server)
        if self.events.now_ms < region.unavailable_until_ms:
            # Mid-move: offline while it reopens on the destination.
            raise RegionUnavailableError(table, region.region_id,
                                         region.server)
        if self.fault_injector is not None:
            self.fault_injector.on_region_op(self, table, region, op,
                                             ctx)

    def sync_wals(self) -> None:
        """Force-sync every server's log (an explicit durability barrier)."""
        if self._wals is not None:
            for wal in self._wals:
                wal.sync()

    def crash_server(self, server: int, lost_tail_records: int = 0,
                     defer_failover: bool = False) -> RecoveryReport | None:
        """Kill one region server.

        Its block cache is invalidated, its memstores are gone, and its
        WAL loses the unsynced tail (plus ``lost_tail_records`` synced
        records when simulating torn-tail/delayed-write corruption).
        Unless ``defer_failover`` is set, regions are immediately failed
        over to the survivors; otherwise they stay unavailable — raising
        :class:`RegionUnavailableError` — until :meth:`failover` runs.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no such server: {server}")
        if server in self.dead_servers:
            raise ValueError(f"server {server} is already dead")
        if len(self.alive_servers) <= 1:
            raise ValueError("cannot crash the last surviving server")
        self.dead_servers.add(server)
        self.recovering_servers.add(server)
        self._caches[server].clear()
        records: list = []
        discarded = 0
        wal = self.wal_for(server)
        if wal is not None:
            records, discarded = wal.crash(lost_tail_records)
        else:
            # No WAL: every unflushed edit on the server is simply gone.
            for table in self._tables.values():
                for region in table._regions:
                    if region.server == server:
                        discarded += len(region.memstore)
        self._pending_crashes[server] = (records, discarded)
        if defer_failover:
            return None
        return self.failover(server)

    def failover(self, server: int) -> RecoveryReport:
        """Recover a dead server's regions (see
        :func:`~repro.kvstore.recovery.recover_server`).

        A region whose primary lived here is *promoted* onto its
        most-caught-up follower when replication has one, else reopened
        on a survivor; either way the surviving WAL records it lacks
        are replayed and its replica set is repaired.  The dead
        server's block cache is invalidated eagerly (idempotent after
        :meth:`crash_server`'s wholesale clear) so no stale entries of
        moved-away regions outlive the failover.
        """
        if server not in self._pending_crashes:
            raise ValueError(f"server {server} has no pending recovery")
        records, discarded = self._pending_crashes.pop(server)
        self._caches[server].clear()
        report = recover_server(self, server, records, discarded)
        self.recovering_servers.discard(server)
        self.recovery_log.append(report)
        return report

    @property
    def last_recovery(self) -> RecoveryReport | None:
        return self.recovery_log[-1] if self.recovery_log else None

    # -- elastic placement ------------------------------------------------------
    def reopen_region(self, region: Region, dest: int) -> None:
        """Reopen ``region`` cold on ``dest`` (a move, or a failover that
        replays the log).

        Only the source server's cached blocks for the region are
        evicted — follower servers keep serving the same shared
        SSTables, so theirs stay valid — and the destination starts
        cold.  The region binds ``dest``'s WAL and resets its seqno
        watermark: sequence numbers are per-server, so the source's
        watermark means nothing to the destination log, and left in
        place it would checkpoint that log above seqnos it has not
        issued yet, truncating live records.
        """
        region.evict_cached_blocks(server=region.server)
        region.server = dest
        region.wal = self.wal_for(dest)
        region.max_seqno = 0
        region.evict_cached_blocks(server=dest)

    def move_region(self, region: Region, dest: int) -> float:
        """Move one region to ``dest`` (the balancer's act primitive).

        HBase ``move_region`` semantics in miniature: the memstore is
        flushed so the source WAL can be checkpointed up to the
        region's high watermark (its records are all persisted — a
        later crash of the source replays nothing for it), and the
        region reopens cold on ``dest`` (:meth:`reopen_region`).  The
        region is unavailable for the simulated duration of the move —
        reads/writes raise :class:`RegionUnavailableError` until the
        clock passes it.
        Returns the simulated move time in ms.
        """
        source = region.server
        if dest == source:
            raise ValueError(f"region {region.region_id} is already on "
                             f"server {dest}")
        if not 0 <= dest < self.num_servers:
            raise ValueError(f"no such server: {dest}")
        if dest in self.dead_servers or dest in self.recovering_servers:
            raise ValueError(f"server {dest} cannot host regions now")
        before = self.stats.snapshot()
        region.flush()
        if region.wal is not None:
            # The flush checkpointed up to max_seqno; make it explicit
            # for the no-new-edits case so the source log holds nothing
            # of this region either way.
            region.wal.checkpoint(region.region_id, region.max_seqno)
        flushed = self.stats.snapshot().delta(before)
        self.reopen_region(region, dest)
        if self.replication is not None:
            self.replication.on_primary_moved(region, source, dest)
        model = self.cost_model
        move_ms = (model.region_reopen_ms
                   + model.disk_write_ms(flushed.disk_bytes_written))
        region.unavailable_until_ms = self.events.now_ms + move_ms
        self.events.emit(RegionMovedEvent(
            table=region.table, region_id=region.region_id,
            server=dest, from_server=source,
            bytes_moved=region.disk_bytes, move_ms=round(move_ms, 3)))
        return move_ms

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, presplit: int = 0,
                     salt_buckets: int = 0) -> KVTable:
        if name in self._tables:
            raise TableExistsError(name)
        table = KVTable(name, self, presplit=presplit,
                        salt_buckets=salt_buckets)
        self._tables[name] = table
        return table

    def table(self, name: str) -> KVTable:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError(name)
        for region in self._tables[name]._regions:
            self.region_retired(region)
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> list[KVTable]:
        return list(self._tables.values())
