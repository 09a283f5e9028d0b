"""The replication manager: WAL shipping, quorum acks, fast failover.

One :class:`ReplicationManager` per store keeps ``factor - 1`` follower
replicas per region on distinct servers (anti-affinity) and drives four
mechanisms:

* **WAL shipping** — every primary WAL append is shipped, in order, to
  the region's followers, which append it to *their* server's WAL and
  apply it to their private memstore.  Under the ``SYNC`` policy the
  write is only acknowledged once a quorum (primary included) holds it
  durably; ``PERIODIC``/``ASYNC`` enqueue and ship lazily, exposing the
  backlog as per-replica lag.
* **Fast failover** — when a primary's server dies, recovery
  (:func:`~repro.kvstore.recovery.recover_server`) *promotes* the
  most-caught-up live follower: its memstore and its local WAL records
  simply become the region's, and only the records it had not applied
  yet are replayed.  The unavailability window shrinks from a full WAL
  replay to a region reopen plus that catch-up.
* **Anti-entropy** — a background chore (:meth:`maybe_tick`, driven by
  the simulated clock like the balancer's) drains lazy backlogs, heals
  torn or freshly-placed followers by re-copying the primary's
  unflushed tail, and tops follower sets back up to the factor.
* **Replica reads** — reads may opt into ``FOLLOWER`` (timeline
  consistency) or ``HEDGED`` serving, so a slow or gray-failing primary
  no longer owns the read tail; see :meth:`route_read`.

In-order shipping means every follower holds a *prefix* of the
primary's edit stream.  An acknowledged SYNC write is therefore in the
applied prefix of at least ``quorum - 1`` followers, and the follower
with the highest ``applied_seqno`` holds a superset of every
acknowledged edit — which is exactly why promoting the most-caught-up
follower can never lose an acknowledged write, even when the crashed
primary's own log tail is torn.
"""

from __future__ import annotations

from repro.errors import RegionUnavailableError, ReplicationQuorumError
from repro.kvstore.wal import SyncPolicy, WALRecord
from repro.observability.events import ReplicaLagEvent, ReplicaRebuildEvent
from repro.observability.metrics import Histogram
from repro.replication.replica import (
    LIVE,
    REBUILDING,
    TORN,
    FlushMarker,
    FollowerReplica,
    ReadMode,
    read_mode_of,
)

#: How often (simulated ms) the anti-entropy chore runs.
DEFAULT_INTERVAL_MS = 200.0
#: Emit a ReplicaLagEvent once a follower's backlog crosses this.
DEFAULT_LAG_ALERT_RECORDS = 64
#: Hedged reads: wait this long (simulated ms) for the primary before
#: sending the hedge request to a follower.
DEFAULT_HEDGE_MS = 5.0


class ReplicationManager:
    """Keeps and uses follower replicas for every region of one store."""

    def __init__(self, store, factor: int = 3,
                 read_mode: ReadMode | str = ReadMode.PRIMARY):
        if factor < 2:
            raise ValueError(f"replication factor must be >= 2, "
                             f"got {factor}")
        if store.wal_policy is None:
            raise ValueError("replication requires a write-ahead log "
                             "(pass wal_policy to the store)")
        self.store = store
        self.factor = factor
        #: Copies (primary included) that must hold a SYNC write durably
        #: before it is acknowledged.
        self.quorum = factor // 2 + 1
        self.read_mode = read_mode_of(read_mode)
        self.interval_ms = DEFAULT_INTERVAL_MS
        self.lag_alert_records = DEFAULT_LAG_ALERT_RECORDS
        self.hedge_ms = DEFAULT_HEDGE_MS
        self._followers: dict[int, list[FollowerReplica]] = {}
        self._last_tick_ms = float("-inf")
        # Lifetime counters (the registry reads them as replication.*).
        self.ticks = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.markers_shipped = 0
        self.blocked_ships = 0
        self.dropped_ships = 0
        self.quorum_failures = 0
        self.promotions = 0
        self.rebuilds = 0
        self.follower_reads = 0
        self.hedged_reads = 0
        self.hedge_wins = 0
        self.lag_alerts = 0
        #: Worst follower backlog / followers over the alert threshold,
        #: as of the last anti-entropy pass.
        self.max_lag_records = 0
        self.lagging_followers = 0
        self.quorum_ack_ms = Histogram("replication.quorum_ack_ms")

    # -- placement -----------------------------------------------------------
    def _pick_servers(self, count: int, exclude: set[int],
                      start: int) -> list[int]:
        """Up to ``count`` distinct placeable servers, ring order from
        ``start`` (spreads follower sets instead of piling on server 0)."""
        store = self.store
        picked: list[int] = []
        for i in range(store.num_servers):
            server = (start + i) % store.num_servers
            if server in exclude or server in store.dead_servers \
                    or server in store.recovering_servers:
                continue
            picked.append(server)
            exclude.add(server)
            if len(picked) >= count:
                break
        return picked

    def attach_region(self, region) -> None:
        """Give a new region its follower set (anti-affine placement).

        A region is empty at creation (splits and merges persist every
        parent entry into shared SSTables first), so fresh followers are
        immediately ``LIVE`` and caught up at ``applied_seqno == 0``.
        """
        followers = [FollowerReplica(server)
                     for server in self._pick_servers(
                         self.factor - 1, {region.server},
                         start=region.server + 1)]
        self._followers[region.region_id] = followers
        region.replication = self

    def detach_region(self, region) -> None:
        """The region is gone (split parent, merge parent, table drop)."""
        for follower in self._followers.pop(region.region_id, ()):
            self._release_follower(region, follower)
        region.replication = None

    def followers(self, region_id: int) -> list[FollowerReplica]:
        return self._followers.get(region_id, [])

    def follower_servers(self, region_id: int) -> list[int]:
        return [f.server for f in self._followers.get(region_id, ())]

    def _release_follower(self, region, follower: FollowerReplica) -> None:
        """Drop a follower's footprint on its current server: retire its
        shipped WAL records and evict its cached blocks (the server no
        longer serves this region, so the blocks are dead weight —
        exactly like the source side of a ``move_region``)."""
        wal = self.store.wal_for(follower.server)
        if wal is not None and follower.local_max_seqno:
            wal.checkpoint(region.region_id, follower.local_max_seqno)
        region.evict_cached_blocks(server=follower.server)

    # -- write path: shipping and quorum -------------------------------------
    def _ship_verdict(self, server: int) -> str:
        """The fault injector's verdict on one ship to ``server``; the
        one place blocked and dropped ships are counted."""
        injector = self.store.fault_injector
        if injector is None:
            return "ok"
        verdict = injector.on_ship(server)
        if verdict == "blocked":
            self.blocked_ships += 1
        elif verdict == "drop":
            self.dropped_ships += 1
        return verdict

    def _apply_records(self, follower: FollowerReplica,
                       records: list[WALRecord]) -> None:
        """Land a run of shipped records (one region's, in stream order)
        on a follower: one group commit to its WAL, then its memstore."""
        if not records:
            return
        first = records[0]
        wal = self.store.wal_for(follower.server)
        if wal is not None:
            follower.local_max_seqno = wal.append_batch(
                first.table, first.region_id,
                [(record.key, record.value) for record in records]
            )[-1].seqno
            wal.maybe_sync()
        memstore = follower.memstore
        for record in records:
            memstore.put(record.key, record.value)
        follower.applied_seqno = max(follower.applied_seqno,
                                     records[-1].seqno)
        follower.shipped_records += len(records)
        self.records_shipped += len(records)
        self.bytes_shipped += sum(record.nbytes for record in records)

    def _apply_marker(self, region, follower: FollowerReplica,
                      marker: FlushMarker) -> None:
        """The primary flushed: everything the follower has applied is
        now in shared SSTables, so its memstore copy and its local WAL
        records are obsolete."""
        follower.memstore.clear()
        wal = self.store.wal_for(follower.server)
        if wal is not None and follower.local_max_seqno:
            wal.checkpoint(region.region_id, follower.local_max_seqno)
        follower.applied_seqno = max(follower.applied_seqno,
                                     marker.seqno)
        self.markers_shipped += 1

    def _drain(self, region, follower: FollowerReplica) -> bool:
        """Ship the follower's queued backlog in order, each run of
        records between flush markers landing as one group commit.

        Returns True when the backlog fully landed and the follower is
        still ``LIVE``.  A blocked link (partition) leaves the rest of
        the backlog queued for a later attempt; a record *dropped*
        mid-flight after the sender moved on leaves a gap in the stream,
        so the follower is marked ``TORN`` — its applied prefix stays
        valid (and promotable) but it must be rebuilt before applying
        more.
        """
        if follower.state != LIVE:
            return False
        pending = follower.pending
        run: list[WALRecord] = []
        while pending:
            item = pending[0]
            if isinstance(item, FlushMarker):
                self._apply_records(follower, run)
                run = []
                pending.popleft()
                self._apply_marker(region, follower, item)
                continue
            verdict = self._ship_verdict(follower.server)
            if verdict == "blocked":
                break
            pending.popleft()
            if verdict == "drop":
                follower.dropped_records += 1
                follower.state = TORN
                break
            run.append(item)
        self._apply_records(follower, run)
        return not pending and follower.state == LIVE

    def _ship_sync(self, region, follower: FollowerReplica,
                   records: list[WALRecord]) -> bool:
        """Ship one segment synchronously for a quorum ack.

        In-order shipping first drains anything already queued.  Each
        record gets its own verdict: the ones before the first blocked
        or lost record land as one group commit, and it and the rest
        join the queue so the stream keeps its order when the link
        heals.  Only a segment that landed whole acks.
        """
        if not self._drain(region, follower):
            follower.pending.extend(records)
            return False
        for shipped, record in enumerate(records):
            if self._ship_verdict(follower.server) != "ok":
                # Blocked, or lost in flight but not acknowledged: the
                # sender still holds it, so this is a retry, not a torn
                # stream.
                self._apply_records(follower, records[:shipped])
                follower.pending.extend(records[shipped:])
                return False
        self._apply_records(follower, records)
        return True

    def on_append(self, region, records: list[WALRecord]) -> None:
        """One segment of ``region``'s writes reached the primary WAL
        (one group commit); replicate it.

        Under ``SYNC`` the segment needs ``quorum`` durable copies
        (primary included) before it is acknowledged — too few and this
        raises :class:`~repro.errors.ReplicationQuorumError` *before*
        the primary memstore applies it.  Other policies enqueue to
        every follower and ship lazily (at flushes and chore ticks).
        """
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        sync = self.store.wal_policy is SyncPolicy.SYNC
        acks = 1  # the primary's own synced append
        for follower in followers:
            if follower.state != LIVE:
                continue  # torn/rebuilding replicas heal via the chore
            if sync and acks < self.quorum:
                if self._ship_sync(region, follower, records):
                    acks += 1
            else:
                follower.pending.extend(records)
        if sync and acks < self.quorum:
            self.quorum_failures += 1
            raise ReplicationQuorumError(records[0].table,
                                         region.region_id,
                                         region.server, acks,
                                         self.quorum)
        if sync:
            # Modeled quorum-ack latency: sequential synchronous ships,
            # one follower WAL group commit each (the primary's own
            # fsync is charged by the WAL itself).
            self.quorum_ack_ms.observe(
                (acks - 1) * self.store.cost_model.fsync_ms)

    def on_flush(self, region, seqno: int) -> None:
        """The primary flushed its memstore; ship the marker in-stream."""
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        marker = FlushMarker(seqno)
        for follower in followers:
            if follower.state != LIVE:
                continue
            follower.pending.append(marker)
            self._drain(region, follower)

    # -- anti-entropy chore --------------------------------------------------
    def maybe_tick(self):
        """Run one anti-entropy pass if the interval elapsed."""
        now_ms = self.store.events.now_ms
        if now_ms - self._last_tick_ms < self.interval_ms:
            return None
        return self.tick()

    def tick(self) -> dict:
        """One anti-entropy pass over every region's follower set."""
        store = self.store
        self._last_tick_ms = store.events.now_ms
        self.ticks += 1
        healed = drained = 0
        max_lag = 0
        lagging = 0
        for table in store.tables():
            for region in table.regions():
                followers = self._followers.get(region.region_id)
                if followers is None:
                    continue
                for follower in list(followers):
                    if follower.server in store.dead_servers:
                        # Its server died without a failover touching
                        # this region (it only hosted followers here).
                        followers.remove(follower)
                self._top_up(region, followers)
                for follower in followers:
                    if follower.state in (TORN, REBUILDING):
                        if self._rebuild(table.name, region, follower):
                            healed += 1
                    elif self._drain(region, follower):
                        drained += 1
                    max_lag = max(max_lag, follower.lag_records)
                    if follower.lag_records > self.lag_alert_records:
                        lagging += 1
                        self.lag_alerts += 1
                        store.events.emit(ReplicaLagEvent(
                            table=table.name,
                            region_id=region.region_id,
                            server=follower.server,
                            lag_records=follower.lag_records))
        self.max_lag_records = max_lag
        self.lagging_followers = lagging
        return {"healed": healed, "drained": drained}

    def _top_up(self, region, followers: list[FollowerReplica]) -> None:
        """Add fresh (rebuilding) followers up to ``factor - 1``."""
        want = self.factor - 1 - len(followers)
        if want <= 0:
            return
        exclude = {region.server} | {f.server for f in followers}
        for server in self._pick_servers(want, exclude,
                                         start=region.server + 1):
            followers.append(FollowerReplica(server, state=REBUILDING))

    def _rebuild(self, table_name: str, region,
                 follower: FollowerReplica) -> bool:
        """Heal one torn/fresh follower: re-copy the primary's unflushed
        tail over the ship link.  Everything at or below the primary's
        ``max_seqno`` lives in its memstore or in shared SSTables, so a
        fresh memstore copy plus ``applied_seqno = max_seqno`` is a
        fully caught-up replica.  A still-bad link aborts the attempt;
        the chore retries next tick.
        """
        store = self.store
        follower.reset()
        wal = store.wal_for(follower.server)
        copied = 0
        for key, value in region.memstore.items_sorted():
            if self._ship_verdict(follower.server) != "ok":
                # Drop the partial copy; its WAL records are retired so
                # the next attempt starts clean.
                follower.reset()
                if wal is not None:
                    wal.checkpoint(region.region_id, wal.appended_seqno)
                return False
            if wal is not None:
                follower.local_max_seqno = wal.append(
                    table_name, region.region_id, key, value)
            follower.memstore.put(key, value)
            copied += 1
        follower.applied_seqno = region.max_seqno
        follower.state = LIVE
        self.rebuilds += 1
        store.events.emit(ReplicaRebuildEvent(
            table=table_name, region_id=region.region_id,
            server=follower.server, records_copied=copied))
        return True

    def _restore_quorum(self, table_name: str, region,
                        followers: list[FollowerReplica]) -> None:
        """After a failover, writes must be able to ack again: under
        ``SYNC``, rebuild followers synchronously until ``quorum - 1``
        are live (the rest heal lazily via the chore)."""
        if self.store.wal_policy is not SyncPolicy.SYNC:
            return
        need = self.quorum - 1
        live = sum(1 for f in followers if f.state == LIVE)
        for follower in followers:
            if live >= need:
                break
            if follower.state != LIVE:
                if self._rebuild(table_name, region, follower):
                    live += 1

    # -- failover: promotion and replica-set repair ---------------------------
    def promote(self, region) -> FollowerReplica | None:
        """Make the most-caught-up promotable follower ``region``'s
        primary, or return ``None`` when no follower qualifies.

        A ``LIVE`` or ``TORN`` follower on a live server qualifies; the
        highest ``applied_seqno`` holds every acknowledged edit in its
        prefix, and ties break on the lower server id for determinism.
        The follower's private memstore and its local WAL records
        *become* the region's, and its block cache stays warm —
        shared-SSTable blocks it cached while serving follower reads are
        still valid.
        """
        store = self.store
        followers = self._followers.get(region.region_id, [])
        eligible = [f for f in followers
                    if f.state in (LIVE, TORN)
                    and f.server not in store.dead_servers
                    and f.server not in store.recovering_servers]
        if not eligible:
            return None
        best = max(eligible, key=lambda f: (f.applied_seqno, -f.server))
        followers.remove(best)
        region.memstore = best.memstore
        region.server = best.server
        region.wal = store.wal_for(best.server)
        # Seqnos are per server: the promoted watermark is the
        # follower's own WAL position.
        region.max_seqno = best.local_max_seqno
        self.promotions += 1
        return best

    def resync(self, region) -> None:
        """``region`` has a new primary after a failover: the remaining
        followers' stream positions refer to the dead primary's WAL, so
        they re-sync against the new one.  Followers on dead servers are
        dropped, and so is one the new primary landed on (a replayed
        region is placed without regard to its replicas)."""
        followers = self._followers.get(region.region_id, [])
        for follower in list(followers):
            if follower.server in self.store.dead_servers:
                followers.remove(follower)
                continue
            self._release_follower(region, follower)
            if follower.server == region.server:
                followers.remove(follower)
            else:
                follower.reset()

    def repair(self, server: int, recovered: list) -> None:
        """Restore every replica set the dead ``server`` touched: the
        recovered ``(table, region)`` pairs first, then the regions it
        only hosted followers of.  Each is topped up to ``factor - 1``
        followers and, under ``SYNC``, rebuilt until writes find a
        quorum again (the rest heal lazily via the chore)."""
        losses = [(table, region) for table in self.store.tables()
                  for region in table.regions()
                  if server in self.follower_servers(region.region_id)]
        for table, region in recovered + losses:
            followers = self._followers.get(region.region_id)
            if followers is None:
                continue  # split during recovery
            followers[:] = [f for f in followers if f.server != server]
            self._top_up(region, followers)
            self._restore_quorum(table.name, region, followers)

    # -- placement hooks (balancer integration) ------------------------------
    def on_primary_moved(self, region, source: int, dest: int) -> None:
        """The balancer moved a region's primary ``source`` -> ``dest``.

        ``move_region`` flushed the memstore first, so every entry is in
        shared SSTables and the new primary's stream restarts at seqno
        0 on ``dest``'s WAL.  Followers reset to that empty stream —
        which makes them instantly caught up — and a follower that was
        living on ``dest`` swaps to the vacated ``source`` to keep the
        copies on distinct servers.
        """
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        for follower in followers:
            self._release_follower(region, follower)
            follower.reset(server=source if follower.server == dest
                           else None)
            # Empty memstore at position 0 == the just-moved primary.
            follower.state = LIVE

    # -- read routing ---------------------------------------------------------
    def effective_mode(self, ctx) -> ReadMode:
        override = getattr(ctx, "read_mode", None) if ctx is not None \
            else None
        if override is not None:
            return read_mode_of(override)
        return self.read_mode

    def _probe(self, server: int, op: str) -> tuple[float, bool]:
        injector = self.store.fault_injector
        if injector is None:
            return 0.0, False
        return injector.evaluate(server, op)

    def _read_candidates(self, region) -> list[FollowerReplica]:
        store = self.store
        return [f for f in self._followers.get(region.region_id, ())
                if f.state == LIVE
                and f.server not in store.dead_servers
                and f.server not in store.recovering_servers]

    def route_read(self, table: str, region, op: str,
                   ctx=None) -> FollowerReplica | None:
        """Decide which replica serves one read.

        Returns ``None`` for the primary, or the chosen follower.
        ``PRIMARY`` mode is byte-for-byte the unreplicated behaviour.
        In the other modes an offline primary (mid-failover or mid-move)
        degrades to follower serving instead of raising, and ``HEDGED``
        arbitrates primary vs follower latency under gray faults,
        charging only the winning path to the request's deadline.
        """
        store = self.store
        mode = self.effective_mode(ctx)
        candidates = self._read_candidates(region) \
            if mode is not ReadMode.PRIMARY else []
        if not candidates:
            store.check_available(table, region, op, ctx)
            return None
        best = max(candidates, key=lambda f: (f.applied_seqno,
                                              -f.server))
        primary_offline = (region.server in store.recovering_servers
                           or store.events.now_ms
                           < region.unavailable_until_ms)
        if primary_offline:
            # The unreplicated path would raise RegionUnavailableError;
            # a live follower keeps the region readable instead.
            follower_ms, follower_err = self._probe(best.server, op)
            if follower_err:
                raise RegionUnavailableError(
                    table, region.region_id, best.server,
                    reason="primary offline and follower replica "
                           "failing intermittently")
            if ctx is not None and follower_ms:
                ctx.charge(follower_ms, label="gray_latency")
            self.follower_reads += 1
            best.reads += 1
            return best
        if mode is ReadMode.FOLLOWER:
            follower_ms, follower_err = self._probe(best.server, op)
            if follower_err:
                # A flapping follower is not worth an error when the
                # primary is healthy: fall back.
                store.check_available(table, region, op, ctx)
                return None
            if ctx is not None and follower_ms:
                ctx.charge(follower_ms, label="gray_latency")
            self.follower_reads += 1
            best.reads += 1
            return best
        # HEDGED: probe the primary; past the hedge delay, race a
        # follower and charge only the path that would answer first.
        primary_ms, primary_err = self._probe(region.server, op)
        hedge_ms = self.hedge_ms
        if ctx is not None:
            hedge_ms = ctx.hedge_budget_ms(self.hedge_ms)
        if not primary_err and primary_ms <= hedge_ms:
            if ctx is not None and primary_ms:
                ctx.charge(primary_ms, label="gray_latency")
            return None
        self.hedged_reads += 1
        follower_ms, follower_err = self._probe(best.server, op)
        if follower_err and primary_err:
            raise RegionUnavailableError(
                table, region.region_id, region.server,
                reason="primary and follower replicas both failing "
                       "intermittently")
        if follower_err:
            if ctx is not None and primary_ms:
                ctx.charge(primary_ms, label="gray_latency")
            return None
        hedged_total = hedge_ms + follower_ms
        if primary_err or hedged_total < primary_ms:
            self.hedge_wins += 1
            if ctx is not None and hedged_total:
                ctx.charge(hedged_total, label="hedged_read")
            best.reads += 1
            return best
        if ctx is not None and primary_ms:
            ctx.charge(primary_ms, label="gray_latency")
        return None

    # -- introspection ---------------------------------------------------------
    def rows(self) -> list[dict]:
        """``sys.replication`` rows: one per replica, primaries included."""
        out: list[dict] = []
        for table in self.store.tables():
            for region in table.regions():
                followers = self._followers.get(region.region_id)
                if followers is None:
                    continue
                out.append({
                    "table": table.name,
                    "region_id": region.region_id,
                    "server": region.server, "role": "primary",
                    "state": LIVE,
                    "applied_seqno": region.max_seqno,
                    "lag_records": 0, "reads": region.reads,
                    "shipped_records": 0})
                for follower in followers:
                    out.append({
                        "table": table.name,
                        "region_id": region.region_id,
                        "server": follower.server, "role": "follower",
                        "state": follower.state,
                        "applied_seqno": follower.applied_seqno,
                        "lag_records": follower.lag_records,
                        "reads": follower.reads,
                        "shipped_records": follower.shipped_records})
        return out
