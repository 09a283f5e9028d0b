"""Region replication: placement, quorum writes, failover, reads."""

import random

import pytest

from repro.balancer import Balancer
from repro.balancer.planner import MoveAction, plan_moves
from repro.balancer.policy import BalancerPolicy, server_loads
from repro.errors import (
    RETRYABLE_ERRORS,
    RegionUnavailableError,
    ReplicationQuorumError,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    IntermittentError,
    PartitionedFollower,
    SlowServer,
)
from repro.kvstore import KVStore, SyncPolicy
from repro.replication import LIVE, REBUILDING
from repro.resilience import Deadline, RequestContext


def replicated_store(factor=3, num_servers=5, **kwargs):
    defaults = dict(num_servers=num_servers,
                    wal_policy=SyncPolicy.SYNC,
                    replication_factor=factor,
                    flush_bytes=4 * 1024, split_bytes=16 * 1024,
                    block_bytes=512)
    defaults.update(kwargs)
    return KVStore(**defaults)


def spread_keys(n, seed=0):
    """Keys whose first byte is uniform, so presplit regions all load."""
    rng = random.Random(seed)
    return [rng.getrandbits(64).to_bytes(8, "big") for _ in range(n)]


class TestPlacement:
    def test_requires_wal_and_sane_factor(self):
        with pytest.raises(ValueError):
            KVStore(num_servers=3, replication_factor=3)  # no WAL
        with pytest.raises(ValueError):
            replicated_store(factor=1).enable_replication(factor=1)

    def test_followers_land_on_distinct_servers(self):
        store = replicated_store()
        table = store.create_table("t", presplit=5)
        for region in table.regions():
            servers = store.replica_servers(region)
            assert region.server in servers
            assert len(servers) == 3  # primary + 2 followers, no dupes

    def test_factor_capped_by_alive_servers(self):
        store = replicated_store(factor=3, num_servers=3)
        table = store.create_table("t")
        region = table.regions()[0]
        followers = store.replication.followers(region.region_id)
        assert {f.server for f in followers} \
            == set(range(3)) - {region.server}

    def test_planner_skips_replica_destinations(self):
        # Three servers at rf=3: every server hosts a copy of every
        # region, so no move destination can satisfy anti-affinity and
        # the planner must come up empty however imbalanced the load.
        store = replicated_store(factor=3, num_servers=3)
        table = store.create_table("t", presplit=3)
        for key in spread_keys(300):
            table.put(key, b"v" * 64)
        now_ms = store.events.now_ms
        policy = BalancerPolicy(imbalance_ratio=1.0, min_move_rate=0.0)
        moves = plan_moves(store, policy,
                           server_loads(store, now_ms), now_ms)
        assert moves == []

    def test_planner_honours_anti_affinity_with_room(self):
        store = replicated_store(factor=2, num_servers=5)
        table = store.create_table("t", presplit=5)
        for key in spread_keys(500):
            table.put(key, b"v" * 64)
        now_ms = store.events.now_ms
        policy = BalancerPolicy(imbalance_ratio=1.0, min_move_rate=0.0)
        for action in plan_moves(store, policy,
                                 server_loads(store, now_ms), now_ms):
            assert action.dest not in store.replica_servers(action.region)


class TestQuorumWrites:
    def test_sync_write_ships_to_quorum(self):
        store = replicated_store()
        table = store.create_table("t")
        table.put(b"k", b"v")
        manager = store.replication
        region = table.regions()[0]
        applied = sorted(f.applied_seqno
                         for f in manager.followers(region.region_id))
        # quorum=2: one eager follower acked, the other ships lazily.
        assert applied == [0, 1]
        assert manager.records_shipped == 1
        assert table.get(b"k") == b"v"

    def test_lazy_followers_heal_on_tick(self):
        store = replicated_store()
        table = store.create_table("t")
        for i in range(10):
            table.put(b"k%d" % i, b"v")
        manager = store.replication
        region = table.regions()[0]
        assert max(f.lag_records
                   for f in manager.followers(region.region_id)) > 0
        manager.tick()
        for follower in manager.followers(region.region_id):
            assert follower.lag_records == 0
            assert follower.applied_seqno == region.max_seqno

    def test_quorum_failure_raises_before_memstore_apply(self):
        store = replicated_store(factor=3, num_servers=3)
        table = store.create_table("t")
        table.put(b"k0", b"v")
        region = table.regions()[0]
        followers = store.replication.follower_servers(region.region_id)
        plan = FaultPlan([PartitionedFollower(s) for s in followers],
                         seed=1)
        FaultInjector(plan).attach(store)
        before = region.max_seqno
        appended = store.wal_for(region.server).appended_seqno
        with pytest.raises(ReplicationQuorumError):
            table.put(b"k1", b"v")
        # The write is a ghost: in the primary WAL, not in the memstore.
        assert table.get(b"k1") is None
        assert region.max_seqno == before
        assert store.wal_for(region.server).appended_seqno == appended + 1
        assert store.replication.quorum_failures == 1

    def test_quorum_error_is_retryable(self):
        assert "ReplicationQuorumError" in RETRYABLE_ERRORS
        err = ReplicationQuorumError("t", 0, 1, acks=1, required=2)
        assert isinstance(err, RegionUnavailableError)

    def test_periodic_policy_never_blocks_on_quorum(self):
        store = replicated_store(wal_policy=SyncPolicy.PERIODIC,
                                 num_servers=3)
        table = store.create_table("t")
        region = table.regions()[0]
        followers = store.replication.follower_servers(region.region_id)
        plan = FaultPlan([PartitionedFollower(s) for s in followers],
                         seed=1)
        FaultInjector(plan).attach(store)
        table.put(b"k", b"v")  # lazy shipping: no quorum, no error
        assert table.get(b"k") == b"v"
        assert store.replication.quorum_failures == 0


class TestFailover:
    def ingest(self, store, n=300, seed=0):
        table = store.create_table("t", presplit=store.num_servers)
        acked = {}
        for key in spread_keys(n, seed=seed):
            value = key.hex().encode()
            table.put(key, value)
            acked[key] = value
        return table, acked

    def test_promote_loses_nothing_and_beats_replay(self):
        replay = replicated_store(factor=1)
        rt, racked = self.ingest(replay)
        replay_report = replay.crash_server(0)

        store = replicated_store(factor=3)
        table, acked = self.ingest(store)
        report = store.crash_server(0)
        assert report.promoted_regions > 0
        assert all(table.get(k) == v for k, v in acked.items())
        assert all(rt.get(k) == v for k, v in racked.items())
        assert report.recovery_ms < replay_report.recovery_ms

    def test_chained_failures_lose_no_acked_writes(self):
        # Satellite: kill the primary, promote, kill the promoted
        # server too — acked SYNC writes must survive both hops.
        store = replicated_store(factor=3)
        table, acked = self.ingest(store, n=200)
        region = table.regions()[0]
        first = region.server
        store.crash_server(first)
        assert region.server != first
        promoted = region.server
        watermark = region.max_seqno
        # The promoted primary's watermark covers every acked write it
        # serves, and new writes advance it monotonically.
        for follower in store.replication.followers(region.region_id):
            assert follower.applied_seqno <= watermark
        store.crash_server(promoted)
        assert region.server not in (first, promoted)
        assert region.max_seqno >= 0
        assert all(table.get(k) == v for k, v in acked.items())
        # The store stays writable at quorum after both failovers.
        table.put(b"after-chain", b"v")
        assert table.get(b"after-chain") == b"v"
        assert region.max_seqno > 0
        assert store.replication.promotions >= 2

    def test_torn_primary_tail_is_covered_by_followers(self):
        # SYNC + torn tail would lose acked writes without replication;
        # the quorum copies on followers must cover the loss.
        store = replicated_store(factor=3)
        table, acked = self.ingest(store, n=150)
        victim = table.regions()[0].server
        store.crash_server(victim, lost_tail_records=25)
        assert all(table.get(k) == v for k, v in acked.items())

    @pytest.mark.parametrize("promotable", [True, False],
                             ids=["follower-promoted", "log-replayed"])
    def test_failover_restores_quorum_for_writes(self, promotable):
        store = replicated_store(factor=3, num_servers=4)
        table, acked = self.ingest(store, n=100)
        region = table._region_for(b"post")
        manager = store.replication
        if not promotable:
            # Every follower mid-rebuild: nothing to promote, so the
            # failover replays the dead primary's log instead.
            for follower in manager.followers(region.region_id):
                follower.state = REBUILDING
        victim = region.server
        report = store.crash_server(victim)
        assert (report.promoted_regions > 0) == promotable
        assert all(table.get(k) == v for k, v in acked.items())
        # Immediately after failover (no chore tick yet) a SYNC write
        # still finds a quorum of live followers ...
        table.put(b"post", b"v")
        assert table.get(b"post") == b"v"
        # ... and the replica set is whole again, anti-affine.
        servers = manager.follower_servers(region.region_id)
        assert len(servers) == manager.factor - 1
        assert len(set(servers) | {region.server}) == manager.factor
        assert not set(servers) & store.dead_servers

    def test_anti_entropy_heals_after_failover(self):
        store = replicated_store(factor=3)
        table, acked = self.ingest(store, n=100)
        store.crash_server(0)
        manager = store.replication
        manager.tick()
        for region in table.regions():
            followers = manager.followers(region.region_id)
            assert len(followers) == 2
            for follower in followers:
                assert follower.state == LIVE
                assert follower.lag_records == 0
                assert follower.server != region.server
                assert follower.server not in store.dead_servers

    def test_dead_server_cache_is_evicted_on_failover(self):
        # Satellite regression: failover must invalidate the dead
        # server's block-cache entries eagerly, replicated or not.
        for factor in (1, 3):
            store = replicated_store(factor=factor)
            table = store.create_table("t", presplit=5)
            acked = {}
            for key in spread_keys(200):
                value = key.hex().encode() * 16  # big enough to flush
                table.put(key, value)
                acked[key] = value
            store.clear_caches()
            for key in acked:
                table.get(key)  # repopulate block caches from disk
            victim = table.regions()[0].server
            assert store.cache_for(victim).used_bytes > 0
            store.crash_server(victim, defer_failover=True)
            store.failover(victim)
            assert store.cache_for(victim).used_bytes == 0

    def test_lag_alert_event_for_partitioned_follower(self):
        store = replicated_store(factor=3)
        manager = store.replication
        manager.lag_alert_records = 5
        table = store.create_table("t")
        region = table.regions()[0]
        lazy = store.replication.followers(region.region_id)[-1].server
        FaultInjector(FaultPlan([PartitionedFollower(lazy)],
                                seed=0)).attach(store)
        for i in range(20):
            table.put(b"k%d" % i, b"v")
        manager.tick()
        assert manager.lag_alerts > 0
        assert store.events.total_by_kind.get("replica_lag", 0) > 0


class TestReplicaReads:
    def build(self, read_mode, faults=(), n=120):
        store = replicated_store(read_mode=read_mode)
        table = store.create_table("t", presplit=5)
        keys = spread_keys(n)
        for key in keys:
            table.put(key, key.hex().encode())
        store.replication.tick()  # followers fully caught up
        if faults:
            FaultInjector(FaultPlan(list(faults), seed=0)).attach(store)
        return store, table, keys

    def test_follower_mode_serves_from_followers(self):
        store, table, keys = self.build("follower")
        for key in keys[:20]:
            assert table.get(key) == key.hex().encode()
        assert store.replication.follower_reads == 20

    def test_offline_primary_degrades_to_follower_serving(self):
        store, table, keys = self.build("follower")
        region = table._region_for(keys[0])
        store.crash_server(region.server, defer_failover=True)
        assert table.get(keys[0]) == keys[0].hex().encode()

    def test_primary_mode_raises_when_primary_offline(self):
        store, table, keys = self.build("primary")
        region = table._region_for(keys[0])
        store.crash_server(region.server, defer_failover=True)
        with pytest.raises(RegionUnavailableError):
            table.get(keys[0])

    def test_flapping_follower_falls_back_to_primary(self):
        store, table, keys = self.build("follower")
        region = table._region_for(keys[0])
        faults = [IntermittentError(s, probability=1.0)
                  for s in store.replication.follower_servers(
                      region.region_id)]
        FaultInjector(FaultPlan(faults, seed=0)).attach(store)
        # Only this region's followers flap; its healthy primary keeps
        # serving rather than surfacing the follower error.
        for key in (k for k in keys
                    if table._region_for(k) is region):
            assert table.get(key) == key.hex().encode()
        assert store.replication.follower_reads == 0

    def test_hedged_reads_cut_latency_under_slow_primary(self):
        store, table, keys = self.build(
            "hedged", faults=[SlowServer(0, latency_ms=50.0)])
        slow_keys = [k for k in keys
                     if table._region_for(k).server == 0][:10]
        assert slow_keys, "no region landed on the slow server"
        for key in slow_keys:
            ctx = RequestContext(deadline=Deadline(10_000.0))
            assert table.get(key, ctx=ctx) == key.hex().encode()
            # The hedge raced a healthy follower: the request paid the
            # hedge delay + follower read, never the 50ms stall.
            assert ctx.deadline.consumed_ms < 50.0
        manager = store.replication
        assert manager.hedged_reads >= 10
        assert manager.hedge_wins >= 10

    def test_hedged_read_stays_on_fast_primary(self):
        store, table, keys = self.build("hedged")
        for key in keys[:10]:
            assert table.get(key) == key.hex().encode()
        assert store.replication.hedged_reads == 0

    def test_per_request_read_mode_override(self):
        store, table, keys = self.build("primary")
        ctx = RequestContext(read_mode="follower")
        assert table.get(keys[0], ctx=ctx) == keys[0].hex().encode()
        assert store.replication.follower_reads == 1

    def test_scan_serves_follower_when_primary_offline(self):
        store, table, keys = self.build("follower")
        region = table.regions()[0]
        store.crash_server(region.server, defer_failover=True)
        from repro.kvstore.store import ScanSpec
        rows = dict(table.scan(ScanSpec.full()))
        assert rows == {k: k.hex().encode() for k in keys}


class TestMoveAndBalance:
    def test_move_swaps_colliding_follower_to_source(self):
        store = replicated_store()
        table = store.create_table("t")
        for i in range(20):
            table.put(b"k%02d" % i, b"v" * 64)
        region = table.regions()[0]
        source = region.server
        dest = store.replication.follower_servers(region.region_id)[0]
        store.move_region(region, dest)
        assert region.server == dest
        servers = store.replica_servers(region)
        assert len(servers) == 3 and source in servers
        store.replication.tick()
        store.events.advance(10_000.0)  # past the move reopen window
        assert all(table.get(b"k%02d" % i) == b"v" * 64
                   for i in range(20))

    def test_executor_skips_unplaceable_destination(self):
        # Satellite: a destination can crash between planning and
        # acting; the executor must skip (and record) it, not raise.
        store = replicated_store(factor=1)
        table = store.create_table("t", presplit=5)
        for key in spread_keys(100):
            table.put(key, b"v")
        balancer = Balancer(store)
        region = table.regions()[0]
        dest = next(s for s in range(store.num_servers)
                    if s != region.server)
        plan = [MoveAction(table="t", region=region,
                           source=region.server, dest=dest,
                           reason="test")]
        store.crash_server(dest, defer_failover=True)
        moved = balancer.apply_moves(1, 0.0, plan)
        assert moved == 0
        row = balancer.history_rows()[-1]
        assert row["action"] == "skip_move"
        assert row["dest_server"] == dest
        assert "stopped being placeable" in row["reason"]


class TestSurface:
    def test_sys_replication_rows_and_snapshot(self):
        store = replicated_store()
        table = store.create_table("t")
        table.put(b"k", b"v")
        rows = store.replication.rows()
        roles = [r["role"] for r in rows]
        assert roles.count("primary") == 1
        assert roles.count("follower") == 2
        replication = store.replication
        assert (replication.factor, replication.quorum) == (3, 2)
        assert replication.records_shipped == 1

    def test_engine_sql_over_sys_replication(self):
        from repro.core.engine import JustEngine
        engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                            replication_factor=3)
        engine.sql("CREATE TABLE t (fid integer:primary key, "
                   "geom point)")
        engine.sql("INSERT INTO t VALUES (1, st_makePoint(1.0, 2.0))")
        result = engine.sql("SELECT role, count(*) AS n "
                            "FROM sys.replication GROUP BY role")
        counts = {r["role"]: r["n"] for r in result.rows}
        assert counts["follower"] == 2 * counts["primary"]

    def test_http_replication_route(self):
        from repro.core.engine import JustEngine
        from repro.service.http import JustHttpClient, JustHttpServer
        from repro.service.server import JustServer
        engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                            replication_factor=3)
        client = JustHttpClient(JustHttpServer(JustServer(engine)), "ops")
        client.execute_query("CREATE TABLE t (fid integer:primary key, "
                             "geom point)")
        client.execute_query(
            "INSERT INTO t VALUES (1, st_makePoint(1.0, 2.0))")
        states = list(client.execute_query(
            "SELECT state, count(*) AS n, sum(lag_records) AS lag "
            "FROM sys.replication WHERE role = 'follower' "
            "GROUP BY state"))
        primaries = list(client.execute_query(
            "SELECT count(*) AS n FROM sys.replication "
            "WHERE role = 'primary'"))
        # Quorum 2 of 3: per region one follower acked, the other ships
        # lazily and sits one record behind.
        regions = primaries[0]["n"]
        assert [(r["state"], r["n"], r["lag"]) for r in states] == \
            [("live", 2 * regions, regions)]
        # The manager's counters are replication.* series, listed from
        # their first non-zero value.
        manager = engine.store.replication
        listed = {r["name"]: r["value"] for r in client.execute_query(
            "SELECT name, value FROM sys.metrics")}
        assert listed["replication.records_shipped"] > 0
        for name in ("records_shipped", "bytes_shipped", "blocked_ships",
                     "dropped_ships", "quorum_failures", "promotions",
                     "rebuilds", "follower_reads", "hedged_reads",
                     "hedge_wins", "lag_alerts"):
            assert listed.get(f"replication.{name}", 0) == \
                getattr(manager, name)
        client.close()
        off = JustHttpClient(JustHttpServer(JustServer()), "ops")
        assert list(off.execute_query("SELECT * FROM sys.replication")) \
            == []
        off.close()
