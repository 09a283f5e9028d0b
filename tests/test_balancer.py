"""The load balancer: policy aggregation, planning, and execution.

The acceptance property: a region the balancer has moved keeps serving
reads correctly even after its *new* server crashes and fails over —
placement changes must compose with crash recovery.
"""

import pytest

from repro import JustEngine
from repro.balancer import (
    Balancer,
    BalancerPolicy,
    imbalance,
    plan_merges,
    plan_moves,
    plan_splits,
    server_loads,
)
from repro.errors import RegionUnavailableError, SchemaError
from repro.kvstore import KVStore, ScanSpec, SyncPolicy
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer


def small_store(**kwargs):
    defaults = dict(num_servers=3, flush_bytes=4 * 1024,
                    split_bytes=64 * 1024 * 1024, block_bytes=1024)
    defaults.update(kwargs)
    return KVStore(**defaults)


def heat(region, writes, now_ms=0.0):
    """Give a region a write rate of ``writes / 30`` events/s."""
    for _ in range(writes):
        region.write_rate.record(now_ms)


# -- policy: per-server load aggregation --------------------------------------

class TestServerLoads:
    def test_every_placeable_server_gets_an_entry(self):
        store = small_store()
        store.create_table("t")
        loads = server_loads(store)
        assert set(loads) == set(store.placeable_servers)
        # The empty servers report zero load — they are the receivers.
        assert sum(load.regions for load in loads.values()) == 1

    def test_aggregates_counters_and_rates_per_server(self):
        store = small_store(num_servers=2)
        a = store.create_table("a")  # region on server 0
        b = store.create_table("b")  # region on server 1
        for i in range(50):
            a.put(f"k{i:04d}".encode(), b"v" * 20)
        for i in range(10):
            b.put(f"k{i:04d}".encode(), b"v" * 20)
        loads = server_loads(store)
        assert loads[0].writes == 50 and loads[1].writes == 10
        assert loads[0].bytes == a.total_bytes
        assert loads[0].write_rate > loads[1].write_rate > 0.0
        policy = BalancerPolicy(write_weight=1.0, read_weight=0.0)
        assert imbalance(loads, policy) > 1.5

    def test_recovering_servers_are_excluded(self):
        store = small_store()
        store.create_table("t")  # region on server 0
        store.recovering_servers.add(0)
        loads = server_loads(store)
        assert 0 not in loads
        assert sum(load.regions for load in loads.values()) == 0

    def test_idle_cluster_reports_balanced(self):
        store = small_store()
        store.create_table("t")
        assert imbalance(server_loads(store), BalancerPolicy()) == 1.0


class TestNextServerSkipsRecovering:
    def test_regression_recovering_server_not_a_placement_target(self):
        # Regression: next_server skipped dead servers but not
        # recovering ones, so a region could be placed on a
        # crashed-but-not-failed-over server and be born unavailable.
        store = small_store()
        store.recovering_servers.add(1)
        picks = {store.next_server() for _ in range(10)}
        assert 1 not in picks
        assert picks == {0, 2}


# -- planner ------------------------------------------------------------------

class TestPlanMoves:
    def test_moves_hot_regions_off_the_loaded_server(self):
        store = small_store(num_servers=2)
        hot = store.create_table("hot")       # server 0
        cold = store.create_table("cold")     # server 1
        warm = store.create_table("warm")     # server 0 again
        heat(hot.regions()[0], 300)           # 10/s
        heat(cold.regions()[0], 90)           # 3/s
        heat(warm.regions()[0], 60)           # 2/s
        policy = BalancerPolicy(imbalance_ratio=1.2)
        moves = plan_moves(store, policy, server_loads(store), 0.0)
        assert moves
        assert all(m.source == 0 and m.dest == 1 for m in moves)
        # The whole hotspot (rate >= the donor/receiver gap) stays put;
        # the warm region is what actually fixes the imbalance.
        assert moves[0].table == "warm"

    def test_balanced_cluster_plans_nothing(self):
        store = small_store(num_servers=2)
        heat(store.create_table("a").regions()[0], 100)
        heat(store.create_table("b").regions()[0], 100)
        moves = plan_moves(store, BalancerPolicy(),
                           server_loads(store), 0.0)
        assert moves == []

    def test_move_count_is_bounded(self):
        store = small_store(num_servers=2)
        for i in range(8):
            table = store.create_table(f"t{i}")
            region = table.regions()[0]
            region.server = 0  # pile everything onto one server
            heat(region, 30 * (i + 1))
        policy = BalancerPolicy(imbalance_ratio=1.05,
                                max_moves_per_run=3)
        moves = plan_moves(store, policy, server_loads(store), 0.0)
        assert 0 < len(moves) <= 3


class TestPlanSplits:
    def test_write_hot_regions_split_hottest_first(self):
        store = small_store()
        hot = store.create_table("hot")
        mild = store.create_table("mild")
        for i in range(80):
            hot.put(f"k{i:04d}".encode(), b"v" * 50)
            if i % 4 == 0:
                mild.put(f"k{i:04d}".encode(), b"v" * 50)
        policy = BalancerPolicy(split_write_rate=0.5,
                                split_min_bytes=256,
                                max_splits_per_run=1)
        splits = plan_splits(store, policy, 0.0)
        assert [s.table for s in splits] == ["hot"]

    def test_tiny_and_fragmented_tables_are_left_alone(self):
        store = small_store()
        table = store.create_table("t")
        heat(table.regions()[0], 1000)
        # Hot but tiny: splitting would produce noise regions.
        assert plan_splits(store, BalancerPolicy(
            split_write_rate=0.5), 0.0) == []
        for i in range(80):
            table.put(f"k{i:04d}".encode(), b"v" * 50)
        # Hot and big enough, but already at the fragmentation cap.
        assert plan_splits(store, BalancerPolicy(
            split_write_rate=0.5, split_min_bytes=256,
            split_max_regions=1), 0.0) == []


class TestPlanMerges:
    def test_cold_old_neighbours_merge_one_pair_per_table(self):
        store = small_store()
        store.create_table("t", presplit=4)
        store.events.advance(120_000)
        merges = plan_merges(store, BalancerPolicy(), store.events.now_ms)
        assert len(merges) == 1
        left, right = merges[0].left, merges[0].right
        assert left.end_key == right.start_key  # adjacent

    def test_young_regions_never_merge(self):
        # A freshly pre-split table is cold only because it has not
        # lived yet; merging it would undo the DDL's intent.
        store = small_store()
        store.create_table("t", presplit=4)
        assert plan_merges(store, BalancerPolicy(),
                           store.events.now_ms) == []

    def test_hot_regions_never_merge(self):
        store = small_store()
        table = store.create_table("t", presplit=2)
        store.events.advance(120_000)
        for region in table.regions():
            heat(region, 300, store.events.now_ms)
        assert plan_merges(store, BalancerPolicy(),
                           store.events.now_ms) == []


# -- the move primitive -------------------------------------------------------

class TestMoveRegion:
    def test_move_rehomes_checkpoints_and_resets_seqnos(self):
        store = small_store(num_servers=2,
                            wal_policy=SyncPolicy.SYNC)
        table = store.create_table("t")
        for i in range(60):
            table.put(f"k{i:04d}".encode(), b"v" * 30)
        region = table.regions()[0]
        source = region.server
        list(table.scan(ScanSpec.full()))  # warm the source cache
        assert store.cache_for(source).used_bytes >= 0

        store.move_region(region, dest=1 - source)

        assert region.server == 1 - source
        assert region.wal is store.wal_for(1 - source)
        # Everything was flushed and checkpointed: a later crash of the
        # source has nothing to replay for this region.
        assert store.wal_for(source).live_records == 0
        # Seqnos are per-server; the watermark resets like in failover.
        assert region.max_seqno == 0
        # The source cache holds no blocks of a region it no longer owns.
        assert store.cache_for(source).used_bytes == 0

    def test_region_unavailable_until_the_move_completes(self):
        store = small_store(num_servers=2)
        table = store.create_table("t")
        table.put(b"k", b"v")
        region = table.regions()[0]
        store.move_region(region, dest=1)
        assert region.unavailable_until_ms > store.events.now_ms
        with pytest.raises(RegionUnavailableError):
            table.get(b"k")
        with pytest.raises(RegionUnavailableError):
            table.put(b"k", b"w")
        store.events.advance(region.unavailable_until_ms
                             - store.events.now_ms)
        assert table.get(b"k") == b"v"

    def test_moved_region_survives_crash_of_its_new_server(self):
        # Acceptance: placement changes compose with crash recovery.
        store = small_store(num_servers=3,
                            wal_policy=SyncPolicy.SYNC)
        table = store.create_table("t")
        before = [(f"a{i:04d}".encode(), b"old" * 10)
                  for i in range(120)]
        for key, value in before:
            table.put(key, value)
        region = table.regions()[0]
        dest = (region.server + 1) % 3
        store.move_region(region, dest)
        store.events.advance(region.unavailable_until_ms
                             - store.events.now_ms)
        after = [(f"b{i:04d}".encode(), b"new" * 10)
                 for i in range(40)]
        for key, value in after:  # SYNC-acked on the new server's WAL
            table.put(key, value)

        store.crash_server(dest)

        assert all(s != dest for s in table.servers_used())
        for key, value in before + after:
            assert table.get(key) == value


# -- executor -----------------------------------------------------------------

def skewed_store():
    """Four single-region tables piled onto server 0 of two."""
    store = small_store(num_servers=2)
    for i, writes in enumerate((300, 90, 60, 30)):
        table = store.create_table(f"t{i}")
        region = table.regions()[0]
        region.server = 0
        heat(region, writes)
    return store


class TestBalancer:
    def test_tick_reduces_imbalance_and_records_history(self):
        store = skewed_store()
        balancer = Balancer(store, BalancerPolicy(imbalance_ratio=1.1))
        run = balancer.tick()
        assert balancer.moves > 0
        assert run.imbalance_after < run.imbalance_before
        rows = balancer.history_rows()
        assert rows and rows[0]["action"] == "move"
        assert {r["action"] for r in rows} <= {"move", "split", "merge"}
        kinds = {e.kind for e in store.events.events()}
        assert {"balancer_run", "region_move"} <= kinds

    def test_maybe_tick_respects_the_interval(self):
        store = skewed_store()
        balancer = Balancer(store, BalancerPolicy(
            interval_ms=1000.0, imbalance_ratio=1.1))
        assert balancer.maybe_tick() is not None
        assert balancer.maybe_tick() is None  # too soon
        store.events.advance(1000.0)
        assert balancer.maybe_tick() is not None
        assert balancer.runs == 2

    def test_load_split_then_merge_after_cooldown(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(120):
            table.put(f"k{i:04d}".encode(), b"v" * 40)
        policy = BalancerPolicy(split_write_rate=0.5,
                                split_min_bytes=256,
                                merge_min_age_ms=10_000.0)
        balancer = Balancer(store, policy)
        balancer.tick()
        assert balancer.splits > 0
        assert table.num_regions > 1
        regions_after_split = table.num_regions
        store.events.advance(300_000)  # everything goes cold and ages
        balancer.tick()
        assert balancer.merges > 0
        assert table.num_regions < regions_after_split


# -- pre-splitting and key salting --------------------------------------------

class TestPresplitAndSalting:
    def test_presplit_creates_spread_regions(self):
        store = small_store()
        table = store.create_table("t", presplit=4)
        assert table.num_regions == 4
        assert len(table.servers_used()) == 3  # all servers covered

    def test_salted_table_roundtrips_point_ops(self):
        store = small_store()
        table = store.create_table("t", presplit=4, salt_buckets=4)
        rows = {f"k{i:05d}".encode(): f"v{i}".encode()
                for i in range(200)}
        for key, value in rows.items():
            table.put(key, value)
        for key, value in rows.items():
            assert table.get(key) == value
        table.delete(b"k00007")
        assert table.get(b"k00007") is None

    def test_salted_scan_merges_buckets_in_logical_order(self):
        store = small_store()
        table = store.create_table("t", presplit=4, salt_buckets=4)
        keys = [f"k{i:05d}".encode() for i in range(200)]
        for key in keys:
            table.put(key, b"v")
        got = [k for k, _ in table.scan(ScanSpec.full())]
        assert got == sorted(keys)  # salt bytes stripped, order restored
        ranged = [k for k, _ in
                  table.scan(ScanSpec(ranges=[(b"k001", b"k002")]))]
        assert ranged == [k for k in sorted(keys)
                          if k.startswith(b"k001")]
        batches = list(table.scan_batches(ScanSpec(
            ranges=[(b"k000", b"k001"), (b"k0015", None)])))
        # The merged buckets are cut again into lists of at most 256.
        assert [len(batch_keys) for batch_keys, _ in batches] == [150]
        assert batches[0][0] == sorted(keys)[:100] + sorted(keys)[150:]

    def test_presplit_beyond_buckets_dedups_to_bucket_count(self):
        store = small_store()
        # A salt bucket is the finest pre-split grain: boundaries land
        # on bucket edges, so presplit=6 over 3 buckets gives 3 regions.
        table = store.create_table("t", presplit=6, salt_buckets=3)
        assert table.num_regions == 3


class TestWithClauseDdl:
    def test_with_options_presplit_the_storage_tables(self):
        engine = JustEngine()
        engine.sql("CREATE TABLE taxi (fid integer:primary key, "
                   "name string, time date, geom point) "
                   "WITH (presplit=6, salt_buckets=3)")
        # The id table pre-splits but never salts (random fids do not
        # cluster); the SFC index tables get both.
        assert engine.store.table("taxi__id").num_regions == 6
        index_regions = [t.num_regions for t in engine.store.tables()
                         if "__z" in t.name]
        assert index_regions and all(n == 3 for n in index_regions)

    def test_bad_placement_options_are_schema_errors(self):
        engine = JustEngine()
        with pytest.raises(SchemaError):
            engine.sql("CREATE TABLE t (fid integer:primary key) "
                       "WITH (presplit='many')")


# -- introspection and service wiring -----------------------------------------

class TestIntrospection:
    def test_sys_servers_one_row_per_server(self):
        engine = JustEngine()
        rows = list(engine.sql("SELECT server, state, regions "
                               "FROM sys.servers"))
        assert len(rows) == engine.store.num_servers
        assert {r["state"] for r in rows} == {"alive"}

    def test_sys_balancer_exposes_decision_history(self):
        engine = JustEngine()
        assert engine.sql("SELECT * FROM sys.balancer").rows == []
        balancer = engine.enable_balancer(
            BalancerPolicy(imbalance_ratio=1.1))
        for i, writes in enumerate((300, 60)):
            table = engine.store.create_table(f"raw{i}")
            region = table.regions()[0]
            region.server = 0
            heat(region, writes, engine.store.events.now_ms)
        balancer.tick()
        rows = engine.sql("SELECT * FROM sys.balancer").rows
        assert rows and rows[0]["action"] == "move"
        assert rows[0]["src_server"] != rows[0]["dest_server"]

    def test_http_balancer_route(self):
        http = JustHttpServer()
        client = JustHttpClient(http, "ops")

        def query(sql):
            return list(client.execute_query(sql))

        def counters():
            return {r["name"]: r["value"]
                    for r in query("SELECT name, value FROM sys.metrics")
                    if r["name"].startswith("balancer.")}

        # No balancer: no decisions, no balancer.* series.
        assert query("SELECT * FROM sys.balancer") == []
        assert counters() == {}
        engine = http.server.engine
        balancer = engine.enable_balancer(BalancerPolicy(imbalance_ratio=1.1))
        for i, writes in enumerate((300, 60)):
            region = engine.store.create_table(f"raw{i}").regions()[0]
            region.server = 0
            heat(region, writes, engine.store.events.now_ms)
        balancer.tick()
        decisions = query("SELECT * FROM sys.balancer")
        assert decisions == balancer.history_rows()
        assert decisions[0]["action"] == "move"
        assert counters() == {
            "balancer.runs": 1, "balancer.moves": balancer.moves,
            "balancer.splits": balancer.splits,
            "balancer.merges": balancer.merges,
            "balancer.imbalance": balancer.imbalance}
        servers = query("SELECT server, state FROM sys.servers")
        assert len(servers) == http.server.engine.store.num_servers
        client.close()

    def test_server_statements_drive_balancer_ticks(self):
        server = JustServer()
        server.engine.enable_balancer(BalancerPolicy(interval_ms=0.0))
        session = server.connect("ops")
        server.execute(session, "CREATE TABLE t "
                                "(fid integer:primary key, name string)")
        server.execute(session, "INSERT INTO t VALUES (1, 'a')")
        assert server.engine.balancer.runs > 0
