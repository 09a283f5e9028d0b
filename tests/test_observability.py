"""Query observability: metrics registry, trace profiles, EXPLAIN ANALYZE,
slow-query log, cache lifecycle, and streaming-scan cancellation."""

import json
import random

import pytest

from repro.core.engine import JustEngine
from repro.errors import MetricCardinalityError, QueryTimeoutError
from repro.geometry import Point
from repro.kvstore import KVStore, ScanSpec
from repro.kvstore.iostats import IOStats
from repro.kvstore.region import Region
from repro.kvstore.wal import SyncPolicy
from repro.observability.metrics import (
    MAX_LABEL_SETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.observability.profile import QueryProfile, analyze_rows
from repro.observability.slowlog import SlowQueryLog
from repro.resilience import Deadline, RequestContext
from repro.scenarios.fixtures import AREA, POINT_SCHEMA, window_queries
from repro.service.client import JustClient
from repro.service.http import JustHttpServer
from repro.service.server import JustServer

from conftest import T0


# -- metrics registry ---------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        assert registry.counter("requests").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_labels_key_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("statements", status="ok").inc(3)
        registry.counter("statements", status="error").inc()
        snap = registry.snapshot()
        assert snap["statements{status=ok}"] == 3
        assert snap["statements{status=error}"] == 1

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("m", b="2", a="1").inc()
        registry.counter("m", a="1", b="2").inc()
        assert registry.counter("m", a="1", b="2").value == 2

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_label_sets_per_name_are_capped(self):
        registry = MetricsRegistry()
        for i in range(MAX_LABEL_SETS):
            registry.counter("c", shard=i).inc()
        # Known label sets and unlabelled series still resolve.
        assert registry.counter("c", shard=0).value == 1
        registry.counter("c").inc()
        with pytest.raises(MetricCardinalityError) as refused:
            registry.gauge("c", shard=MAX_LABEL_SETS)
        assert refused.value.key == f"c{{shard={MAX_LABEL_SETS}}}"
        # The cap is per name and on the push path only.
        registry.histogram("h", op="scan").observe(1.0)
        registry.expose("c", lambda: 1, shard="read-through")
        assert len(registry) == MAX_LABEL_SETS + 3

    def test_cap_leaves_a_full_engine_listing_unchanged(self):
        """A replicated, balanced and monitored engine lists the same
        36 keys it listed before the cap existed."""
        engine = JustEngine(num_servers=3, replication_factor=3,
                            wal_policy=SyncPolicy.SYNC)
        engine.enable_balancer()
        engine.enable_monitoring()
        server = JustServer(engine)
        rng = random.Random(7)
        lo_lng, lo_lat, hi_lng, hi_lat = AREA
        engine.create_table("u__pts", POINT_SCHEMA)
        engine.insert("u__pts", [
            {"fid": i, "time": T0 + rng.random() * 86_400,
             "geom": Point(lo_lng + rng.random() * (hi_lng - lo_lng),
                           lo_lat + rng.random() * (hi_lat - lo_lat))}
            for i in range(300)])
        with JustClient(server, "u") as client:
            for sql in window_queries("pts", 4, seed=3, side=0.2):
                list(client.execute_query(sql))
        engine.balancer.tick()
        engine.monitor.tick()
        assert [key for key, _ in engine.metrics.items()] == [
            "admission.admitted", "admission.in_flight",
            "balancer.imbalance", "balancer.merges", "balancer.moves",
            "balancer.runs", "balancer.splits",
            "kvstore.cache_hit_ratio", "kvstore.cache_used_bytes",
            "kvstore.memstore_bytes_read", "kvstore.result_bytes",
            "kvstore.scans_started", "kvstore.wal_appends",
            "kvstore.wal_bytes_written", "kvstore.wal_syncs",
            "monitor.scrape_ms", "monitor.scrapes", "monitor.series",
            "replication.bytes_shipped",
            "replication.lagging_followers",
            "replication.max_lag_records", "replication.quorum_ack_ms",
            "replication.records_shipped", "server.slow_queries_logged",
            "server.statement_sim_ms", "server.statements{status=ok}",
            "slo.budget_remaining{slo=statement-availability}",
            "slo.budget_remaining{slo=statement-latency}",
            "slo.burn_rate{severity=page,slo=statement-availability}",
            "slo.burn_rate{severity=page,slo=statement-latency}",
            "slo.burn_rate{severity=ticket,slo=statement-availability}",
            "slo.burn_rate{severity=ticket,slo=statement-latency}",
            "sql.batches", "sql.operator_ms{op=ProjectNode}",
            "sql.operator_ms{op=ScanNode}", "sql.operators_executed"]

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("in_flight")
        gauge.add(2)
        gauge.add(-1)
        assert gauge.value == 1
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_snapshot_is_json_safe_and_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        registry.counter("c").inc()
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap) == sorted(snap)

    def test_render_text_lines(self):
        registry = MetricsRegistry()
        registry.counter("kvstore.blocks_read").inc(6)
        text = registry.render_text()
        assert "kvstore.blocks_read 6" in text

    def test_histogram_suffix_attaches_before_labels(self):
        registry = MetricsRegistry()
        registry.histogram("scan_ms", op="scan").observe(4.0)
        lines = registry.render_text().splitlines()
        # Prometheus parsers only accept name-suffix-then-braces.
        assert "scan_ms_count{op=scan} 1" in lines
        assert "scan_ms_p95{op=scan} 4.0" in lines
        assert not any("}_p" in line or "}_c" in line for line in lines)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = registry.render_text()
        assert 'c{path=a\\"b\\\\c\\nd} 1' in text


class TestHistogramQuantiles:
    def test_exact_nearest_rank(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.sum == pytest.approx(5050.0)
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0
        assert h.p50 == 50.0 and h.p95 == 95.0 and h.p99 == 99.0

    def test_order_independent(self):
        h = Histogram("lat")
        for v in (9.0, 1.0, 5.0, 3.0, 7.0):
            h.observe(v)
        assert h.quantile(0.5) == 5.0
        assert h.quantile(1.0) == 9.0
        assert h.quantile(0.0) == 1.0

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.quantile(0.5) == 0.0

    def test_count_and_sum_survive_decimation(self):
        h = Histogram("lat", max_samples=64)
        n = 64 * 2 + 7
        for v in range(n):
            h.observe(float(v))
        # The sample buffer decimates, the exact aggregates don't.
        assert h.count == n
        assert h.sum == pytest.approx(sum(range(n)))
        assert 0.0 <= h.quantile(0.5) <= float(n - 1)
        assert h.quantile(1.0) == float(n - 1)

    def test_quantiles_track_a_shifting_distribution(self):
        h = Histogram("lat", max_samples=64)
        for _ in range(100):
            h.observe(10.0)
        assert h.p50 == 10.0
        for _ in range(300):
            h.observe(1000.0)
        assert h.count == 400
        assert h.sum == pytest.approx(100 * 10.0 + 300 * 1000.0)
        # Stride-based retention keeps admitting fresh samples after
        # the buffer overflows, so quantiles follow the new regime
        # (a "keep the first half" decimation would pin them at 10.0)
        assert h.p50 == 1000.0
        assert h.p95 == 1000.0
        # ... while the old regime stays visible at the low tail.
        assert h.quantile(0.0) == 10.0


# -- trace profiles -----------------------------------------------------------

class TestQueryProfile:
    def test_span_nesting(self):
        profile = QueryProfile(statement="SELECT 1", user="alice")
        with profile.span("Project", kind="operator"):
            with profile.span("Scan", kind="operator"):
                profile.add_event("RegionScan[r0]", kind="region_scan",
                                  rows=3)
            assert profile.current.name == "Project"
        depths = {span.name: depth for depth, span in profile.root.walk()}
        assert depths["statement"] == 0
        assert depths["Project"] == 1
        assert depths["Scan"] == 2
        assert depths["RegionScan[r0]"] == 3

    def test_add_event_does_not_push(self):
        profile = QueryProfile()
        with profile.span("op", kind="operator"):
            profile.add_event("leaf")
            assert profile.current.name == "op"
        assert profile.current is profile.root

    def test_span_pops_on_error(self):
        profile = QueryProfile()
        with pytest.raises(RuntimeError):
            with profile.span("op"):
                raise RuntimeError("boom")
        assert profile.current is profile.root

    def test_finish_seals_root(self):
        profile = QueryProfile(statement="q")
        profile.finish(123.4, rows=7)
        assert profile.sim_ms == 123.4
        assert profile.root.attrs["rows"] == 7

    def test_cache_hit_rate(self):
        profile = QueryProfile()
        span = profile.add_event("s", blocks_read=1, cache_hits=3)
        assert span.cache_hit_rate == pytest.approx(0.75)
        untouched = profile.add_event("t")
        assert untouched.cache_hit_rate is None

    def test_analyze_rows_filters_and_indents(self):
        profile = QueryProfile()
        with profile.span("Project", kind="operator", rows_out=5):
            profile.add_event("internal", kind="event")  # not reported
            with profile.span("Scan", kind="operator", rows_out=9):
                profile.add_event("RegionScan[r1]", kind="region_scan",
                                  rows=9, blocks_read=2, cache_hits=2)
        rows = analyze_rows(profile)
        assert [r["operator"] for r in rows] == \
            ["Project", "  Scan", "    RegionScan[r1]"]
        assert rows[2]["cache_hit_rate"] == pytest.approx(0.5)

    def test_as_dict_json_safe(self):
        profile = QueryProfile(statement="q", user="u")
        with profile.span("op", kind="operator"):
            pass
        profile.finish(1.0)
        dumped = profile.as_dict()
        assert json.loads(json.dumps(dumped)) == dumped


class TestSlowQueryLog:
    def test_threshold_and_ring(self):
        log = SlowQueryLog(threshold_ms=100.0, capacity=2)
        assert log.observe("fast", "u", 99.9) is None
        for i in range(3):
            assert log.observe(f"slow{i}", "u", 150.0 + i) is not None
        assert log.total_logged == 3
        assert [e.statement for e in log.entries()] == ["slow1", "slow2"]

    def test_disabled_log(self):
        log = SlowQueryLog(threshold_ms=None)
        assert not log.enabled
        assert log.observe("q", "u", 1e9) is None


# -- EXPLAIN ANALYZE (acceptance) --------------------------------------------

ST_QUERY = ("SELECT fid FROM poi WHERE geom WITHIN "
            "st_makeMBR(116.1, 39.85, 116.25, 39.95) "
            f"AND time BETWEEN {T0} AND {T0 + 86400}")


class TestExplainAnalyze:
    def test_plain_explain_still_returns_plan_text(self, poi_engine):
        rs = poi_engine.sql("EXPLAIN " + ST_QUERY)
        assert rs.columns == ["plan"]
        assert any("Scan" in r["plan"] for r in rs.rows)

    def test_every_operator_reports_counters(self, poi_engine):
        poi_engine.table("poi").flush()  # read path must touch blocks
        rs = poi_engine.sql("EXPLAIN ANALYZE " + ST_QUERY)
        assert rs.columns == ["operator", "rows", "batches",
                              "blocks_read", "cache_hits",
                              "cache_hit_rate", "sim_ms"]
        rows = rs.rows
        assert len(rows) >= 2  # at least Project + Scan
        names = [r["operator"] for r in rows]
        assert any("Project" in n for n in names)
        assert any("Scan[" in n for n in names)
        assert any("RegionScan[" in n for n in names)
        for r in rows:
            assert isinstance(r["rows"], int)
            assert isinstance(r["batches"], int)
            assert isinstance(r["blocks_read"], int)
            assert isinstance(r["cache_hits"], int)
            assert isinstance(r["sim_ms"], float)
        top = rows[0]
        assert top["sim_ms"] > 0
        # The vectorized scan reports how many source batches it pulled.
        scan = next(r for r in rows if "Scan[" in r["operator"])
        assert scan["batches"] > 0
        # The flushed table forces real block I/O somewhere in the tree.
        assert sum(r["blocks_read"] + r["cache_hits"] for r in rows) > 0

    def test_scan_reports_the_fields_it_decoded(self, poi_engine):
        """The pushed projection plus what the table's own exact filter
        reads; ``*`` when the statement (or the access path) wants every
        field."""
        def scan_of(statement):
            ctx = RequestContext()
            rs = poi_engine.sql("EXPLAIN ANALYZE " + statement, ctx=ctx)
            span = next(s for _d, s in ctx.profile.root.walk()
                        if s.attrs.get("op") == "ScanNode")
            label = next(r["operator"] for r in rs.rows
                         if "Scan[" in r["operator"])
            return span.attrs, label

        attrs, label = scan_of(ST_QUERY)
        assert attrs["decoded_fields"] == ["fid", "geom", "time"]
        assert attrs["batches"] > 0
        assert label.endswith("decoded=[fid, geom, time]")
        attrs, label = scan_of("SELECT name, count(*) AS n FROM poi "
                               "GROUP BY name")
        assert attrs["decoded_fields"] == ["name"]
        attrs, label = scan_of("SELECT * FROM poi")
        assert attrs["decoded_fields"] == "*"
        assert label.endswith("decoded=*")
        # A primary-key get goes through the row API: every field.
        attrs, _label = scan_of("SELECT name FROM poi WHERE fid = 7")
        assert attrs["decoded_fields"] == "*"

    def test_matches_plain_select_rows(self, poi_engine):
        expected = len(poi_engine.sql(ST_QUERY))
        rs = poi_engine.sql("EXPLAIN ANALYZE " + ST_QUERY)
        assert rs.rows[0]["rows"] == expected

    def test_second_run_hits_cache(self, poi_engine):
        poi_engine.table("poi").flush()
        poi_engine.sql("EXPLAIN ANALYZE " + ST_QUERY)  # warm the cache
        rs = poi_engine.sql("EXPLAIN ANALYZE " + ST_QUERY)
        assert sum(r["cache_hits"] for r in rs.rows) > 0

    def test_region_spans_match_per_range_totals(self, poi_rows):
        """One multi-range scan reports, per region, the rows, ranges
        and disk blocks that one scan per key range adds up to."""
        from repro.core.schema import Schema
        from repro.curves import STQuery
        from repro.geometry import Envelope
        from conftest import POI_SCHEMA_FIELDS

        engine = JustEngine(flush_bytes=4 * 1024, split_bytes=16 * 1024)
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        engine.insert("poi", poi_rows)
        table = engine.table("poi")
        table.flush()

        def region_spans(profile):
            return {span.attrs["region"]: (span.attrs["table"],
                                           span.attrs["rows"],
                                           span.attrs["ranges"],
                                           span.attrs["blocks_read"])
                    for _depth, span in profile.root.walk()
                    if span.kind == "region_scan"}

        engine.store.clear_caches()
        ctx = RequestContext()
        engine.sql("EXPLAIN ANALYZE " + ST_QUERY, ctx=ctx)
        traced = region_spans(ctx.profile)
        assert len(traced) > 1  # the ranges straddle region boundaries
        (kv_name,) = {name for name, *_ in traced.values()}
        strategy_name = kv_name.rpartition("__")[2]

        ranges = table.strategies[strategy_name].ranges(
            STQuery(Envelope(116.1, 39.85, 116.25, 39.95), T0, T0 + 86400))
        engine.store.clear_caches()
        ctx = RequestContext(profile=QueryProfile())
        kv_table = engine.store.table(kv_name)
        for bounds in ranges:
            list(kv_table.scan(ScanSpec(ranges=[bounds]), ctx))
        per_range = region_spans(ctx.profile)
        assert traced == per_range
        assert sum(r for _, _, r, _ in traced.values()) >= len(ranges)


# -- service-layer observability ---------------------------------------------

def _run_workload(server, statements, user="alice"):
    session = server.connect(user)
    for statement in statements:
        server.execute(session, statement)


WORKLOAD = [
    "CREATE TABLE t (fid integer:primary key, v double)",
    "INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
    "SELECT fid FROM t WHERE v > 2.0",
]


class TestServerObservability:
    def test_statement_metrics(self):
        server = JustServer()
        _run_workload(server, WORKLOAD)
        snap = server.metrics_snapshot()
        assert snap["server.statements{status=ok}"] == 3
        assert snap["server.statement_sim_ms"]["count"] == 3
        assert "kvstore.cache_hit_ratio" in snap
        assert snap["admission.admitted"] == 3

    def test_error_statements_counted(self):
        server = JustServer()
        session = server.connect("alice")
        with pytest.raises(Exception):
            server.execute(session, "SELECT nope FROM missing")
        assert server.metrics_snapshot()[
            "server.statements{status=error}"] == 1

    def test_profiles_recorded_per_statement(self):
        server = JustServer()
        _run_workload(server, WORKLOAD)
        profiles = server.recent_profiles()
        assert len(profiles) == 3
        select = profiles[-1]
        assert select.statement == WORKLOAD[-1]
        assert select.user == "alice"
        assert select.sim_ms > 0
        # SELECT traced its operators.
        assert any(span.kind == "operator" for _d, span in select.root.walk())

    def test_slow_query_log_captures_trace(self):
        server = JustServer(slow_query_ms=0.001)
        _run_workload(server, WORKLOAD)
        entries = server.slow_queries()
        assert entries  # everything is over a ~0 threshold
        assert entries[-1]["statement"] == WORKLOAD[-1]
        assert entries[-1]["profile"]["trace"]["name"] == "statement"
        assert entries[-1]["breakdown"]  # job cost attribution rode along

    def test_slow_query_log_disabled(self):
        server = JustServer(slow_query_ms=None)
        _run_workload(server, WORKLOAD)
        assert server.slow_queries() == []

    def test_http_metrics_endpoint(self):
        http = JustHttpServer(JustServer(slow_query_ms=0.001))
        session = http.handle({"path": "/connect", "user": "bob"})["session"]
        for statement in WORKLOAD:
            http.handle({"path": "/execute", "session": session,
                         "sql": statement})
        response = http.handle({"path": "/metrics"})
        assert response["metrics"]["server.statements{status=ok}"] == 3
        assert response["slow_queries"]
        assert json.loads(json.dumps(response)) == response

    def test_http_profile_endpoint(self):
        http = JustHttpServer(JustServer())
        session = http.handle({"path": "/connect", "user": "bob"})["session"]
        for statement in WORKLOAD:
            http.handle({"path": "/execute", "session": session,
                         "sql": statement})
        response = http.handle({"path": "/profile", "limit": 2})
        assert len(response["profiles"]) == 2
        assert response["profiles"][-1]["trace"]["name"] == "statement"


# -- block-cache lifecycle (leak regression) ---------------------------------

def small_store(**kwargs):
    defaults = dict(num_servers=3, flush_bytes=4 * 1024,
                    split_bytes=64 * 1024, block_bytes=1024)
    defaults.update(kwargs)
    return KVStore(**defaults)


def _cached_sstable_ids(store):
    ids = set()
    for server in range(store.num_servers):
        for key in store.cache_for(server)._entries:
            ids.add(key[1])
    return ids


def _live_sstable_ids(table):
    return {sstable.sstable_id
            for region in table._regions
            for sstable in region.sstables}


class TestBlockCacheLifecycle:
    def test_compaction_evicts_dead_sstable_blocks(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(200):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))  # populate the cache
        for i in range(200, 400):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))
        assert _cached_sstable_ids(store)
        table.compact()
        # No dead SSTable may keep blocks cached after compaction.
        assert _cached_sstable_ids(store) <= _live_sstable_ids(table)

    def test_used_bytes_only_counts_live_sstables(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(300):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))
        table.compact()
        list(table.scan(ScanSpec.full()))  # re-cache the live run
        live_bytes = sum(region.disk_bytes for region in table._regions)
        used = sum(store.cache_for(s).used_bytes
                   for s in range(store.num_servers))
        assert 0 < used <= live_bytes

    def test_hit_ratio_correct_across_flush_compact_cycle(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(300):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))  # cold: disk reads
        list(table.scan(ScanSpec.full()))  # warm: cache hits
        warm_hits = store.stats.cache_hits
        assert warm_hits > 0
        for i in range(300, 500):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        table.compact()
        before = store.stats.snapshot()
        list(table.scan(ScanSpec.full()))  # compacted run is cold again
        delta = store.stats.snapshot().delta(before)
        assert delta.blocks_read > 0
        assert delta.cache_hits == 0  # stale blocks cannot fake hits
        before = store.stats.snapshot()
        list(table.scan(ScanSpec.full()))
        delta = store.stats.snapshot().delta(before)
        assert delta.blocks_read == 0
        assert delta.cache_hits > 0

    def test_split_evicts_parent_blocks(self):
        store = small_store(split_bytes=8 * 1024)
        table = store.create_table("t")
        for i in range(100):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))
        for i in range(100, 2000):  # push past the split threshold
            table.put(f"{i:04d}".encode(), b"v" * 60)
        assert table.num_regions > 1
        assert _cached_sstable_ids(store) <= _live_sstable_ids(table)

    def test_failover_leaves_no_stale_cached_blocks(self):
        store = small_store(wal_policy="sync")
        table = store.create_table("t")
        for i in range(300):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))  # cache blocks on the host
        victim = table.regions()[0].server
        store.crash_server(victim)
        # The dead server's cache was cleared and the survivors hold no
        # blocks for regions they just inherited cold.
        assert _cached_sstable_ids(store) <= _live_sstable_ids(table)
        assert store.cache_for(victim).used_bytes == 0
        # The rehomed region still reads correctly (cold, then cached).
        assert len(list(table.scan(ScanSpec.full()))) == 300

    def test_drop_table_releases_cache(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(200):
            table.put(f"{i:04d}".encode(), b"v" * 60)
        table.flush()
        list(table.scan(ScanSpec.full()))
        store.drop_table("t")
        assert not _cached_sstable_ids(store)


# -- streaming scan: cancellation and precedence ------------------------------

def make_region(**kwargs):
    defaults = dict(start_key=b"", end_key=None, stats=IOStats(),
                    flush_bytes=1 << 30, block_bytes=256)
    defaults.update(kwargs)
    return Region(**defaults)


def live_pairs(region):
    """Every live ``(key, value)`` of the region: the lists of its run
    merge, concatenated (no merge: none)."""
    runs = region.run_merge([(b"", None)], None)
    return [pair for keys, values in runs or ()
            for pair in zip(keys, values)]


class TestStreamingScan:
    def test_deadline_aborts_mid_merge(self):
        region = make_region()
        for i in range(2000):
            region.put(f"{i:05d}".encode(), b"v" * 40)
        region.flush()
        deadline = Deadline(1.0)
        deadline.charge(2.0)  # pre-expired: the first check trips
        ctx = RequestContext(deadline=deadline)
        stats = region._stats
        runs = region.run_merge([(b"", None)], None, ctx=ctx)
        consumed = []
        with pytest.raises(QueryTimeoutError):
            for keys, _ in runs:
                consumed += keys
        # The merge really was abandoned partway: at most one
        # cancellation window of rows came out, and the lazy block
        # charging stopped with it.
        assert len(consumed) <= Region.CANCEL_CHECK_ROWS
        assert stats.blocks_read < region.sstables[0].num_blocks

    def test_merge_is_streaming_not_materialized(self):
        region = make_region()
        for i in range(2000):
            region.put(f"{i:05d}".encode(), b"v" * 40)
        region.flush()
        stats = region._stats
        runs = region.run_merge([(b"", None)], None)
        keys, _ = next(runs)
        runs.close()
        assert len(keys) == 256
        # An early stop must not have paid for the whole run.
        assert stats.blocks_read < region.sstables[0].num_blocks

    def test_newest_wins_across_runs_and_memstore(self):
        region = make_region()
        region.put(b"a", b"old")
        region.put(b"b", b"keep")
        region.flush()
        region.put(b"a", b"mid")
        region.put(b"c", b"dead")
        region.flush()
        region.put(b"a", b"new")   # memstore beats both runs
        region.put(b"c", None)     # memstore tombstone masks the run
        assert dict(live_pairs(region)) == {b"a": b"new", b"b": b"keep"}

    def test_tombstone_in_newer_run_masks_older(self):
        region = make_region()
        region.put(b"x", b"v1")
        region.flush()
        region.put(b"x", None)
        region.flush()
        assert live_pairs(region) == []


# -- histogram buckets and exemplars ------------------------------------------

class TestHistogramBuckets:
    def test_bucket_counts_are_cumulative(self):
        h = Histogram("lat", buckets=(10.0, 100.0, 1000.0))
        for v in (5.0, 7.0, 50.0, 500.0, 5000.0):
            h.observe(v)
        assert h.bucket_counts() == [(10.0, 2), (100.0, 3),
                                     (1000.0, 4)]
        assert h.count == 5  # the +Inf bucket is the exact count

    def test_boundary_lands_in_its_le_bucket(self):
        h = Histogram("lat", buckets=(10.0,))
        h.observe(10.0)  # le means <=
        assert h.bucket_counts() == [(10.0, 1)]

    def test_unbucketed_histogram_has_no_bucket_series(self):
        h = Histogram("lat")
        h.observe(1.0)
        assert h.bucket_counts() == []
        assert "buckets" not in h.as_dict()

    def test_as_dict_exposes_buckets_by_bound(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        h.observe(5.0)
        assert h.as_dict()["buckets"] == {"10": 1, "100": 1}

    def test_exemplar_above_names_the_latest_offender(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        h.observe(5.0, exemplar="fast")
        h.observe(50.0, exemplar="slow-1")
        h.observe(5000.0, exemplar="very-slow")
        h.observe(60.0, exemplar="slow-2")
        assert h.exemplar_above(10.0) == "slow-2"
        assert h.exemplar_above(100.0) == "very-slow"
        assert h.last_exemplar == "slow-2"

    def test_exemplar_above_without_offenders(self):
        h = Histogram("lat", buckets=(10.0,))
        h.observe(5.0, exemplar="fast")
        assert h.exemplar_above(10.0) is None

    def test_quantile_view_sorts_once_then_folds_new_samples(
            self, monkeypatch):
        import repro.observability.metrics as metrics_mod
        calls = []
        builtin_sorted = sorted

        def counting_sorted(*args, **kwargs):
            calls.append(1)
            return builtin_sorted(*args, **kwargs)

        monkeypatch.setattr(metrics_mod, "sorted", counting_sorted,
                            raising=False)
        h = metrics_mod.Histogram("lat")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        h.as_dict()  # p50 + p95 + p99: one sort, cached view reused
        assert len(calls) == 1
        # Every later observe + read folds the new sample into the view
        # instead of re-sorting the retained buffer.
        for v in (9.0, 0.5, 2.5, 4.0):
            h.observe(v)
            h.quantile(0.5)
        assert len(calls) == 1
        assert h.quantile(0.0) == 0.5 and h.quantile(1.0) == 9.0
        assert h.p50 == 2.5


# -- Prometheus exposition round-trip -----------------------------------------

def parse_prometheus_text(text):
    """Minimal Prometheus text-format parser: types, helps, samples."""
    types, helps, samples = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].rsplit(" ", 1)
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            name, help_text = line[len("# HELP "):].split(" ", 1)
            helps[name] = help_text.replace("\\n", "\n") \
                .replace("\\\\", "\\")
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return types, helps, samples


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.describe("reqs", "requests served")
        registry.counter("reqs", status="ok").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat", buckets=(10.0, 100.0),
                           op="scan").observe(50.0)
        return registry

    def test_every_base_name_gets_one_type_line(self):
        types, helps, samples = parse_prometheus_text(
            self._registry().render_text())
        assert types == {"reqs": "counter", "depth": "gauge",
                         "lat": "histogram"}
        assert helps == {"reqs": "requests served"}

    def test_samples_round_trip(self):
        types, helps, samples = parse_prometheus_text(
            self._registry().render_text())
        assert samples["reqs{status=ok}"] == 3
        assert samples["depth"] == 2.5
        assert samples["lat_count{op=scan}"] == 1
        assert samples["lat_bucket{op=scan,le=10}"] == 0
        assert samples["lat_bucket{op=scan,le=100}"] == 1
        assert samples["lat_bucket{op=scan,le=+Inf}"] == 1

    def test_buckets_are_monotone_and_capped_by_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        _, _, samples = parse_prometheus_text(registry.render_text())
        bounds = ["1", "10", "100", "+Inf"]
        counts = [samples[f"lat_bucket{{le={b}}}"] for b in bounds]
        assert counts == sorted(counts)
        assert counts[-1] == samples["lat_count"]

    def test_help_escapes_newlines(self):
        registry = MetricsRegistry()
        registry.describe("m", "line one\nline two")
        registry.counter("m").inc()
        text = registry.render_text()
        assert "# HELP m line one\\nline two" in text
        _, helps, _ = parse_prometheus_text(text)
        assert helps["m"] == "line one\nline two"

    def test_every_line_parses(self):
        # No stray stat suffixes after label braces, no unparsable rows.
        text = self._registry().render_text()
        types, helps, samples = parse_prometheus_text(text)
        assert len(samples) == 2 + 6 + 3  # scalars + hist stats + buckets
        assert not any("}_p" in line or "}_c" in line
                       for line in text.splitlines())


# -- OTel-shaped trace identity -----------------------------------------------

class TestTraceIds:
    def test_profiles_get_unique_trace_ids(self):
        a, b = QueryProfile("SELECT 1", "u"), QueryProfile("SELECT 2", "u")
        assert len(a.trace_id) == 32 and len(b.trace_id) == 32
        assert a.trace_id != b.trace_id

    def test_spans_chain_parent_ids(self):
        profile = QueryProfile("q", "u")
        root = profile.root
        assert root.parent_id == ""
        with profile.span("scan") as scan:
            assert scan.parent_id == root.span_id
            with profile.span("filter") as child:
                assert child.parent_id == scan.span_id
        assert len(root.span_id) == 16

    def test_as_dict_carries_ids(self):
        profile = QueryProfile("q", "u")
        with profile.span("scan"):
            pass
        profile.finish(1.0)
        data = profile.as_dict()
        assert data["trace_id"] == profile.trace_id
        assert data["trace"]["span_id"]
        child = data["trace"]["children"][0]
        assert child["parent_id"] == data["trace"]["span_id"]

    def test_slow_log_entries_link_back_to_the_trace(self):
        server = JustServer(slow_query_ms=0.001)
        _run_workload(server, WORKLOAD)
        entries = server.slow_queries()
        profiles = {p.trace_id for p in server.recent_profiles()}
        assert entries
        for entry in entries:
            assert entry["trace_id"] in profiles

    def test_statement_histogram_keeps_a_slow_exemplar(self):
        server = JustServer()
        _run_workload(server, WORKLOAD)
        histogram = server.metrics._metrics["server.statement_sim_ms"]
        assert histogram.last_exemplar in \
            {p.trace_id for p in server.recent_profiles()}
