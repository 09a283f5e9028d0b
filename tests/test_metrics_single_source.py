"""Every number is kept once: the registry reads it from its owner.

One seeded run drives every component that owns numbers — SYNC rf = 3
puts, flush, compaction, split, index scans, a follower and a hedged
read, a blocked and a dropped ship, a crash with failover, a stream
poll with a late and a filtered event, an admission shed, a breaker
trip, a balancer pass and monitor scrapes — and then checks the
registry three ways: each read-through series equals its owner's
attribute, the listed keys and values equal ``GOLDEN`` (recorded from
the same run before the push mirror was deleted; running this file as a
script prints the table), and a counter is not listed while it is zero.
"""

import random

import pytest

from repro.balancer import BalancerPolicy
from repro.core.engine import JustEngine
from repro.errors import CircuitOpenError, ServerOverloadedError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LossyShipping,
    PartitionedFollower,
    SlowServer,
)
from repro.geometry import Point
from repro.kvstore.wal import SyncPolicy
from repro.observability.metrics import Histogram
from repro.resilience import CircuitBreaker, RequestContext
from repro.scenarios.fixtures import (
    AREA,
    POINT_SCHEMA,
    SERVICE_COST_MODEL,
    T0,
    monitor_queries,
    monitored_service,
    window_queries,
)
from repro.service.client import JustClient
from repro.service.server import JustServer
from repro.streaming import Count, TumblingWindows, WindowedAggregator

SEED = 20200420
STREAM_CONFIG = {"fid": "to_int(oid)", "time": "long_to_date_ms(ts)",
                 "geom": "lng_lat_to_point(lng, lat)"}


def _points(rng, fids):
    lo_lng, lo_lat, hi_lng, hi_lat = AREA
    return [{"fid": fid, "time": T0 + rng.random() * 86_400,
             "geom": Point(lo_lng + rng.random() * (hi_lng - lo_lng),
                           lo_lat + rng.random() * (hi_lat - lo_lat))}
            for fid in fids]


def _event(oid, seconds):
    return {"oid": str(oid), "lng": 116.2, "lat": 39.9,
            "ts": int((T0 + seconds) * 1000)}


def _run():
    """The seeded run; returns everything the checks look at."""
    rng = random.Random(SEED)
    engine = JustEngine(num_servers=5, cost_model=SERVICE_COST_MODEL,
                        split_bytes=4 * 1024, flush_bytes=1024,
                        wal_policy=SyncPolicy.SYNC, replication_factor=3)
    store = engine.store
    monitor = engine.enable_monitoring(interval_ms=50.0)
    server = JustServer(engine)
    # /metrics is read before and after: at the recording commit that
    # is what created, and then refreshed, the three derived gauges.
    listed_before = server.metrics_snapshot()

    # SYNC rf = 3 puts across flushes and size splits, then a compaction.
    engine.create_table("ops__pts", POINT_SCHEMA)
    engine.insert("ops__pts", _points(rng, range(400)))
    for table in store.tables():
        table.flush()
        table.compact()
    monitor.tick()

    # Index scans through the service; a follower and a hedged read.
    client = JustClient(server, "ops", sleep=lambda _s: None)
    for sql in window_queries("pts", 4, seed=SEED, side=0.12):
        client.execute_query(sql)
    engine.sql("SELECT fid FROM ops__pts WHERE fid = 7",
               ctx=RequestContext(read_mode="follower"))
    injector = FaultInjector(FaultPlan(
        [SlowServer(0, latency_ms=40.0),
         PartitionedFollower(1, duration_ships=8),
         LossyShipping(1, probability=1.0, after_ships=8,
                       duration_ships=8)],
        seed=SEED)).attach(store)
    engine.sql("SELECT count(*) AS n FROM ops__pts",
               ctx=RequestContext(read_mode="hedged"))

    # A blocked and a dropped ship (the faults above), then a crash.
    engine.insert("ops__pts", _points(rng, range(400, 440)))
    store.replication.tick()
    store.crash_server(3)
    store.fault_injector = None
    del injector

    # One stream poll with a filtered event, then one with a late event.
    engine.create_topic("gps")
    loader = engine.stream_load(
        "gps", "ops__pts", STREAM_CONFIG, batch_size=4,
        row_filter=lambda event: event["oid"] != "9001")
    loader.materialize_window("ops__per_minute", WindowedAggregator(
        TumblingWindows(60.0), {"n": Count()}, key_fields=()))
    topic = engine.topic("gps")
    topic.append_many([_event(9000, 10), _event(9001, 20),
                       _event(9002, 70), _event(9003, 130)])
    topic.append_many([_event(9004, 15)])       # behind the watermark
    loader.drain()

    # One admission shed, one breaker trip, one balancer pass.
    server.admission.max_per_user = 0
    tripping = JustClient(server, "ops", max_retries=0,
                          sleep=lambda _s: None,
                          breaker=CircuitBreaker(failure_threshold=1,
                                                 clock=lambda: 0.0))
    with pytest.raises(ServerOverloadedError):
        tripping.execute_query("SELECT fid FROM pts WHERE fid = 1")
    with pytest.raises(CircuitOpenError):
        tripping.execute_query("SELECT fid FROM pts WHERE fid = 1")
    server.admission.max_per_user = 8
    engine.enable_balancer(BalancerPolicy(imbalance_ratio=1.05)).tick()
    monitor.tick()
    server.metrics_snapshot()
    return {"engine": engine, "server": server, "loader": loader,
            "breakers": [client.breaker, tripping.breaker],
            "listed_before": listed_before}


def _flat(registry) -> dict:
    """Listed series as plain numbers (histograms by count and sum)."""
    out = {}
    for key, metric in registry.items():
        if isinstance(metric, Histogram):
            out[key] = [metric.count, round(metric.sum, 6)]
        else:
            out[key] = metric.value
    return out


#: ``_flat`` of the run above, recorded at the commit before this file
#: was added (where every one of these numbers was also pushed).  Five
#: moved when inserts became one write batch (DESIGN §7.1): WAL syncs
#: and quorum acks count group commits, the upsert lookups run before
#: the writes (``balancer.imbalance``), and the faulted insert ships per
#: segment (``blocked_ships``, ``dropped_ships``).
GOLDEN = {
    'admission.admitted': 4,
    'admission.in_flight': 0,
    'admission.shed': 1,
    'balancer.imbalance': 1.947991,
    'balancer.merges': 0,
    'balancer.moves': 0,
    'balancer.runs': 1,
    'balancer.splits': 0,
    'breaker.fast_failures': 1,
    'breaker.opened': 1,
    'kvstore.blocks_read': 32,
    'kvstore.cache_bytes_read': 50674,
    'kvstore.cache_hit_ratio': 0.38461538461538464,
    'kvstore.cache_hits': 20,
    'kvstore.cache_used_bytes': 30580,
    'kvstore.disk_bytes_read': 82714,
    'kvstore.disk_bytes_written': 92770,
    'kvstore.result_bytes': 26074,
    'kvstore.scans_started': 5,
    'kvstore.wal_appends': 3757,
    'kvstore.wal_bytes_written': 272781,
    'kvstore.wal_syncs': 552,
    'monitor.scrape_ms': 0.53,
    'monitor.scrapes': 3,
    'monitor.series': 94,
    'replication.blocked_ships': 1,
    'replication.bytes_shipped': 173805,
    'replication.dropped_ships': 2,
    'replication.follower_reads': 1,
    'replication.hedge_wins': 2,
    'replication.hedged_reads': 2,
    'replication.lagging_followers': 0,
    'replication.max_lag_records': 0,
    'replication.promotions': 5,
    'replication.quorum_ack_ms': [226, 904.0],
    'replication.rebuilds': 5,
    'replication.records_shipped': 2397,
    'server.slow_queries_logged': 0,
    'server.statement_sim_ms': [4, 50.999706],
    'server.statements{status=ok}': 4,
    'slo.budget_remaining{slo=statement-availability}': 1.0,
    'slo.budget_remaining{slo=statement-latency}': 1.0,
    'slo.burn_rate{severity=page,slo=statement-availability}': 0.0,
    'slo.burn_rate{severity=page,slo=statement-latency}': 0.0,
    'slo.burn_rate{severity=ticket,slo=statement-availability}': 0.0,
    'slo.burn_rate{severity=ticket,slo=statement-latency}': 0.0,
    'sql.batches': 15,
    'sql.operator_ms{op=AggregateNode}': [1, 10.505602],
    'sql.operator_ms{op=ProjectNode}': [6, 57.735068],
    'sql.operator_ms{op=ScanNode}': [6, 57.592908],
    'sql.operators_executed': 13,
    'streaming.events_consumed{loader=gps->ops__pts}': 5,
    'streaming.events_dropped{loader=gps->ops__pts}': 1,
    'streaming.lag{loader=gps->ops__pts}': 0,
    'streaming.late_events{loader=gps->ops__pts}': 1,
    'streaming.poll_sim_ms{loader=gps->ops__pts}': 0.07736975097656251,
    'streaming.polls{loader=gps->ops__pts}': 2,
    'streaming.rows_loaded{loader=gps->ops__pts}': 4,
    'streaming.view_refresh_ms{loader=gps->ops__pts}': 0.0008000000000000021,
    'streaming.watermark_delay_s{loader=gps->ops__pts}': 0.0,
    'streaming.watermark{loader=gps->ops__pts}': 1500000130.0,
    'streaming.windows_emitted{loader=gps->ops__pts}': 2,
}


@pytest.fixture(scope="module")
def run():
    return _run()


def test_every_exposed_series_equals_its_owner(run):
    # Imported here so that the module still runs as a script at the
    # recording commit, which has no read-through series.
    from repro.observability.metrics import CounterView, GaugeView
    engine, server, loader = run["engine"], run["server"], run["loader"]
    store, scraper = engine.store, engine.monitor.scraper
    stream = loader.stats_row()
    owners = {
        **{f"kvstore.{name}": value
           for name, value in vars(store.stats.snapshot()).items()},
        **{f"replication.{name}": value
           for name, value in vars(store.replication).items()},
        **{f"balancer.{name}": value
           for name, value in vars(engine.balancer).items()},
        **{f"admission.{name}": value
           for name, value in server.admission.stats().items()},
        "breaker.opened": sum(b.times_opened for b in run["breakers"]),
        "breaker.fast_failures": sum(b.fast_failures
                                     for b in run["breakers"]),
        "monitor.scrapes": scraper.scrapes,
        "monitor.scrape_ms": scraper.total_scrape_ms,
        "monitor.series": scraper.series,
        "server.slow_queries_logged": server.slow_query_log.total_logged,
        "kvstore.cache_hit_ratio": store.stats.cache_hits / (
            store.stats.cache_hits + store.stats.blocks_read),
        "kvstore.cache_used_bytes": sum(
            store.cache_for(s).used_bytes
            for s in range(store.num_servers)),
        **{f"streaming.{series}{{loader={loader.name}}}": stream[column]
           for series, column in (
               ("polls", "polls"), ("rows_loaded", "loaded"),
               ("events_dropped", "dropped"), ("lag", "lag"),
               ("late_events", "late_events"), ("alerts", "alerts"),
               ("watermark", "watermark"),
               ("events_consumed", "offset"),
               ("windows_emitted", "finalized_windows"))},
        f"streaming.poll_sim_ms{{loader={loader.name}}}":
            loader.total_sim_ms,
        f"streaming.watermark_delay_s{{loader={loader.name}}}":
            loader.watermark.max_delay_s,
        f"streaming.view_refresh_ms{{loader={loader.name}}}":
            engine.view("ops__per_minute").total_refresh_ms,
    }
    views = {key: metric.value for key, metric in engine.metrics.items()
             if isinstance(metric, (CounterView, GaugeView))}
    assert len(views) > 45
    assert views == {key: owners[key] for key in views}
    assert store.replication.quorum_ack_ms \
        is dict(engine.metrics.items())["replication.quorum_ack_ms"]


def test_listed_series_equal_the_recorded_run(run):
    assert _flat(run["engine"].metrics) == GOLDEN


def test_a_counter_is_not_listed_while_it_is_zero(run):
    registry = run["engine"].metrics
    # Before any work: the pushed statement histogram and the always-on
    # derived gauges, and not one of the ~50 exposed counters.
    assert sorted(run["listed_before"]) == [
        "kvstore.cache_hit_ratio", "kvstore.cache_used_bytes",
        "server.slow_queries_logged", "server.statement_sim_ms"]
    listed = dict(registry.items())
    hidden = {key: metric for key, metric in registry._metrics.items()
              if key not in listed}
    assert {"kvstore.wal_bytes_replayed", "kvstore.memstore_bytes_read",
            "kvstore.scan_keys_rejected",   # no XZ key in this run
            "replication.quorum_failures", "replication.lag_alerts",
            f"streaming.alerts{{loader={run['loader'].name}}}"} \
        == set(hidden)
    assert all(metric.value == 0 for metric in hidden.values())
    assert registry.counter("replication.quorum_failures").value == 0
    with pytest.raises(AttributeError):     # read, never pushed
        registry.counter("replication.promotions").inc()


def test_derived_gauges_are_live_through_justql():
    """``kvstore.cache_hit_ratio`` used to exist only after someone read
    ``/metrics``, and then stay frozen at that reading."""
    server = monitored_service()
    client = JustClient(server, "ops")

    def reading():
        rows = client.execute_query(
            "SELECT name, value FROM sys.metrics "
            "WHERE name = 'kvstore.cache_hit_ratio' "
            "OR name = 'kvstore.cache_hits' "
            "OR name = 'kvstore.blocks_read'").rows
        values = {row["name"]: row["value"] for row in rows}
        assert values["kvstore.cache_hit_ratio"] == pytest.approx(
            values["kvstore.cache_hits"]
            / (values["kvstore.cache_hits"]
               + values["kvstore.blocks_read"]))
        return values["kvstore.cache_hit_ratio"]

    queries = monitor_queries()
    for sql in queries[:6]:
        client.execute_query(sql)
    cold = reading()
    for sql in queries[:6]:                 # same windows, warm cache
        client.execute_query(sql)
    assert reading() > cold
    history = client.execute_query(
        "SELECT value FROM sys.metrics_history "
        "WHERE name = 'kvstore.cache_hit_ratio' AND tier = 0 "
        "ORDER BY ts_ms").rows
    assert len({row["value"] for row in history}) > 1


if __name__ == "__main__":
    for key, value in _flat(_run()["engine"].metrics).items():
        print(f"    {key!r}: {value!r},")
