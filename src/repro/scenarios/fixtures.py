"""Seeded builders and experiment bodies the scenarios share.

One point-table service builder, one gray-fault injector and one window
query generator serve every service-level scenario; below them, each
subsystem experiment is written once, at the size ``bench_results.json``
records, and returns plain measurements (the scenario modules narrate
them and turn them into tables and checks).  Everything is seeded: two
runs of any function here return identical values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cluster.simclock import CostModel, SimJob
from repro.core.engine import JustEngine
from repro.core.loader import apply_config
from repro.core.schema import Field, FieldType, Schema
from repro.datagen.transitgen import (
    TRANSIT_RT_CONFIG,
    TRANSIT_RT_SCHEMA,
    TRANSIT_TIME_START,
    TransitGenerator,
)
from repro.errors import JustError, QueryTimeoutError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    IntermittentError,
    KillServer,
    SlowServer,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.kvstore import KVStore, SyncPolicy
from repro.kvstore.recovery import RecoveryReport
from repro.observability.monitor import default_objectives
from repro.resilience import CircuitBreaker, Deadline, RequestContext
from repro.service.client import JustClient
from repro.service.server import JustServer
from repro.streaming import (
    Avg,
    Count,
    GeofenceAlerter,
    TumblingWindows,
    WindowedAggregator,
    batch_aggregate,
)
from repro.streaming.views import REFRESH_CPU_US_PER_ROW

#: Cost model for service-level experiments: the shared-context driver
#: overhead is shrunk so a ~100 ms deadline budget (or latency SLO) is
#: meaningful against injected per-operation latency rather than swamped
#: by fixed costs.
SERVICE_COST_MODEL = CostModel(query_overhead_ms=1.0, seek_ms=0.2,
                               spark_stage_ms=1.0)

#: Beijing-ish box the point data and query windows are drawn from.
AREA = (116.0, 39.8, 116.5, 40.1)
T0 = 1_500_000_000.0

#: Statement deadline of the resilient client policies and threshold of
#: the latency SLO (a bound of ``DEFAULT_LATENCY_BUCKETS_MS``).
LATENCY_BUDGET_MS = 100.0

POINT_SCHEMA = Schema([
    Field("fid", FieldType.INTEGER, primary_key=True),
    Field("time", FieldType.DATE),
    Field("geom", FieldType.POINT),
])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 when there are no samples)."""
    ordered = sorted(values)
    return ordered[int(q * (len(ordered) - 1))] if ordered else 0.0


# ---------------------------------------------------------------------------
# The seeded point-table service
# ---------------------------------------------------------------------------

def build_service(user: str, table: str, *, rows: int, seed: int,
                  num_servers: int, monitored: bool = False) -> JustServer:
    """A JustServer over one point table that spans many regions.

    ``rows`` seeded points (one day, :data:`AREA`) go into ``table`` in
    ``user``'s namespace.  Small split/flush thresholds force the table
    across a dozen or so regions on every server, so a sick server hits
    a slice of every scan.  ``monitored`` attaches the scrape → history →
    SLO → alert pipeline first (50 sim-ms scrape cadence, burn windows
    scaled so a gray fault a few hundred sim-ms long is enough to page).
    """
    engine = JustEngine(num_servers=num_servers,
                        cost_model=SERVICE_COST_MODEL,
                        split_bytes=4 * 1024, flush_bytes=1024)
    if monitored:
        engine.enable_monitoring(
            interval_ms=50.0,
            objectives=default_objectives(
                latency_threshold_ms=LATENCY_BUDGET_MS,
                slo_base_ms=240_000.0))
    name = f"{user}__{table}"
    engine.create_table(name, POINT_SCHEMA)
    rng = random.Random(seed)
    lo_lng, lo_lat, hi_lng, hi_lat = AREA
    engine.insert(name, [
        {"fid": fid,
         "time": T0 + rng.random() * 86_400,
         "geom": Point(lo_lng + rng.random() * (hi_lng - lo_lng),
                       lo_lat + rng.random() * (hi_lat - lo_lat))}
        for fid in range(rows)])
    return JustServer(engine)


def inject_gray_fault(server: JustServer, fault: str, *, seed: int,
                      latency_ms: float = 60.0,
                      probability: float = 0.9) -> None:
    """Make region server 0 sick: ``"slow"`` or ``"flaky"``.

    A gray fault fires once per region a scan visits on the victim.  The
    slow default is sized for a statement to cross a dozen of its
    regions: the injected latency adds up to several deadline budgets
    while one draw (``latency_ms`` plus up to half again of jitter) stays
    below one.  A flapping victim fails nearly every attempt.
    """
    if fault == "slow":
        sickness = SlowServer(0, latency_ms, jitter_ms=latency_ms / 2)
    elif fault == "flaky":
        sickness = IntermittentError(0, probability)
    else:
        raise ValueError(f"unknown fault kind {fault!r}")
    FaultInjector(FaultPlan([sickness], seed=seed)).attach(
        server.engine.store)


def window_queries(table: str, count: int, *, seed: int, side: float,
                   area: tuple = AREA) -> list[str]:
    """Seeded ``side``-degree square window SELECTs inside ``area``."""
    rng = random.Random(seed)
    lo_lng, lo_lat, hi_lng, hi_lat = area
    queries = []
    for _ in range(count):
        lng = lo_lng + rng.random() * (hi_lng - lo_lng - side)
        lat = lo_lat + rng.random() * (hi_lat - lo_lat - side)
        queries.append(
            f"SELECT fid FROM {table} WHERE geom WITHIN "
            f"st_makeMBR({lng:.4f}, {lat:.4f}, {lng + side:.4f}, "
            f"{lat + side:.4f})")
    return queries


def load_taxi_table(client: JustClient, placement: str, rows: int) -> None:
    """``CREATE TABLE taxi ... WITH (placement)`` + one INSERT, via JustQL."""
    client.execute_query(
        "CREATE TABLE taxi (fid integer:primary key, name string, "
        f"time date, geom point) WITH ({placement})")
    values = ", ".join(
        f"({i}, 'cab{i}', {1_500_000_000 + i * 60}, "
        f"st_makePoint({116.0 + (i % 40) * 0.01:.2f}, "
        f"{39.8 + (i % 25) * 0.01:.2f}))"
        for i in range(rows))
    client.execute_query(f"INSERT INTO taxi VALUES {values}")


# ---------------------------------------------------------------------------
# Durability / replication: crash a region server mid-ingest
# ---------------------------------------------------------------------------

@dataclass
class CrashResult:
    """Outcome of one ingest-crash-recover run."""

    acked_writes: int
    lost_acked_writes: int
    ingest_ms: float
    wal_syncs: int
    recovery: RecoveryReport


def run_crash_experiment(policy: SyncPolicy, num_keys: int = 3000,
                         kill_after: int = 2000, *,
                         replication_factor: int = 1,
                         presplit: bool = False) -> CrashResult:
    """Ingest, crash server 0 mid-stream, fail over, measure the damage.

    Every ``put`` that returns normally counts as acknowledged; after
    failover each acknowledged key is read back and counted lost if its
    value is gone.  With ``replication_factor > 1`` the crash recovers by
    follower promotion, otherwise by WAL replay.  ``presplit`` starts the
    table with one region per server and draws raw 8-byte keys uniform
    over the split points; without it hex-string keys grow regions by
    size splits.  Either way every server's memstores are busy at crash
    time.
    """
    num_servers = 5
    model = CostModel()
    store = KVStore(num_servers=num_servers, wal_policy=policy,
                    flush_bytes=16 * 1024, split_bytes=64 * 1024,
                    block_bytes=1024, cost_model=model,
                    # Group-commit threshold scaled to the write volume
                    # so PERIODIC sits between SYNC and ASYNC.
                    wal_periodic_bytes=2 * 1024,
                    replication_factor=replication_factor)
    FaultInjector(FaultPlan([KillServer(0, after_ops=kill_after)],
                            seed=0)).attach(store)
    table = store.create_table("ingest",
                               presplit=num_servers if presplit else 0)

    rng = random.Random(0)
    acked: list[tuple[bytes, bytes]] = []
    before = store.stats.snapshot()
    for _ in range(num_keys):
        if presplit:
            key = rng.getrandbits(64).to_bytes(8, "big")
        else:
            key = f"k{rng.getrandbits(60):016x}".encode()
        value = rng.randbytes(64)
        table.put(key, value)
        acked.append((key, value))
    delta = store.stats.snapshot().delta(before)

    job = SimJob(model, num_servers)
    job.charge_wal(delta)
    job.charge_disk_write(delta.disk_bytes_written)
    job.charge_cpu_records(len(acked), us_per_record=model.kv_put_us,
                           parallel=False)

    report = store.last_recovery
    assert report is not None, "the injected crash never fired"
    lost = sum(1 for key, value in acked if table.get(key) != value)
    return CrashResult(acked_writes=len(acked), lost_acked_writes=lost,
                       ingest_ms=job.elapsed_ms,
                       wal_syncs=delta.wal_syncs, recovery=report)


#: What the gray-slow server adds to every operation in the read test.
STALL_MS = 40.0


def hedged_read_latencies(replication_factor: int, read_mode: str) -> dict:
    """p50/p95 of 200 point reads while server 0 stalls every op."""
    reads = 200
    store = KVStore(num_servers=5, wal_policy=SyncPolicy.SYNC,
                    flush_bytes=16 * 1024, block_bytes=1024,
                    replication_factor=replication_factor,
                    read_mode=read_mode)
    table = store.create_table("t", presplit=5)
    rng = random.Random(0)
    keys = []
    for _ in range(2 * reads):
        key = rng.getrandbits(64).to_bytes(8, "big")
        table.put(key, b"v" * 64)
        keys.append(key)
    replication = store.replication
    if replication is not None:
        replication.tick()  # followers fully caught up
    FaultInjector(FaultPlan([SlowServer(0, latency_ms=STALL_MS)],
                            seed=0)).attach(store)
    samples = []
    for key in rng.sample(keys, reads):
        ctx = RequestContext(deadline=Deadline(60_000.0))
        table.get(key, ctx=ctx)
        samples.append(ctx.deadline.consumed_ms)
    return {"p50": percentile(samples, 0.50),
            "p95": percentile(samples, 0.95),
            "hedged_reads": replication.hedged_reads if replication else 0,
            "hedge_wins": replication.hedge_wins if replication else 0}


# ---------------------------------------------------------------------------
# Resilience: client policies against a sick region server
# ---------------------------------------------------------------------------

#: The policy workload's clients connect as this user and query this
#: table (the server prefixes every statement's table names).
WORKLOAD_USER = "bench"
WORKLOAD_TABLE = "events"


def resilience_service(fault: str, **fault_kwargs) -> JustServer:
    """The policy workload's three-server service.

    ``fault`` makes server 0 ``"slow"`` or ``"flaky"``; ``"none"`` is
    the healthy control.
    """
    server = build_service(WORKLOAD_USER, WORKLOAD_TABLE, rows=3200,
                           seed=0, num_servers=3)
    if fault != "none":
        inject_gray_fault(server, fault, seed=0, **fault_kwargs)
    return server


@dataclass
class PolicyResult:
    """Outcome of one client policy's run over the seeded workload."""

    mode: str
    queries: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0
    fast_failures: int = 0
    partial: int = 0
    regions_skipped: int = 0
    retries: int = 0
    latencies_ms: list = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Fraction of requests that returned rows (full or partial)."""
        return self.ok / self.queries if self.queries else 0.0

    def percentile(self, q: float) -> float:
        """Latency percentile over all finished requests, sim-ms.

        Rank ``int(q * n)``, not :func:`percentile`'s ``int(q * (n - 1))``:
        the recorded R-slow/R-flaky tables are on this rule.
        """
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_policy_workload(server: JustServer, mode: str,
                        queries: int = 40) -> PolicyResult:
    """Drive the seeded window workload through one client policy.

    ``baseline`` sends no deadline and takes no partial results, so
    requests absorb the injected latency in full and see raw errors
    (minus SDK retries); ``deadline`` bounds each statement at
    :data:`LATENCY_BUDGET_MS` on the simulated clock; ``partial`` adds
    opt-in partial results (scans skip unavailable regions and report
    them).  The client's sleep is a no-op (backoff is accounted, not
    waited) and the breaker runs on a simulated second hand advanced per
    request, keeping the run deterministic and instant in wall-clock
    terms.
    """
    now = [0.0]
    client = JustClient(server, WORKLOAD_USER, jitter_seed=0,
                        sleep=lambda _s: None,
                        breaker=CircuitBreaker(reset_timeout_s=5.0,
                                               clock=lambda: now[0]))
    result = PolicyResult(mode=mode)
    kwargs = {}
    if mode in ("deadline", "partial"):
        kwargs["timeout_ms"] = LATENCY_BUDGET_MS
    if mode == "partial":
        kwargs["partial_results"] = True

    for statement in window_queries(WORKLOAD_TABLE, queries,
                                    seed=0xD15EA5E, side=0.12):
        now[0] += 1.0  # one simulated second between requests
        result.queries += 1
        try:
            rs = client.execute_query(statement, **kwargs)
        except QueryTimeoutError as exc:
            result.timeouts += 1
            result.latencies_ms.append(exc.consumed_ms)
        except JustError:
            result.errors += 1
            result.latencies_ms.append(LATENCY_BUDGET_MS
                                       if mode != "baseline" else 0.0)
        else:
            result.ok += 1
            result.latencies_ms.append(rs.sim_ms)
            if rs.skipped_regions:
                result.partial += 1
                result.regions_skipped += len(rs.skipped_regions)
    result.retries = client.retries_attempted
    result.fast_failures = client.breaker.fast_failures
    return result


# ---------------------------------------------------------------------------
# Monitoring: scrape overhead and alert time-to-fire
# ---------------------------------------------------------------------------

MONITOR_USER = "ops"
MONITOR_TABLE = "traffic"
_MONITOR_SEED = 11


def monitored_service(monitored: bool = True) -> JustServer:
    """The monitoring experiments' four-server service."""
    return build_service(MONITOR_USER, MONITOR_TABLE, rows=400,
                         seed=_MONITOR_SEED, num_servers=4,
                         monitored=monitored)


def monitor_queries() -> list[str]:
    """Eight windows spread over the whole area (all servers)."""
    return window_queries(MONITOR_TABLE, 8, seed=_MONITOR_SEED ^ 0xDA5,
                          side=0.15)


def run_overhead_experiment() -> dict:
    """Identical seeded workload (6 passes), monitoring off vs on.

    Every scrape charges its modeled cost to the shared clock, so the
    overhead is an honest fraction of statement time.
    """
    passes = 6
    queries = monitor_queries()
    statement_ms = {}
    for monitored in (False, True):
        server = monitored_service(monitored)
        with JustClient(server, MONITOR_USER) as client:
            statement_ms[monitored] = sum(
                sum(client.execute_query(sql).sim_ms for sql in queries)
                for _ in range(passes))
    monitor = server.engine.monitor
    scrape_ms = monitor.scraper.total_scrape_ms
    return {
        "statements": passes * len(queries),
        "unmonitored_ms": statement_ms[False],
        "monitored_ms": statement_ms[True],
        "scrapes": monitor.scraper.scrapes,
        "series": len(monitor.history),
        "scrape_ms": scrape_ms,
        "overhead": scrape_ms / statement_ms[True],
    }


def run_time_to_fire_experiment() -> dict:
    """Two healthy passes, then SlowServer until the latency page fires.

    One region visit on the victim (+120 ms) is enough to break the
    latency SLO, so every statement that reaches it is bad.  Returns the
    ``server`` too, so a caller can read the ``sys.*`` tables the run
    left behind.
    """
    server = monitored_service()
    client = JustClient(server, MONITOR_USER)
    queries = monitor_queries()
    for _ in range(2):
        for sql in queries:
            client.execute_query(sql)
    monitor = server.engine.monitor
    injected_ms = server.engine.events.now_ms
    inject_gray_fault(server, "slow", seed=_MONITOR_SEED,
                      latency_ms=120.0)
    alert = monitor.slos.alert("statement-latency", "page")
    statements = 0
    while alert.state != "firing" and statements < 20 * len(queries):
        client.execute_query(queries[statements % len(queries)])
        statements += 1
    fired = alert.state == "firing"
    return {
        "server": server,
        "fired": fired,
        "statements_to_fire": statements,
        "time_to_fire_ms": (alert.fired_at_ms - injected_ms)
        if fired else float("inf"),
        "burn_long": alert.burn_long,
        "trace_id": alert.trace_id,
        "availability_state":
            monitor.slos.worst_state("statement-availability"),
        "alert_events": len(server.events.events(kind="alert")),
    }


# ---------------------------------------------------------------------------
# Streaming: the transit-delay continuous-query pipeline
# ---------------------------------------------------------------------------

STREAM_WINDOW_S = 900.0
STREAM_DISORDER_S = 120.0

def _segment_aggs() -> dict:
    """Fresh per-segment aggregates (they are stateful)."""
    return {"arrivals": Count(), "avg_delay": Avg("delay"),
            "avg_dwell": Avg("dwell")}


def _make_fences(engine: JustEngine, network: TransitGenerator) -> None:
    """A ~1 km square geofence around one mid-route stop per route."""
    fences = engine.create_plugin_table("zones", "geofence")
    rows = []
    for route_id, stops in sorted(network.routes.items()):
        stop = stops[len(stops) // 2]
        half = 0.009
        lng, lat = stop["lng"], stop["lat"]
        rows.append({"gid": f"Z-{route_id}", "name": stop["stop_id"],
                     "category": "corridor",
                     "valid_from": TRANSIT_TIME_START - 3600.0,
                     "valid_to": TRANSIT_TIME_START + 7 * 86400.0,
                     "area": Polygon([(lng - half, lat - half),
                                      (lng + half, lat - half),
                                      (lng + half, lat + half),
                                      (lng - half, lat + half)])})
    fences.insert_rows(rows, engine.cluster.job())


def run_stream_experiment() -> dict:
    """One run of the transit pipeline; metrics + the parity verdict.

    An out-of-order GTFS-RT-style feed (6 routes x 10 trips x 10 stops)
    is published 80 events per poll to a loader that consumes 40, so a
    backlog builds and each geofence alert's publish→detection latency
    includes real queue wait on the one simulated timeline.  Tumbling
    15-minute windows per route segment finalize as the watermark passes
    into a materialized view, which is compared — exactly — against a
    cold batch recomputation over the same events.  Alongside, what a
    recompute-from-scratch view would charge for the same freshness
    (every poll re-folds every row so far) is priced through the same
    cost model.  Returns the ``engine`` and a per-poll ``poll_log`` too.
    """
    batch_size, publish_chunk = 40, 80
    engine = JustEngine()
    network = TransitGenerator(seed=20140301, num_routes=6,
                               stops_per_route=10)
    feed = network.realtime_feed(trips_per_route=10,
                                 disorder_s=STREAM_DISORDER_S)
    engine.create_table("transit_rt", TRANSIT_RT_SCHEMA)
    _make_fences(engine, network)
    topic = engine.create_topic("gtfs_rt")
    loader = engine.stream_load("gtfs_rt", "transit_rt",
                                TRANSIT_RT_CONFIG, batch_size=batch_size,
                                max_delay_s=STREAM_DISORDER_S)
    view = loader.materialize_window(
        "segment_delay",
        WindowedAggregator(TumblingWindows(STREAM_WINDOW_S),
                           _segment_aggs(), key_fields=("route", "seq")))
    alerter = loader.attach_alerter(
        GeofenceAlerter(engine, "zones", key_field="trip"))

    published = 0
    ingest_ms = 0.0
    naive_refresh_ms = 0.0
    rows_so_far = 0
    poll_log = []
    while published < len(feed) or loader.lag > 0:
        if published < len(feed):
            chunk = [dict(event, published_ms=engine.events.now_ms)
                     for event in feed[published:published + publish_chunk]]
            topic.append_many(chunk)
            published += len(chunk)
        stats = loader.poll()
        engine.events.advance(stats["sim_ms"])
        ingest_ms += stats["sim_ms"]
        poll_log.append(dict(stats, lag=loader.lag,
                             watermark=loader.watermark.watermark))
        rows_so_far += stats["loaded"]
        naive_job = engine.cluster.job()
        naive_job.charge_cpu_records(
            rows_so_far, us_per_record=REFRESH_CPU_US_PER_ROW)
        naive_refresh_ms += naive_job.elapsed_ms
    tail = loader.finalize()
    engine.events.advance(tail["sim_ms"])

    mapped = [apply_config(event, TRANSIT_RT_CONFIG) for event in feed]
    batch = batch_aggregate(mapped, TumblingWindows(STREAM_WINDOW_S),
                            _segment_aggs(), key_fields=("route", "seq"))
    latencies = [a.latency_ms for a in alerter.alerts
                 if a.latency_ms is not None]
    return {
        "engine": engine,
        "poll_log": poll_log,
        "tail_rows": tail["emitted"],
        "events": len(feed),
        "polls": loader.polls,
        "ingest_ms": ingest_ms,
        "parity": view.rows() == batch,
        "late_events": loader.stats_row()["late_events"],
        "alerts": alerter.total_alerts,
        "alert_p50_ms": percentile(latencies, 0.50),
        "alert_p95_ms": percentile(latencies, 0.95),
        "incremental_refresh_ms": view.total_refresh_ms,
        "naive_refresh_ms": naive_refresh_ms,
        "view_rows": view.row_count,
    }
