"""SLO burn-rate alerting and the end-to-end monitoring pipeline.

Unit coverage of the objective math and the pending → firing → resolved
state machine on synthetic histories, then the full stack: a monitored
service under a :class:`~repro.faults.plan.SlowServer` gray failure
must page within the run, visibly in ``sys.alerts`` and ``sys.events``
through plain JustQL, and the scraped subsystem series must answer
windowed rate queries through ``sys.metrics_history``.
"""

import pytest

from repro import Schema
from repro.core.engine import JustEngine
from repro.kvstore.wal import SyncPolicy
from repro.observability.events import EventLog
from repro.observability.history import MetricsHistory
from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import (
    AvailabilityObjective,
    BurnWindow,
    LatencyObjective,
    SloManager,
    default_windows,
)
from repro.scenarios.fixtures import (
    inject_gray_fault,
    monitor_queries,
    monitored_service,
)
from repro.service.client import JustClient
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer

from conftest import POI_SCHEMA_FIELDS, T0
from oracles import retained


# -- burn windows -------------------------------------------------------------

class TestBurnWindows:
    def test_default_windows_keep_sre_ratios(self):
        page, ticket = default_windows(base_ms=60_000.0)
        assert (page.severity, ticket.severity) == ("page", "ticket")
        assert page.long_ms / page.short_ms == pytest.approx(12.0)
        assert page.factor == 14.4
        assert ticket.long_ms == 6 * page.long_ms
        assert ticket.factor == 6.0
        # Page reacts faster than ticket on both axes.
        assert page.for_ms < ticket.for_ms
        assert page.short_ms < ticket.short_ms


# -- objectives ---------------------------------------------------------------

def _record_counters(history, ts, **values):
    for name, value in values.items():
        history.record_scrape(
            ts, [(name.replace("__", "."), "counter", value)])


class TestObjectives:
    def test_target_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            AvailabilityObjective(name="bad", target=1.0)
        with pytest.raises(ValueError):
            AvailabilityObjective(name="bad", target=0.0)

    def test_budget_window_defaults_to_4x_longest(self):
        objective = AvailabilityObjective(
            name="a", target=0.99,
            windows=(BurnWindow("page", 1_000.0, 100.0, 10.0),))
        assert objective.budget_window_ms == 4_000.0
        assert objective.budget == pytest.approx(0.01)

    def test_availability_bad_fraction(self):
        history = MetricsHistory()
        _record_counters(history, 0.0, ok=0.0, err=0.0)
        _record_counters(history, 1_000.0, ok=90.0, err=10.0)
        objective = AvailabilityObjective(
            name="a", target=0.9, total_series=("ok", "err"),
            bad_series=("err",))
        assert objective.bad_fraction(history, 0.0, 1_000.0) == \
            pytest.approx(0.1)
        assert objective.burn_rate(history, 0.0, 1_000.0) == \
            pytest.approx(1.0)

    def test_availability_none_without_traffic(self):
        objective = AvailabilityObjective(
            name="a", target=0.9, total_series=("ok",),
            bad_series=("err",))
        assert objective.bad_fraction(MetricsHistory(), 0.0, 1_000.0) \
            is None

    def test_latency_bad_fraction_is_exact_from_buckets(self):
        history = MetricsHistory()
        _record_counters(history, 0.0, lat_count=0.0,
                         lat_bucket_le_100=0.0)
        _record_counters(history, 1_000.0, lat_count=10.0,
                         lat_bucket_le_100=7.0)
        objective = LatencyObjective(name="lat", target=0.9,
                                     metric="lat", threshold_ms=100.0)
        assert objective.bad_fraction(history, 0.0, 1_000.0) == \
            pytest.approx(0.3)

    def test_latency_exemplar_names_a_slow_trace(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(100.0,))
        histogram.observe(5.0, exemplar="fast-trace")
        histogram.observe(900.0, exemplar="slow-trace")
        objective = LatencyObjective(name="lat", target=0.9,
                                     metric="lat", threshold_ms=100.0)
        assert objective.exemplar(registry) == "slow-trace"


# -- evaluation cost at uptime ------------------------------------------------

class _CountedMs(float):
    """A scrape timestamp counting the comparisons made against it:
    how many retained points a window query reads."""

    reads = 0

    def __lt__(self, other):
        _CountedMs.reads += 1
        return float.__lt__(self, other)

    def __le__(self, other):
        _CountedMs.reads += 1
        return float.__le__(self, other)

    def __gt__(self, other):
        _CountedMs.reads += 1
        return float.__gt__(self, other)

    def __ge__(self, other):
        _CountedMs.reads += 1
        return float.__ge__(self, other)


class TestEvaluationCostAtUptime:
    def test_evaluate_reads_do_not_grow_with_retained_points(
            self, monkeypatch):
        """One evaluation of the default objectives after ~100 and after
        3 000 scrapes reads about the same number of points, though the
        rings it queries hold ~9x more: windows are found by bisection
        (a few more comparisons per doubling) and counter increases are
        two running totals, not a walk."""
        record_scrape = MetricsHistory.record_scrape
        monkeypatch.setattr(
            MetricsHistory, "record_scrape",
            lambda self, sim_ms, points: record_scrape(
                self, _CountedMs(sim_ms), points))
        engine = JustEngine()
        monitor = engine.enable_monitoring()
        JustServer(engine)  # registers the statement histogram
        statements = engine.metrics.counter("server.statements",
                                            status="ok")
        latency = engine.metrics.histogram("server.statement_sim_ms")

        def scrape_until(scrapes):
            while monitor.scraper.scrapes < scrapes:
                statements.inc()
                latency.observe(100.0)
                engine.events.advance(250.0)
                monitor.scraper.tick()

        def reads_of_one_evaluation():
            _CountedMs.reads = 0
            monitor.slos.evaluate(engine.events.now_ms)
            return _CountedMs.reads

        scrape_until(100)
        early = reads_of_one_evaluation()
        scrape_until(3_000)
        late = reads_of_one_evaluation()
        series = monitor.history.series["server.statements{status=ok}"]
        assert len(retained(series, 0)) + len(retained(series, 1)) \
            >= 8 * 100
        assert 0 < early and late < 1.25 * early


# -- the alert state machine --------------------------------------------------

def _manager(registry=None):
    history = MetricsHistory()
    events = EventLog()
    manager = SloManager(history, events, registry)
    objective = AvailabilityObjective(
        name="avail", target=0.9,
        windows=(BurnWindow("page", long_ms=1_000.0, short_ms=100.0,
                            factor=2.0, for_ms=50.0),),
        total_series=("total",), bad_series=("bad",))
    manager.add(objective)
    return history, events, manager


class TestAlertFsm:
    def test_pending_then_firing_then_resolved(self):
        history, events, manager = _manager()
        alert = manager.alert("avail", "page")

        _record_counters(history, 100.0, total=10.0, bad=0.0)
        manager.evaluate(100.0)
        assert alert.state == "ok"

        # Half the traffic goes bad: burn 5x against a 2x factor.
        _record_counters(history, 200.0, total=20.0, bad=5.0)
        manager.evaluate(200.0)
        assert alert.state == "pending"
        assert events.total_by_kind.get("slo_burn") == 1

        # Still burning past the dwell -> page.
        _record_counters(history, 260.0, total=30.0, bad=10.0)
        manager.evaluate(260.0)
        assert alert.state == "firing"
        assert alert.times_fired == 1
        assert events.total_by_kind.get("alert") == 1

        # Recovery: plenty of good traffic drains both windows.
        _record_counters(history, 400.0, total=130.0, bad=10.0)
        manager.evaluate(400.0)
        assert alert.state == "resolved"
        fired, resolved = events.events(kind="alert")
        assert fired.state == "firing"
        assert resolved.state == "resolved"

    def test_blip_in_pending_returns_to_ok_without_alerting(self):
        history, events, manager = _manager()
        alert = manager.alert("avail", "page")
        _record_counters(history, 100.0, total=10.0, bad=0.0)
        manager.evaluate(100.0)
        _record_counters(history, 110.0, total=12.0, bad=2.0)
        manager.evaluate(110.0)
        assert alert.state == "pending"
        # The burn stops inside the dwell: no page, back to ok.
        _record_counters(history, 140.0, total=40.0, bad=2.0)
        manager.evaluate(140.0)
        assert alert.state == "ok"
        assert events.total_by_kind.get("alert") is None

    def test_burn_gauges_are_mirrored_into_registry(self):
        registry = MetricsRegistry()
        history, events, manager = _manager(registry)
        _record_counters(history, 100.0, total=10.0, bad=0.0)
        _record_counters(history, 200.0, total=20.0, bad=5.0)
        manager.evaluate(200.0)
        assert registry.gauge("slo.burn_rate", slo="avail",
                              severity="page").value == pytest.approx(
            5.0)
        assert registry.gauge("slo.budget_remaining",
                              slo="avail").value < 1.0

    def test_rows_expose_worst_state_and_budget(self):
        history, events, manager = _manager()
        _record_counters(history, 100.0, total=10.0, bad=0.0)
        _record_counters(history, 200.0, total=20.0, bad=5.0)
        manager.evaluate(200.0)
        (row,) = manager.rows(200.0)
        assert row["slo"] == "avail"
        assert row["state"] == "pending"
        assert row["budget_remaining"] < 1.0
        (alert_row,) = manager.alert_rows()
        assert alert_row["severity"] == "page"
        assert alert_row["state"] == "pending"


# -- end to end: gray failure pages through sys.* -----------------------------

ORDER_CONFIG = {
    "fid": "to_int(oid)",
    "name": "oid",
    "time": "long_to_date_ms(ts)",
    "geom": "lng_lat_to_point(lng, lat)",
}


def _order_event(i):
    return {"oid": str(i), "lng": 116.0 + (i % 50) * 0.01, "lat": 39.9,
            "ts": int((T0 + i) * 1000)}


class TestMonitoredService:
    def test_slow_server_pages_within_the_run(self):
        server = monitored_service()
        client = JustClient(server, "ops")
        queries = monitor_queries()
        for sql in queries:
            client.execute_query(sql)
        inject_gray_fault(server, "slow", seed=11, latency_ms=120.0)
        alert = server.engine.monitor.slos.alert("statement-latency",
                                                 "page")
        for _ in range(20):
            for sql in queries:
                client.execute_query(sql)
            if alert.state == "firing":
                break
        assert alert.state == "firing"
        # Visible through plain JustQL, with the exemplar trace id.
        rows = client.execute_query(
            "SELECT slo, severity, state, trace_id FROM sys.alerts "
            "WHERE state = 'firing'").rows
        firing = {(r["slo"], r["severity"]) for r in rows}
        assert ("statement-latency", "page") in firing
        assert all(slo == "statement-latency" for slo, _ in firing)
        assert rows[0]["trace_id"]
        # The event feed shows the escalation: burn warning, then page.
        kinds = [e.kind for e in server.events.events()
                 if e.kind in ("slo_burn", "alert")]
        assert "slo_burn" in kinds and "alert" in kinds
        assert kinds.index("slo_burn") < kinds.index("alert")
        # The gray failure stays gray: availability never trips.
        slo_rows = client.execute_query(
            "SELECT slo, state FROM sys.slos").rows
        states = {r["slo"]: r["state"] for r in slo_rows}
        assert states["statement-availability"] == "ok"
        client.close()

    def test_streaming_series_answer_windowed_rates(self):
        engine = JustEngine()
        engine.enable_monitoring(interval_ms=1.0)
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        topic = engine.create_topic("gps")
        topic.append_many(_order_event(i) for i in range(30))
        loader = engine.stream_load("gps", "poi", ORDER_CONFIG,
                                    batch_size=10)
        engine.monitor.tick()
        while loader.lag:
            stats = loader.poll()
            engine.events.advance(stats["sim_ms"])
            engine.monitor.tick()
        key = f"streaming.rows_loaded{{loader={loader.name}}}"
        now_ms = engine.events.now_ms
        assert engine.monitor.history.increase(key, now_ms, now_ms) > 0
        result = engine.sql(
            f"SELECT ts_ms, rate_per_s FROM sys.metrics_history "
            f"WHERE name = '{key}' AND tier = 0 ORDER BY ts_ms")
        rates = [r["rate_per_s"] for r in result.rows
                 if r["rate_per_s"] is not None]
        assert rates and all(rate > 0 for rate in rates)

    def test_replication_series_are_scraped(self):
        engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                            replication_factor=3)
        engine.enable_monitoring(interval_ms=1.0)
        engine.sql("CREATE TABLE t (fid integer:primary key, "
                   "geom point)")
        engine.sql("INSERT INTO t VALUES (1, st_makePoint(1.0, 2.0))")
        engine.sql("INSERT INTO t VALUES (2, st_makePoint(3.0, 4.0))")
        engine.monitor.tick()
        series = engine.monitor.history.series.get(
            "replication.records_shipped")
        assert series is not None
        assert retained(series, 0)[-1][1] > 0
        result = engine.sql(
            "SELECT value FROM sys.metrics_history "
            "WHERE name = 'replication.records_shipped'")
        assert result.rows and result.rows[-1]["value"] > 0

    def test_balancer_series_are_scraped(self):
        engine = JustEngine()
        engine.enable_balancer()
        engine.enable_monitoring(interval_ms=1.0)
        engine.sql("CREATE TABLE t (fid integer:primary key, "
                   "geom point)")
        engine.sql("INSERT INTO t VALUES (1, st_makePoint(1.0, 2.0))")
        engine.balancer.tick()
        engine.monitor.tick()
        series = engine.monitor.history.series.get("balancer.runs")
        assert series is not None
        assert retained(series, 0)[-1][1] >= 1

    def test_http_monitoring_routes(self):
        server = monitored_service()
        client = JustClient(server, "ops")
        for sql in monitor_queries()[:4]:
            client.execute_query(sql)
        monitor = server.engine.monitor
        remote = JustHttpClient(JustHttpServer(server), "ops")

        def query(sql):
            return list(remote.execute_query(sql))

        history = query("SELECT name, ts_ms FROM sys.metrics_history "
                        "WHERE name = 'monitor.scrapes' AND tier = 0")
        assert history
        series = query("SELECT name, count(*) AS n "
                       "FROM sys.metrics_history GROUP BY name")
        assert 0 < len(series) <= len(monitor.history)
        counters = {r["name"]: r["value"] for r in query(
            "SELECT name, value FROM sys.metrics "
            "WHERE name = 'monitor.scrapes' OR name = 'monitor.scrape_ms'")}
        assert 0 < counters["monitor.scrapes"] <= monitor.scraper.scrapes
        assert 0 < counters["monitor.scrape_ms"] \
            <= monitor.scraper.total_scrape_ms
        slos = query("SELECT slo, state FROM sys.slos")
        assert {s["slo"] for s in slos} == \
            {"statement-availability", "statement-latency"}
        assert len(query("SELECT * FROM sys.alerts")) == 4
        firing = query("SELECT slo FROM sys.alerts WHERE state = 'firing'")
        assert len(firing) == sum(a["state"] == "firing"
                                  for a in monitor.slos.alert_rows())
        # Monitoring off: the same statements answer no rows.
        off = JustHttpClient(JustHttpServer(), "ops")
        for table in ("sys.metrics_history", "sys.slos", "sys.alerts"):
            assert list(off.execute_query(f"SELECT * FROM {table}")) == []
        remote.close()
        off.close()
        client.close()

    def test_slow_queries_carry_trace_ids(self):
        server = monitored_service()
        server.slow_query_log.threshold_ms = 0.0
        client = JustClient(server, "ops")
        sql = monitor_queries()[0]
        client.execute_query(sql)
        rows = client.execute_query(
            "SELECT trace_id, sim_ms FROM sys.slow_queries").rows
        assert rows and all(r["trace_id"] for r in rows)
        client.close()
