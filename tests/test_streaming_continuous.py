"""Continuous queries: watermarks, windows, views, geofence alerts."""

import pytest

from repro.core.schema import FieldType
from repro.datagen.transitgen import (
    TRANSIT_RT_CONFIG,
    TransitGenerator,
    generate_transit_feed,
)
from repro.errors import ExecutionError, TableExistsError
from repro.streaming import (
    Avg,
    Count,
    TumblingWindows,
    WatermarkTracker,
    WindowedAggregator,
    batch_aggregate,
)


class TestWatermark:
    def test_trails_max_event_time(self):
        tracker = WatermarkTracker(max_delay_s=10.0)
        assert tracker.watermark is None
        tracker.observe(100.0)
        assert tracker.watermark == 90.0
        tracker.observe(95.0)  # out of order: frontier does not regress
        assert tracker.watermark == 90.0
        tracker.observe(120.0)
        assert tracker.watermark == 110.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ExecutionError):
            WatermarkTracker(max_delay_s=-1.0)


class TestWindowAssigners:
    def test_tumbling(self):
        windows = TumblingWindows(60.0)
        assert windows.assign(0.0) == [(0.0, 60.0)]
        assert windows.assign(59.9) == [(0.0, 60.0)]
        assert windows.assign(60.0) == [(60.0, 120.0)]

    def test_invalid_sizes(self):
        with pytest.raises(ExecutionError):
            TumblingWindows(0.0)


def _row(key, t, v):
    return {"k": key, "time": t, "v": v}


class TestWindowedAggregator:
    def _agg(self, windows=None):
        return WindowedAggregator(
            windows or TumblingWindows(60.0),
            {"n": Count(), "avg": Avg("v")}, key_fields=("k",))

    def test_finalize_on_watermark_pass(self):
        agg = self._agg()
        agg.add(_row("a", 10.0, 1.0))
        agg.add(_row("a", 30.0, 3.0))
        assert agg.advance(59.0) == []        # window [0,60) still open
        rows = agg.advance(60.0)
        assert rows == [{"window_start": 0.0, "window_end": 60.0,
                         "k": "a", "n": 2, "avg": 2.0}]
        assert agg.open_windows == 0
        assert agg.finalized_windows == 1

    def test_late_events_dropped_and_counted(self):
        agg = self._agg()
        agg.add(_row("a", 10.0, 1.0))
        agg.advance(60.0)
        agg.add(_row("a", 20.0, 9.0))  # behind the finalized window
        assert agg.late_dropped == 1
        assert agg.advance(120.0) == []  # nothing reopened

    def test_in_batch_disorder_is_not_late(self):
        """Events may arrive out of order within a batch: the loader
        buffers the whole batch before advancing, so only cross-batch
        delays beyond max_delay_s can drop events."""
        agg = self._agg()
        agg.add(_row("a", 70.0, 1.0))
        agg.add(_row("a", 10.0, 2.0))  # older, but window not finalized
        rows = agg.advance(60.0)
        assert rows[0]["n"] == 1 and rows[0]["avg"] == 2.0
        assert agg.late_dropped == 0

    def test_flush_emits_everything(self):
        agg = self._agg()
        agg.add(_row("a", 10.0, 1.0))
        agg.add(_row("b", 70.0, 2.0))
        rows = agg.flush()
        assert [r["window_start"] for r in rows] == [0.0, 60.0]

    def test_streamed_equals_batch(self):
        import random
        rng = random.Random(7)
        rows = [_row(rng.choice("ab"), rng.uniform(0, 600), i)
                for i in range(200)]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        streamed = self._agg()
        out = []
        for start in range(0, len(shuffled), 25):
            batch = shuffled[start:start + 25]
            for row in batch:
                streamed.add(row)
            # Watermark covering full disorder: nothing goes late.
            out.extend(streamed.advance(
                max(r["time"] for r in shuffled[:start + 25]) - 600.0))
        out.extend(streamed.flush())
        batch_rows = batch_aggregate(
            shuffled, TumblingWindows(60.0),
            {"n": Count(), "avg": Avg("v")}, key_fields=("k",))
        assert streamed.late_dropped == 0
        assert out == batch_rows


class TestMaterializedViews:
    def _pipeline(self, engine):
        from repro.datagen.transitgen import TRANSIT_RT_SCHEMA
        engine.create_table("transit_rt", TRANSIT_RT_SCHEMA)
        engine.create_topic("rt")
        loader = engine.stream_load("rt", "transit_rt",
                                    TRANSIT_RT_CONFIG, batch_size=50,
                                    max_delay_s=120.0)
        agg = WindowedAggregator(TumblingWindows(900.0),
                                 {"arrivals": Count(),
                                  "avg_delay": Avg("delay")},
                                 key_fields=("route", "seq"))
        view = loader.materialize_window(
            "seg", agg, types={"arrivals": FieldType.LONG,
                               "avg_delay": FieldType.DOUBLE})
        return loader, view

    def test_view_is_catalog_registered_and_queryable(self, engine):
        loader, view = self._pipeline(engine)
        assert engine.catalog.exists("seg")
        assert engine.catalog.get("seg").kind == "materialized_view"
        # Not a table: SHOW TABLES skips it, SHOW VIEWS lists it.
        assert "seg" not in engine.table_names()
        assert "seg" in engine.view_names()
        engine.topic("rt").append_many(generate_transit_feed(
            num_routes=2, stops_per_route=5, trips_per_route=3))
        loader.drain()
        loader.finalize()
        rows = engine.sql("SELECT route, seq, arrivals FROM seg "
                          "ORDER BY route, seq, arrivals").rows
        assert rows  # finalized windows are live in SQL
        assert view.row_count == len(
            engine.sql("SELECT * FROM seg").rows)
        desc = engine.sql("DESC seg").rows
        assert {r["field"] for r in desc} >= {"window_start", "route",
                                              "arrivals"}

    def test_view_refreshes_incrementally(self, engine):
        loader, view = self._pipeline(engine)
        feed = generate_transit_feed(num_routes=2, stops_per_route=5,
                                     trips_per_route=4)
        topic = engine.topic("rt")
        counts = []
        for start in range(0, len(feed), 40):
            topic.append_many(feed[start:start + 40])
            loader.poll()
            counts.append(view.row_count)
        loader.finalize()
        counts.append(view.row_count)
        assert counts == sorted(counts)          # grow-only
        assert counts[-1] > counts[0]            # actually refreshed
        assert view.refresh_count >= 2           # incrementally

    def test_duplicate_view_name_rejected(self, engine):
        engine.create_materialized_view("mv", ["a"])
        with pytest.raises(TableExistsError):
            engine.create_materialized_view("mv", ["a"])
        with pytest.raises(TableExistsError):
            engine.create_view("mv", None)

    def test_drop_view_clears_catalog(self, engine):
        engine.create_materialized_view("mv", ["a"])
        engine.drop_view("mv")
        assert not engine.catalog.exists("mv")
        assert "mv" not in engine.view_names()

    def test_materialized_views_survive_session_death(self, engine):
        from repro.service.server import JustServer
        server = JustServer(engine)
        session_id = server.connect("u")
        engine.create_materialized_view("u__mv", ["a"], owner="u")
        server.disconnect(session_id)
        assert "u__mv" in engine.view_names()

    def test_sys_tables_lists_materialized_views(self, engine):
        engine.create_materialized_view("mv", ["a"])
        rows = [r for r in engine.sql("SELECT * FROM sys.tables").rows
                if r["name"] == "mv"]
        assert rows and rows[0]["kind"] == "materialized_view"


class TestGeofenceAlerts:
    def _setup(self, engine):
        from repro.geometry.polygon import Polygon
        fences = engine.create_plugin_table("zones", "geofence")
        fences.insert_rows([{
            "gid": "Z1", "name": "downtown", "category": "c",
            "valid_from": 0.0, "valid_to": 1e12,
            "area": Polygon([(116.0, 39.0), (117.0, 39.0),
                             (117.0, 40.0), (116.0, 40.0)]),
        }], engine.cluster.job())
        from repro.streaming import GeofenceAlerter
        return GeofenceAlerter(engine, "zones", key_field="fid")

    def _pair(self, fid, lng, lat, t, published_ms=None):
        from repro.geometry.point import Point
        event = {} if published_ms is None \
            else {"published_ms": published_ms}
        return (event, {"fid": fid, "geom": Point(lng, lat), "time": t})

    def test_enter_and_exit(self, engine):
        alerter = self._setup(engine)
        alerts = alerter.process([self._pair("v1", 116.5, 39.5, 100.0)])
        assert [(a.alert, a.gid, a.object_id) for a in alerts] \
            == [("enter", "Z1", "v1")]
        # Still inside: no repeat alert.
        assert alerter.process(
            [self._pair("v1", 116.6, 39.6, 200.0)]) == []
        alerts = alerter.process([self._pair("v1", 118.0, 39.5, 300.0)])
        assert [(a.alert, a.fence_name) for a in alerts] \
            == [("exit", "downtown")]
        assert alerter.total_by_kind == {"enter": 1, "exit": 1}

    def test_alerts_surface_in_sys_events(self, engine):
        alerter = self._setup(engine)
        alerter.process([self._pair("v1", 116.5, 39.5, 100.0)])
        rows = engine.sql("SELECT kind, table FROM sys.events "
                          "WHERE kind = 'geofence_alert'").rows
        assert rows == [{"kind": "geofence_alert", "table": "zones"}]

    def test_alerts_published_to_sink_topic(self, engine):
        alerter = self._setup(engine)
        alerter.sink = engine.create_topic("alerts")
        alerter.process([self._pair("v1", 116.5, 39.5, 100.0,
                                    published_ms=0.0)])
        events = engine.topic("alerts").read(0, 10)
        assert len(events) == 1 and events[0]["alert"] == "enter"
        assert events[0]["object_id"] == "v1"

    def test_latency_uses_published_stamp(self, engine):
        alerter = self._setup(engine)
        engine.events.advance(500.0)
        job = engine.cluster.job()
        alerts = alerter.process(
            [self._pair("v1", 116.5, 39.5, 100.0, published_ms=100.0)],
            job)
        assert alerts[0].latency_ms == pytest.approx(
            400.0 + job.elapsed_ms)

    def test_non_geofence_table_rejected(self, engine):
        from repro import Schema
        from conftest import POI_SCHEMA_FIELDS
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        from repro.streaming import GeofenceAlerter
        with pytest.raises(ExecutionError):
            GeofenceAlerter(engine, "poi")


class TestTransitGenerator:
    def test_deterministic(self):
        assert generate_transit_feed(num_routes=2, stops_per_route=4,
                                     trips_per_route=2) \
            == generate_transit_feed(num_routes=2, stops_per_route=4,
                                     trips_per_route=2)

    def test_disorder_is_bounded(self):
        disorder = 120.0
        feed = generate_transit_feed(disorder_s=disorder)
        frontier = -float("inf")
        worst = 0.0
        for event in feed:
            frontier = max(frontier, event["arr_ts"])
            worst = max(worst, frontier - event["arr_ts"])
        assert worst <= disorder
        assert worst > 0.0  # the feed really is out of order

    def test_schedule_monotone_per_trip(self):
        generator = TransitGenerator(num_routes=2, stops_per_route=6)
        by_trip = {}
        for row in generator.schedule(trips_per_route=2):
            by_trip.setdefault(row["trip_id"], []).append(
                row["sched_arr"])
        for times in by_trip.values():
            assert times == sorted(times)

    def test_feed_maps_through_config(self):
        from repro.core.loader import apply_config
        event = generate_transit_feed(num_routes=1, stops_per_route=3,
                                      trips_per_route=1)[0]
        row = apply_config(event, TRANSIT_RT_CONFIG)
        assert row["fid"] == event["key"]
        assert row["time"] == event["arr_ts"]
        assert row["geom"].lng == event["lng"]


class TestServiceSurface:
    def test_streams_route_over_http(self, engine):
        from repro import Schema
        from conftest import POI_SCHEMA_FIELDS
        from repro.service.http import JustHttpClient, JustHttpServer
        from repro.service.server import JustServer
        client = JustHttpClient(JustHttpServer(JustServer(engine)), "ops")
        engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
        topic = engine.create_topic("gps")
        topic.append_many(
            {"oid": str(i), "lng": 116.0, "lat": 39.9,
             "ts": int(1.5e12)} for i in range(3))
        engine.stream_load("gps", "poi", {
            "fid": "to_int(oid)", "name": "oid",
            "time": "long_to_date_ms(ts)",
            "geom": "lng_lat_to_point(lng, lat)"}).drain()
        (row,) = client.execute_query("SELECT * FROM sys.streams")
        assert row["loader"] == "gps->poi"
        assert row["lag"] == 0 and row["loaded"] == 3
