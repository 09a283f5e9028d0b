"""Late materialization end to end: a statement decodes the fields it
reads, and a trajectory's points exist only once something reads them.

The unit-level contracts live in ``test_core_codec.py``; these drive
JustQL over plugin tables and count the expensive operations from
outside (``decompress_bytes`` calls, ``GPSPoint`` constructions).
"""

from collections import Counter

import pytest

from repro import JustEngine, Polygon
from repro.core.plugins import (
    GEOFENCE_SCHEMA,
    TRAJECTORY_SCHEMA,
    GeofencePlugin,
    TrajectoryPlugin,
)
from repro.kvstore import KVStore
from repro.trajectory import STSeries, Trajectory

from conftest import T0, all_rows, on_the_stored_grid
from oracles import polyline_meets_box


@pytest.fixture
def trajectories(small_trajs) -> list[Trajectory]:
    """On the stored grid, so the oracle tests exactly the geometry the
    engine holds."""
    return [Trajectory(t.tid, t.oid, STSeries(on_the_stored_grid(
        (p.lng, p.lat, p.time) for p in t.points))) for t in small_trajs]


@pytest.fixture
def traj_engine(trajectories) -> JustEngine:
    engine = JustEngine()
    table = engine.create_plugin_table("traj", "trajectory")
    table.insert_trajectories(trajectories)
    table.flush()
    return engine


def _windows(trajectories, half=0.004):
    """Boxes centred on trajectory samples: each one cuts through some
    polylines, contains none entirely and misses most."""
    for t in trajectories[::5]:
        p = t.points[len(t.points) // 2]
        yield (p.lng - half, p.lat - half, p.lng + half, p.lat + half)


def _crossing(trajectories, box) -> list[str]:
    return sorted(t.tid for t in trajectories if polyline_meets_box(
        [(p.lng, p.lat) for p in t.points], box))


class TestTrajectoryStatements:
    def test_group_by_on_small_fields_never_gunzips(
            self, traj_engine, trajectories, decompress_calls):
        rs = traj_engine.sql("SELECT oid, count(*) AS n FROM traj "
                             "GROUP BY oid")
        assert {r["oid"]: r["n"] for r in rs.rows} == \
            Counter(t.oid for t in trajectories)
        assert decompress_calls == []

    def test_range_query_returns_the_oracle_tids_without_a_point(
            self, traj_engine, trajectories, gps_points_built):
        boxes = list(_windows(trajectories))
        expected = [_crossing(trajectories, box) for box in boxes]
        # The windows are worth testing: some polylines hit, and some
        # whose bounding box overlaps do not.
        assert any(expected) and any(
            len(e) < len(trajectories) for e in expected)
        gps_points_built.clear()
        for box, tids in zip(boxes, expected):
            rs = traj_engine.sql(
                "SELECT tid FROM traj WHERE st_intersects(gps_list, "
                "st_makeMBR({!r}, {!r}, {!r}, {!r}))".format(*box))
            assert sorted(r["tid"] for r in rs.rows) == tids
        assert gps_points_built == []

    def test_select_star_still_carries_every_field(self, traj_engine,
                                                   trajectories):
        by_tid = {t.tid: t for t in trajectories}
        box = next(_windows(trajectories))
        for statement in (
                "SELECT * FROM traj",
                "SELECT * FROM traj WHERE st_intersects(gps_list, "
                "st_makeMBR({!r}, {!r}, {!r}, {!r}))".format(*box)):
            rs = traj_engine.sql(statement)
            assert rs.columns == TRAJECTORY_SCHEMA.names + ["item"]
            assert rs.rows
            for row in rs.rows:
                original = by_tid[row["tid"]]
                assert all(row[c] is not None for c in rs.columns)
                assert row["gps_list"] == original.series
                assert row["item"] == original
                assert (row["start_time"], row["end_time"]) == \
                    original.series.time_extent

    def test_selecting_item_decodes_its_inputs(self, traj_engine,
                                               trajectories):
        by_tid = {t.tid: t for t in trajectories}
        rs = traj_engine.sql("SELECT item FROM traj")
        assert rs.columns == ["item"]
        assert {r["item"].tid: r["item"] for r in rs.rows} == by_tid
        box = next(_windows(trajectories))
        rs = traj_engine.sql(
            "SELECT st_trajSegmentation(item) AS piece FROM traj WHERE "
            "st_intersects(gps_list, st_makeMBR({!r}, {!r}, {!r}, {!r}))"
            .format(*box))
        pieces = Counter(r["piece"].tid.partition("#")[0] for r in rs.rows)
        assert sorted(pieces) == _crossing(trajectories, box)
        assert sum(len(r["piece"].points) for r in rs.rows) == \
            sum(len(by_tid[tid].points) for tid in pieces)

    def test_map_matching_consumes_the_whole_item(self, traj_engine,
                                                  trajectories):
        from repro.ops import map_match
        from repro.roadnetwork import RoadNetwork
        target = trajectories[0]
        start = target.points[0]
        network = RoadNetwork.grid(start.lng - 0.01, start.lat - 0.01,
                                   12, 12, spacing_m=200)
        traj_engine.road_network = network
        rs = traj_engine.sql(
            "SELECT st_trajMapMatching(item) AS matched FROM traj "
            f"WHERE tid = '{target.tid}'")
        assert rs.rows
        assert [r["matched"] for r in rs.rows] == \
            map_match(target, network)


def _square(lng, lat, side):
    return Polygon([(lng, lat), (lng + side, lat),
                    (lng + side, lat + side), (lng, lat + side)])


class TestGeofenceStatements:
    def test_narrow_projection_matches_the_full_decode(self):
        engine = JustEngine()
        table = engine.create_plugin_table("fences", "geofence")
        table.insert_rows([{
            "gid": f"g{i}", "name": f"fence {i}",
            "category": "delivery" if i % 2 else "closure",
            "valid_from": T0 + i * 600.0,
            "valid_to": T0 + i * 600.0 + 7200.0,
            "area": _square(116.30 + 0.004 * i, 39.90 + 0.003 * i, 0.01),
        } for i in range(30)])
        where = ("st_intersects(area, st_makeMBR(116.33, 39.92, 116.37, "
                 f"39.95)) AND valid_from <= {T0 + 9000.0}")
        narrow = engine.sql(f"SELECT gid FROM fences WHERE {where}")
        assert narrow.columns == ["gid"]
        full = engine.sql(f"SELECT * FROM fences WHERE {where}")
        assert sorted(r["gid"] for r in narrow.rows) == \
            sorted(r["gid"] for r in full.rows)
        # ... which is what the row API's full decode says as well.
        from repro import Envelope
        window = Envelope(116.33, 39.92, 116.37, 39.95)
        by_hand = [r["gid"] for r in all_rows(table)
                   if r["area"].intersects_envelope(window)
                   and r["valid_from"] <= T0 + 9000.0]
        assert sorted(r["gid"] for r in narrow.rows) == sorted(by_hand)
        assert 0 < len(by_hand) < 30


class TestImplicitColumns:
    """A plugin declares its ``item`` once; the row and the column
    decoration are both derived from that declaration."""

    @staticmethod
    def _table_and_rows(kind, trajectories):
        store = KVStore(num_servers=1)
        if kind == "trajectory":
            table = TrajectoryPlugin("t", TRAJECTORY_SCHEMA, store, {})
            rows = [TrajectoryPlugin.row_of(t) for t in trajectories[:6]]
            rows.append({"tid": "no-gps", "oid": None})
            return table, rows, TRAJECTORY_SCHEMA
        table = GeofencePlugin("t", GEOFENCE_SCHEMA, store, {})
        rows = [{"gid": f"g{i}", "name": "n", "category": "c",
                 "valid_from": T0, "valid_to": T0 + 60.0,
                 "area": _square(116.3 + i / 100, 39.9, 0.01)}
                for i in range(6)]
        rows.append({"gid": "no-area"})
        return table, rows, GEOFENCE_SCHEMA

    @pytest.mark.parametrize("kind", ["trajectory", "geofence"])
    @pytest.mark.parametrize("select", ["all", "item", "no-item"])
    def test_columns_are_the_rows_decorated_one_by_one(
            self, trajectories, kind, select):
        table, rows, schema = self._table_and_rows(kind, trajectories)
        assert table.columns() == schema.names + ["item"]
        columns = {"all": None, "item": ["item"],
                   "no-item": schema.names[:2]}[select]
        wanted = table.decoded_fields(columns)
        payloads = table.codec.encode_rows(rows)
        data = table.decorate_columns(
            table.codec.decode_columns(payloads, wanted), wanted)
        decorated = [table.decorate_row(table.codec.decode_row(p, wanted),
                                        wanted) for p in payloads]
        assert ("item" in data) == (select != "no-item")
        for row in decorated:
            assert row.keys() == data.keys()
        for name, column in data.items():
            assert column == [row[name] for row in decorated], name
        if "item" in data:  # the last row has no GPS list / no area
            assert data["item"][-1] is None
