"""End-to-end SELECT execution through the full SQL stack."""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import JustEngine
from repro.errors import AnalysisError
from repro.geometry import Point

from conftest import T0


class TestBasicSelect:
    def test_select_star(self, poi_engine):
        rs = poi_engine.sql("SELECT * FROM poi")
        assert len(rs) == 500
        assert rs.columns == ["fid", "name", "time", "geom"]

    def test_projection_and_alias(self, poi_engine):
        rs = poi_engine.sql("SELECT fid AS id, name FROM poi LIMIT 1")
        assert set(rs.rows[0]) == {"id", "name"}

    def test_where_fid_equality_uses_get(self, poi_engine, poi_rows):
        rs = poi_engine.sql("SELECT name FROM poi WHERE fid = 42")
        assert rs.rows == [{"name": poi_rows[42]["name"]}]

    def test_where_in_list(self, poi_engine):
        rs = poi_engine.sql("SELECT fid FROM poi WHERE fid IN (3, 7, 42)")
        assert sorted(row["fid"] for row in rs.rows) == [3, 7, 42]
        rs = poi_engine.sql("SELECT fid FROM poi WHERE fid < 5 "
                            "AND fid NOT IN (1, 3)")
        assert sorted(row["fid"] for row in rs.rows) == [0, 2, 4]

    def test_arithmetic_projection(self, poi_engine):
        rs = poi_engine.sql("SELECT fid + 1 AS next FROM poi "
                            "WHERE fid = 0")
        assert rs.rows == [{"next": 1}]

    def test_unknown_column_rejected(self, poi_engine):
        with pytest.raises(AnalysisError):
            poi_engine.sql("SELECT ghost FROM poi")

    def test_unknown_table_rejected(self, poi_engine):
        with pytest.raises(AnalysisError):
            poi_engine.sql("SELECT * FROM nope")


class TestSpatialSelect:
    def test_spatial_range(self, poi_engine, poi_rows):
        rs = poi_engine.sql(
            "SELECT fid FROM poi WHERE geom WITHIN "
            "st_makeMBR(116.1, 39.85, 116.25, 39.95)")
        expected = {r["fid"] for r in poi_rows
                    if 116.1 <= r["geom"].lng <= 116.25
                    and 39.85 <= r["geom"].lat <= 39.95}
        assert {r["fid"] for r in rs.rows} == expected

    def test_st_range(self, poi_engine, poi_rows):
        t_lo, t_hi = T0, T0 + 86400
        rs = poi_engine.sql(
            f"SELECT fid FROM poi WHERE geom WITHIN "
            f"st_makeMBR(116.0, 39.8, 116.5, 40.1) "
            f"AND time BETWEEN {t_lo} AND {t_hi}")
        expected = {r["fid"] for r in poi_rows
                    if t_lo <= r["time"] <= t_hi}
        assert {r["fid"] for r in rs.rows} == expected

    def test_knn_via_sql(self, poi_engine, poi_rows):
        rs = poi_engine.sql(
            "SELECT fid, geom FROM poi WHERE geom IN "
            "st_KNN(st_makePoint(116.25, 39.9), 5)")
        ranked = sorted(poi_rows,
                        key=lambda r: ((r["geom"].lng - 116.25) ** 2
                                       + (r["geom"].lat - 39.9) ** 2))
        assert {r["fid"] for r in rs.rows} == \
            {r["fid"] for r in ranked[:5]}

    def test_residual_predicate_combined(self, poi_engine, poi_rows):
        rs = poi_engine.sql(
            "SELECT fid FROM poi WHERE geom WITHIN "
            "st_makeMBR(116.0, 39.8, 116.5, 40.1) AND name = 'poi3'")
        expected = {r["fid"] for r in poi_rows if r["name"] == "poi3"}
        assert {r["fid"] for r in rs.rows} == expected


class TestAggregation:
    def test_global_count(self, poi_engine):
        rs = poi_engine.sql("SELECT count(*) FROM poi")
        assert rs.rows == [{"count": 500}]

    def test_group_by_with_having_style_filtering(self, poi_engine):
        rs = poi_engine.sql(
            "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
            "ORDER BY name")
        assert len(rs) == 10
        assert sum(r["cnt"] for r in rs.rows) == 500
        names = [r["name"] for r in rs.rows]
        assert names == sorted(names)

    def test_group_by_aggregates(self, poi_engine, poi_rows):
        rs = poi_engine.sql(
            "SELECT name, min(time) AS t0, max(time) AS t1, "
            "avg(fid) FROM poi GROUP BY name")
        row = next(r for r in rs.rows if r["name"] == "poi0")
        expected = [r for r in poi_rows if r["name"] == "poi0"]
        assert row["t0"] == min(r["time"] for r in expected)
        assert row["t1"] == max(r["time"] for r in expected)
        assert row["avg_fid"] == pytest.approx(
            sum(r["fid"] for r in expected) / len(expected))

    def test_non_grouped_column_rejected(self, poi_engine):
        with pytest.raises(AnalysisError):
            poi_engine.sql("SELECT name, time FROM poi GROUP BY name")

    def test_order_by_aggregate_alias(self, poi_engine):
        rs = poi_engine.sql(
            "SELECT name, count(*) AS cnt FROM poi GROUP BY name "
            "ORDER BY cnt DESC LIMIT 2")
        counts = [r["cnt"] for r in rs.rows]
        assert counts == sorted(counts, reverse=True)


class TestOrderingAndPaging:
    def test_order_by_unprojected_column(self, poi_engine, poi_rows):
        rs = poi_engine.sql(
            "SELECT name FROM poi ORDER BY time LIMIT 3")
        expected = [r["name"] for r in
                    sorted(poi_rows, key=lambda r: r["time"])[:3]]
        assert [r["name"] for r in rs.rows] == expected
        assert rs.columns == ["name"]

    def test_order_by_expression(self, poi_engine):
        rs = poi_engine.sql("SELECT fid FROM poi ORDER BY fid % 7, fid "
                            "LIMIT 5")
        assert all(r["fid"] % 7 == 0 for r in rs.rows)

    def test_distinct(self, poi_engine):
        rs = poi_engine.sql("SELECT DISTINCT name FROM poi")
        assert len(rs) == 10

    def test_limit_zero(self, poi_engine):
        assert len(poi_engine.sql("SELECT * FROM poi LIMIT 0")) == 0

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(st.none() | st.integers(-2, 2),
                                   st.none() | st.sampled_from("ab")),
                         min_size=1, max_size=12))
    def test_nulls_sort_as_in_sqlite(self, rows):
        """ASC puts NULLs first and DESC last: Spark's defaults, which
        SQLite shares."""
        values = ", ".join(
            f"({fid}, {'NULL' if v is None else v}, "
            f"{'NULL' if s is None else repr(s)})"
            for fid, (v, s) in enumerate(rows))
        engine = JustEngine(num_servers=1)
        engine.sql("CREATE TABLE t (fid integer:primary key, v integer, "
                   "s string)")
        engine.sql(f"INSERT INTO t VALUES {values}")
        with sqlite3.connect(":memory:") as db:
            db.execute("CREATE TABLE t (fid INTEGER, v INTEGER, s TEXT)")
            db.execute(f"INSERT INTO t VALUES {values}")
            for order in ("v, fid", "v DESC, fid", "s DESC, v, fid",
                          "s, v DESC, fid"):
                query = f"SELECT fid, v, s FROM t ORDER BY {order}"
                want = [tuple(r) for r in db.execute(query)]
                got = [(r["fid"], r["v"], r["s"])
                       for r in engine.sql(query).rows]
                assert got == want, order


class TestViews:
    def test_query_over_view(self, poi_engine):
        poi_engine.sql("CREATE VIEW recent AS SELECT fid, name, time "
                       f"FROM poi WHERE time BETWEEN {T0} AND {T0 + 86400}")
        rs = poi_engine.sql("SELECT count(*) FROM recent")
        rs2 = poi_engine.sql(
            f"SELECT count(*) FROM poi WHERE time BETWEEN {T0} "
            f"AND {T0 + 86400}")
        assert rs.rows == rs2.rows

    def test_view_filter_pushdown(self, poi_engine):
        poi_engine.sql("CREATE VIEW all_poi AS SELECT * FROM poi")
        rs = poi_engine.sql("SELECT name FROM all_poi WHERE fid = 7")
        assert len(rs) == 1

    def test_one_query_multiple_usages(self, poi_engine):
        """Views cache results: repeated use never rescans the store."""
        poi_engine.sql("CREATE VIEW v AS SELECT * FROM poi")
        before = poi_engine.store.stats.snapshot()
        poi_engine.sql("SELECT count(*) FROM v")
        poi_engine.sql("SELECT count(*) FROM v")
        delta = poi_engine.store.stats.snapshot().delta(before)
        assert delta.disk_bytes_read == 0
        assert delta.scans_started == 0


class TestAnalysisOperationsViaSQL:
    def make_traj_table(self, engine):
        from repro.trajectory import STSeries, Trajectory
        table = engine.create_plugin_table("trips", "trajectory")
        points1 = [(116.0 + i * 0.001, 39.9, T0 + i * 30.0)
                   for i in range(8)]
        # Big time gap for segmentation.
        points2 = [(116.1 + i * 0.001, 39.9, T0 + 90_000 + i * 30.0)
                   for i in range(8)]
        table.insert_trajectories([
            Trajectory("a", "o1", STSeries(points1 + points2))])
        return table

    def test_noise_filter_scalar(self, engine):
        self.make_traj_table(engine)
        rs = engine.sql("SELECT st_trajNoiseFilter(item) AS clean "
                        "FROM trips")
        assert len(rs) == 1
        assert rs.rows[0]["clean"].tid == "a"

    def test_segmentation_one_to_n(self, engine):
        self.make_traj_table(engine)
        rs = engine.sql("SELECT tid, st_trajSegmentation(item) AS seg "
                        "FROM trips")
        assert len(rs) == 2  # the gap splits one row into two
        assert {r["seg"].tid for r in rs.rows} == {"a#0", "a#1"}
        assert all(r["tid"] == "a" for r in rs.rows)

    def test_dbscan_n_to_m(self, poi_engine):
        rs = poi_engine.sql("SELECT st_DBSCAN(geom, 3, 0.08) FROM poi")
        assert len(rs) == 500
        assert "cluster" in rs.columns

    def test_coordinate_transform_projection(self, poi_engine):
        rs = poi_engine.sql(
            "SELECT st_WGS84ToGCJ02(geom) AS gcj FROM poi LIMIT 1")
        assert isinstance(rs.rows[0]["gcj"], Point)
