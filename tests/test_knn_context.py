"""k-NN edge cases and the request context on the k-NN access path.

Two defects Algorithm 1's expansion had while range planning was the
expensive part: it never terminated on an empty table (no k-th
candidate to prune against, so the world was quartered down to 1 km
cells), and the SQL executor called it without the statement's
``RequestContext`` — no deadline, no read-mode override, no region
spans in ``EXPLAIN ANALYZE``.
"""

import random

import pytest

from repro import JustEngine, Point, Schema
from repro.core.knn import knn_query
from repro.errors import QueryTimeoutError
from repro.geometry import Envelope
from repro.kvstore import SyncPolicy
from repro.resilience import Deadline, RequestContext

from conftest import POI_SCHEMA_FIELDS, T0

KNN_SQL = ("SELECT fid FROM pts WHERE geom IN "
           "st_KNN(st_makePoint(116.15, 39.95), {k})")


def make_engine(points, **engine_kwargs) -> JustEngine:
    engine = JustEngine(**engine_kwargs)
    engine.create_table("pts", Schema(list(POI_SCHEMA_FIELDS)))
    if points:
        engine.insert("pts", [
            {"fid": i, "name": "p", "time": T0 + i, "geom": Point(lng, lat)}
            for i, (lng, lat) in enumerate(points)])
    return engine


def sparse_points(n: int, seed: int = 3) -> list[tuple[float, float]]:
    """``n`` points over ~30 km x 30 km: most 1 km cells are empty."""
    rng = random.Random(seed)
    return [(116.0 + rng.random() * 0.3, 39.8 + rng.random() * 0.3)
            for _ in range(n)]


class TestEmptyAndExhaustedTables:
    def test_empty_table_engine_api(self):
        result = make_engine([]).knn("pts", 116.15, 39.95, 5)
        assert result.rows == []
        assert result.extra["distances"] == []
        assert result.extra["areas_queried"] == 0

    def test_empty_table_sql(self):
        assert make_engine([]).sql(KNN_SQL.format(k=5)).rows == []

    def test_emptied_table(self):
        engine = make_engine([(116.1, 39.9)])
        engine.table("pts").delete("0")
        assert engine.knn("pts", 116.15, 39.95, 1).rows == []

    @pytest.mark.parametrize("k", [3, 4, 50])
    def test_k_at_least_row_count_stops_at_the_last_row(self, k):
        """Rows clustered beside the query point inside a search area
        of ~16 000 leaf cells: once all three are seen there is nothing
        left to find, whether or not ``k`` candidates were collected."""
        cluster = [(116.150, 39.950), (116.152, 39.951), (116.149, 39.953)]
        table = make_engine(cluster).table("pts")
        area = Envelope(115.9, 39.7, 116.4, 40.2)
        result = knn_query(table, 116.15, 39.95, k, search_area=area)
        assert sorted(r["fid"] for r in result.rows) == [0, 1, 2]
        assert result.distances == sorted(result.distances)
        assert result.areas_queried <= 9  # the cluster's cell + neighbours
        assert result.areas_pruned > 0

    def test_k_above_row_count_over_the_data_envelope(self):
        points = sparse_points(3)
        result = make_engine(points).knn("pts", 116.15, 39.95, 10)
        assert sorted(r["fid"] for r in result.rows) == [0, 1, 2]
        # Nearest-first: nothing beyond the farthest row's cell ring is
        # visited, so part of the envelope's 1 320 leaf cells (24 x 55
        # of the Z2 grid's level 16, the coarsest within 1 km) never is.
        assert result.extra["areas_queried"] < 1320
        assert result.extra["areas_pruned"] > 0


class TestRequestContextReachesKNN:
    def test_small_timeout_raises_within_one_area_of_the_budget(self):
        engine = make_engine(sparse_points(12))
        untimed = engine.knn("pts", 116.15, 39.95, 5)
        areas = untimed.extra["areas_queried"]
        assert areas > 100  # sparse: the expansion visits empty cells
        # Every statement first pays the driver's fixed charge; the
        # budget is that plus five areas' range jobs.
        driver_ms = engine.cluster.model.query_overhead_ms
        per_area_ms = (untimed.job.elapsed_ms - driver_ms) / areas
        ctx = RequestContext(deadline=Deadline(driver_ms + 5 * per_area_ms))
        with pytest.raises(QueryTimeoutError) as info:
            engine.sql(KNN_SQL.format(k=5), ctx=ctx)
        # Cooperative cancellation: checked per area and per region
        # visit, so the overrun is below one area's range job.
        assert 0.0 < info.value.overrun_ms < per_area_ms

    def test_deadline_reaches_knn_query_directly(self):
        table = make_engine(sparse_points(12)).table("pts")
        ctx = RequestContext(deadline=Deadline(1.0))
        ctx.deadline.charge(2.0)
        with pytest.raises(QueryTimeoutError):
            knn_query(table, 116.15, 39.95, 5, ctx=ctx)

    def test_per_request_follower_reads(self):
        engine = make_engine(sparse_points(40), replication_factor=3,
                             wal_policy=SyncPolicy.SYNC)
        manager = engine.store.replication
        manager.tick()  # followers caught up
        assert manager.read_mode.value == "primary"
        engine.sql(KNN_SQL.format(k=5))
        assert manager.follower_reads == 0
        rows = engine.sql(KNN_SQL.format(k=5),
                          ctx=RequestContext(read_mode="follower")).rows
        assert manager.follower_reads > 0
        assert len(rows) == 5

    def test_explain_analyze_shows_region_scans(self):
        engine = make_engine(sparse_points(40))
        rs = engine.sql("EXPLAIN ANALYZE " + KNN_SQL.format(k=5))
        names = [r["operator"] for r in rs.rows]
        scan = next(i for i, n in enumerate(names) if "Scan[pts]" in n)
        assert any("RegionScan[" in n for n in names[scan + 1:])
