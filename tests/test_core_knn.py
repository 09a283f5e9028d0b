"""k-NN query (Algorithm 1) vs brute force."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import JustEngine, Schema
from repro.core.knn import knn_query
from repro.curves.strategies import IndexedRecord, XZ2Strategy, Z2Strategy
from repro.curves.xz import XZ2Curve
from repro.curves.zorder import Z2Curve
from repro.errors import ExecutionError
from repro.geometry import Envelope, Point
from repro.trajectory.model import STSeries, Trajectory

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows, on_the_stored_grid
from oracles import knn_reference


def point_records(rows):
    return [(r["fid"], (r["geom"].lng, r["geom"].lat,
                        r["geom"].lng, r["geom"].lat)) for r in rows]


def brute_force(rows, lng, lat, k):
    return [fid for _d, fid in knn_reference(point_records(rows),
                                             lng, lat, k)]


class TestKNN:
    def test_matches_brute_force(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 10))

    def test_distances_sorted(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 25)
        assert result.distances == sorted(result.distances)

    def test_k_larger_than_dataset(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10_000)
        assert len(result.rows) == 500

    def test_query_point_outside_data(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.9, 40.3, 5)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.9, 40.3, 5))

    def test_pruning_happens(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 5)
        assert result.areas_pruned > 0

    def test_invalid_k(self, poi_engine):
        with pytest.raises(ExecutionError):
            knn_query(poi_engine.table("poi"), 116.25, 39.9, 0)

    def test_explicit_search_area(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        area = Envelope(116.0, 39.8, 116.5, 40.1)
        result = knn_query(table, 116.25, 39.9, 3, search_area=area)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 3))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 30))
    def test_property_matches_brute_force(self, poi_engine_factory,
                                          seed, k):
        engine, rows = poi_engine_factory
        rng = random.Random(seed)
        lng = 116.0 + rng.random() * 0.5
        lat = 39.8 + rng.random() * 0.3
        table = engine.table("poi")
        result = knn_query(table, lng, lat, k)
        expected = brute_force(rows, lng, lat, k)
        # Sets compare (ties at equal distance may reorder).
        got_d = result.distances
        exp_d = sorted(((r["geom"].lng - lng) ** 2
                        + (r["geom"].lat - lat) ** 2) ** 0.5
                       for r in rows)[:k]
        assert got_d == pytest.approx(exp_d)
        del expected


@pytest.fixture(scope="module")
def poi_engine_factory():
    from repro import JustEngine, Schema
    from conftest import POI_SCHEMA_FIELDS
    engine = JustEngine()
    rows = make_poi_rows(300, seed=23)
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", rows)
    return engine, rows


def trajectory(tid, points, t0=T0):
    return Trajectory(tid, "o", STSeries(on_the_stored_grid(
        [(x, y, t0 + 60.0 * i) for i, (x, y) in enumerate(points)])))


class TestExtendedObjects:
    """Candidates are ranked by MBR centre, so every cell rule must find
    a record by its centre too — not by where its polyline runs."""

    @pytest.mark.parametrize("indices", [None, "xz2t"])
    def test_trajectory_centred_on_the_query_point_is_found(self, indices):
        engine = JustEngine()
        userdata = {"geomesa.indices.enabled": indices} if indices else None
        table = engine.create_plugin_table("t", "trajectory", userdata)
        # A's MBR centre is the query point; its L-shaped line keeps
        # 0.05 degrees away from it.  B sits 0.027 degrees north.
        table.insert_trajectories([
            trajectory("A", [(116.0, 39.9), (116.1, 39.9), (116.1, 40.0)]),
            trajectory("B", [(116.05, 39.977), (116.05, 39.977)]),
        ])
        result = engine.knn("t", 116.05, 39.95, 1)
        assert [row["tid"] for row in result.rows] == ["A"]
        assert result.extra["distances"] == [0.0]


def random_walk(rng, x, y, steps, step):
    points = [(x, y)]
    for _ in range(steps):
        x += rng.uniform(-step, step)
        y += rng.uniform(-step, step)
        points.append((x, y))
    return points


def _point_kind(indices):
    engine = JustEngine()
    userdata = {"geomesa.indices.enabled": indices} if indices else None
    engine.create_table("t", Schema(list(POI_SCHEMA_FIELDS)), userdata)
    rng = random.Random(41)
    rows = make_poi_rows(200, seed=41)
    for row in rows:  # ~11 km x 5.5 km, some rows on one spot
        row["geom"] = Point(
            round(116.30 + rng.random() * 0.1, rng.choice((3, 9))),
            round(39.90 + rng.random() * 0.05, rng.choice((3, 9))))
    engine.insert("t", rows)
    return engine, point_records(rows), 1.0


def _trajectory_kind(indices):
    engine = JustEngine()
    userdata = {"geomesa.indices.enabled": indices} if indices else None
    table = engine.create_plugin_table("t", "trajectory", userdata)
    rng = random.Random(43)
    trips = [trajectory(f"t{i}", random_walk(
        rng, 116.30 + rng.random() * 0.1, 39.90 + rng.random() * 0.05,
        rng.randint(1, 8), 0.004), T0 + 3600.0 * i) for i in range(60)]
    # Long ones, filed at coarse XZ levels, with centres off their lines.
    trips += [trajectory(f"long{i}", [
        (x, y), (x + w, y), (x + w, y + w)], T0 + 7200.0 * i)
        for i, (x, y, w) in enumerate([(116.28, 39.88, 0.15),
                                       (116.33, 39.91, 0.02),
                                       (116.25, 39.93, 0.2)])]
    table.insert_trajectories(trips)
    records = []
    for trip in trips:
        env = trip.series.envelope
        records.append((trip.tid, env.as_tuple()))
    return engine, records, 5.0


KINDS = {
    "points z2": lambda: _point_kind(None),
    "points z2t only": lambda: _point_kind("z2t"),
    "trajectories xz2": lambda: _trajectory_kind(None),
    "trajectories xz2t only": lambda: _trajectory_kind("xz2t"),
}


@pytest.fixture(scope="module", params=sorted(KINDS))
def knn_kind(request):
    return KINDS[request.param]()


class TestAgainstBruteForce:
    """Every cell rule — Z2 prefixes, XZ2 codes and the default box
    cover of a temporal-only index — against brute force by MBR centre,
    with the query point inside or outside the data, with and without a
    search area, for every ``k`` up to the row count."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_distances_match(self, knn_kind, data):
        engine, records, min_cell_km = knn_kind
        table = engine.table("t")
        env = table.data_envelope
        lng = data.draw(st.floats(env.min_lng - 0.1, env.max_lng + 0.1))
        lat = data.draw(st.floats(env.min_lat - 0.1, env.max_lat + 0.1))
        k = data.draw(st.integers(1, len(records)))
        area = None
        if data.draw(st.booleans()):
            x0 = data.draw(st.floats(env.min_lng - 0.02, env.max_lng))
            y0 = data.draw(st.floats(env.min_lat - 0.02, env.max_lat))
            area = Envelope(x0, y0, x0 + data.draw(st.floats(0.0, 0.1)),
                            y0 + data.draw(st.floats(0.0, 0.1)))
        result = knn_query(table, lng, lat, k, min_cell_km=min_cell_km,
                           search_area=area)
        expected = knn_reference(records, lng, lat, k,
                                 area.as_tuple() if area else None)
        # Equidistant records may swap: compare distances, and that
        # each returned record is where its distance says.
        assert result.distances == pytest.approx(
            [d for d, _fid in expected], abs=1e-12)
        distance_of = {str(fid): d for d, fid in knn_reference(
            records, lng, lat, len(records))}
        fids = [str(row[table.schema.primary_key.name])
                for row in result.rows]
        assert len(set(fids)) == len(fids)
        assert [distance_of[fid] for fid in fids] == pytest.approx(
            result.distances, abs=1e-12)


class TestCellKeys:
    def test_z2_leaf_is_one_key_range_per_shard(self):
        strategy = Z2Strategy(num_shards=4)
        curve = Z2Curve()
        level, shift = 16, 31 - 16
        x, y = curve.lng_dim.normalize(116.3), curve.lat_dim.normalize(39.9)
        ix, iy = x >> shift, y >> shift
        ranges = strategy.cell_ranges(level, ix, iy, True, None)
        assert len(ranges) == strategy.num_shards
        assert strategy.cell_ranges(level, ix, iy, False, None) == []
        cell = curve.cell_envelope(level, ix, iy)
        inside = (cell.min_lng, cell.min_lat)
        beyond = (cell.max_lng + 1e-9, cell.min_lat)

        def covered(lng, lat, fid):
            key = strategy.key(IndexedRecord(fid, Point(lng, lat)))
            return any(lo <= key < hi for lo, hi in ranges)

        for fid in map(str, range(20)):  # every shard
            assert covered(*inside, fid)
            assert not covered(*beyond, fid)

    def test_every_z2_leaf_scan_plans_num_shards_ranges(
            self, poi_engine, monkeypatch):
        table = poi_engine.table("poi")
        planned = []
        scan = table.index_chunks

        def counting(name, ranges, job, ctx):
            planned.append(len(ranges))
            return scan(name, ranges, job, ctx)

        monkeypatch.setattr(table, "index_chunks", counting)
        result = knn_query(table, 116.25, 39.9, 10)
        assert len(planned) == result.areas_queried > 0
        assert set(planned) == {table.strategies["z2"].num_shards}

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_xz2_subtree_is_one_code_range(self, g):
        curve = XZ2Curve(g)
        codes = {}
        for code in range(curve.max_code() + 1):
            codes[curve.element(code)] = code
        for (level, ix, iy), code in codes.items():
            lo, hi = curve.subtree_codes(level, ix, iy)
            assert lo == code
            below = [c for (lv, x, y), c in codes.items()
                     if lv >= level and x >> (lv - level) == ix
                     and y >> (lv - level) == iy]
            assert sorted(below) == list(range(lo, hi + 1))

    def test_xz2_cells_reach_one_cell_past_their_own(self):
        strategy = XZ2Strategy(g=12)
        assert (strategy.cell_depth, strategy.cell_reach) == (12, 1)
        lo, hi = strategy.cell_ranges(5, 3, 7, False, None)[0]
        assert lo[:5] == hi[:5]  # one code
