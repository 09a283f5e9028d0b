"""Index selection for range queries."""

import pytest

from repro import JustEngine, Schema
from repro.core.query import choose_strategy, choose_strategy_cost_based
from repro.curves import STQuery
from repro.curves.timeperiod import TimePeriod, period_bins_covering
from repro.errors import ExecutionError
from repro.geometry import Envelope
from repro.trajectory import STSeries, Trajectory

from conftest import POI_SCHEMA_FIELDS, T0, make_poi_rows

ENV = Envelope(116.0, 39.8, 116.5, 40.1)


class FakeTable:
    def __init__(self, strategies, time_extent=None):
        self.name = "fake"
        self.strategies = dict.fromkeys(strategies)
        self.time_extent = time_extent


def test_st_query_prefers_z2t():
    name, query = choose_strategy(FakeTable(["z2", "z2t"]),
                                  STQuery(ENV, T0, T0 + 10))
    assert name == "z2t"
    assert query.has_temporal


def test_st_query_falls_back_to_z3():
    name, _query = choose_strategy(FakeTable(["z3"]),
                                   STQuery(ENV, T0, T0 + 10))
    assert name == "z3"


def test_st_query_with_spatial_only_index_drops_time():
    name, query = choose_strategy(FakeTable(["z2"]),
                                  STQuery(ENV, T0, T0 + 10))
    assert name == "z2"
    assert not query.has_temporal  # time filtered post-scan


def test_spatial_query_prefers_z2():
    name, _q = choose_strategy(FakeTable(["z2", "z2t"]),
                               STQuery(envelope=ENV))
    assert name == "z2"


def test_spatial_query_widens_temporal_index():
    table = FakeTable(["z2t"], time_extent=(T0, T0 + 100))
    name, query = choose_strategy(table, STQuery(envelope=ENV))
    assert name == "z2t"
    assert query.t_min == T0 and query.t_max == T0 + 100


def test_temporal_query_uses_world_envelope():
    name, query = choose_strategy(FakeTable(["z2t"]),
                                  STQuery(None, T0, T0 + 10))
    assert name == "z2t"
    assert query.envelope == Envelope.world()


def test_xz_variants_selected_for_plugin_tables():
    name, _q = choose_strategy(FakeTable(["xz2", "xz2t"]),
                               STQuery(ENV, T0, T0 + 10))
    assert name == "xz2t"


def test_period_suffixed_names_match():
    name, _q = choose_strategy(FakeTable(["z3:year"]),
                               STQuery(ENV, T0, T0 + 10))
    assert name == "z3:year"


def test_no_usable_index_raises():
    with pytest.raises(ExecutionError):
        choose_strategy(FakeTable([]), STQuery(envelope=ENV))
    with pytest.raises(ExecutionError):
        # Spatial-only query, temporal index, no time stats yet.
        choose_strategy(FakeTable(["z2t"]), STQuery(envelope=ENV))


# -- time windows are clamped to the table's extent ---------------------------

FIFTY_YEARS = 50 * 365 * 86400.0


def _poi_engine(index: str, rows):
    engine = JustEngine()
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)),
                        userdata={"geomesa.indices.enabled": index})
    engine.insert("poi", rows)
    return engine


class TestTimeWindowClamp:
    @pytest.mark.parametrize("index", ["z2t", "z3"])
    def test_wide_window_equals_tight_window(self, index):
        rows = make_poi_rows(300)
        engine = _poi_engine(index, rows)
        table = engine.table("poi")
        expected = sorted(
            r["fid"] for r in rows
            if ENV.contains_point(r["geom"].lng, r["geom"].lat))
        tight = engine.st_range_query("poi", ENV, *table.time_extent)
        wide = engine.st_range_query("poi", ENV, T0 - FIFTY_YEARS,
                                     T0 + FIFTY_YEARS)
        assert sorted(r["fid"] for r in tight.rows) == expected
        assert sorted(r["fid"] for r in wide.rows) == expected
        # Same bins planned, so the same simulated cost.
        assert wide.sim_ms == tight.sim_ms
        # The SQL path plans through the table's own chooser.
        rs = engine.sql("SELECT fid FROM poi WHERE geom WITHIN "
                        "st_makeMBR(116.0, 39.8, 116.5, 40.1) "
                        "AND time BETWEEN 0 AND 1e12")
        assert sorted(r["fid"] for r in rs.rows) == expected

    def test_wide_window_on_trajectory_extents_with_lookback(self, engine):
        """XZ2T bins a trajectory by its start and looks one period
        back; a trip crossing midnight must survive the clamp."""
        table = engine.create_plugin_table("traj", "trajectory")
        midnight = T0 - T0 % 86400 + 86400
        trips = []
        for i, start in enumerate((midnight - 7200.0,    # day 0 only
                                   midnight - 600.0,     # crosses midnight
                                   midnight + 3600.0)):  # day 1 only
            points = [(116.2 + j * 0.001, 39.9 + j * 0.0005,
                       start + j * 60.0) for j in range(20)]
            trips.append(Trajectory(f"t{i}", "o1", STSeries(points)))
        table.insert_trajectories(trips)
        everything = {"t0", "t1", "t2"}
        wide = table.query(STQuery(ENV, T0 - FIFTY_YEARS, T0 + FIFTY_YEARS))
        tight = table.query(STQuery(ENV, *table.time_extent))
        assert {r["tid"] for r in wide} == everything
        assert {r["tid"] for r in tight} == everything
        # A window that starts after midnight still finds the trip that
        # began before it, however far the window runs on.
        late = table.query(STQuery(ENV, midnight + 60.0, T0 + FIFTY_YEARS))
        assert {r["tid"] for r in late} == {"t1", "t2"}

    @pytest.mark.parametrize("index", ["z2t", "z3", "z2"])
    def test_disjoint_window_returns_nothing_without_a_scan(self, index):
        engine = _poi_engine(index, make_poi_rows(50))
        table = engine.table("poi")
        scans = engine.store.stats.scans_started
        after = table.time_extent[1] + 1.0
        assert engine.st_range_query("poi", ENV, after,
                                     after + 86400).rows == []
        assert table.query(STQuery(ENV, 0.0, 1000.0)) == []
        assert engine.sql(f"SELECT fid FROM poi WHERE geom WITHIN "
                          f"st_makeMBR(116.0, 39.8, 116.5, 40.1) AND time "
                          f"BETWEEN {after} AND {after + 5}").rows == []
        assert engine.store.stats.scans_started == scans

    def test_table_without_timed_rows_plans_no_bins(self):
        """No extent to clamp to yet: the window must not be enumerated
        (1e12 s is 11.5 million day bins)."""
        engine = _poi_engine("z2t", [])
        scans = engine.store.stats.scans_started
        assert engine.sql("SELECT fid FROM poi WHERE geom WITHIN "
                          "st_makeMBR(116.0, 39.8, 116.5, 40.1) "
                          "AND time BETWEEN 0 AND 1e12").rows == []
        assert engine.st_range_query("poi", ENV, 0.0, 1e12).rows == []
        assert engine.store.stats.scans_started == scans

    @pytest.mark.parametrize("cost_based", [False, True])
    def test_range_count_is_bounded_by_the_extents_bins(self, cost_based):
        engine = _poi_engine("z2t", make_poi_rows(50))
        table = engine.table("poi")
        query = STQuery(ENV, 0.0, 1e12)
        if cost_based:
            name, effective = choose_strategy_cost_based(
                table, query, engine.cluster.model)
        else:
            name, effective = choose_strategy(table, query)
        assert (effective.t_min, effective.t_max) == table.time_extent
        strategy = table.strategies[name]
        ranges = strategy.ranges(effective)
        assert ranges == strategy.ranges(STQuery(ENV, *table.time_extent))
        bins = len(period_bins_covering(*table.time_extent, TimePeriod.DAY))
        assert len(ranges) <= strategy.num_shards * max(
            strategy.max_ranges, 8 * bins)

    def test_window_inside_the_extent_is_left_alone(self):
        table = FakeTable(["z2t"], time_extent=(T0, T0 + 100))
        query = STQuery(ENV, T0 + 10, T0 + 20)
        assert choose_strategy(table, query) == ("z2t", query)
        _name, clamped = choose_strategy(table,
                                         STQuery(ENV, T0 - 5, T0 + 20))
        assert (clamped.t_min, clamped.t_max) == (T0, T0 + 20)
        assert not clamped.is_empty
