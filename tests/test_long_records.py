"""Records longer than the look-back stay visible to XZ2T and XZ3.

Both strategies file a record under the period of its start and have a
window also scan ``lookback_periods`` (one) earlier periods.  A record
longer than that used to drop out of every window past its second
period.  The look-back is now a table statistic: it grows with the
longest record stored and stops at the period the first long one began.
"""

import pytest

from repro import JustEngine
from repro.core.plugins import TrajectoryPlugin
from repro.curves import (
    IndexedRecord,
    STQuery,
    TimePeriod,
    XZ2TStrategy,
    XZ3Strategy,
)
from repro.geometry import Envelope, LineString, Polygon
from repro.trajectory.model import STSeries, Trajectory

from conftest import all_rows

DAY = 86400.0
HOUR = 3600.0
T0 = 17800 * DAY            # a period boundary
ENV = Envelope(116.0, 39.0, 117.0, 40.0)


def _trip(tid, start, end, lng=116.3):
    """Three samples from ``start`` to ``end`` inside ``ENV``."""
    return Trajectory(tid, "o", STSeries([
        (lng, 39.90, start), (lng + 0.01, 39.91, (start + end) / 2),
        (lng + 0.02, 39.92, end)]))


@pytest.fixture(params=["xz2t", "xz3"])
def trips(request):
    """A trajectory table whose only ST index is the parametrized one:
    a 60-hour trip (day 0 10:00 -> day 2 22:00) among short ones."""
    engine = JustEngine()
    table = engine.create_plugin_table(
        "trips", "trajectory",
        {"geomesa.indices.enabled": f"xz2,{request.param}"})
    stored = [_trip("long", T0 + 10 * HOUR, T0 + 70 * HOUR)]
    stored += [_trip(f"short{d}", T0 + d * DAY + 8 * HOUR,
                     T0 + d * DAY + 9 * HOUR, lng=116.5)
               for d in range(5)]
    table.insert_rows([TrajectoryPlugin.row_of(t) for t in stored])
    return engine, table, stored, request.param


def _alive(stored, t_min, t_max):
    return sorted(t.tid for t in stored
                  if not (t.end_time < t_min or t.start_time > t_max))


class TestALongTrajectoryStaysVisible:
    def test_the_60_hour_repro(self, trips):
        engine, table, _stored, name = trips
        day2 = T0 + 2 * DAY
        query = STQuery(ENV, day2 + 1 * HOUR, day2 + 2 * HOUR)
        assert [r["tid"] for r in table.query(query)] == ["long"]
        assert sorted(r["tid"] for r in
                      table.query(STQuery(ENV), strategy_name="xz2")) \
            == sorted(r["tid"] for r in all_rows(table))
        assert [r["tid"] for r in table.query(
            query, strategy_name=name)] == ["long"]
        rows = engine.sql(
            "SELECT tid FROM trips WHERE st_intersects(gps_list, "
            "st_makeMBR(116.0, 39.0, 117.0, 40.0)) AND start_time <= "
            f"{day2 + 2 * HOUR} AND end_time >= {day2 + 1 * HOUR}").rows
        assert [r["tid"] for r in rows] == ["long"]

    @pytest.mark.parametrize("hours", [(1, 2), (30, 31), (49, 50),
                                       (69.5, 72), (71, 80), (-5, 200)])
    def test_every_window_equals_brute_force(self, trips, hours):
        engine, _table, stored, _name = trips
        t_min, t_max = T0 + hours[0] * HOUR, T0 + hours[1] * HOUR
        result = engine.st_range_query("trips", ENV, t_min, t_max)
        assert sorted(r["tid"] for r in result.rows) == \
            _alive(stored, t_min, t_max)

    def test_short_records_leave_the_look_back_alone(self):
        """One period for every trip shorter than a period: the key
        ranges of a table of such trips are the constant-look-back ones."""
        engine = JustEngine()
        table = engine.create_plugin_table("trips", "trajectory")
        query = STQuery(ENV, T0 + 3 * DAY + HOUR, T0 + 3 * DAY + 2 * HOUR)
        before = table.strategies["xz2t"].ranges(query)
        table.insert_rows([TrajectoryPlugin.row_of(
            _trip(f"t{d}", T0 + d * DAY + 20 * HOUR,
                  T0 + d * DAY + 30 * HOUR)) for d in range(4)])
        assert table.strategies["xz2t"].ranges(query) == before


class TestLookBackAtStrategyLevel:
    LINE = LineString([(116.1, 39.9), (116.2, 39.95)])

    def _bins(self, strategy, query):
        return sorted({start[1:5] for start, _ in strategy.ranges(query)})

    @pytest.mark.parametrize("cls", [XZ2TStrategy, XZ3Strategy])
    def test_grows_with_the_longest_and_stops_where_it_began(self, cls):
        strategy = cls(period=TimePeriod.DAY, num_shards=1)
        query = STQuery(ENV, T0 + 10 * DAY + HOUR, T0 + 10 * DAY + 2 * HOUR)
        assert len(self._bins(strategy, query)) == 2
        strategy.observe_extent(T0 + 8 * DAY, T0 + 8 * DAY + 20 * HOUR)
        assert len(self._bins(strategy, query)) == 2     # one period: as is
        strategy.observe_extent(T0 + 8 * DAY, T0 + 11.5 * DAY)
        assert len(self._bins(strategy, query)) == 3     # back to day 8
        strategy.observe_extent(T0 + 9 * DAY, T0 + 30 * DAY)
        assert len(self._bins(strategy, query)) == 3     # no further back
        strategy.observe_extent(T0 + 2 * DAY, T0 + 4.5 * DAY)
        # Longest is 21 periods, earliest long one began on day 2.
        assert len(self._bins(strategy, query)) == 9
        later = STQuery(ENV, T0 + 40 * DAY, T0 + 40 * DAY + HOUR)
        assert len(self._bins(strategy, later)) == 22

    @pytest.mark.parametrize("cls", [XZ2TStrategy, XZ3Strategy])
    def test_record_keys_fall_in_the_widened_ranges(self, cls):
        strategy = cls(period=TimePeriod.DAY, num_shards=1)
        record = IndexedRecord("r", self.LINE, T0 + 10 * HOUR,
                               T0 + 70 * HOUR)
        query = STQuery(ENV, T0 + 2 * DAY + HOUR, T0 + 2 * DAY + 2 * HOUR)
        key = strategy.key(record)

        def covered():
            return any(start <= key < stop
                       for start, stop in strategy.ranges(query))
        assert not covered()
        strategy.observe_extent(record.t_min, record.t_max)
        assert covered()


class TestAFenceValidForever:
    def test_costs_the_periods_since_it_began_not_those_it_will_last(self):
        engine = JustEngine()
        zones = engine.create_plugin_table("zones", "geofence")
        zones.insert_rows([{
            "gid": "Z1", "name": "downtown", "category": "c",
            "valid_from": T0, "valid_to": 1e12,
            "area": Polygon([(116.0, 39.0), (117.0, 39.0),
                             (117.0, 40.0), (116.0, 40.0)])}])
        strategy = zones.strategies["xz2t"]
        shards = strategy.num_shards
        for days, bins in ((0, 2), (1, 2), (5, 6), (30, 31)):
            at = T0 + days * DAY + HOUR
            hits = zones.active_fences(116.5, 39.5, at)
            assert [h["gid"] for h in hits] == ["Z1"]
            ranges = strategy.ranges(STQuery(ENV, at, at))
            assert len({start[1:5] for start, _ in ranges}) == bins
            assert len(ranges) % (bins * shards) == 0
