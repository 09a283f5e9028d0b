"""Trajectory value objects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, SchemaError
from repro.geometry import Envelope, LineString
from repro.geometry.wkt import to_wkt
from repro.trajectory import GPSPoint, STSeries, Trajectory, TSeries


class TestGPSPoint:
    def test_distance_and_speed(self):
        a = GPSPoint(116.0, 39.9, 0.0)
        b = GPSPoint(116.001, 39.9, 10.0)
        assert a.distance_m(b) == pytest.approx(85.4, rel=0.05)
        assert a.speed_to_mps(b) == pytest.approx(a.distance_m(b) / 10.0)

    def test_zero_dt_speed(self):
        a = GPSPoint(116.0, 39.9, 0.0)
        assert a.speed_to_mps(GPSPoint(116.0, 39.9, 0.0)) == 0.0
        assert a.speed_to_mps(GPSPoint(116.1, 39.9, 0.0)) == float("inf")


class TestSTSeries:
    def test_time_monotonicity_enforced(self):
        with pytest.raises(SchemaError):
            STSeries([(0, 0, 10.0), (0, 0, 5.0)])

    def test_envelope_and_extent(self):
        series = STSeries([(116.0, 39.9, 0.0), (116.2, 39.8, 60.0)])
        assert series.envelope.as_tuple() == (116.0, 39.8, 116.2, 39.9)
        assert series.time_extent == (0.0, 60.0)

    def test_empty_series_has_no_envelope(self):
        with pytest.raises(SchemaError):
            STSeries([]).envelope

    def test_as_linestring(self):
        series = STSeries([(0, 0, 0.0), (1, 1, 1.0)])
        assert len(series.as_linestring()) == 2
        with pytest.raises(SchemaError):
            STSeries([(0, 0, 0.0)]).as_linestring()

    def test_length_m(self):
        series = STSeries([(116.0, 39.9, 0.0), (116.001, 39.9, 10.0),
                           (116.002, 39.9, 20.0)])
        assert series.length_m() == pytest.approx(170.8, rel=0.05)

    def test_accepts_gpspoints_and_tuples(self):
        assert STSeries([GPSPoint(0, 0, 1.0)]) == STSeries([(0, 0, 1.0)])


class TestTSeries:
    def test_ordering_enforced(self):
        with pytest.raises(SchemaError):
            TSeries([(2.0, 1.0), (1.0, 2.0)])

    def test_equality(self):
        assert TSeries([(1.0, 2.0)]) == TSeries([(1, 2)])


class TestTrajectory:
    def make(self):
        return Trajectory("t1", "o1", STSeries(
            [(116.0 + i * 0.001, 39.9, i * 30.0) for i in range(10)]))

    def test_accessors(self):
        t = self.make()
        assert t.start_time == 0.0 and t.end_time == 270.0
        assert t.duration_s() == 270.0
        assert t.start_point.lng == 116.0
        assert t.end_point.lng == pytest.approx(116.009)

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Trajectory("t", "o", STSeries([]))

    def test_series_coercion(self):
        t = Trajectory("t", "o", [(0, 0, 1.0), (1, 1, 2.0)])
        assert isinstance(t.series, STSeries)

    def test_subtrajectory(self):
        t = self.make()
        sub = t.subtrajectory(2, 5)
        assert len(sub.points) == 3
        assert sub.tid.startswith("t1#")
        assert sub.oid == "o1"
        assert sub.start_time == 60.0


class TestAsLinestringFromStoredColumns:
    """A decoded series hands ``LineString`` its float columns and its
    cached envelope; the result is the public constructor's."""

    samples = st.lists(
        st.tuples(st.floats(-180.0, 180.0), st.floats(-90.0, 90.0)),
        min_size=2, max_size=12)

    @given(xy=samples)
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_public_constructor(self, xy):
        raw = STSeries([(x, y, float(i)) for i, (x, y) in enumerate(xy)])
        stored = raw.as_stored()
        assert stored.as_stored() is stored and stored == raw.as_stored()
        line = stored.as_linestring()
        lngs, lats, _ = stored.fixed_point()
        public = LineString([(v / 1e6, w / 1e6)
                             for v, w in zip(lngs, lats)])
        assert line == public and hash(line) == hash(public)
        assert line.coords == public.coords
        assert all(type(v) is float for c in line.coords for v in c)
        assert line.envelope == public.envelope == stored.envelope
        assert to_wkt(line) == to_wkt(public)
        assert len(line) == len(public)
        x, y = public.coords[0]
        for window in (Envelope(x, y, x, y), Envelope(-1.0, -1.0, 1.0, 1.0),
                       Envelope(min(x, 0.0), min(y, 0.0),
                                max(x, 0.0), max(y, 0.0))):
            assert line.intersects_envelope(window) == \
                public.intersects_envelope(window)

    def test_from_columns_needs_two_points(self):
        with pytest.raises(GeometryError):
            LineString.from_columns([1.0], [2.0],
                                    Envelope(1.0, 2.0, 1.0, 2.0))

    def test_a_raw_series_goes_through_the_public_constructor(self):
        series = STSeries([(1, 2, 0.0), (3, 4, 1.0)])     # ints coerce
        assert series.as_linestring().coords == ((1.0, 2.0), (3.0, 4.0))
        assert all(type(v) is float
                   for c in series.as_linestring().coords for v in c)

