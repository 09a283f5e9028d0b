"""A radius is a window: ``st_distance_m(geom, P) < r`` plans as a range
scan of the circle's bounding box, with the exact distance kept as the
residual test.

Every pushed statement is held to a brute force of the same scalar over
every row.  The plan is read from the statement's trace: the scan
decodes what the index path's exact filter reads (``time`` as well),
and its region scans read the Z2/Z2T table, never the feature-id table
a full scan reads.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Field, FieldType, JustEngine, Point, Schema
from repro.errors import ExecutionError
from repro.geometry.distance import EARTH_RADIUS_M
from repro.observability.profile import QueryProfile
from repro.resilience import RequestContext
from repro.sql.functions import SCALAR_FUNCTIONS

T0 = 1_500_000_000.0
FIELDS = [Field("fid", FieldType.INTEGER, primary_key=True),
          Field("time", FieldType.DATE),
          Field("geom", FieldType.POINT),
          Field("note", FieldType.STRING)]
MIRROR = {"<": ">", "<=": ">="}
COMPARE = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b}


def _engine(points, userdata=None) -> JustEngine:
    engine = JustEngine()
    engine.create_table("t", Schema(list(FIELDS)), userdata)
    if points:
        engine.insert("t", [{"fid": i, "time": T0 + 60.0 * i,
                             "geom": Point(lng, lat)}
                            for i, (lng, lat) in enumerate(points)])
    return engine


def _traced(engine, statement):
    """The statement's fids, the fields its scan decoded, the physical
    tables its region scans read and the store's ``IOStats`` delta,
    from cold caches."""
    engine.store.clear_caches()
    before = engine.store.stats.snapshot()
    ctx = RequestContext(profile=QueryProfile())
    rows = engine.sql(statement, ctx=ctx).rows
    spans = [span for _depth, span in ctx.profile.root.walk()]
    scan = next(s for s in spans if s.attrs.get("op") == "ScanNode")
    tables = {s.attrs["table"] for s in spans if s.kind == "region_scan"}
    return (sorted(r["fid"] for r in rows), scan.attrs["decoded_fields"],
            tables, engine.store.stats.snapshot().delta(before))


def _point(lng: float, lat: float) -> str:
    return f"st_makePoint({lng!r}, {lat!r})"


def _condition(fn, centre, radius, op, swapped, mirrored) -> str:
    args = (_point(*centre), "geom") if swapped \
        else ("geom", _point(*centre))
    call = f"{fn}({args[0]}, {args[1]})"
    return f"{radius!r} {MIRROR[op]} {call}" if mirrored \
        else f"{call} {op} {radius!r}"


def _accepts(fn, centre, radius, op, swapped):
    """The residual's own scalar, applied by hand to one row."""
    scalar = SCALAR_FUNCTIONS[fn]
    here = Point(*centre)

    def test(point):
        args = (here, point) if swapped else (point, here)
        return COMPARE[op](scalar(*args), radius)
    return test


# -- coordinates: the whole globe, with the poles and the antimeridian
# drawn often ---------------------------------------------------------------

LNGS = st.one_of(st.floats(-180.0, 180.0), st.floats(179.0, 180.0),
                 st.floats(-180.0, -179.0),
                 st.sampled_from([-180.0, 180.0, 0.0]))
LATS = st.one_of(st.floats(-90.0, 90.0), st.floats(89.0, 90.0),
                 st.floats(-90.0, -89.0),
                 st.sampled_from([-90.0, 90.0, 0.0]))


def _normal_lng(lng: float) -> float:
    return (lng + 180.0) % 360.0 - 180.0


def _destination(lng, lat, delta, bearing):
    """The point ``delta`` radians from ``(lng, lat)`` along ``bearing``."""
    phi, lam = math.radians(lat), math.radians(lng)
    sin_phi = min(1.0, max(-1.0, math.sin(phi) * math.cos(delta)
                           + math.cos(phi) * math.sin(delta)
                           * math.cos(bearing)))
    lam2 = lam + math.atan2(
        math.sin(bearing) * math.sin(delta) * math.cos(phi),
        math.cos(delta) - math.sin(phi) * sin_phi)
    return (_normal_lng(math.degrees(lam2)),
            max(-90.0, min(90.0, math.degrees(math.asin(sin_phi)))))


def _sphere_extremes(lng, lat, delta):
    """The circle's northern, southern, eastern and western extremes:
    the points its bounding box must reach."""
    points = [_destination(lng, lat, delta, 0.0),
              _destination(lng, lat, delta, math.pi)]
    phi = math.radians(lat)
    spread = math.sin(delta) / math.cos(phi) if math.cos(phi) else 2.0
    if spread < 1.0 and math.cos(delta):
        lat_t = math.degrees(math.asin(
            max(-1.0, min(1.0, math.sin(phi) / math.cos(delta)))))
        dlng = math.degrees(math.asin(spread))
        points += [(_normal_lng(lng + dlng), lat_t),
                   (_normal_lng(lng - dlng), lat_t)]
    return points


def _plane_extremes(lng, lat, radius):
    return [(lng + dx, lat + dy) for dx, dy in
            ((radius, 0.0), (-radius, 0.0), (0.0, radius), (0.0, -radius))
            if -180.0 <= lng + dx <= 180.0 and -90.0 <= lat + dy <= 90.0]


@st.composite
def radius_cases(draw):
    """A point table around a centre, and a radius statement over it.

    The rows mix points anywhere, points near the centre and the
    circle's extremes; the radius is the drawn one, zero, larger than
    the globe, or exactly some row's distance (the row on the boundary
    of ``<=``).
    """
    fn = draw(st.sampled_from(["st_distance_m", "st_distance"]))
    centre = (draw(LNGS), draw(LATS))
    scale = draw(st.sampled_from(["zero", "tiny", "small", "wide"]))
    if fn == "st_distance_m":
        delta = {"zero": st.just(0.0),
                 "tiny": st.floats(1e-12, 1e-7),
                 "small": st.floats(1e-7, 0.2),
                 "wide": st.floats(0.2, math.pi)}[scale]
        delta = draw(delta)
        intended = delta * EARTH_RADIUS_M
        near = [_destination(*centre, delta * draw(st.floats(0.0, 1.5)),
                             draw(st.floats(0.0, 2.0 * math.pi)))
                for _ in range(draw(st.integers(0, 12)))]
        edge = _sphere_extremes(*centre, delta)
        huge = 1e8
    else:
        intended = draw({"zero": st.just(0.0),
                         "tiny": st.floats(1e-10, 1e-5),
                         "small": st.floats(1e-5, 20.0),
                         "wide": st.floats(20.0, 500.0)}[scale])
        near = [(centre[0] + intended * draw(st.floats(-1.5, 1.5)),
                 centre[1] + intended * draw(st.floats(-1.5, 1.5)))
                for _ in range(draw(st.integers(0, 12)))]
        near = [(x, y) for x, y in near
                if -180.0 <= x <= 180.0 and -90.0 <= y <= 90.0]
        edge = _plane_extremes(*centre, intended)
        huge = 1e4
    anywhere = draw(st.lists(st.tuples(LNGS, LATS), max_size=8))
    points = near + edge + anywhere + [centre]
    swapped = draw(st.booleans())
    on_a_row = SCALAR_FUNCTIONS[fn](
        Point(*centre), Point(*draw(st.sampled_from(points)))) \
        if swapped else SCALAR_FUNCTIONS[fn](
            Point(*draw(st.sampled_from(points))), Point(*centre))
    radius = draw(st.sampled_from([intended, on_a_row, 0.0, huge]))
    op = draw(st.sampled_from(["<", "<="]))
    mirrored = draw(st.booleans())
    return fn, centre, points, radius, op, swapped, mirrored


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=radius_cases(), data=st.data())
def test_pushed_radius_returns_the_brute_force_rows(case, data):
    fn, centre, points, radius, op, swapped, mirrored = case
    engine = _engine(points)
    accepts = _accepts(fn, centre, radius, op, swapped)
    conjuncts = [_condition(fn, centre, radius, op, swapped, mirrored)]
    expected = [i for i, point in enumerate(points)
                if accepts(Point(*point))]

    if data.draw(st.booleans(), label="time BETWEEN"):
        low, high = sorted(data.draw(st.integers(0, len(points) - 1))
                           for _ in range(2))
        conjuncts.append(f"time BETWEEN {T0 + 60.0 * low!r} "
                         f"AND {T0 + 60.0 * high!r}")
        expected = [i for i in expected if low <= i <= high]
    if data.draw(st.booleans(), label="WITHIN"):
        lngs = sorted(data.draw(LNGS) for _ in range(2))
        lats = sorted(data.draw(LATS) for _ in range(2))
        conjuncts.append(f"geom WITHIN st_makeMBR({lngs[0]!r}, "
                         f"{lats[0]!r}, {lngs[1]!r}, {lats[1]!r})")
        expected = [i for i in expected
                    if lngs[0] <= points[i][0] <= lngs[1]
                    and lats[0] <= points[i][1] <= lats[1]]
    conjuncts = data.draw(st.permutations(conjuncts), label="order")

    fids, decoded, tables, _io = _traced(
        engine, "SELECT fid FROM t WHERE " + " AND ".join(conjuncts))
    assert fids == expected
    # The index path served it: its exact filter reads the time too,
    # and no region of the feature-id table was scanned.
    assert decoded == ["fid", "geom", "time"]
    assert "t__id" not in tables


class TestThePlan:
    CENTRE = (116.2, 39.9)
    RADIUS = "st_distance_m(geom, st_makePoint(116.2, 39.9)) < 3000"
    #: The same test written so that no classifier reads it: today's
    #: full scan with a per-row filter.
    OPAQUE = "st_distance_m(geom, st_makePoint(116.2, 39.9)) + 0 < 3000"

    @pytest.fixture
    def flushed(self, poi_engine):
        poi_engine.table("poi").flush()
        return poi_engine

    def _run(self, engine, where):
        return _traced(engine, f"SELECT fid FROM poi WHERE {where}")

    def test_a_radius_reads_the_z2_table(self, flushed, poi_rows):
        fids, decoded, tables, io = self._run(flushed, self.RADIUS)
        full, full_decoded, full_tables, full_io = self._run(flushed,
                                                             self.OPAQUE)
        accepts = _accepts("st_distance_m", self.CENTRE, 3000, "<", False)
        expected = sorted(r["fid"] for r in poi_rows if accepts(r["geom"]))
        assert 0 < len(expected) < len(poi_rows)
        assert fids == full == expected
        assert (decoded, tables) == (["fid", "geom", "time"], {"poi__z2"})
        assert (full_decoded, full_tables) == (["fid", "geom"], {"poi__id"})
        # A box of 6 x 6 km out of the data's 40 x 30 km: the store
        # hands back a few of the rows the whole id table holds.
        assert 0 < io.result_bytes < full_io.result_bytes / 10

    def test_with_a_time_window_it_reads_the_z2t_table(self, flushed,
                                                       poi_rows):
        window = f"time BETWEEN {T0!r} AND {T0 + 86400.0!r}"
        fids, _decoded, tables, _io = self._run(
            flushed, f"{self.RADIUS} AND {window}")
        accepts = _accepts("st_distance_m", self.CENTRE, 3000, "<", False)
        assert tables == {"poi__z2t"}
        assert fids == sorted(r["fid"] for r in poi_rows
                              if accepts(r["geom"])
                              and T0 <= r["time"] <= T0 + 86400.0)

    @staticmethod
    def _metres(row) -> float:
        return SCALAR_FUNCTIONS["st_distance_m"](row["geom"],
                                                 Point(116.2, 39.9))

    @pytest.mark.parametrize("where, keep", [
        # outside the circle, not inside it
        ("st_distance_m(geom, st_makePoint(116.2, 39.9)) > 3000",
         lambda metres, row: metres > 3000),
        ("3000 < st_distance_m(geom, st_makePoint(116.2, 39.9))",
         lambda metres, row: metres > 3000),
        # a negative radius, and a radius that is not a literal
        ("st_distance_m(geom, st_makePoint(116.2, 39.9)) < -1",
         lambda metres, row: False),
        ("st_distance_m(geom, st_makePoint(116.2, 39.9)) < fid * 10",
         lambda metres, row: metres < row["fid"] * 10),
        # a centre that is not a constant
        ("st_distance_m(geom, geom) < 3000", lambda metres, row: True),
    ])
    def test_other_shapes_stay_full_scans(self, flushed, poi_rows, where,
                                          keep):
        fids, decoded, tables, _io = self._run(flushed, where)
        assert (decoded, tables) == (["fid", "geom"], {"poi__id"})
        assert fids == sorted(r["fid"] for r in poi_rows
                              if keep(self._metres(r), r))


class TestUnpushedTables:
    def test_a_linestring_plugin_table_keeps_its_full_scan(self,
                                                            small_trajs):
        engine = JustEngine()
        table = engine.create_plugin_table("traj", "trajectory")
        table.insert_trajectories(small_trajs)
        table.flush()
        start = small_trajs[0].points[0]
        ctx = RequestContext(profile=QueryProfile())
        rows = engine.sql(
            "SELECT tid FROM traj WHERE st_distance_m(start_point, "
            f"{_point(start.lng, start.lat)}) < 2000", ctx=ctx).rows
        tables = {span.attrs["table"] for _d, span in
                  ctx.profile.root.walk() if span.kind == "region_scan"}
        assert tables == {"traj__id"}
        near = _accepts("st_distance_m", (start.lng, start.lat), 2000, "<",
                        False)
        assert sorted(r["tid"] for r in rows) == sorted(
            t.tid for t in small_trajs
            if near(Point(t.points[0].lng, t.points[0].lat)))

    def test_a_linestring_column_still_fails_the_scalar(self):
        engine = JustEngine()
        engine.sql("CREATE TABLE roads (fid integer:primary key, "
                   "geom linestring)")
        engine.sql("INSERT INTO roads VALUES (1, st_geomFromText("
                   "'LINESTRING (0 0, 1 1)'))")
        with pytest.raises(ExecutionError):
            engine.sql("SELECT fid FROM roads WHERE "
                       "st_distance_m(geom, st_makePoint(0, 0)) < 10")

    def test_no_index_for_a_window_keeps_the_full_scan(self):
        """An empty z3-only table has no time extent to widen a spatial
        window to: a WITHIN fails there, and a radius full-scans."""
        engine = _engine([], userdata={"geomesa.indices.enabled": "z3"})
        with pytest.raises(ExecutionError):
            engine.sql("SELECT fid FROM t WHERE "
                       "geom WITHIN st_makeMBR(0, 0, 1, 1)")
        fids, decoded, _tables, _io = _traced(
            engine, "SELECT fid FROM t WHERE "
            "st_distance_m(geom, st_makePoint(0, 0)) < 10")
        assert (fids, decoded) == ([], ["fid", "geom"])

    def test_a_z3_table_with_rows_serves_the_window(self):
        points = [(0.001 * i, 0.0) for i in range(20)]
        engine = _engine(points, userdata={"geomesa.indices.enabled": "z3"})
        fids, decoded, tables, _io = _traced(
            engine, "SELECT fid FROM t WHERE "
            "st_distance_m(geom, st_makePoint(0, 0)) <= 500")
        near = _accepts("st_distance_m", (0.0, 0.0), 500, "<=", False)
        assert fids == [i for i, p in enumerate(points) if near(Point(*p))]
        assert decoded == ["fid", "geom", "time"]
        assert "t__id" not in tables


class TestNullInNullOut:
    """A NULL argument makes the distance scalars and the coordinate
    transforms answer NULL, as ``st_x(NULL)`` does."""

    def test_scalars(self):
        engine = _engine([(116.4, 39.9)])
        (row,) = engine.sql(
            "SELECT st_distance_m(NULL, st_makePoint(0, 0)) AS m, "
            "st_distance(st_makePoint(0, 0), NULL) AS d, "
            "st_wgs84ToGcj02(NULL) AS g, st_bd09ToGcj02(NULL, 39.9) AS b, "
            "st_distance_m(geom, NULL) AS n FROM t").rows
        assert row == {"m": None, "d": None, "g": None, "b": None,
                       "n": None}

    def test_a_null_distance_is_not_within_any_radius(self):
        engine = _engine([(116.4, 39.9)])
        rows = engine.sql("SELECT fid FROM t WHERE "
                          "st_distance_m(geom, NULL) < 10").rows
        assert rows == []


def test_disjoint_windows_return_nothing():
    """Windows that share no point narrow the scan to a corner of the
    last one; a row on that corner meets only that window."""
    engine = _engine([(2.0, 2.0), (0.5, 0.5)])
    for where in ("geom WITHIN st_makeMBR(0, 0, 1, 1) "
                  "AND geom WITHIN st_makeMBR(2, 2, 3, 3)",
                  "geom WITHIN st_makeMBR(0, 0, 1, 1) AND st_distance("
                  "geom, st_makePoint(2.5, 2.5)) <= 0.5"):
        assert engine.sql(f"SELECT fid FROM t WHERE {where}").rows == []
