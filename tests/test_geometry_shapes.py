"""Point / LineString / Polygon behaviour."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import Envelope, LineString, Point, Polygon

from oracles import polyline_meets_box


class TestPoint:
    def test_basic(self):
        p = Point(116.3, 39.9)
        assert p.is_point()
        assert p.envelope.as_tuple() == (116.3, 39.9, 116.3, 39.9)
        assert p.coords() == (116.3, 39.9)

    def test_bounds_validation(self):
        with pytest.raises(GeometryError):
            Point(181.0, 0.0)
        with pytest.raises(GeometryError):
            Point(0.0, -91.0)
        with pytest.raises(GeometryError):
            Point(float("nan"), 0.0)

    def test_intersects_envelope_is_containment(self):
        p = Point(5.0, 5.0)
        assert p.intersects_envelope(Envelope(0, 0, 10, 10))
        assert not p.intersects_envelope(Envelope(6, 6, 10, 10))

    def test_equality_and_hash(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert Point(1.0, 2.0) != Point(1.0, 2.5)


class TestLineString:
    def test_requires_two_points(self):
        with pytest.raises(GeometryError):
            LineString([(0.0, 0.0)])

    def test_envelope(self):
        line = LineString([(0, 0), (2, 5), (4, 1)])
        assert line.envelope.as_tuple() == (0, 0, 4, 5)
        assert not line.is_point()

    def test_exact_intersection_crossing(self):
        # Diagonal line whose envelope overlaps the box but whose
        # geometry passes outside it.
        line = LineString([(0, 10), (10, 0)])
        assert line.intersects_envelope(Envelope(4, 4, 6, 6))
        assert not line.intersects_envelope(Envelope(0, 0, 2, 2))

    def test_endpoint_inside_box(self):
        line = LineString([(5, 5), (20, 20)])
        assert line.intersects_envelope(Envelope(0, 0, 10, 10))

    def test_crossing_without_vertex_inside(self):
        line = LineString([(-5, 5), (15, 5)])
        assert line.intersects_envelope(Envelope(0, 0, 10, 10))


#: Coordinates in 1e-6 degree ticks — the grid stored trajectories live
#: on.  Whole numbers keep both tests exact in double arithmetic (cross
#: products < 2**53; distinct Liang–Barsky parameters differ by far more
#: than an ulp), so a disagreement is a logic error, never rounding.
#: The narrow range makes shared coordinates, collinear triples and
#: touching contacts common; the wide one gives long segments.
_TICK = st.one_of(st.integers(-12, 12), st.integers(-3_000_000, 3_000_000))
_BOX = (0, 0, 4, 4)


class TestLineStringAgainstLiangBarsky:
    """``LineString.intersects_envelope`` (orientation tests behind a
    segment-box reject) against an independent parametric clip."""

    @settings(max_examples=400)
    @given(path=st.lists(st.tuples(_TICK, _TICK), min_size=2, max_size=6),
           corners=st.tuples(_TICK, _TICK, _TICK, _TICK))
    @example(path=[(-5, -5), (0, 0)], corners=_BOX)  # vertex on a corner
    @example(path=[(-2, 2), (2, -2)], corners=_BOX)  # through a corner
    @example(path=[(-3, 4), (7, 4)], corners=_BOX)  # along the top edge
    @example(path=[(-3, 0), (7, 0)], corners=_BOX)  # ... the bottom,
    @example(path=[(0, -3), (0, 7)], corners=_BOX)  # ... the left
    @example(path=[(4, -3), (4, 7)], corners=_BOX)  # ... and the right
    @example(path=[(5, 4), (9, 4)], corners=_BOX)  # collinear, beside it
    @example(path=[(2, 2), (2, 2)], corners=_BOX)  # zero length, inside
    @example(path=[(9, 9), (9, 9)], corners=_BOX)  # zero length, outside
    # The box strictly inside one long segment's bounding box: missed
    # (y = x + 10) and crossed (y = x).
    @example(path=[(-1_000_000, -999_990), (1_000_000, 1_000_010)],
             corners=_BOX)
    @example(path=[(-1_000_000, -1_000_000), (1_000_000, 1_000_000)],
             corners=_BOX)
    def test_same_answer(self, path, corners):
        xy = [(float(x), float(y)) for x, y in path]
        x1, y1, x2, y2 = map(float, corners)
        box = (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        assert LineString(xy).intersects_envelope(Envelope(*box)) == \
            polyline_meets_box(xy, box)

    def test_the_named_cases_are_what_they_say(self):
        """The degenerate examples above, with their answers spelled
        out (the property only says the two tests agree)."""
        box = Envelope(*map(float, _BOX))
        for path, expected in [
                ([(-5, -5), (0, 0)], True),
                ([(-2, 2), (2, -2)], True),
                ([(-3, 4), (7, 4)], True),
                ([(-3, 0), (7, 0)], True),
                ([(0, -3), (0, 7)], True),
                ([(4, -3), (4, 7)], True),
                ([(5, 4), (9, 4)], False),
                ([(2, 2), (2, 2)], True),
                ([(9, 9), (9, 9)], False),
                ([(-1_000_000, -999_990), (1_000_000, 1_000_010)], False),
                ([(-1_000_000, -1_000_000), (1_000_000, 1_000_000)], True)]:
            assert LineString(path).intersects_envelope(box) is expected


class TestPolygon:
    def test_requires_three_points(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 1)])

    def test_closed_ring_deduplicated(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4), (0, 0)])
        assert len(tri.ring) == 3

    def test_contains_point(self):
        tri = Polygon([(0, 0), (4, 0), (0, 4)])
        assert tri.contains_point(1.0, 1.0)
        assert not tri.contains_point(3.0, 3.0)
        assert tri.contains_point(0.0, 0.0)  # vertex counts as inside

    def test_intersects_envelope_box_inside_polygon(self):
        big = Polygon([(0, 0), (20, 0), (20, 20), (0, 20)])
        assert big.intersects_envelope(Envelope(5, 5, 6, 6))

    def test_intersects_envelope_polygon_inside_box(self):
        tri = Polygon([(1, 1), (2, 1), (1, 2)])
        assert tri.intersects_envelope(Envelope(0, 0, 10, 10))

    def test_disjoint(self):
        tri = Polygon([(0, 0), (1, 0), (0, 1)])
        assert not tri.intersects_envelope(Envelope(5, 5, 6, 6))

    def test_edge_crossing_only(self):
        # A thin triangle slicing through the box corner.
        tri = Polygon([(-1, 4), (6, 11), (-1, 11)])
        assert tri.intersects_envelope(Envelope(0, 0, 5, 10))
