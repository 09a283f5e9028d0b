"""The trajectory table's exact filter, run on the stored ticks.

``STSeries.intersects_envelope`` tests a decoded series against a window
in 1e-6 degree ticks, on the codec's deltas, without building a
``LineString``.  It must answer exactly what the float polyline test
(``oracles.linestring_meets_box_reference``, the test it replaced) answers
on the floats ``tick / 1e6`` — on window edges too — and, away from the
edges, what an independent Liang–Barsky clip answers.
"""

import math

from hypothesis import example, given, settings, strategies as st

from repro.core.codec import decode_value, encode_value
from repro.core.schema import FieldType
from repro.geometry import Envelope
from repro.trajectory import STSeries
from repro.trajectory.model import _tick_at_least, _tick_at_most

from oracles import linestring_meets_box_reference, polyline_meets_box

_LNG6, _LAT6 = 180_000_000, 90_000_000


def _stored(lng6, lat6, t_ms) -> STSeries:
    """The series as a scan hands it over: encoded, then decoded."""
    return decode_value(
        encode_value(STSeries.from_fixed_point(lng6, lat6, t_ms),
                     FieldType.ST_SERIES),
        FieldType.ST_SERIES)


def _float_answer(lng6, lat6, box) -> bool:
    """The float test on the stored floats: a one-fix series is a
    containment test, a longer one the polyline test."""
    xy = [(x / 1e6, y / 1e6) for x, y in zip(lng6, lat6)]
    if len(xy) == 1:
        (x, y), (min_x, min_y, max_x, max_y) = xy[0], box
        return min_x <= x <= max_x and min_y <= y <= max_y
    return linestring_meets_box_reference(xy, box)


def _column(draw, start, limit, n):
    """``n`` ticks from ``start``: small steps, some of them zero (the
    horizontal and vertical segments), kept inside ``±limit``."""
    ticks = [start]
    for _ in range(n - 1):
        step = draw(st.one_of(st.just(0), st.integers(-40, 40),
                              st.integers(-3_000_000, 3_000_000)))
        ticks.append(max(-limit, min(limit, ticks[-1] + step)))
    return ticks


def _bound(draw, ticks):
    """A window bound near the series: on a tick, one tick off, one
    float off a tick, or anywhere close by."""
    base = draw(st.sampled_from(ticks))
    kind = draw(st.sampled_from(["tick", "ulp", "near", "far"]))
    if kind == "tick":
        return (base + draw(st.integers(-1, 1))) / 1e6
    if kind == "ulp":
        return math.nextafter(base / 1e6,
                              draw(st.sampled_from([-math.inf, math.inf])))
    if kind == "near":
        return (base + draw(st.floats(-50.0, 50.0))) / 1e6
    return (base + draw(st.integers(-5_000_000, 5_000_000))) / 1e6


@st.composite
def series_and_window(draw):
    n = draw(st.integers(1, 7))
    lng6 = _column(draw, draw(st.one_of(
        st.sampled_from([-_LNG6, _LNG6, 0]),
        st.integers(-_LNG6, _LNG6))), _LNG6, n)
    lat6 = _column(draw, draw(st.one_of(
        st.sampled_from([-_LAT6, _LAT6, 0]),
        st.integers(-_LAT6, _LAT6))), _LAT6, n)
    # A gap beyond i32 ms forces the absolute layout.
    t_ms = [1_500_000_000_000]
    for _ in range(n - 1):
        t_ms.append(t_ms[-1] + draw(st.one_of(
            st.integers(0, 60_000), st.just(3_000_000_000))))
    x0, x1 = _bound(draw, lng6), _bound(draw, lng6)
    y0, y1 = _bound(draw, lat6), _bound(draw, lat6)
    if draw(st.booleans()):  # zero width or zero height
        if draw(st.booleans()):
            x1 = x0
        else:
            y1 = y0
    box = (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
    return lng6, lat6, t_ms, box


class TestExactWindowTest:
    @given(case=series_and_window())
    @settings(max_examples=1500, deadline=None)
    # Touches the window at its corner (1, 1) only.
    @example(case=([0, 2_000_000], [2_000_000, 0], [0, 1],
                   (1.0, 1.0, 3.0, 3.0)))
    # ... and misses it by a tick.
    @example(case=([0, 1_999_999], [2_000_000, 0], [0, 1],
                   (1.0, 1.0, 3.0, 3.0)))
    # Crosses the window with no fix inside it.
    @example(case=([0, 4_000_000], [2_000_000, 2_000_000], [0, 1],
                   (1.0, 1.0, 3.0, 3.0)))
    # A vertical segment on the window's edge; the antimeridian.
    @example(case=([1_000_000, 1_000_000], [0, 5_000_000], [0, 1],
                   (1.0, 1.0, 3.0, 3.0)))
    @example(case=([180_000_000, -180_000_000], [90_000_000, -90_000_000],
                   [0, 3_000_000_000], (-180.0, -90.0, -180.0, -90.0)))
    def test_equals_the_float_test_on_the_stored_floats(self, case):
        lng6, lat6, t_ms, box = case
        expected = _float_answer(lng6, lat6, box)
        window = Envelope(*box)
        decoded = _stored(lng6, lat6, t_ms)
        assert decoded.intersects_envelope(window) is expected
        # The columns, once summed, answer the same.
        decoded.fixed_point()
        assert decoded.intersects_envelope(window) is expected
        eager = STSeries([(x / 1e6, y / 1e6, t / 1000.0)
                          for x, y, t in zip(lng6, lat6, t_ms)])
        assert eager.intersects_envelope(window) is expected
        if len(lng6) >= 2:
            assert decoded.as_linestring().intersects_envelope(window) \
                is expected
            # Away from the edges the independent clip agrees: when
            # growing and shrinking the window cannot change its answer.
            xy = [(x / 1e6, y / 1e6) for x, y in zip(lng6, lat6)]
            min_x, min_y, max_x, max_y = box
            eps = 1e-9
            grown = (min_x - eps, min_y - eps, max_x + eps, max_y + eps)
            shrunk = (min_x + eps, min_y + eps, max_x - eps, max_y - eps)
            if shrunk[0] <= shrunk[2] and shrunk[1] <= shrunk[3]:
                clip = polyline_meets_box(xy, grown)
                if clip == polyline_meets_box(xy, shrunk):
                    assert expected is clip

    def test_one_window_object_serves_many_series(self):
        window = Envelope(1.0, 1.0, 3.0, 3.0)
        inside = _stored([2_000_000], [2_000_000], [0])
        outside = _stored([4_000_000], [2_000_000], [0])
        for _ in range(2):
            assert inside.intersects_envelope(window)
            assert not outside.intersects_envelope(window)
            assert outside.intersects_envelope(Envelope(4.0, 2.0, 4.0, 2.0))

    def test_an_empty_series_meets_nothing(self):
        assert not _stored([], [], []).intersects_envelope(Envelope.world())


class TestTickThresholds:
    values = st.one_of(
        st.floats(-1e5, 1e5),
        st.integers(-2 ** 31, 2 ** 31 - 1).map(lambda n: n / 1e6),
        st.integers(-2 ** 31, 2 ** 31 - 1).flatmap(
            lambda n: st.sampled_from([
                math.nextafter(n / 1e6, -math.inf),
                math.nextafter(n / 1e6, math.inf)])),
        st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))

    @given(v=values, n=st.integers(-2 ** 31, 2 ** 31 - 1),
           near=st.integers(-3, 3))
    @settings(max_examples=2000, deadline=None)
    def test_a_tick_passes_exactly_when_its_float_does(self, v, n, near):
        lo, hi = _tick_at_least(v), _tick_at_most(v)
        ticks = [n]
        if abs(v) < 2000.0:
            ticks.append(round(v * 1e6) + near)  # right at the threshold
        for tick in ticks:
            assert (tick >= lo) is (tick / 1e6 >= v)
            assert (tick <= hi) is (tick / 1e6 <= v)
