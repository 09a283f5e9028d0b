"""Trajectory value objects.

``STSeries`` is the paper's ``st_series`` column type (a sequence of
``(lng, lat, t)`` samples, e.g. the ``gpsList`` field); ``TSeries`` is
``t_series`` (a sequence of ``(t, value)`` samples).  ``Trajectory`` is the
complete entity behind the trajectory plugin table's implicit ``item``
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import SchemaError
from repro.geometry.distance import haversine_distance_m
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString, _segments_intersect


@dataclass(frozen=True, slots=True)
class GPSPoint:
    """One GPS sample: position plus epoch-seconds timestamp."""

    lng: float
    lat: float
    time: float

    def distance_m(self, other: "GPSPoint") -> float:
        return haversine_distance_m(self.lng, self.lat,
                                    other.lng, other.lat)

    def speed_to_mps(self, other: "GPSPoint") -> float:
        """Average speed between two samples in metres per second."""
        dt = abs(other.time - self.time)
        if dt == 0.0:
            return float("inf") if self.distance_m(other) > 0 else 0.0
        return self.distance_m(other) / dt


class STSeries:
    """An ordered, time-monotone sequence of GPS samples.

    The stored form is fixed point — 1e-6 degree ticks and millisecond
    timestamps, one integer column each.  A series the codec decodes
    from the delta layout (:meth:`from_deltas`) holds its first sample
    and one array of i32 deltas; the columns (:meth:`fixed_point`) are
    prefix-summed from it on first use (``envelope``, ``time_extent``,
    ``points``, ``==``, ``hash``, re-encoding), and the ``GPSPoint``
    tuple on first access to ``points`` (iteration, indexing, ``==``,
    ``hash``).  :meth:`intersects_envelope`, the trajectory table's
    exact filter, runs on the deltas themselves and builds neither.

    A table reads a series as it reads a geometry: its ``envelope``,
    :meth:`is_point` and :meth:`intersects_envelope`.
    """

    __slots__ = ("_points", "_deltas", "_fixed", "_envelope")

    def __init__(self, points):
        pts = tuple(p if isinstance(p, GPSPoint) else GPSPoint(*p)
                    for p in points)
        for a, b in zip(pts, pts[1:]):
            if b.time < a.time:
                raise SchemaError("st_series timestamps must be "
                                  "non-decreasing")
        self._points = pts
        self._deltas = None
        self._fixed = None
        self._envelope = None  # computed lazily, cached (immutable)

    @classmethod
    def _from_stored(cls, deltas, fixed) -> "STSeries":
        series = object.__new__(cls)
        series._points = None
        series._deltas = deltas
        series._fixed = fixed
        series._envelope = None
        return series

    @classmethod
    def from_fixed_point(cls, lng6: list[int], lat6: list[int],
                         t_ms: list[int]) -> "STSeries":
        """A series over its stored columns (equal-length lists)."""
        if sorted(t_ms) != t_ms:
            raise SchemaError("st_series timestamps must be "
                              "non-decreasing")
        return cls._from_stored(None, (lng6, lat6, t_ms))

    @classmethod
    def from_deltas(cls, first: tuple[int, int, int],
                    deltas) -> "STSeries":
        """A series over its first stored sample ``(lng6, lat6, t_ms)``
        and the deltas to each later one, interleaved ``dlng, dlat, dt``
        (an ``array`` of i32: the codec's delta layout).  Time must not
        run backwards: checked here, at decode, on the ``dt`` column."""
        if deltas and min(deltas[2::3]) < 0:
            raise SchemaError("st_series timestamps must be "
                              "non-decreasing")
        return cls._from_stored((first, deltas), None)

    def as_stored(self) -> "STSeries":
        """This series after a round trip through the codec: itself when
        it already is its stored form, else one over its columns."""
        if self._is_stored:
            return self
        return STSeries.from_fixed_point(*self.fixed_point())

    @property
    def _is_stored(self) -> bool:
        """Built by the codec (or :meth:`as_stored`), not from points."""
        return self._deltas is not None or self._fixed is not None

    def fixed_point(self) -> tuple[list[int], list[int], list[int]]:
        """The stored columns ``(lng6, lat6, t_ms)`` of this series."""
        if self._fixed is not None:
            return self._fixed
        if self._deltas is not None:
            first, deltas = self._deltas
            self._fixed = tuple(
                list(accumulate(deltas[i::3], initial=first[i]))
                for i in range(3))
            return self._fixed
        pts = self._points
        return ([round(p.lng * 1e6) for p in pts],
                [round(p.lat * 1e6) for p in pts],
                [round(p.time * 1000.0) for p in pts])

    def _lnglat(self) -> tuple[list[float], list[float]]:
        """Longitudes and latitudes in degrees, building no point."""
        if self._points is not None:
            return ([p.lng for p in self._points],
                    [p.lat for p in self._points])
        lng6, lat6, _t_ms = self.fixed_point()
        return [v / 1e6 for v in lng6], [v / 1e6 for v in lat6]

    @property
    def points(self) -> tuple[GPSPoint, ...]:
        if self._points is None:
            self._points = tuple(map(
                GPSPoint, *self._lnglat(),
                [v / 1000.0 for v in self.fixed_point()[2]]))
        return self._points

    def __len__(self) -> int:
        if self._deltas is not None:
            return len(self._deltas[1]) // 3 + 1
        if self._fixed is not None:
            return len(self._fixed[2])
        return len(self._points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, STSeries) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"STSeries({len(self)} points)"

    @property
    def envelope(self) -> Envelope:
        if not len(self):
            raise SchemaError("empty st_series has no envelope")
        if self._envelope is None:
            if self._is_stored:
                # Division by a positive constant is monotone, so these
                # are the very floats min/max over the points would find.
                lng6, lat6, _t_ms = self.fixed_point()
                self._envelope = Envelope(
                    min(lng6) / 1e6, min(lat6) / 1e6,
                    max(lng6) / 1e6, max(lat6) / 1e6)
            else:
                lngs, lats = self._lnglat()
                self._envelope = Envelope(min(lngs), min(lats),
                                          max(lngs), max(lats))
        return self._envelope

    @property
    def time_extent(self) -> tuple[float, float]:
        if not len(self):
            raise SchemaError("empty st_series has no time extent")
        if self._is_stored:
            t_ms = self.fixed_point()[2]
            return t_ms[0] / 1000.0, t_ms[-1] / 1000.0
        return self._points[0].time, self._points[-1].time

    def is_point(self) -> bool:
        """Exactly one fix: indexed as a point."""
        return len(self) == 1

    def as_linestring(self) -> LineString:
        if len(self) < 2:
            raise SchemaError("st_series needs >= 2 points for a linestring")
        if not self._is_stored:
            return LineString(zip(*self._lnglat()))
        # Stored columns divide into floats whose bounds are the cached
        # envelope's: nothing for the constructor to coerce or find.
        return LineString.from_columns(*self._lnglat(), self.envelope)

    def _tick_columns(self):
        """The stored longitude and latitude columns, in ticks: summed
        on the fly from the deltas when no list of them exists yet."""
        if self._fixed is None and self._deltas is not None:
            (lng6, lat6, _t_ms), deltas = self._deltas
            return (accumulate(deltas[0::3], initial=lng6),
                    accumulate(deltas[1::3], initial=lat6))
        lng6, lat6, _t_ms = self.fixed_point()
        return lng6, lat6

    def intersects_envelope(self, envelope: Envelope) -> bool:
        """Does the path as stored meet ``envelope``?  Its one fix, or
        the polyline through its fixes, on the 1e-6 degree grid.

        One pass over the tick columns, which stops at the first fix
        inside the window.  The window's bounds are tick thresholds
        (:func:`_window_ticks`), so every fix-in-window test and every
        segment-box reject answers exactly as it would on the floats
        ``tick / 1e6``; a segment whose box meets the window but has no
        end inside it gets the orientation tests on those floats.
        """
        lo_x, lo_y, hi_x, hi_y = _window_ticks(envelope)
        fixes = zip(*self._tick_columns())
        px, py = next(fixes, (None, None))
        if px is None:
            return False  # an empty series meets nothing
        if lo_x <= px <= hi_x and lo_y <= py <= hi_y:
            return True
        edges = None
        for x, y in fixes:
            if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
                return True
            if not (x < lo_x and px < lo_x or x > hi_x and px > hi_x
                    or y < lo_y and py < lo_y or y > hi_y and py > hi_y):
                # The segment's box meets the window, no end is in it.
                if edges is None:
                    edges = _window_edges(envelope)
                a, b = (px / 1e6, py / 1e6), (x / 1e6, y / 1e6)
                for c, d in edges:
                    if _segments_intersect(a, b, c, d):
                        return True
            px, py = x, y
        return False

    def length_m(self) -> float:
        """Travelled distance in metres."""
        points = self.points
        return sum(a.distance_m(b) for a, b in zip(points, points[1:]))


#: Beyond every stored tick (a tick is an i32): the threshold of a
#: bound no fix can reach.
_FAR = 1 << 40


def _tick_at_least(v: float) -> int:
    """The smallest tick ``n`` with ``n / 1e6 >= v``.

    ``n / 1e6`` is correctly rounded and monotone in ``n``, so
    ``n >= _tick_at_least(v)`` holds exactly when ``n / 1e6 >= v``
    (for every tick; a NaN bound is met by none)."""
    if not -1e4 < v < 1e4:  # no tick lies that far out (or NaN)
        return -_FAR if v < 0 else _FAR
    n = math.ceil(v * 1e6)
    while (n - 1) / 1e6 >= v:
        n -= 1
    while n / 1e6 < v:
        n += 1
    return n


def _tick_at_most(v: float) -> int:
    """The largest tick ``n`` with ``n / 1e6 <= v`` (the mirror image:
    ``-n / 1e6`` is ``-(n / 1e6)`` exactly)."""
    return -_tick_at_least(-v)


#: The last window :func:`_window_ticks` converted, and its thresholds:
#: a statement tests every row it decodes against one window object.
#: The thresholds are a function of the window alone, and the pair is
#: swapped in one assignment, so callers that share the slot (threads,
#: interleaved statements) can only cost each other a recomputation.
_last_window: tuple = (None, ())


def _window_ticks(window: Envelope) -> tuple[int, int, int, int]:
    """``window``'s bounds as tick thresholds ``(lo_x, lo_y, hi_x,
    hi_y)``: a fix ``(x, y)`` is in it exactly when ``lo_x <= x <=
    hi_x and lo_y <= y <= hi_y``.  Converted once per window."""
    global _last_window
    seen, ticks = _last_window
    if seen is not window:
        ticks = (_tick_at_least(window.min_lng),
                 _tick_at_least(window.min_lat),
                 _tick_at_most(window.max_lng),
                 _tick_at_most(window.max_lat))
        _last_window = (window, ticks)
    return ticks


def _window_edges(window: Envelope) -> list:
    """The window's four sides as float segments."""
    min_x, min_y, max_x, max_y = window.as_tuple()
    corners = [(min_x, min_y), (max_x, min_y),
               (max_x, max_y), (min_x, max_y)]
    return list(zip(corners, corners[1:] + corners[:1]))


class TSeries:
    """An ordered sequence of ``(time, value)`` samples (``t_series``)."""

    __slots__ = ("_samples",)

    def __init__(self, samples):
        pairs = tuple((float(t), float(v)) for t, v in samples)
        for (t1, _), (t2, _) in zip(pairs, pairs[1:]):
            if t2 < t1:
                raise SchemaError("t_series timestamps must be "
                                  "non-decreasing")
        self._samples = pairs

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    def __eq__(self, other) -> bool:
        return isinstance(other, TSeries) and self._samples == other._samples

    def __hash__(self) -> int:
        return hash(self._samples)

    def __repr__(self) -> str:
        return f"TSeries({len(self._samples)} samples)"


@dataclass(frozen=True)
class Trajectory:
    """A complete trajectory entity: id, moving-object id, GPS samples."""

    tid: str
    oid: str
    series: STSeries

    def __post_init__(self):
        if not isinstance(self.series, STSeries):
            object.__setattr__(self, "series", STSeries(self.series))
        if len(self.series) == 0:
            raise SchemaError(f"trajectory {self.tid!r} has no points")

    @property
    def points(self) -> tuple[GPSPoint, ...]:
        return self.series.points

    @property
    def envelope(self) -> Envelope:
        return self.series.envelope

    @property
    def start_time(self) -> float:
        return self.series.points[0].time

    @property
    def end_time(self) -> float:
        return self.series.points[-1].time

    @property
    def start_point(self) -> GPSPoint:
        return self.series.points[0]

    @property
    def end_point(self) -> GPSPoint:
        return self.series.points[-1]

    def length_m(self) -> float:
        return self.series.length_m()

    def duration_s(self) -> float:
        return self.end_time - self.start_time

    def subtrajectory(self, start: int, stop: int,
                      tid_suffix: str = "") -> "Trajectory":
        """New trajectory over the sample index range [start, stop)."""
        tid = self.tid + (tid_suffix or f"#{start}:{stop}")
        return Trajectory(tid, self.oid, STSeries(self.points[start:stop]))
