"""Trajectory value objects.

``STSeries`` is the paper's ``st_series`` column type (a sequence of
``(lng, lat, t)`` samples, e.g. the ``gpsList`` field); ``TSeries`` is
``t_series`` (a sequence of ``(t, value)`` samples).  ``Trajectory`` is the
complete entity behind the trajectory plugin table's implicit ``item``
field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchemaError
from repro.geometry.distance import haversine_distance_m
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString


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
    timestamps, one integer column each.  A series built by the codec
    (:meth:`from_fixed_point`) *is* those three columns: ``len``,
    ``envelope``, ``time_extent`` and ``as_linestring`` answer from them,
    and the ``GPSPoint`` tuple is built on first access to ``points``
    (iteration, indexing, ``==``, ``hash``) — a scan that filters on the
    bounding box and selects ``tid`` never builds one.
    """

    __slots__ = ("_points", "_fixed", "_envelope")

    def __init__(self, points):
        pts = tuple(p if isinstance(p, GPSPoint) else GPSPoint(*p)
                    for p in points)
        for a, b in zip(pts, pts[1:]):
            if b.time < a.time:
                raise SchemaError("st_series timestamps must be "
                                  "non-decreasing")
        self._points = pts
        self._fixed = None
        self._envelope = None  # computed lazily, cached (immutable)

    @classmethod
    def from_fixed_point(cls, lng6: list[int], lat6: list[int],
                         t_ms: list[int]) -> "STSeries":
        """A series over its stored columns (equal-length lists)."""
        if sorted(t_ms) != t_ms:
            raise SchemaError("st_series timestamps must be "
                              "non-decreasing")
        series = object.__new__(cls)
        series._points = None
        series._fixed = (lng6, lat6, t_ms)
        series._envelope = None
        return series

    def as_stored(self) -> "STSeries":
        """This series after a round trip through the codec: itself when
        it already is its stored columns, else one over them."""
        if self._fixed is not None:
            return self
        return STSeries.from_fixed_point(*self.fixed_point())

    def fixed_point(self) -> tuple[list[int], list[int], list[int]]:
        """The stored columns ``(lng6, lat6, t_ms)`` of this series."""
        if self._fixed is not None:
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
        lng6, lat6, _t_ms = self._fixed
        return [v / 1e6 for v in lng6], [v / 1e6 for v in lat6]

    @property
    def points(self) -> tuple[GPSPoint, ...]:
        if self._points is None:
            self._points = tuple(map(
                GPSPoint, *self._lnglat(),
                [v / 1000.0 for v in self._fixed[2]]))
        return self._points

    def __len__(self) -> int:
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
            if self._fixed is not None:
                # Division by a positive constant is monotone, so these
                # are the very floats min/max over the points would find.
                lng6, lat6, _t_ms = self._fixed
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
        if self._fixed is not None:
            t_ms = self._fixed[2]
            return t_ms[0] / 1000.0, t_ms[-1] / 1000.0
        return self._points[0].time, self._points[-1].time

    def as_linestring(self) -> LineString:
        if len(self) < 2:
            raise SchemaError("st_series needs >= 2 points for a linestring")
        if self._fixed is None:
            return LineString(zip(*self._lnglat()))
        # Stored columns divide into floats whose bounds are the cached
        # envelope's: nothing for the constructor to coerce or find.
        return LineString.from_columns(*self._lnglat(), self.envelope)

    def intersects_envelope(self, envelope: Envelope) -> bool:
        """Does the path meet ``envelope``?  Its one fix, or the polyline
        through its fixes, as the trajectory table's exact filter has it."""
        if len(self) == 1:
            return envelope.contains_point(self[0].lng, self[0].lat)
        return self.as_linestring().intersects_envelope(envelope)

    def length_m(self) -> float:
        """Travelled distance in metres."""
        points = self.points
        return sum(a.distance_m(b) for a, b in zip(points, points[1:]))


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
