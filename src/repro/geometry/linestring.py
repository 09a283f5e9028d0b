"""LineString geometry."""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope


def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _on_segment(a, b, c) -> bool:
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """Exact test whether segments ``p1p2`` and ``p3p4`` intersect."""
    o1, o2 = _orient(p1, p2, p3), _orient(p1, p2, p4)
    o3, o4 = _orient(p3, p4, p1), _orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, p3):
        return True
    if o2 == 0 and _on_segment(p1, p2, p4):
        return True
    if o3 == 0 and _on_segment(p3, p4, p1):
        return True
    if o4 == 0 and _on_segment(p3, p4, p2):
        return True
    return False


class LineString(Geometry):
    """An ordered sequence of two or more ``(lng, lat)`` coordinates."""

    __slots__ = ("_coords", "_envelope")

    wkt_name = "LINESTRING"

    def __init__(self, coords):
        coords = tuple((float(lng), float(lat)) for lng, lat in coords)
        if len(coords) < 2:
            raise GeometryError("LineString requires at least two points")
        lngs, lats = zip(*coords)
        self._set(coords, Envelope(min(lngs), min(lats),
                                   max(lngs), max(lats)))

    @classmethod
    def from_columns(cls, lngs: list[float], lats: list[float],
                     envelope: Envelope) -> "LineString":
        """The line over two equal-length columns of floats whose MBR
        the caller already holds (a decoded ``st_series``): nothing is
        coerced or re-derived, so ``envelope`` must be theirs."""
        if len(lngs) < 2:
            raise GeometryError("LineString requires at least two points")
        line = object.__new__(cls)
        line._set(tuple(zip(lngs, lats)), envelope)
        return line

    def _set(self, coords, envelope: Envelope) -> None:
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_envelope", envelope)

    @property
    def coords(self) -> tuple[tuple[float, float], ...]:
        return self._coords

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    def is_point(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self._coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, LineString) and self._coords == other._coords

    def __hash__(self) -> int:
        return hash(("LineString", self._coords))

    def __repr__(self) -> str:
        return f"LineString({len(self._coords)} points)"

    def intersects_envelope(self, env: Envelope) -> bool:
        """Exact segment-vs-rectangle intersection test."""
        if not self._envelope.intersects(env):
            return False
        min_x, min_y, max_x, max_y = env.as_tuple()
        for x, y in self._coords:
            if min_x <= x <= max_x and min_y <= y <= max_y:
                return True
        corners = [(min_x, min_y), (max_x, min_y),
                   (max_x, max_y), (min_x, max_y)]
        edges = list(zip(corners, corners[1:] + corners[:1]))
        for a, b in zip(self._coords, self._coords[1:]):
            # A segment whose own bounding box misses the rectangle
            # cannot cross an edge of it.
            if (a[0] < min_x and b[0] < min_x) or \
                    (a[0] > max_x and b[0] > max_x) or \
                    (a[1] < min_y and b[1] < min_y) or \
                    (a[1] > max_y and b[1] > max_y):
                continue
            for c, d in edges:
                if _segments_intersect(a, b, c, d):
                    return True
        return False
