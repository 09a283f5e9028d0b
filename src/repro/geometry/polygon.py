"""Polygon geometry (single exterior ring, no holes)."""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import _segments_intersect


class Polygon(Geometry):
    """A simple polygon described by its exterior ring.

    The ring closes itself: the last coordinate does not have to repeat the
    first.  Holes are not needed by any paper workload and are unsupported.
    """

    __slots__ = ("_ring", "_envelope")

    wkt_name = "POLYGON"

    def __init__(self, ring):
        ring = tuple((float(lng), float(lat)) for lng, lat in ring)
        if len(ring) >= 2 and ring[0] == ring[-1]:
            ring = ring[:-1]
        if len(ring) < 3:
            raise GeometryError("Polygon requires at least three points")
        object.__setattr__(self, "_ring", ring)
        object.__setattr__(self, "_envelope", Envelope(
            min(c[0] for c in ring),
            min(c[1] for c in ring),
            max(c[0] for c in ring),
            max(c[1] for c in ring),
        ))

    @property
    def ring(self) -> tuple[tuple[float, float], ...]:
        return self._ring

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    def is_point(self) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self._ring == other._ring

    def __hash__(self) -> int:
        return hash(("Polygon", self._ring))

    def __repr__(self) -> str:
        return f"Polygon({len(self._ring)} vertices)"

    def contains_point(self, lng: float, lat: float) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        if not self._envelope.contains_point(lng, lat):
            return False
        inside = False
        ring = self._ring
        j = len(ring) - 1
        for i in range(len(ring)):
            xi, yi = ring[i]
            xj, yj = ring[j]
            if (xi, yi) == (lng, lat):
                return True
            if (yi > lat) != (yj > lat):
                x_cross = (xj - xi) * (lat - yi) / (yj - yi) + xi
                if lng < x_cross:
                    inside = not inside
                elif lng == x_cross:
                    return True
            j = i
        return inside

    def intersects_envelope(self, env: Envelope) -> bool:
        """Exact polygon-vs-rectangle intersection test."""
        if not self._envelope.intersects(env):
            return False
        # Any polygon vertex inside the rectangle?
        for lng, lat in self._ring:
            if env.contains_point(lng, lat):
                return True
        # Any rectangle corner inside the polygon?
        corners = [
            (env.min_lng, env.min_lat), (env.max_lng, env.min_lat),
            (env.max_lng, env.max_lat), (env.min_lng, env.max_lat),
        ]
        for lng, lat in corners:
            if self.contains_point(lng, lat):
                return True
        # Any edge crossings?
        edges = list(zip(corners, corners[1:] + corners[:1]))
        ring_edges = list(zip(self._ring, self._ring[1:] + self._ring[:1]))
        for a, b in ring_edges:
            for c, d in edges:
                if _segments_intersect(a, b, c, d):
                    return True
        return False
