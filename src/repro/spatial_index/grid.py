"""A uniform grid index (SpatialSpark / Hadoop-GIS partitioning)."""

from __future__ import annotations

import math
from collections import defaultdict

from repro.geometry.envelope import Envelope


class GridIndex:
    """Fixed ``cols x rows`` grid over a bounding envelope.

    Extended objects are registered in every cell their envelope overlaps;
    range queries deduplicate by object identity.
    """

    def __init__(self, bounds: Envelope, cols: int, rows: int):
        if cols < 1 or rows < 1:
            raise ValueError("grid needs at least one column and row")
        self.bounds = bounds
        self.cols = cols
        self.rows = rows
        self._cell_w = bounds.width / cols or 1e-12
        self._cell_h = bounds.height / rows or 1e-12
        self._cells: dict[tuple[int, int], list[tuple[Envelope, object]]] \
            = defaultdict(list)
        self.size = 0

    def _clamp_col(self, lng: float) -> int:
        return min(self.cols - 1,
                   max(0, math.floor((lng - self.bounds.min_lng)
                                     / self._cell_w)))

    def _clamp_row(self, lat: float) -> int:
        return min(self.rows - 1,
                   max(0, math.floor((lat - self.bounds.min_lat)
                                     / self._cell_h)))

    def insert(self, envelope: Envelope, value: object) -> None:
        c1, c2 = self._clamp_col(envelope.min_lng), \
            self._clamp_col(envelope.max_lng)
        r1, r2 = self._clamp_row(envelope.min_lat), \
            self._clamp_row(envelope.max_lat)
        for c in range(c1, c2 + 1):
            for r in range(r1, r2 + 1):
                self._cells[(c, r)].append((envelope, value))
        self.size += 1

    def range_query(self, query: Envelope) -> list[object]:
        """Values whose envelope intersects ``query`` (deduplicated)."""
        self.last_cells_visited = 0
        c1, c2 = self._clamp_col(query.min_lng), \
            self._clamp_col(query.max_lng)
        r1, r2 = self._clamp_row(query.min_lat), \
            self._clamp_row(query.max_lat)
        seen: set[int] = set()
        out: list[object] = []
        for c in range(c1, c2 + 1):
            for r in range(r1, r2 + 1):
                self.last_cells_visited += 1
                for envelope, value in self._cells.get((c, r), ()):
                    if id(value) in seen:
                        continue
                    if envelope.intersects(query):
                        seen.add(id(value))
                        out.append(value)
        return out

    def occupied_cells(self) -> int:
        return sum(1 for items in self._cells.values() if items)

    def memory_bytes(self) -> int:
        replicated = sum(len(v) for v in self._cells.values())
        return replicated * 56 + self.occupied_cells() * 80
