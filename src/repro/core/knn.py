"""k-NN query (Algorithm 1 of the paper).

The spatial range query is the building block: the search space is split
into areas kept in a priority queue ordered by their minimum distance to
the query point; areas are recursively quartered until smaller than the
system parameter ``g`` (1 km x 1 km), at which point a range query fetches
their records.  Expansion stops when the nearest unexplored area is
farther than the current k-th nearest record (Lemma 1, "area pruning").

The areas are the cells of the curve's own quadtree (the Z2 grid, which
XZ2 shares), so an area is a key prefix rather than a box the range
planner has to decompose: a Z2 leaf is one key range per shard, an XZ2
leaf one code range per shard (:meth:`IndexStrategy.cell_ranges`).  The
root is the deepest cell holding the search area and the data envelope;
a child that misses the search area is dropped.  A record's distance is
the distance to its MBR centre, and only records centred in the search
area are answers.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from repro.cluster.simclock import SimJob
from repro.core.query import choose_strategy
from repro.curves.strategies import STQuery
from repro.curves.zorder import Z2Curve
from repro.errors import ExecutionError
from repro.geometry.distance import km_to_degrees
from repro.geometry.envelope import Envelope

#: Minimum queried area side (the ``g`` of Algorithm 1), in km.
DEFAULT_MIN_CELL_KM = 1.0

_GRID = Z2Curve()
_BITS = Z2Curve.BITS_PER_DIM
#: One finest Z2 cell, in degrees: the padding that keeps a node's
#: distance a lower bound where float cell edges and the integer cells
#: records are filed in disagree.
_TICK_LNG = 360.0 / (1 << _BITS)
_TICK_LAT = 180.0 / (1 << _BITS)


@dataclass
class KNNResult:
    """Rows ordered nearest-first plus search diagnostics."""

    rows: list[dict]
    distances: list[float]
    areas_queried: int
    areas_pruned: int


def _leaf_level(g_degrees: float) -> int:
    """The coarsest level whose cells are at most ``g`` on both sides
    (a cell is twice as wide in degrees of longitude as it is tall)."""
    level = 0
    while level < _BITS and 360.0 / (1 << level) > g_degrees:
        level += 1
    return level


def _root(area: Envelope, depth: int) -> tuple[int, int, int]:
    """``(level, ix, iy)`` of the deepest cell, at most ``depth``,
    holding ``area`` (the common-prefix cell of its corners)."""
    x_lo, y_lo, x_hi, y_hi = _GRID.cell_of(area)
    differing = (x_lo ^ x_hi) | (y_lo ^ y_hi)
    level = min(depth, _BITS - differing.bit_length())
    shift = _BITS - level
    return level, x_lo >> shift, y_lo >> shift


def knn_query(table, lng: float, lat: float, k: int,
              job: SimJob | None = None,
              min_cell_km: float = DEFAULT_MIN_CELL_KM,
              search_area: Envelope | None = None,
              ctx=None) -> KNNResult:
    """Algorithm 1: k nearest records to ``(lng, lat)`` in ``table``.

    Distances are planar (degree-space) Euclidean, as in the paper, to
    each record's MBR centre.  ``search_area`` defaults to the table's
    observed data envelope (falling back to the world) and bounds the
    answer.  ``ctx`` (a :class:`repro.resilience.RequestContext`)
    reaches every area's range scan, and the deadline is checked once
    per area.
    """
    if k <= 0:
        raise ExecutionError("k must be positive")
    data = table.data_envelope
    if search_area is None:
        search_area = data or Envelope.world()
        # Grow slightly so boundary records are not clipped away.
        search_area = search_area.buffer(1e-9, 1e-9)
    row_count = table.row_count
    if row_count <= 0:
        # Nothing to find: the whole search area is pruned at once.
        return KNNResult([], [], 0, 1)
    name = choose_strategy(table, STQuery(envelope=search_area))[0]
    strategy = table.strategies[name]
    time_extent = table.time_extent
    leaf_level = min(_leaf_level(km_to_degrees(min_cell_km)),
                     strategy.cell_depth)
    reach = 1 + strategy.cell_reach
    exact = strategy.cell_exact
    s_min_x, s_min_y, s_max_x, s_max_y = search_area.as_tuple()
    record_envelope = table.record_envelope

    counter = itertools.count()
    # cq: max-heap of size k over candidate records -> store (-distance, n).
    cq: list[tuple[float, int, dict]] = []
    # aq: min-heap of cells (level, ix, iy) ordered by dA(q, cell).
    aq: list[tuple[float, int, int, int, int]] = []

    def push(level: int, ix: int, iy: int) -> None:
        """Queue a cell by the distance to its reach, clipped to the
        search area; a cell that misses the search area is dropped."""
        width = 360.0 / (1 << level)
        height = 180.0 / (1 << level)
        x0 = max(s_min_x, -180.0 + ix * width - _TICK_LNG)
        x1 = min(s_max_x, -180.0 + (ix + reach) * width + _TICK_LNG)
        y0 = max(s_min_y, -90.0 + iy * height - _TICK_LAT)
        y1 = min(s_max_y, -90.0 + (iy + reach) * height + _TICK_LAT)
        if x0 > x1 or y0 > y1:
            return
        distance = math.hypot(max(x0 - lng, 0.0, lng - x1),
                              max(y0 - lat, 0.0, lat - y1))
        heapq.heappush(aq, (distance, next(counter), level, ix, iy))

    # Every stored MBR lies in the data envelope, so every record is
    # filed in the root, below it or (XZ2's large objects) above it;
    # those above are scanned with the root.
    root = _root(search_area.expand(data), strategy.cell_depth)
    above = [bounds for up in range(root[0], 0, -1)
             for bounds in strategy.cell_ranges(
                 root[0] - up, root[1] >> up, root[2] >> up, False,
                 time_extent)]
    push(*root)
    seen = 0  # rows of the table examined, each in its own cell
    areas_queried = 0
    areas_pruned = 0

    while aq:
        d_area, _n, level, ix, iy = heapq.heappop(aq)
        if (len(cq) == k and d_area > -cq[0][0]) or seen >= row_count:
            # Lemma 1: no remaining area can improve the result — or
            # none holds a row not yet seen: without a k-th candidate to
            # prune against, the walk would visit every leaf.
            areas_pruned += 1 + len(aq)
            break
        leaf = level >= leaf_level
        ranges = strategy.cell_ranges(level, ix, iy, leaf, time_extent)
        if above:
            ranges, above = sorted(above + ranges), None
        if ranges:
            if ctx is not None:
                ctx.check("knn")
            areas_queried += 1
            shift = _BITS - level
            for rows in table.index_chunks(name, ranges, job, ctx):
                for row in rows:
                    cx, cy = record_envelope(row).center
                    if not exact and (
                            _GRID.lng_dim.normalize(cx) >> shift != ix
                            or _GRID.lat_dim.normalize(cy) >> shift != iy):
                        continue  # centred in another cell
                    seen += 1
                    if not (s_min_x <= cx <= s_max_x
                            and s_min_y <= cy <= s_max_y):
                        continue
                    distance = math.hypot(lng - cx, lat - cy)
                    if len(cq) < k:
                        heapq.heappush(cq, (-distance, next(counter), row))
                    elif distance < -cq[0][0]:
                        heapq.heapreplace(cq,
                                          (-distance, next(counter), row))
        if not leaf:
            ix += ix
            iy += iy
            level += 1
            push(level, ix, iy)
            push(level, ix + 1, iy)
            push(level, ix, iy + 1)
            push(level, ix + 1, iy + 1)

    ordered = sorted(cq, key=lambda item: -item[0])
    return KNNResult(
        rows=[table.decorate_row(row) for _d, _n, row in ordered],
        distances=[-d for d, _n, _row in ordered],
        areas_queried=areas_queried,
        areas_pruned=areas_pruned,
    )
