"""k-NN query (Algorithm 1 of the paper).

The spatial range query is the building block: the search space is split
into areas kept in a priority queue ordered by their minimum distance to
the query point; areas are recursively quartered until smaller than the
system parameter ``g`` (1 km x 1 km), at which point a range query fetches
their records.  Expansion stops when the nearest unexplored area is
farther than the current k-th nearest record (Lemma 1, "area pruning").
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.cluster.simclock import SimJob
from repro.curves.strategies import STQuery
from repro.errors import ExecutionError
from repro.geometry.distance import euclidean_distance, km_to_degrees
from repro.geometry.envelope import Envelope

#: Minimum queried area side (the ``g`` of Algorithm 1), in km.
DEFAULT_MIN_CELL_KM = 1.0


@dataclass
class KNNResult:
    """Rows ordered nearest-first plus search diagnostics."""

    rows: list[dict]
    distances: list[float]
    areas_queried: int
    areas_pruned: int


def knn_query(table, lng: float, lat: float, k: int,
              job: SimJob | None = None,
              min_cell_km: float = DEFAULT_MIN_CELL_KM,
              search_area: Envelope | None = None,
              ctx=None) -> KNNResult:
    """Algorithm 1: k nearest records to ``(lng, lat)`` in ``table``.

    Distances are planar (degree-space) Euclidean, as in the paper.
    ``search_area`` defaults to the table's observed data envelope
    (falling back to the world) and bounds the expansion.  ``ctx`` (a
    :class:`repro.resilience.RequestContext`) reaches every area's range
    query, and the deadline is checked once per area.
    """
    if k <= 0:
        raise ExecutionError("k must be positive")
    if search_area is None:
        search_area = table.data_envelope or Envelope.world()
        # Grow slightly so boundary records are not clipped away.
        search_area = search_area.buffer(1e-9, 1e-9)
    g_degrees = km_to_degrees(min_cell_km)

    counter = itertools.count()
    # cq: max-heap of size k over candidate records -> store (-distance, n).
    cq: list[tuple[float, int, dict]] = []
    # aq: min-heap of areas ordered by dA(q, a).
    aq: list[tuple[float, int, Envelope]] = []
    heapq.heappush(aq, (search_area.min_distance_to_point(lng, lat),
                        next(counter), search_area))

    seen_fids: set[str] = set()
    row_count = table.row_count
    areas_queried = 0
    areas_pruned = 0

    def dmax() -> float:
        return -cq[0][0] if len(cq) >= k else float("inf")

    while aq:
        d_area, _n, area = heapq.heappop(aq)
        if (len(cq) == k and d_area > dmax()) \
                or len(seen_fids) >= row_count:
            # Lemma 1: no remaining area can improve the result — or
            # none holds a row not yet seen (an empty table from the
            # start): without a k-th candidate to prune against, the
            # expansion would quarter the whole search area down to g.
            areas_pruned += 1 + len(aq)
            break
        if area.width > g_degrees or area.height > g_degrees:
            for child in area.quadrants():
                heapq.heappush(
                    aq, (child.min_distance_to_point(lng, lat),
                         next(counter), child))
            continue
        if ctx is not None:
            ctx.check("knn")
        areas_queried += 1
        rows = table.query(STQuery(envelope=area), predicate="intersects",
                           job=job, ctx=ctx)
        for row in rows:
            fid = table.schema.fid_of(row)
            if fid in seen_fids:
                continue  # areas share closed boundaries
            seen_fids.add(fid)
            env = table.record_envelope(row)
            distance = euclidean_distance(lng, lat, *env.center)
            if len(cq) < k:
                heapq.heappush(cq, (-distance, next(counter), row))
            elif distance < dmax():
                heapq.heapreplace(cq, (-distance, next(counter), row))

    ordered = sorted(cq, key=lambda item: -item[0])
    return KNNResult(
        rows=[row for _d, _n, row in ordered],
        distances=[-d for d, _n, _row in ordered],
        areas_queried=areas_queried,
        areas_pruned=areas_pruned,
    )
