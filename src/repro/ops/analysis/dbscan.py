"""DBSCAN spatial clustering (``st_DBSCAN``), an N-M operation.

Density-based clustering (Ester et al., KDD 1996) over 2D coordinates.
Neighbourhood lookups use a uniform grid of cell size ``radius`` so the
whole run is O(n) for typical urban densities instead of O(n^2).

Distances are planar degree-space distances, matching the engine's
Euclidean k-NN; pass a radius in degrees (``km_to_degrees`` helps).
"""

from __future__ import annotations

import math
from collections import defaultdict, deque

NOISE = -1


def dbscan(points: list[tuple[float, float]], min_pts: int,
           radius: float) -> list[int]:
    """Cluster ``(lng, lat)`` points; returns a label per input point.

    Labels are 0..k-1 for cluster members and :data:`NOISE` (-1) for noise
    points.  ``min_pts`` counts the point itself, as in the original paper.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    n = len(points)
    labels = [None] * n

    grid: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i, (x, y) in enumerate(points):
        grid[(math.floor(x / radius), math.floor(y / radius))].append(i)

    r2 = radius * radius

    def neighbours(i: int) -> list[int]:
        x, y = points[i]
        cx, cy = math.floor(x / radius), math.floor(y / radius)
        out = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in grid.get((gx, gy), ()):
                    dx = points[j][0] - x
                    dy = points[j][1] - y
                    if dx * dx + dy * dy <= r2:
                        out.append(j)
        return out

    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        seed_neighbours = neighbours(i)
        if len(seed_neighbours) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = deque(seed_neighbours)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point reached by a core point
            if labels[j] is not None:
                continue
            labels[j] = cluster
            j_neighbours = neighbours(j)
            if len(j_neighbours) >= min_pts:
                queue.extend(j_neighbours)
        cluster += 1
    return labels
