"""Independent reference implementations the engine is checked against.

Nothing here shares code with ``repro``: an oracle that called the code
under test would agree with its bugs.  (ROADMAP item 6 lifts the
brute-force references of ``benchmarks/perf/workloads.py`` here; the
benchmark keeps its own copies, tests never import from ``benchmarks/``.)
"""

from __future__ import annotations


def segment_meets_box(x1, y1, x2, y2, box) -> bool:
    """Liang–Barsky clip of a segment against a closed rectangle."""
    min_x, min_y, max_x, max_y = box
    dx, dy = x2 - x1, y2 - y1
    enter, leave = 0.0, 1.0
    for p, q in ((-dx, x1 - min_x), (dx, max_x - x1),
                 (-dy, y1 - min_y), (dy, max_y - y1)):
        if p == 0:
            if q < 0:
                return False
            continue
        t = q / p
        if p < 0:
            enter = max(enter, t)
        else:
            leave = min(leave, t)
        if enter > leave:
            return False
    return True


def polyline_meets_box(xy, box) -> bool:
    """Does any segment of the polyline ``xy`` touch the closed ``box``?"""
    return any(segment_meets_box(x1, y1, x2, y2, box)
               for (x1, y1), (x2, y2) in zip(xy, xy[1:]))
