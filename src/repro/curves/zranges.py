"""Decomposition of query windows into covering Z-value ranges.

A rectangular query window rarely maps to a single contiguous Z range; it is
covered by a set of ranges obtained by walking the implicit quad-tree (2D)
or oct-tree (3D) of curve cells.  Cells fully inside the window contribute
their whole Z interval; boundary cells are split until a range budget is
reached, at which point the remaining cells contribute covering
(over-approximating) intervals.  Over-approximation is safe: the scan layer
post-filters records against the exact predicate.

The budget (``max_ranges``) mirrors GeoMesa's ``maxRangesPerExtendedRange``
and trades seeks for scanned rows: every range costs the store one seek
(and the cost model one per-range charge), every cell that could not be
split any further drags in the rows between the window and the cell's
edge.  ``benchmarks/bench_ablation.py`` (Ablation A2) sweeps it.

**The walk is a contract** (DESIGN §17; ``tests/oracles.py`` holds the
reference walk and ``tests/test_curves_range_kernels.py`` pins this
module to it, range for range):

* breadth-first, one level at a time, so coarse cells are decided first
  and exhausting the budget degrades precision, never correctness;
* the children of a split cell are visited with the *last* dimension
  varying fastest — ``(x, y)``, ``(x, y+1)``, ``(x+1, y)``,
  ``(x+1, y+1)`` — which is not Z order;
* a boundary cell is split only while ``max_ranges - emitted - queued``
  is positive, where *queued* counts every cell not yet visited,
  including children that will turn out to be disjoint from the window;
* nothing is split ``max_recurse`` levels below the window's
  common-prefix cell (the deepest cell containing the whole window).

Which cells the budget is spent on decides the key ranges, the per-range
seek charges and with them every reproduced figure, so none of the four
may change without the figures being regenerated.
"""

from __future__ import annotations

from repro.curves.zorder import interleave2, interleave3

DEFAULT_MAX_RANGES = 256

#: Recursion limits below the query's common-prefix cell, mirroring
#: GeoMesa's bounded range decomposition.  The 3D limit is the reason
#: interleaved space-time curves cannot isolate a thin time slab (or a
#: small spatial window) inside a long period — the paper's Section IV-B
#: motivation for Z2T.  Octree refinement costs 8x per level, so the 3D
#: planner stops much earlier than the 2D one.
DEFAULT_MAX_RECURSE_2D = 16
DEFAULT_MAX_RECURSE_3D = 7


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce overlapping or adjacent inclusive ranges."""
    if not ranges:
        return []
    ranges.sort()
    merged = []
    run_lo, run_hi = ranges[0]
    for lo, hi in ranges:
        if lo > run_hi + 1:
            merged.append((run_lo, run_hi))
            run_lo, run_hi = lo, hi
        elif hi > run_hi:
            run_hi = hi
    merged.append((run_lo, run_hi))
    return merged


def _start_level(bits: int, differing: int, fanout: int,
                 max_ranges: int, max_recurse: int) -> tuple[int, int]:
    """``(first level to walk, depth limit)`` of a decomposition.

    ``differing`` is the OR over dimensions of ``lo ^ hi``: its bit
    length is the number of low bits in which the window's corners
    differ, so ``bits`` minus that is the level of the common-prefix
    cell.  The walk may start there instead of at the root because on
    the way down exactly one cell per level meets the window, nothing
    has been emitted yet and at most ``fanout - 1`` disjoint siblings
    are queued: with ``max_ranges >= fanout`` the budget cannot stop the
    descent, so the root walk reaches the same cell with the same
    (empty) state.  A smaller budget can, so it walks from the root.
    """
    prefix_level = max(0, bits - differing.bit_length())
    depth_limit = min(bits, prefix_level + max_recurse)
    return (prefix_level if max_ranges >= fanout else 0), depth_limit


def z2_ranges(x_lo: int, y_lo: int, x_hi: int, y_hi: int,
              bits: int = 31,
              max_ranges: int = DEFAULT_MAX_RANGES,
              max_recurse: int = DEFAULT_MAX_RECURSE_2D
              ) -> list[tuple[int, int]]:
    """Covering Z2 ranges for an integer cell box (inclusive bounds).

    Returns inclusive ``(z_lo, z_hi)`` ranges, sorted and coalesced,
    whose union covers every cell of the box; bounds are cell indexes in
    ``[0, 2**bits)``.  One level of the quad-tree at a time: ``xs``,
    ``ys`` and ``zs`` hold the cell indexes and Z prefixes of the cells
    queued at the current level, the ``n*`` lists their children.
    """
    level, depth_limit = _start_level(
        bits, (x_lo ^ x_hi) | (y_lo ^ y_hi), 4, max_ranges, max_recurse)
    shift = bits - level
    xs, ys = [x_lo >> shift], [y_lo >> shift]
    zs = [interleave2(xs[0], ys[0])]
    ranges: list[tuple[int, int]] = []
    emit = ranges.append
    while zs:
        # Index intervals, at this level, of the cells that meet the
        # window (in_*) and of those that lie inside it (all_*).
        fill = (1 << shift) - 1
        in_x_lo, in_x_hi = x_lo >> shift, x_hi >> shift
        in_y_lo, in_y_hi = y_lo >> shift, y_hi >> shift
        all_x_lo, all_x_hi = (x_lo + fill) >> shift, \
            ((x_hi + 1) >> shift) - 1
        all_y_lo, all_y_hi = (y_lo + fill) >> shift, \
            ((y_hi + 1) >> shift) - 1
        at_limit = level >= depth_limit
        z_shift = 2 * shift
        z_fill = (1 << z_shift) - 1
        nxs: list[int] = []
        nys: list[int] = []
        nzs: list[int] = []
        behind = len(zs)  # cells of this level still queued
        for x, y, z in zip(xs, ys, zs):
            behind -= 1
            if x < in_x_lo or x > in_x_hi or y < in_y_lo or y > in_y_hi:
                continue
            if at_limit \
                    or (all_x_lo <= x <= all_x_hi
                        and all_y_lo <= y <= all_y_hi) \
                    or max_ranges - len(ranges) - behind - len(nzs) <= 0:
                z <<= z_shift
                emit((z, z | z_fill))
                continue
            x += x
            y += y
            z <<= 2
            nxs += (x, x, x + 1, x + 1)
            nys += (y, y + 1, y, y + 1)
            nzs += (z, z | 2, z | 1, z | 3)
        xs, ys, zs = nxs, nys, nzs
        level += 1
        shift -= 1
    return _merge_ranges(ranges)


def z3_ranges(x_lo: int, y_lo: int, t_lo: int,
              x_hi: int, y_hi: int, t_hi: int,
              bits: int = 21,
              max_ranges: int = DEFAULT_MAX_RANGES,
              max_recurse: int = DEFAULT_MAX_RECURSE_3D
              ) -> list[tuple[int, int]]:
    """Covering Z3 ranges for an integer cell cube (inclusive bounds).

    The oct-tree twin of :func:`z2_ranges`, unrolled over three
    dimensions for the same reason (DESIGN §17: a per-dimension inner
    loop doubles the cost of a decomposition).
    """
    level, depth_limit = _start_level(
        bits, (x_lo ^ x_hi) | (y_lo ^ y_hi) | (t_lo ^ t_hi), 8,
        max_ranges, max_recurse)
    shift = bits - level
    xs, ys, ts = [x_lo >> shift], [y_lo >> shift], [t_lo >> shift]
    zs = [interleave3(xs[0], ys[0], ts[0])]
    ranges: list[tuple[int, int]] = []
    emit = ranges.append
    while zs:
        fill = (1 << shift) - 1
        in_x_lo, in_x_hi = x_lo >> shift, x_hi >> shift
        in_y_lo, in_y_hi = y_lo >> shift, y_hi >> shift
        in_t_lo, in_t_hi = t_lo >> shift, t_hi >> shift
        all_x_lo, all_x_hi = (x_lo + fill) >> shift, \
            ((x_hi + 1) >> shift) - 1
        all_y_lo, all_y_hi = (y_lo + fill) >> shift, \
            ((y_hi + 1) >> shift) - 1
        all_t_lo, all_t_hi = (t_lo + fill) >> shift, \
            ((t_hi + 1) >> shift) - 1
        at_limit = level >= depth_limit
        z_shift = 3 * shift
        z_fill = (1 << z_shift) - 1
        nxs: list[int] = []
        nys: list[int] = []
        nts: list[int] = []
        nzs: list[int] = []
        behind = len(zs)
        for x, y, t, z in zip(xs, ys, ts, zs):
            behind -= 1
            if x < in_x_lo or x > in_x_hi or y < in_y_lo or y > in_y_hi \
                    or t < in_t_lo or t > in_t_hi:
                continue
            if at_limit \
                    or (all_x_lo <= x <= all_x_hi
                        and all_y_lo <= y <= all_y_hi
                        and all_t_lo <= t <= all_t_hi) \
                    or max_ranges - len(ranges) - behind - len(nzs) <= 0:
                z <<= z_shift
                emit((z, z | z_fill))
                continue
            x += x
            y += y
            t += t
            z <<= 3
            nxs += (x, x, x, x, x + 1, x + 1, x + 1, x + 1)
            nys += (y, y, y + 1, y + 1, y, y, y + 1, y + 1)
            nts += (t, t + 1, t, t + 1, t, t + 1, t, t + 1)
            nzs += (z, z | 4, z | 2, z | 6, z | 1, z | 5, z | 3, z | 7)
        xs, ys, ts, zs = nxs, nys, nts, nzs
        level += 1
        shift -= 1
    return _merge_ranges(ranges)
