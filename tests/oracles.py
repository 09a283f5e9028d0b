"""Independent reference implementations the engine is checked against.

Nothing here shares logic with ``repro``: an oracle that called the code
under test would agree with its bugs.  Two exceptions, on purpose:
``ReferenceParser`` inherits the JustQL parser's statement-level code
(it checks the lexer and the expression grammar only), and
``decode_row_reference`` decodes each value with the codec's own
per-type decoders (it checks the row walk only).  (ROADMAP item 6 lifts the
brute-force references of ``benchmarks/perf/workloads.py`` here; the
benchmark keeps its own copies, tests never import from ``benchmarks/``.)
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import chain, product
from math import ceil, floor, fmod, hypot

from repro.errors import (
    ExecutionError,
    ParseError,
    RegionUnavailableError,
)
from repro.kvstore.scan import ScanSpec
from repro.sql.ast import (
    Aliased,
    Between,
    BinaryOp,
    Column,
    Expr,
    FuncCall,
    InFunc,
    IsNull,
    Literal,
    Star,
    UnaryOp,
)
from repro.sql.functions import (
    SCALAR_FUNCTIONS,
    SET_FUNCTIONS,
    lookup_scalar,
)
from repro.sql.lexer import KEYWORDS, Token
from repro.sql.parser import _Parser


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


def _orient_reference(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment_reference(a, b, c) -> bool:
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def _segments_cross_reference(p1, p2, p3, p4) -> bool:
    o1, o2 = _orient_reference(p1, p2, p3), _orient_reference(p1, p2, p4)
    o3, o4 = _orient_reference(p3, p4, p1), _orient_reference(p3, p4, p2)
    return (o1 != o2 and o3 != o4) \
        or (o1 == 0 and _on_segment_reference(p1, p2, p3)) \
        or (o2 == 0 and _on_segment_reference(p1, p2, p4)) \
        or (o3 == 0 and _on_segment_reference(p3, p4, p1)) \
        or (o4 == 0 and _on_segment_reference(p3, p4, p2))


def linestring_meets_box_reference(xy, box) -> bool:
    """The float polyline∩box test a trajectory's exact filter ran
    before it moved to 1e-6 degree ticks: MBR, then every vertex, then
    the four orientation tests per segment whose own box meets ``box``.
    ``xy`` holds two or more ``(lng, lat)`` floats."""
    min_x, min_y, max_x, max_y = box
    xs, ys = [x for x, _ in xy], [y for _, y in xy]
    if min(xs) > max_x or max(xs) < min_x or min(ys) > max_y \
            or max(ys) < min_y:
        return False
    if any(min_x <= x <= max_x and min_y <= y <= max_y for x, y in xy):
        return True
    corners = [(min_x, min_y), (max_x, min_y), (max_x, max_y),
               (min_x, max_y)]
    edges = list(zip(corners, corners[1:] + corners[:1]))
    for a, b in zip(xy, xy[1:]):
        if (a[0] < min_x and b[0] < min_x) or \
                (a[0] > max_x and b[0] > max_x) or \
                (a[1] < min_y and b[1] < min_y) or \
                (a[1] > max_y and b[1] > max_y):
            continue
        if any(_segments_cross_reference(a, b, c, d) for c, d in edges):
            return True
    return False


def knn_reference(records, lng, lat, k, area=None):
    """Brute-force k-NN by the engine's distance: to each record's MBR
    centre.  ``records`` are ``(fid, (min_x, min_y, max_x, max_y))``;
    only records centred in the closed box ``area`` (``None``: anywhere)
    are answers.  Returns the ``k`` nearest ``(distance, fid)`` pairs,
    nearest first (equidistant records by fid)."""
    ranked = []
    for fid, (min_x, min_y, max_x, max_y) in records:
        cx, cy = (min_x + max_x) / 2.0, (min_y + max_y) / 2.0
        if area is None or (area[0] <= cx <= area[2]
                            and area[1] <= cy <= area[3]):
            ranked.append((hypot(lng - cx, lat - cy), fid))
    ranked.sort()
    return ranked[:k]


# -- range planning: the reference walks --------------------------------------
#
# The walks ``curves/zranges.py`` and ``curves/xz.py`` shipped until the
# integer kernels replaced them, kept verbatim as the definition of
# "which ranges come out": breadth-first from the root, children in
# ``product((0, 1), repeat=dims)`` order (Z) / quadrant-number order
# (XZ), budget = ``max_ranges - emitted - still queued`` with disjoint
# cells counted while queued, refinement ``max_recurse`` levels below
# the common-prefix cell (Z) / down to level ``g`` (XZ).

def merge_ranges(ranges):
    """Sort and coalesce overlapping or adjacent inclusive ranges."""
    if not ranges:
        return []
    ranges.sort()
    merged = [ranges[0]]
    for lo, hi in ranges[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def interleave(coords, bits):
    """Bit-by-bit Morton code; dimension 0 occupies the lowest bit."""
    dims = len(coords)
    z = 0
    for bit in range(bits):
        for d, c in enumerate(coords):
            z |= ((c >> bit) & 1) << (bit * dims + d)
    return z


def _common_prefix_level(bits, q_lo, q_hi):
    """Deepest level at which one cell still contains the whole query."""
    level = 0
    while level < bits:
        shift = bits - level - 1
        if any((lo >> shift) != (hi >> shift)
               for lo, hi in zip(q_lo, q_hi)):
            return level
        level += 1
    return bits


def z_ranges_reference(bits, q_lo, q_hi, max_ranges, max_recurse):
    """Covering Z ranges of the inclusive cell box ``q_lo``..``q_hi``."""
    dims = len(q_lo)
    depth_limit = min(bits,
                      _common_prefix_level(bits, q_lo, q_hi) + max_recurse)
    child_offsets = list(product((0, 1), repeat=dims))

    ranges = []
    # Breadth-first over (level, coords); coarse cells are decided first so
    # that exhausting the budget degrades precision, not correctness.
    queue = deque()
    queue.append((0, tuple(0 for _ in range(dims))))

    def cell_range(level, coords):
        shift = dims * (bits - level)
        z_lo = interleave(coords, bits) << shift
        return z_lo, z_lo + (1 << shift) - 1

    while queue:
        level, coords = queue.popleft()
        shift = bits - level
        lo = tuple(c << shift for c in coords)
        hi = tuple(((c + 1) << shift) - 1 for c in coords)
        disjoint = any(lo[d] > q_hi[d] or hi[d] < q_lo[d]
                       for d in range(dims))
        if disjoint:
            continue
        contained = all(lo[d] >= q_lo[d] and hi[d] <= q_hi[d]
                        for d in range(dims))
        budget_left = max_ranges - len(ranges) - len(queue)
        if contained or level >= depth_limit or budget_left <= 0:
            ranges.append(cell_range(level, coords))
            continue
        for offsets in child_offsets:
            child = tuple(c * 2 + o for c, o in zip(coords, offsets))
            queue.append((level + 1, child))

    return merge_ranges(ranges)


def xz_ranges_reference(g, q_lo, q_hi, max_ranges):
    """Covering XZ sequence-code ranges of a normalized query box.

    ``q_lo``/``q_hi`` are per-dimension floats in the unit cube (2 for
    XZ2, 3 for XZ3); ``g`` is the curve's resolution.
    """
    dims = len(q_lo)
    fanout = 1 << dims

    def subtree_size(level):
        return (fanout ** (g - level + 1) - 1) // (fanout - 1)

    def child_step(level):
        return (fanout ** (g - level) - 1) // (fanout - 1)

    ranges = []
    # queue entries: (level, cell lower corner per dim, cell code)
    queue = deque()
    queue.append((0, [0.0] * dims, 0))

    while queue:
        level, lo, cs = queue.popleft()
        width = 0.5 ** level
        ext_hi = [lo[d] + 2.0 * width for d in range(dims)]
        intersects = all(lo[d] <= q_hi[d] and ext_hi[d] >= q_lo[d]
                         for d in range(dims))
        if not intersects:
            continue
        contained = all(lo[d] >= q_lo[d] and ext_hi[d] <= q_hi[d]
                        for d in range(dims))
        budget_left = max_ranges - len(ranges) - len(queue)
        if contained or level == g or budget_left <= 0:
            ranges.append((cs, cs + subtree_size(level) - 1))
            continue
        # The element stored exactly at this cell may intersect the
        # query even when no single child subtree fully covers it.
        ranges.append((cs, cs))
        step = child_step(level)
        child_width = width / 2.0
        for quadrant in range(fanout):
            child_lo = [lo[d] + (child_width if quadrant & (1 << d)
                                 else 0.0)
                        for d in range(dims)]
            queue.append((level + 1, child_lo, cs + 1 + quadrant * step))

    return merge_ranges(ranges)


# -- XZ2 key bodies: the element of a code, the signature of an MBR ------------
#
# In exact rationals, from the definitions: a sequence code is a path of
# quadrant digits (a cell's code is its parent's plus one plus the
# quadrant number times the size of a child subtree); the signature is
# the MBR measured from the cell's lower-left corner in 1/256ths of the
# doubled cell, lower corners rounded down and upper ones up, a byte each.

def xz2_element_reference(g, code):
    """``(level, x, y)``: the cell a code names, its lower-left corner
    as :class:`~fractions.Fraction` in the unit square."""
    level, x, y = 0, Fraction(0), Fraction(0)
    while code:
        code -= 1
        child_subtree = (4 ** (g - level) - 1) // 3
        quadrant, code = divmod(code, child_subtree)
        level += 1
        x += Fraction(quadrant & 1, 2 ** level)
        y += Fraction(quadrant >> 1, 2 ** level)
    return level, x, y


def xz2_signature_reference(g, code, mins, maxs):
    """``(min_x, min_y, max_x, max_y)`` bytes of the normalized MBR
    ``mins``/``maxs`` inside the element of ``code``.

    ``max`` bytes hold the index of the last 1/256 the MBR reaches, so
    the box they spell out ends at ``max + 1``; every byte saturates.
    """
    level, x, y = xz2_element_reference(g, code)
    unit = Fraction(2, 2 ** level) / 256
    def byte(value):
        return min(255, max(0, value))
    return (byte(floor((Fraction(mins[0]) - x) / unit)),
            byte(floor((Fraction(mins[1]) - y) / unit)),
            byte(ceil((Fraction(maxs[0]) - x) / unit) - 1),
            byte(ceil((Fraction(maxs[1]) - y) / unit) - 1))


# -- multi-range scans: the reference forward walk ----------------------------
#
# The per-range walk ``SSTable.scan`` and ``MemStore.scan`` shipped until
# the leapfrog seek (``kvstore/scan.py::seek_spans``) replaced it, kept
# as the definition of what one sorted source yields for a range list
# and in which order it charges blocks: every range in turn, each
# bisecting from where the previous one ended — two bisects per range,
# whether it holds a key or not.  It reads the source's sorted lists
# and charges through the run's own ``_charge_block`` (the accounting
# primitive, not the walk under test), and ``scan_ranges_reference`` is
# the Python check ``ScanSpec`` ran on the same lists.

def sstable_scan_reference(sstable, ranges, cache=None, server=0):
    """``SSTable.scan``: entries of ``ranges``, blocks charged lazily,
    each once per pass, as the walk first reaches them."""
    keys = sstable._keys
    values = sstable._values
    starts = sstable._block_starts
    size = len(keys)
    hi = 0
    charged = -1
    for start, stop in ranges:
        lo = bisect_left(keys, start, hi)
        if lo >= size:
            return
        hi = size if stop is None else bisect_left(keys, stop, lo)
        if lo >= hi:
            continue
        block = bisect_right(starts, lo) - 1
        while lo < hi:
            block_end = starts[block + 1] if block + 1 < len(starts) \
                else size
            if block != charged:
                sstable._charge_block(block, cache, server)
                charged = block
            for j in range(lo, min(hi, block_end)):
                yield keys[j], values[j]
            lo = block_end
            block += 1


def memstore_scan_reference(memstore, ranges):
    """``MemStore.scan``: ``(key, value_or_tombstone)`` of ``ranges``."""
    keys = memstore._sorted_keys
    data = memstore._data
    hi = 0
    for start, stop in ranges:
        lo = bisect_left(keys, start, hi)
        hi = len(keys) if stop is None else bisect_left(keys, stop, lo)
        for i in range(lo, hi):
            key = keys[i]
            yield key, data[key]


# -- region scans: the reference heap merge -----------------------------------
#
# The entry-at-a-time merge ``Region.scan`` shipped until the run merge
# (``kvstore/merge.py::RunMerge``) replaced it, kept as the definition
# of what a region scan yields and when each source reads: one
# ``heapq.merge`` over one ``(key, rank, value)`` stream per source
# (runs oldest first, then the memstore; rank 0 is the memstore and
# ranks count up from the newest run), newest version first, the
# deadline checked every 128th merged entry.  ``table_scan_reference``
# is ``KVTable.scan``/``scan_batches`` over it, the store loop of the
# same release (routing, key filter, per-entry or per-list result
# bytes); the store's ``limit`` it also honoured is gone.

def region_scan_reference(region, ranges, cache=None, ctx=None,
                          replica=None):
    """``Region.scan``: live ``(key, value)`` pairs of ``ranges``."""
    memstore = region.memstore if replica is None else replica.memstore
    server = region.server if replica is None else replica.server
    stats = region._stats

    def run_stream(sstable, rank):
        for key, value in sstable_scan_reference(sstable, ranges, cache,
                                                 server):
            yield key, rank, value

    def memstore_stream():
        for key, value in memstore_scan_reference(memstore, ranges):
            stats.record_memstore_read(
                len(key) + (len(value) if value is not None else 0))
            yield key, 0, value

    newest = len(region.sstables)
    streams = [run_stream(sstable, newest - i)
               for i, sstable in enumerate(region.sstables)]
    streams.append(memstore_stream())
    previous = None
    processed = 0
    for key, _rank, value in heapq.merge(*streams):
        processed += 1
        if ctx is not None and processed % 128 == 0:
            ctx.check(f"region {region.region_id} scan")
        if key == previous:
            continue  # an older version masked by a newer write
        previous = key
        if value is not None:  # tombstones yield nothing
            yield key, value


def _region_streams_reference(table, spec, ctx):
    """One stream of accepted pairs per region visit, in key order."""
    store = table._store
    stats = table._stats
    for region, ranges in table._regions_overlapping(spec.ranges):
        if ctx is not None:
            ctx.check(f"scan of {table.name!r}")
        try:
            replica = store.route_read(table.name, region, "scan", ctx)
        except RegionUnavailableError as exc:
            if ctx is not None and ctx.partial_results:
                ctx.record_skip(table.name, region.region_id,
                                region.server, str(exc))
                continue
            raise
        server = region.server if replica is None else replica.server
        region.record_read()
        yield _accepted_reference(
            region_scan_reference(region, ranges, store.cache_for(server),
                                  ctx, replica), spec.key_filter, stats)


def _accepted_reference(pairs, key_filter, stats):
    for key, value in pairs:
        if key_filter is None or key_filter(key):
            yield key, value
        else:
            stats.record_key_rejected()


def table_scan_reference(table, spec, ctx=None, batched=False):
    """``KVTable.scan`` (pairs) or ``scan_batches`` (region-local lists
    of at most 256 pairs) of ``spec`` on an unsalted table."""
    table._store.tick_faults("scan")
    stats = table._stats
    stats.record_scan()
    streams = _region_streams_reference(table, spec, ctx)
    if not batched:
        for key, value in chain.from_iterable(streams):
            stats.record_result(len(key) + len(value))
            yield key, value
        return
    for pairs in streams:
        for batch in _chunks_reference(pairs):
            stats.record_result(sum(len(key) + len(value)
                                    for key, value in batch))
            yield batch


def _chunks_reference(pairs, size=256):
    batch = []
    for pair in pairs:
        batch.append(pair)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def range_chunks_reference(table, kv_table, ranges, job, ctx, wanted=None,
                           key_filter=None):
    """``CommonTable._range_chunks`` as the pair path composed it: the
    pair walk of one multi-range scan, cut into 256-pair chunks across
    region boundaries, each pair decoded by ``decode_row``.  It charges
    through the table's own ``_decoded`` (the accounting primitive, not
    the path under test), which takes each chunk as its keys and its
    payloads."""
    pairs = table_scan_reference(
        kv_table, ScanSpec(ranges=ranges, key_filter=key_filter), ctx)
    decode = table.codec.decode_row
    chunks = (([key for key, _ in chunk], [value for _, value in chunk])
              for chunk in _chunks_reference(pairs))
    return table._decoded(
        chunks, len(ranges), job,
        lambda payloads: [decode(payload, wanted) for payload in payloads])


def scan_ranges_reference(ranges):
    """``ScanSpec.ranges`` of a range list: empty ranges dropped, then
    ``ValueError`` unless the rest are sorted and pairwise disjoint."""
    kept = tuple((start, stop) for start, stop in ranges
                 if stop is None or start < stop)
    for (_, stop), (start, _) in zip(kept, kept[1:]):
        if stop is None or start < stop:
            raise ValueError("scan ranges must be sorted and disjoint: "
                             f"{start!r} follows one ending at {stop!r}")
    return kept


# -- expression evaluation: the reference row walk ----------------------------
#
# The row-at-a-time evaluator ``sql/expressions.py`` shipped until the
# batch evaluator became the only one, kept verbatim as the definition
# of JustQL value semantics (three-valued logic, NULL propagation,
# short-circuit AND/OR, division by zero -> NULL).  It reads the AST
# and the function registry (data, not evaluation logic) from ``repro``
# and lets builtin exceptions escape as they are: a row "raises" when
# any exception comes out.  Two edits since: ``%`` in LIKE spans
# newlines (``re.DOTALL``), the bug fixed in the same change, and the
# ``%`` operator takes the dividend's sign, as Spark SQL's does.

def eval_expr_reference(expr: Expr, row: dict,
                        extra_functions: dict | None = None):
    """Evaluate an expression against one row (dict of column values)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        if expr.name not in row:
            raise ExecutionError(f"unknown column {expr.name!r}")
        return row[expr.name]
    if isinstance(expr, Aliased):
        return eval_expr_reference(expr.expr, row, extra_functions)
    if isinstance(expr, UnaryOp):
        value = eval_expr_reference(expr.operand, row, extra_functions)
        if expr.op == "-":
            return None if value is None else -value
        if expr.op == "not":
            return None if value is None else not _truthy(value)
        raise ExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Between):
        value = eval_expr_reference(expr.operand, row, extra_functions)
        low = eval_expr_reference(expr.low, row, extra_functions)
        high = eval_expr_reference(expr.high, row, extra_functions)
        if value is None or low is None or high is None:
            return None
        return low <= value <= high
    if isinstance(expr, IsNull):
        value = eval_expr_reference(expr.operand, row, extra_functions)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, row, extra_functions)
    if isinstance(expr, FuncCall):
        if extra_functions and expr.name in extra_functions:
            fn = extra_functions[expr.name]
        elif expr.name in SET_FUNCTIONS:
            raise ExecutionError(
                f"{expr.name} produces multiple rows; use it as the "
                f"projection of a SELECT")
        else:
            fn = lookup_scalar(expr.name)
        args = [eval_expr_reference(a, row, extra_functions)
                for a in expr.args]
        return fn(*args)
    if isinstance(expr, InFunc):
        raise ExecutionError(
            f"{expr.func.name} membership must be served by the planner")
    if isinstance(expr, Star):
        raise ExecutionError("'*' is not a value expression")
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _truthy(value) -> bool:
    return bool(value)


def _eval_binary(expr: BinaryOp, row: dict, extra_functions):
    op = expr.op
    if op == "and":
        left = eval_expr_reference(expr.left, row, extra_functions)
        if left is not None and not _truthy(left):
            return False
        right = eval_expr_reference(expr.right, row, extra_functions)
        if right is not None and not _truthy(right):
            return False
        if left is None or right is None:
            return None
        return True
    if op == "or":
        left = eval_expr_reference(expr.left, row, extra_functions)
        if left is not None and _truthy(left):
            return True
        right = eval_expr_reference(expr.right, row, extra_functions)
        if right is not None and _truthy(right):
            return True
        if left is None or right is None:
            return None
        return False
    left = eval_expr_reference(expr.left, row, extra_functions)
    right = eval_expr_reference(expr.right, row, extra_functions)
    if op == "within":
        return SCALAR_FUNCTIONS["st_within"](left, right)
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        quotient = left / right
        return quotient
    if op == "%":
        if right == 0:
            return None
        if isinstance(left, int) and isinstance(right, int):
            # Truncated division: the quotient rounds toward zero.
            quotient = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                quotient = -quotient
            return left - right * quotient
        return fmod(left, right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    if op == "like":
        return _like(str(left), str(right))
    raise ExecutionError(f"unknown operator {op!r}")


def _like(value: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, re.DOTALL) is not None


# -- monitoring: the reference series walk and histogram sort -----------------
#
# What ``observability/history.py`` and ``Histogram`` shipped until the
# monitor tick stopped growing with uptime, kept as the definition of
# a window query and of a quantile.  A series is a list of tiers, each
# the newest ``capacity`` of every ``stride``-th ``(ts, value)`` point;
# a window is found by walking the chosen tier, ``increase`` walks the
# adjacent pairs, and a quantile re-sorts the whole retained buffer.

def increase_reference(points) -> float:
    """Total counter growth across ``points``, reset-aware: a drop
    between adjacent samples counts the post-reset value as growth."""
    total = 0.0
    for (_, prev), (_, cur) in zip(points, points[1:]):
        delta = cur - prev
        total += delta if delta >= 0 else cur
    return total


def rate_per_s_reference(points) -> float:
    """Reset-aware per-second rate over ``points`` (0 if degenerate)."""
    if len(points) < 2:
        return 0.0
    elapsed_ms = points[-1][0] - points[0][0]
    if elapsed_ms <= 0:
        return 0.0
    return increase_reference(points) / (elapsed_ms / 1000.0)


def retained(series, tier: int) -> list[tuple[float, float]]:
    """A ``Series``' retained ``(ts, value)`` points in one tier."""
    ring = series.rings[tier]
    return list(zip(ring.ts[ring.first:], ring.values[ring.first:]))


def window_points(series, start_ms=None, end_ms=None, baseline=False):
    """The ``(ts, value)`` points a ``Series`` window query reads."""
    ring, lo, hi = series._span(start_ms, end_ms, baseline)
    return [] if ring is None else list(zip(ring.ts[lo:hi],
                                            ring.values[lo:hi]))


class SeriesReference:
    """``Series``: tiered ``deque`` rings of ``(ts, value)`` tuples."""

    def __init__(self, tiers):
        self.tiers = tuple(tiers)
        self.rings = [deque(maxlen=capacity) for _, capacity in tiers]
        self.samples = 0

    def record(self, ts, value) -> None:
        index = self.samples
        self.samples += 1
        for (stride, _), ring in zip(self.tiers, self.rings):
            if index % stride == 0:
                ring.append((ts, value))

    def points(self, start_ms=None, end_ms=None, baseline=False):
        """The densest tier reaching back to ``start_ms`` (else the one
        reaching furthest back), walked for the window; ``baseline``
        prepends the last point before ``start_ms``."""
        chosen = None
        for ring in self.rings:
            if not ring:
                continue
            if start_ms is not None and ring[0][0] <= start_ms:
                chosen = ring
                break
            if chosen is None or ring[0][0] < chosen[0][0]:
                chosen = ring
        if chosen is None:
            return []
        selected = [(ts, value) for ts, value in chosen
                    if (start_ms is None or ts >= start_ms)
                    and (end_ms is None or ts <= end_ms)]
        if baseline and start_ms is not None:
            before = None
            for ts, value in chosen:
                if ts >= start_ms:
                    break
                before = (ts, value)
            if before is not None:
                selected.insert(0, before)
        return selected

    def rows(self, kind, start_ms=None):
        """``(tier, ts, value, rate_per_s)`` of ``sys.metrics_history``:
        every retained point, the rate against its tier predecessor."""
        out = []
        for tier, ring in enumerate(self.rings):
            prev = None
            for ts, value in ring:
                rate = None
                if kind == "counter" and prev is not None:
                    rate = rate_per_s_reference([prev, (ts, value)])
                prev = (ts, value)
                if start_ms is not None and ts < start_ms:
                    continue
                out.append((tier, ts, value, rate))
        return out


class HistogramReference:
    """``Histogram``'s sample buffer: stride decimation, a provisional
    newest sample, and nearest-rank quantiles over a full sort."""

    def __init__(self, max_samples=8192):
        self.samples = []
        self.max_samples = max_samples
        self.stride = 1
        self.phase = 0
        self.tail_provisional = False

    def observe(self, value) -> None:
        if self.tail_provisional:
            self.samples.pop()
            self.tail_provisional = False
        self.phase += 1
        if self.phase >= self.stride:
            self.phase = 0
            if len(self.samples) >= self.max_samples:
                self.samples = self.samples[::2]
                self.stride *= 2
            self.samples.append(value)
        else:
            self.samples.append(value)
            self.tail_provisional = True

    def quantile(self, q) -> float:
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1,
                          int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]


# -- the JustQL front end before the master-regex lexer -----------------------
# A character loop for a lexer and one method per precedence level for
# expressions.  ``ReferenceParser`` keeps the parser's statement-level
# code (it subclasses it), so only the lexer and expressions differ.

_REFERENCE_SYMBOLS = ("<=", ">=", "!=", "<>", "::", "(", ")", ",", ".",
                      ";", "=", "<", ">", "*", "+", "-", "/", "%", "{",
                      "}", ":", "[", "]", "|")
_REFERENCE_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}


def reference_tokenize(statement: str) -> list[Token]:
    """Tokenize a JustQL statement one character at a time."""
    tokens: list[Token] = []
    i = 0
    n = len(statement)
    while i < n:
        ch = statement[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and statement.startswith("--", i):
            end = statement.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n:
                if statement[j] == quote:
                    if j + 1 < n and statement[j + 1] == quote:
                        buf.append(quote)  # doubled quote escape
                        j += 2
                        continue
                    break
                buf.append(statement[j])
                j += 1
            else:
                raise ParseError("unterminated string literal", i, statement)
            tokens.append(Token("string", "".join(buf), i,
                                statement[i:j + 1]))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n
                            and statement[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = statement[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and statement[j] in "+-":
                        j += 1
                else:
                    break
            text = statement[i:j]
            tokens.append(Token("number", text, i, text))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (statement[j].isalnum() or statement[j] == "_"):
                j += 1
            text = statement[i:j]
            lowered = text.lower()
            kind = "keyword" if lowered in KEYWORDS else "ident"
            tokens.append(Token(kind, text, i, lowered))
            i = j
            continue
        for symbol in _REFERENCE_SYMBOLS:
            if statement.startswith(symbol, i):
                tokens.append(Token("symbol", symbol, i, symbol))
                i += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i, statement)
    tokens.append(Token("end", "", n, ""))
    return tokens


class ReferenceParser(_Parser):
    """The parser's statements over ``reference_tokenize`` and an
    eight-level recursive descent for expressions."""

    def __init__(self, statement: str):
        self.statement = statement
        self.tokens = reference_tokenize(statement)
        self.index = 0

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == "symbol" and token.text in _REFERENCE_COMPARISONS:
            self.advance()
            op = "!=" if token.text == "<>" else token.text
            return BinaryOp(op, left, self._parse_additive())
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high)
        if self.accept_keyword("within"):
            return BinaryOp("within", left, self._parse_additive())
        if self.accept_keyword("like"):
            pattern = self._parse_additive()
            return BinaryOp("like", left, pattern)
        if self.accept_keyword("in"):
            func = self._parse_additive()
            if not isinstance(func, FuncCall):
                raise self.error("IN expects a set function such as st_KNN")
            return InFunc(left, func)
        if self.accept_keyword("is"):
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(left, negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept_symbol("+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self.accept_symbol("-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            if self.accept_symbol("*"):
                left = BinaryOp("*", left, self._parse_unary())
            elif self.accept_symbol("/"):
                left = BinaryOp("/", left, self._parse_unary())
            elif self.accept_symbol("%"):
                left = BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self.accept_symbol("-"):
            return UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            text = token.text
            value = float(text) if ("." in text or "e" in text.lower()) \
                else int(text)
            return Literal(value)
        if token.kind == "string":
            self.advance()
            return Literal(token.text)
        if self.accept_keyword("true"):
            return Literal(True)
        if self.accept_keyword("false"):
            return Literal(False)
        if self.accept_keyword("null"):
            return Literal(None)
        if self.accept_symbol("("):
            expr = self._parse_expr()
            self.expect_symbol(")")
            return expr
        if token.kind in ("ident", "keyword"):
            name = self.expect_name()
            if self.accept_symbol("("):
                args: list[Expr] = []
                if not self.accept_symbol(")"):
                    while True:
                        if self.accept_symbol("*"):
                            args.append(Star())
                        else:
                            args.append(self._parse_expr())
                        if self.accept_symbol(")"):
                            break
                        self.expect_symbol(",")
                return FuncCall(name.lower(), tuple(args))
            return Column(name)
        raise self.error(f"unexpected token {token.text!r} in expression")


# -- the row-at-a-time scan tail before column-major decode -------------------
# One dict per stored row from a field-by-field walk, a per-row ``step``
# fold for GROUP BY, and a sort of the row dicts for ORDER BY.  The walk
# reuses the codec's per-type value decoders and ``decompress_bytes``:
# it checks how a row is walked, not how one value is encoded.

def decode_row_reference(codec, data: bytes, wanted=None) -> dict:
    """``codec``'s schema fields named in ``wanted`` (``None``: all),
    read flag, LEB128 length and payload at a time from ``data``."""
    from repro.core.codec import decode_value, decompress_bytes
    row: dict = {}
    pos = 0
    for field in codec.schema.fields:
        flag = data[pos]
        pos += 1
        skip = wanted is not None and field.name not in wanted
        if flag == 0:
            if not skip:
                row[field.name] = None
            continue
        length = shift = 0
        while True:
            byte = data[pos]
            pos += 1
            length |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        if not skip:
            payload = data[pos:pos + length]
            if flag == 2:
                payload = decompress_bytes(payload, field.compress)
            row[field.name] = decode_value(payload, field.ftype)
        pos += length
    return row


def _step_min(acc, v):
    return acc if v is None else v if acc is None or v < acc else acc


def _step_max(acc, v):
    return acc if v is None else v if acc is None or v > acc else acc


def _step_avg(acc, v):
    return acc if v is None else (acc[0] + v, acc[1] + 1)


def _step_collect(acc, v):
    acc.append(v)
    return acc


#: ``name -> (seed, step(acc, value), final)``.  ``count`` with no
#: column is COUNT(*); with one it counts the non-NULL values.
REFERENCE_AGGREGATES = {
    "count": (lambda: 0, lambda acc, v: acc + (v is not None),
              lambda acc: acc),
    "count_star": (lambda: 0, lambda acc, _row: acc + 1, lambda acc: acc),
    "sum": (lambda: 0, lambda acc, v: acc if v is None else acc + v,
            lambda acc: acc),
    "min": (lambda: None, _step_min, lambda acc: acc),
    "max": (lambda: None, _step_max, lambda acc: acc),
    "avg": (lambda: (0.0, 0), _step_avg,
            lambda acc: acc[0] / acc[1] if acc[1] else None),
    "collect_list": (list, _step_collect, lambda acc: acc),
}


def group_by_reference(rows, keys, aggregates) -> list[dict]:
    """Hash aggregation one row at a time.  ``aggregates`` are
    ``(name, column, output)``; a ``None`` column is COUNT(*).  Groups
    come out in first-seen order."""
    folds = [REFERENCE_AGGREGATES["count_star" if column is None else name]
             for name, column, _output in aggregates]
    groups: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row.get(k) for k in keys)
        if key not in groups:
            groups[key] = [seed() for seed, _step, _final in folds]
        accs = groups[key]
        for i, ((_seed, step, _final), (_name, column, _output)) in \
                enumerate(zip(folds, aggregates)):
            accs[i] = step(accs[i], row if column is None
                           else row.get(column))
    out = []
    for key, accs in groups.items():
        row = dict(zip(keys, key))
        for (_seed, _step, final), (_name, _column, output), acc in \
                zip(folds, aggregates, accs):
            row[output] = final(acc)
        out.append(row)
    return out


def _reference_sort_key(value):
    if value is None:
        return (-1, 0)
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))


def order_by_reference(rows, keys, ascending=None) -> list[dict]:
    """Stable multi-key sort of row dicts: one pass per key, right to
    left.  NULLs sort before every value ascending, after them
    descending (Spark's defaults); bools sort as 0/1 among the numbers;
    anything else sorts by its text after the numbers."""
    if ascending is None:
        ascending = [True] * len(keys)
    rows = list(rows)
    for key, asc in reversed(list(zip(keys, ascending))):
        rows.sort(key=lambda r: _reference_sort_key(r.get(key)),
                  reverse=not asc)
    return rows


# -- the row-at-a-time insert preparation before the column passes ------------
# Each row validated, normalised, keyed (an ``IndexedRecord`` per row, its
# keys built strategy by strategy from the row's geometry) and encoded
# field by field with a dispatch on the field type per value; the store
# read for its predecessor in between; the statistics grown record by
# record.  Only the per-type payload encoders (series, coordinate pairs)
# and the curves' own per-value index functions are shared with the
# engine: this checks how a batch is prepared, not how a curve or a
# series is encoded.

_PERIOD_BIAS_REFERENCE = 1 << 31


def _validate_row_reference(schema, row: dict) -> None:
    from repro.errors import SchemaError
    extras = set(row) - {f.name for f in schema.fields}
    if extras:
        raise SchemaError(f"row has unknown fields: {sorted(extras)}")
    for field in schema.fields:
        field.validate(row.get(field.name))


def _encode_value_reference(value, ftype) -> bytes:
    import struct
    from repro.core.codec import _encode_pairs, _encode_st_series
    from repro.core.schema import FieldType
    from repro.geometry.linestring import LineString
    from repro.geometry.point import Point
    from repro.geometry.polygon import Polygon
    if ftype in (FieldType.INTEGER, FieldType.LONG):
        return struct.pack(">q", value)
    if ftype in (FieldType.DOUBLE, FieldType.DATE):
        return struct.pack(">d", float(value))
    if ftype == FieldType.STRING:
        return value.encode("utf-8")
    if ftype == FieldType.BOOLEAN:
        return b"\x01" if value else b"\x00"
    if ftype == FieldType.POINT:
        return struct.pack(">dd", value.lng, value.lat)
    if ftype == FieldType.LINESTRING:
        return _encode_pairs(value.coords)
    if ftype == FieldType.POLYGON:
        return _encode_pairs(value.ring)
    if ftype == FieldType.GEOMETRY:
        tag = {Point: 0, LineString: 1, Polygon: 2}[type(value)]
        inner = (FieldType.POINT, FieldType.LINESTRING, FieldType.POLYGON)
        return bytes([tag]) + _encode_value_reference(value, inner[tag])
    if ftype == FieldType.ST_SERIES:
        return _encode_st_series(value)
    return _encode_pairs(value.samples)  # T_SERIES


def encode_row_reference(codec, row: dict) -> bytes:
    """``row`` stored field by field: flag, LEB128 length, payload."""
    from repro.core.codec import compress_bytes, write_varint
    out = bytearray()
    for field in codec.schema.fields:
        value = row.get(field.name)
        if value is None:
            out.append(0)
            continue
        payload = _encode_value_reference(value, field.ftype)
        if codec.compression_enabled and field.compress != "none":
            payload = compress_bytes(payload, field.compress)
            out.append(2)
        else:
            out.append(1)
        write_varint(len(payload), out)
        out += payload
    return bytes(out)


def _z2_reference(curve, lng, lat) -> int:
    return interleave([curve.lng_dim.normalize(lng),
                       curve.lat_dim.normalize(lat)], 31)


def index_key_reference(strategy, record) -> bytes:
    """One record's key in ``strategy``: shard byte, the strategy's body
    built from the record's geometry, ``0x00``, the feature id."""
    import struct
    import zlib
    from repro.curves.timeperiod import period_bin, period_offset, period_start
    from repro.errors import IndexError_
    name = strategy.name
    geometry, t_min = record.geometry, record.t_min
    env = geometry.envelope
    if name in ("z2", "z2t", "z3") and not geometry.is_point():
        raise IndexError_(f"{name} indexes point geometries only")
    if name in ("z2t", "z3") and t_min is None:
        raise IndexError_(f"{name} requires a timestamp")
    if name in ("xz2t", "xz3") and t_min is None:
        raise IndexError_(f"{name} requires a time extent")

    def period(bin_number):
        return struct.pack(">I", bin_number + _PERIOD_BIAS_REFERENCE)

    def xz2_body():
        code = strategy.curve.index(env)
        return struct.pack(">IBBBB", code,
                           *strategy.curve.signature(env, code))

    if name == "z2":
        body = struct.pack(">Q", _z2_reference(strategy.curve, env.min_lng,
                                               env.min_lat))
    elif name == "z2t":
        body = period(period_bin(t_min, strategy.period)) + struct.pack(
            ">Q", _z2_reference(strategy.curve, env.min_lng, env.min_lat))
    elif name == "z3":
        bin_number = period_bin(t_min, strategy.period)
        fraction = period_offset(t_min, strategy.period)
        curve = strategy.curve
        z = interleave([curve.lng_dim.normalize(env.min_lng),
                        curve.lat_dim.normalize(env.min_lat),
                        curve.time_dim.normalize(fraction)], 21)
        body = period(bin_number) + struct.pack(">Q", z)
    elif name == "xz2":
        body = xz2_body()
    elif name == "xz2t":
        body = period(period_bin(t_min, strategy.period)) + xz2_body()
    else:  # xz3
        t_max = record.t_max if record.t_max is not None else t_min
        bin_number = period_bin(t_min, strategy.period)
        start = period_start(bin_number, strategy.period)
        seconds = strategy.period.seconds
        code = strategy.curve.index(env, (t_min - start) / seconds,
                                    min(1.0, (t_max - start) / seconds))
        body = period(bin_number) + struct.pack(">Q", code)
    fid = record.fid.encode("utf-8")
    shard = zlib.crc32(fid) % strategy.num_shards
    return bytes([shard]) + body + b"\x00" + fid


def _geometry_reference(table, row: dict):
    """The geometry a row is indexed by: its geometry column, or of a
    trajectory the point of its one fix or the line through its fixes;
    None for a NULL or an empty series."""
    from repro.geometry.point import Point
    value = row.get(table.geometry_column)
    if table.plugin_type != "trajectory" or value is None:
        return value
    if len(value) == 0:
        return None
    if len(value) == 1:
        return Point(value[0].lng, value[0].lat)
    return value.as_linestring()


def _check_extent_reference(table, row: dict) -> None:
    """A plugin row's time extent, where it has both ends, is finite and
    does not end before it starts."""
    import math
    from repro.errors import SchemaError
    if len(table.time_columns) != 2:
        return
    start, end = (row.get(name) for name in table.time_columns)
    if start is None or end is None:
        return
    if start != start or end != end or math.inf in (abs(start), abs(end)) \
            or end < start:
        fid = str(row[table.schema.primary_key.name])
        raise SchemaError(
            f"table {table.name!r}: row {fid!r} has time extent "
            f"[{start!r}, {end!r}]; an extent must be finite and "
            f"must not end before it starts")


def _check_floats_reference(table, row: dict) -> None:
    """Each DATE or DOUBLE value of a row converts to a float."""
    from repro.core.schema import FieldType
    from repro.errors import SchemaError
    for field in table.schema.fields:
        value = row.get(field.name)
        if field.ftype in (FieldType.DATE, FieldType.DOUBLE) and \
                value is not None:
            try:
                float(value)
            except OverflowError:
                fid = str(row[table.schema.primary_key.name])
                raise SchemaError(
                    f"table {table.name!r}: row {fid!r} has "
                    f"{field.name!r} = an integer too large for a "
                    f"float") from None


def _check_periods_reference(table, row: dict) -> None:
    """On a table with a per-period index, each of a row's times packs
    into the period field of every such index's key."""
    import struct
    from repro.curves.timeperiod import period_bin
    from repro.errors import SchemaError
    for name in table.time_columns:
        t = row.get(name)
        if t is None:
            continue
        for strategy in table.strategies.values():
            if strategy.period is None:
                continue
            try:
                struct.pack(">I", period_bin(t, strategy.period) + 2**31)
            except (ValueError, OverflowError, struct.error):
                fid = str(row[table.schema.primary_key.name])
                raise SchemaError(
                    f"table {table.name!r}: row {fid!r} has time "
                    f"{float(t)!r}, outside the period bins an index "
                    f"key holds") from None


def _record_reference(table, row: dict):
    from repro.curves.strategies import IndexedRecord
    from repro.errors import SchemaError
    fid = str(row[table.schema.primary_key.name])
    geometry = _geometry_reference(table, row)
    if geometry is None:
        raise SchemaError(
            f"table {table.name!r}: row {fid!r} has no geometry to index")
    extent = table.record_time_extent(row)
    t_min, t_max = extent if extent is not None else (None, None)
    return IndexedRecord(fid, geometry, t_min, t_max)


def _row_puts_reference(table, fid, row, record, payload) -> list:
    puts = [(table._index_tables[name],
             index_key_reference(strategy, record), payload)
            for name, strategy in table.strategies.items()]
    for field_name, attr in table.attribute_indexes.items():
        value = row.get(field_name)
        if value is not None:
            puts.append((table._attr_tables[field_name],
                         attr.key_for_value(fid, value), payload))
    puts.append((table._id_table, fid.encode("utf-8"), payload))
    return puts


def _row_deletes_reference(table, fid, payload) -> list:
    deletes = []
    if table.strategies or table.attribute_indexes:
        old_row = table.codec.decode_row(payload, table._key_fields)
        if table.strategies:
            record = _record_reference(table, old_row)
            deletes += [(table._index_tables[name],
                         index_key_reference(strategy, record), None)
                        for name, strategy in table.strategies.items()]
        for field_name, attr in table.attribute_indexes.items():
            value = old_row.get(field_name)
            if value is not None:
                deletes.append((table._attr_tables[field_name],
                                attr.key_for_value(fid, value), None))
    deletes.append((table._id_table, fid.encode("utf-8"), None))
    return deletes


def _grow_stats_reference(table, record) -> None:
    env = record.geometry.envelope
    table.data_envelope = env if table.data_envelope is None \
        else table.data_envelope.expand(env)
    if record.t_min is not None:
        t_max = record.t_max if record.t_max is not None else record.t_min
        if table.time_extent is None:
            table.time_extent = (record.t_min, t_max)
        else:
            table.time_extent = (min(table.time_extent[0], record.t_min),
                                 max(table.time_extent[1], t_max))
        if t_max > record.t_min:
            for strategy in table.strategies.values():
                strategy.observe_extent(record.t_min, t_max)


def insert_mutations_reference(table, rows: list[dict]) -> int:
    """``table.insert_rows(rows)`` as it ran a row at a time: validate,
    normalise, key and encode a row, read the row it replaces, build its
    mutations; then grow the statistics record by record and write the
    whole list through the table's own ``_write``."""
    mutations, records, stored = [], [], set()
    batch_puts: dict = {}
    for row in rows:
        _validate_row_reference(table.schema, row)
        _check_floats_reference(table, row)
        _check_extent_reference(table, row)
        _check_periods_reference(table, row)
        if table.plugin_type == "trajectory" and \
                row.get("gps_list") is not None:
            row = {**row, "gps_list": row["gps_list"].as_stored()}
        fid = str(row[table.schema.primary_key.name])
        record = _record_reference(table, row) if table.strategies else None
        payload = encode_row_reference(table.codec, row)
        earlier = batch_puts.get(fid)
        if earlier is not None:
            mutations += [(kv, key, None) for kv, key, _ in earlier]
        else:
            id_key = fid.encode("utf-8")
            existing = table._id_table.get(id_key)
            if existing is not None:
                mutations += _row_deletes_reference(table, fid, existing)
                stored.add(id_key)
        puts = _row_puts_reference(table, fid, row, record, payload)
        mutations += puts
        batch_puts[fid] = puts
        records.append(record)
    for record in records:
        if record is not None:
            _grow_stats_reference(table, record)
    table._write(mutations, stored)
    return len(rows)
