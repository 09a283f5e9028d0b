"""Scan specifications for the key-value store."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter, le, lt

# One key-value chunk decodes into one RowBatch, so the chunk size is
# the dataframe layer's batch size, not a second constant.
from repro.dataframe.batch import DEFAULT_BATCH_ROWS


def chunk_pairs(pairs):
    """Group a ``(key, value)`` stream into lists of
    :data:`DEFAULT_BATCH_ROWS`.

    The source generator is pulled lazily, one batch ahead of the
    consumer, so deadline checks and lazy block charges inside the
    stream keep their granularity.
    """
    batch: list = []
    for pair in pairs:
        batch.append(pair)
        if len(batch) >= DEFAULT_BATCH_ROWS:
            yield batch
            batch = []
    if batch:
        yield batch


def prefix_successor(prefix: bytes) -> bytes | None:
    """The smallest byte string greater than every key with ``prefix``.

    Trailing ``0xff`` bytes cannot be incremented, so they are stripped
    first; a prefix that is empty or all ``0xff`` has no successor
    (every key sorts below no finite bound) and returns ``None``.
    """
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


#: One half-open key range ``[start, stop)``; ``stop=None`` is unbounded.
Bounds = tuple[bytes, bytes | None]

_start = itemgetter(0)
_stop = itemgetter(1)


def seek_spans(keys: Sequence[bytes], ranges: Sequence[Bounds]):
    """Yield ``(lo, hi)``: the index spans of the sorted ``keys`` that
    fall in ``ranges`` (sorted, disjoint :data:`Bounds`), in key order.

    A leapfrog between the two sorted lists, HBase
    ``MultiRowRangeFilter``'s seek hint in both directions: the keys are
    bisected for the current range's start, and when the key found lies
    at or past that range's stop, the *ranges* are bisected for the
    first one that can still hold it.  A source therefore pays
    O(spans + 1) bisects on each list (more only where keys and empty
    ranges alternate), not two per range: a k-NN cell's ~300 ranges
    over a run that holds a few of its rows cost a handful of seeks.
    Every span is non-empty.
    """
    count = len(ranges)
    if not count:
        return
    size = len(keys)
    # Stops are sorted too; an unbounded one can only be the last.
    bounded = count - 1 if ranges[-1][1] is None else count
    lo = i = 0
    while i < count:
        start, stop = ranges[i]
        lo = bisect_left(keys, start, lo)
        if lo >= size:
            return
        if stop is None:
            yield lo, size
            return
        key = keys[lo]
        if key >= stop:
            i = bisect_right(ranges, key, i + 1, bounded, key=_stop)
            continue
        hi = bisect_left(keys, stop, lo + 1)
        yield lo, hi
        lo = hi
        i += 1


def _in_scan_order(ranges) -> tuple[Bounds, ...]:
    """``ranges`` as a tuple without its empty ranges, once checked to be
    sorted and pairwise disjoint (adjacent is fine).

    The check is three C-level ``map`` passes over the start and stop
    columns; Python loops only when a range is empty (to drop it) or
    the order is wrong (to name the pair at fault).
    """
    ranges = tuple(ranges)
    starts = list(map(_start, ranges))
    stops = list(map(_stop, ranges))
    if stops and stops[-1] is None:
        stops.pop()  # unbounded is fine last, and only there
    if None not in stops and all(map(lt, starts, stops)) \
            and all(map(le, stops, starts[1:])):
        return ranges
    kept = tuple((start, stop) for start, stop in ranges
                 if stop is None or start < stop)
    for (_, stop), (start, _) in zip(kept, kept[1:]):
        if stop is None or start < stop:
            raise ValueError("scan ranges must be sorted and disjoint: "
                             f"{start!r} follows one ending at {stop!r}")
    return kept


@dataclass(frozen=True, slots=True)
class ScanSpec:
    """A scan request: one inclusive key range, or a list of ``ranges``.

    ``end=None`` means unbounded above, so the default spec covers a
    whole table whatever its key lengths.  ``limit`` stops the scan after
    that many live entries.  When ``end_exclusive`` is set the range is
    ``[start, end)`` instead, which lets prefix scans use an exact
    successor-of-prefix upper bound.

    ``ranges`` (HBase's ``MultiRowRangeFilter``) are half-open
    :data:`Bounds`, sorted and pairwise disjoint (adjacent is fine); one
    scan serves them all.  It is what the store reads: a spec built from
    ``start``/``end`` holds its one range there too.

    ``key_filter`` (``key -> bool``, see ``IndexStrategy.key_filter``)
    is applied to each live key inside the region visit, HBase
    server-side-filter style: a rejected entry is counted
    (``IOStats.scan_keys_rejected``) and never becomes a result — no
    result bytes, no value handed over, and it does not count towards
    ``limit``.
    """

    start: bytes = b""
    end: bytes | None = None
    limit: int | None = None
    end_exclusive: bool = False
    ranges: tuple[Bounds, ...] | None = None
    key_filter: Callable[[bytes], bool] | None = None

    def __post_init__(self) -> None:
        ranges = self.ranges
        if ranges is None:
            end = self.end
            if end is not None and not self.end_exclusive:
                end += b"\x00"
            ranges = ((self.start, end),)
        # Every source seeks through the ranges in one forward pass
        # (seek_spans), so they must come in scan order; empty ones
        # select nothing.
        object.__setattr__(self, "ranges", _in_scan_order(ranges))

    @classmethod
    def full(cls) -> "ScanSpec":
        return cls()

    @classmethod
    def prefix(cls, prefix: bytes) -> "ScanSpec":
        """Scan every key beginning with ``prefix``, whatever its length."""
        successor = prefix_successor(prefix)
        if successor is None:
            # No finite upper bound exists; scan to the end of the table.
            return cls(prefix, None)
        return cls(prefix, successor, end_exclusive=True)
