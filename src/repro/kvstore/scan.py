"""Scan specifications for the key-value store."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import itemgetter, le, lt

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
    """A scan request: a list of key ``ranges`` and an optional
    ``key_filter``.

    ``ranges`` (HBase's ``MultiRowRangeFilter``) are half-open
    :data:`Bounds`, sorted and pairwise disjoint (adjacent is fine); one
    scan serves them all.  The default, ``ScanSpec()`` or
    :meth:`full`, is the one unbounded range, so it covers a whole
    table whatever its key lengths.

    ``key_filter`` (``key -> bool``, see ``IndexStrategy.key_filter``)
    is applied to each live key inside the region visit, HBase
    server-side-filter style: a rejected entry is counted
    (``IOStats.scan_keys_rejected``) and never becomes a result — no
    result bytes and no value handed over.
    """

    ranges: tuple[Bounds, ...] = ((b"", None),)
    key_filter: Callable[[bytes], bool] | None = None

    def __post_init__(self) -> None:
        # Every source seeks through the ranges in one forward pass
        # (seek_spans), so they must come in scan order; empty ones
        # select nothing.
        object.__setattr__(self, "ranges", _in_scan_order(self.ranges))

    @classmethod
    def full(cls) -> "ScanSpec":
        return cls()
