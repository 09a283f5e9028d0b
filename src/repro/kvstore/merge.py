"""The run merge: a region's sorted sources merged a run at a time."""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heapreplace
from itertools import compress

from repro.dataframe.batch import DEFAULT_BATCH_ROWS

#: Merged entries between cooperative deadline checks.
CANCEL_CHECK_ROWS = 128

# One source's merge state, a list so the heap orders it by its first
# two items: the head key, then the rank (0 for the memstore, counting
# up from the newest run), which is unique, so comparisons never reach
# the rest.  The head is the entry at ``_HEAD`` of ``_KEYS``; the
# source's current span ends at ``_END``.
_KEY, _KEYS, _VALUES, _HEAD, _END = 0, 2, 3, 4, 5


def run_merge(sstables, memstore, record_memstore, ctx=None,
              where: str = "", key_filter=None, record_rejected=None):
    """Merge one region's sources newest-wins, a run at a time.

    ``sstables`` are ``(keys, values, spans)`` of each SSTable run,
    oldest first, ``spans`` its ``(lo, hi)`` spans inside one block
    (:meth:`SSTable.spans`, which charges a block as the merge first
    reaches it); ``memstore`` yields the memstore's ``(keys, values)``
    span copies (:meth:`MemStore.spans`).

    Returns ``None`` when no source holds an entry of the ranges, else
    an unstarted generator of ``(keys, values)``: fresh lists of
    :data:`DEFAULT_BATCH_ROWS` live entries each, fully accounted, the
    last one shorter and never empty.  With a ``key_filter`` those are
    the entries whose key it accepts; the others are read but only
    counted (``record_rejected(n)``).  Each step takes the longest
    slice of the source with the smallest head that lies strictly below
    every other source's head, so a region with one non-empty source
    moves a block slice per step, while keys that interleave cost one
    heap step per entry, as a heap merge of single entries would.
    Older versions of a key and tombstones are skipped.

    What a source reads is accounted as an entry-at-a-time merge
    (``heapq.merge`` over one stream per source) accounts it, at every
    point a consumer can stop: the sources are primed in order (runs
    oldest first, then the memstore), and a source pulls its next head
    — charging a block, or recording a memstore entry's bytes — only
    once the list before it is handed out and the next is asked for.
    ``ctx`` is checked before every :data:`CANCEL_CHECK_ROWS`-th merged
    entry (masked versions and tombstones count), and no run spans such
    a point; a check that raises drops the list being gathered.
    """
    heap = []
    rank = len(sstables)
    for keys, values, spans in sstables:
        span = next(spans, None)
        if span is not None:
            lo, hi = span
            heap.append([keys[lo], rank, keys, values, lo, hi, spans,
                         False])
        rank -= 1
    span = next(memstore, None)
    if span is not None:
        keys, values = span
        record_memstore(len(keys[0]) + len(values[0] or b""))
        heap.append([keys[0], 0, keys, values, 0, len(keys), memstore,
                     True])
    if not heap:
        return None
    heapify(heap)
    return _merge(heap, record_memstore, ctx, where, key_filter,
                  record_rejected)


def _merge(heap, record_memstore, ctx, where, key_filter, record_rejected):
    size = len(heap)
    processed = 0
    next_check = CANCEL_CHECK_ROWS
    previous = None
    # The list being gathered, and the room left in it.
    out_keys: list = []
    out_values: list = []
    room = DEFAULT_BATCH_ROWS
    while size:
        source = heap[0]
        key, _, keys, values, head, end, spans, in_memstore = source
        processed += 1
        if processed == next_check and ctx is not None:
            ctx.check(where)
            next_check += CANCEL_CHECK_ROWS
        stop = head + 1
        if key != previous:  # else an older version, masked: skip it
            if size == 1:
                stop = end
            elif stop < end:
                bound = heap[1][_KEY]
                if size > 2 and heap[2][_KEY] < bound:
                    bound = heap[2][_KEY]
                # Gallop before bisecting: interleaved sources mostly
                # take one entry at a time.
                if keys[stop] < bound:
                    stop = bisect_left(keys, bound, stop + 1, end)
            if stop - head == 1:
                previous = key
                if values[head] is not None:
                    if key_filter is None or key_filter(key):
                        out_keys.append(key)
                        out_values.append(values[head])
                        room -= 1
                    else:
                        record_rejected(1)
            else:
                if stop - head > room:
                    stop = head + room
                if ctx is not None and \
                        stop - head > next_check - processed:
                    stop = head + next_check - processed
                processed += stop - head - 1
                previous = keys[stop - 1]
                run_keys, run_values = _live_slice(
                    keys, values, head, stop, in_memstore,
                    record_memstore)
                if key_filter is not None:
                    passed = list(map(key_filter, run_keys))
                    if not all(passed):
                        record_rejected(passed.count(False))
                        run_keys = list(compress(run_keys, passed))
                        run_values = list(compress(run_values, passed))
                out_keys += run_keys
                out_values += run_values
                room -= len(run_keys)
        if room == 0:
            yield out_keys, out_values
            out_keys = []
            out_values = []
            room = DEFAULT_BATCH_ROWS
        # Pull the source's next head.
        if stop == end:
            span = next(spans, None)
            if span is None:
                heappop(heap)
                size -= 1
                continue
            if in_memstore:
                keys, values = source[_KEYS], source[_VALUES] = span
                stop, source[_END] = 0, len(keys)
            else:
                stop, source[_END] = span
        source[_HEAD] = stop
        key = source[_KEY] = keys[stop]
        if in_memstore:
            record_memstore(len(key) + len(values[stop] or b""))
        heapreplace(heap, source)
    if out_keys:
        yield out_keys, out_values


def _live_slice(keys, values, lo, hi, in_memstore, record_memstore):
    """Entries ``lo:hi`` handed out whole: their live ``(keys, values)``
    lists, the memstore entries after the head accounted (the head's
    bytes were recorded when it was pulled)."""
    keys = keys[lo:hi]
    values = values[lo:hi]
    if in_memstore and hi - lo > 1:
        record_memstore(sum(map(len, keys[1:]))
                        + sum(map(len, filter(None, values[1:]))))
    if None in values:
        live = [value is not None for value in values]
        return list(compress(keys, live)), list(compress(values, live))
    return keys, values
