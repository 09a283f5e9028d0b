"""Multi-range scans seek instead of walking the range list.

Every sorted source of a scan (SSTable runs, the primary's and each
follower's memstore) leapfrogs between its keys and the ranges
(``kvstore/scan.py::seek_spans``), so it pays per span of its own keys,
not per key range.  The per-range walk it replaced lives on as
``tests/oracles.py::sstable_scan_reference``/``memstore_scan_reference``
and is the definition checked here: the same pairs in the same order,
the same ``IOStats`` deltas and the same block-cache state.
"""

import math
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    memstore_scan_reference,
    region_scan_reference,
    scan_ranges_reference,
    sstable_scan_reference,
)
from repro.kvstore import KVStore
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.memstore import MemStore
from repro.kvstore.region import Region
from repro.kvstore.scan import ScanSpec, seek_spans
from repro.kvstore.sstable import SSTable
from repro.replication.replica import FollowerReplica

#: A small alphabet, so keys collide across runs and range bounds land
#: on keys, between them and past the last one.
ALPHABET = b"\x00\x01\x7f\x80\xfe\xff"
keys = st.lists(st.sampled_from(ALPHABET), min_size=1,
                max_size=3).map(bytes)
#: Four 0xff bytes lie past every key.
cut_points = st.lists(st.sampled_from(ALPHABET), max_size=4).map(bytes)
values = st.none() | st.binary(max_size=24)  # None: a tombstone
entries = st.dictionaries(keys, values, max_size=24)

#: Entries are at most 27 bytes, so a run of more than a few spans
#: several blocks, and a cache of ``CACHE_BYTES`` holds two or three.
BLOCK_BYTES = 32
CACHE_BYTES = 80


@st.composite
def range_lists(draw, stored=()):
    """Sorted, disjoint half-open ranges between cut points, random or
    one of the ``stored`` keys: adjacent ranges, gaps, empty ``(c, c)``
    ranges, bounds on a key, ranges past every key and, sometimes, an
    unbounded last stop."""
    points = cut_points
    if stored:
        points = points | st.sampled_from(sorted(stored))
    points = sorted(set(draw(st.lists(points, max_size=12))))
    ranges = []
    for start, stop in zip(points, points[1:]):
        shape = draw(st.sampled_from(("take", "take", "gap", "empty")))
        if shape == "take":
            ranges.append((start, stop))
        elif shape == "empty":
            ranges.append((start, start))
    if points and draw(st.booleans()):
        ranges.append((points[-1], None))
    return ranges


def sstable_pairs(sstable, ranges, cache=None, server=0):
    """The entries of ``sstable.spans``, one ``(key, value)`` at a time."""
    for lo, hi in sstable.spans(ranges, cache, server):
        yield from zip(sstable._keys[lo:hi], sstable._values[lo:hi])


def memstore_pairs(memstore, ranges):
    """The entries of ``memstore.spans``, one ``(key, value)`` at a time."""
    for keys, values in memstore.spans(ranges):
        yield from zip(keys, values)


def region_pairs(region, ranges, cache=None, replica=None):
    """Every live entry of ``ranges``: the lists of the region's run
    merge, concatenated (no merge: none)."""
    runs = region.run_merge(ranges, cache, replica=replica)
    return [pair for keys, values in runs or ()
            for pair in zip(keys, values)]


def observe(stats: IOStats, cache: BlockCache, scan):
    """Pairs of ``scan(cache)``, the I/O it charged, the cache after."""
    before = stats.snapshot()
    pairs = list(scan(cache))
    return (pairs, stats.snapshot().delta(before),
            list(cache._entries.items()), cache.evicted_bytes)


def warmed_cache(sstables) -> BlockCache:
    """A small cache that already holds some of ``sstables``' blocks."""
    cache = BlockCache(CACHE_BYTES)
    for sstable in sstables:
        list(sstable_scan_reference(sstable, [(b"\x7f", None)], cache))
    return cache


class TestSameAsTheWalk:
    @settings(max_examples=150, deadline=None)
    @given(stored=entries, server=st.integers(0, 2), data=st.data())
    def test_sstable_scan(self, stored, server, data):
        ranges = data.draw(range_lists(stored))
        stats = IOStats()
        sstable = SSTable(sorted(stored.items()), stats, BLOCK_BYTES)
        seek = observe(stats, warmed_cache([sstable]),
                       lambda c: sstable_pairs(sstable, ranges, c, server))
        walk = observe(stats, warmed_cache([sstable]),
                       lambda c: sstable_scan_reference(sstable, ranges,
                                                        c, server))
        assert seek == walk

    @settings(max_examples=150, deadline=None)
    @given(stored=entries, data=st.data())
    def test_memstore_scan(self, stored, data):
        ranges = data.draw(range_lists(stored))
        memstore = MemStore()
        for key, value in stored.items():
            memstore.put(key, value)
        assert list(memstore_pairs(memstore, ranges)) == \
            list(memstore_scan_reference(memstore, ranges))

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(entries, max_size=4), memstore=entries,
           follower=st.none() | entries, data=st.data())
    def test_region_scan_primary_and_follower(self, runs, memstore,
                                              follower, data):
        ranges = data.draw(range_lists(
            {key for run in (*runs, memstore, follower or {})
             for key in run}))
        stats = IOStats()
        region = Region(b"", None, stats, flush_bytes=1 << 30,
                        block_bytes=BLOCK_BYTES)
        for run in runs:
            for key, value in run.items():
                region.put(key, value)
            region.flush()
        for key, value in memstore.items():
            region.put(key, value)
        replica = None
        if follower is not None:
            replica = FollowerReplica(server=1)
            for key, value in follower.items():
                replica.memstore.put(key, value)

        seek = observe(stats, warmed_cache(region.sstables),
                       lambda c: region_pairs(region, ranges, c, replica))
        # The heap merge over the per-range walks.
        walk = observe(stats, warmed_cache(region.sstables),
                       lambda c: region_scan_reference(region, ranges, c,
                                                       replica=replica))
        assert seek == walk

    @settings(max_examples=150, deadline=None)
    @given(stored=entries, data=st.data())
    def test_spans_are_the_keys_in_range(self, stored, data):
        ranges = data.draw(range_lists(stored))
        sorted_keys = sorted(stored)
        spans = list(seek_spans(sorted_keys, ranges))
        assert all(lo < hi for lo, hi in spans)
        assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert [i for lo, hi in spans for i in range(lo, hi)] == [
            i for i, key in enumerate(sorted_keys)
            if any(start <= key and (stop is None or key < stop)
                   for start, stop in ranges)]


class CountingRanges(Sequence):
    """A range list that counts the items read from it."""

    def __init__(self, ranges):
        self._ranges = ranges
        self.reads = 0

    def __len__(self):
        return len(self._ranges)

    def __getitem__(self, index):
        self.reads += 1
        return self._ranges[index]


def _key(n: int) -> bytes:
    return b"%06d" % n


class TestCostIsPerRowNotPerRange:
    """10 000 ranges, k of them holding the rows of a source, which also
    holds three keys in the gap after them.  A pass reads
    O((k + 1) log R) range items; the walk it replaced read every range
    up to the source's last key, 9 000 of them here."""

    R = 10_000
    FIRST_HIT = 9_000

    def ranges(self) -> CountingRanges:
        return CountingRanges([(_key(2 * i), _key(2 * i + 1))
                               for i in range(self.R)])

    def rows(self, k: int) -> list[bytes]:
        hits = [_key(2 * i) for i in range(self.FIRST_HIT,
                                           self.FIRST_HIT + k)]
        gap = _key(2 * (self.FIRST_HIT + k) + 1)
        return hits + [gap + bytes([j]) for j in range(3)]

    def bound(self, k: int, sources: int = 1) -> int:
        return sources * 4 * (k + 1) * math.ceil(math.log2(self.R))

    @pytest.mark.parametrize("k", [0, 1, 40])
    def test_sstable_and_memstore(self, k):
        rows = self.rows(k)
        sstable = SSTable([(key, b"v") for key in rows], IOStats(), 256)
        memstore = MemStore()
        for key in rows:
            memstore.put(key, b"v")
        for scan in (lambda r: sstable_pairs(sstable, r),
                     lambda r: memstore_pairs(memstore, r)):
            ranges = self.ranges()
            assert [key for key, _ in scan(ranges)] == rows[:k]
            assert ranges.reads <= self.bound(k)
        # The walk reads range after range: the bound tells them apart.
        ranges = self.ranges()
        assert len(list(sstable_scan_reference(sstable, ranges))) == k
        assert ranges.reads > self.FIRST_HIT

    @pytest.mark.parametrize("k", [0, 40])
    def test_region_over_runs_and_memstore(self, k):
        rows = self.rows(k)
        region = Region(b"", None, IOStats(), flush_bytes=1 << 30,
                        block_bytes=256)
        for run in (rows[0::2], rows[1::2]):
            for key in run:
                region.put(key, b"v")
            region.flush()
        region.put(rows[-1], b"newer")
        ranges = self.ranges()
        assert [key for key, _ in region_pairs(region, ranges)] == rows[:k]
        assert ranges.reads <= self.bound(k, sources=3)


class TestScanSpecCheck:
    """One C-level pass, as strict as the Python loop it replaced."""

    @pytest.mark.parametrize("ranges", [
        [(b"a", b"m"), (b"l", b"p")],                # overlapping
        [(b"a", b"c"), (b"a", b"c")],                # repeated
        [(b"m", b"p"), (b"a", b"c")],                # unsorted
        [(b"a", None), (b"x", b"z")],                # unbounded, not last
        [(b"a", None), (b"b", None)],
        [(b"a", b"c"), (b"q", b"b"), (b"b", b"d")],  # empty, then overlap
    ], ids=["overlap", "repeat", "unsorted", "open-not-last",
            "two-open", "overlap-behind-empty"])
    def test_out_of_order_raises_the_same_value_error(self, ranges):
        with pytest.raises(ValueError) as seek:
            ScanSpec(ranges=ranges)
        with pytest.raises(ValueError) as walk:
            scan_ranges_reference(ranges)
        assert str(seek.value) == str(walk.value)
        assert "must be sorted and disjoint" in str(seek.value)

    @settings(max_examples=300, deadline=None)
    @given(ranges=st.lists(st.tuples(cut_points,
                                     st.none() | cut_points), max_size=6))
    def test_agrees_with_the_reference_on_any_list(self, ranges):
        try:
            expected = scan_ranges_reference(ranges)
        except ValueError as exc:
            with pytest.raises(ValueError) as seek:
                ScanSpec(ranges=ranges)
            assert str(seek.value) == str(exc)
        else:
            assert ScanSpec(ranges=ranges).ranges == expected

    def test_valid_ranges_pass_through_as_given(self):
        ranges = ((b"a", b"c"), (b"c", b"e"), (b"f", None))
        assert ScanSpec(ranges=ranges).ranges is ranges

    def test_an_empty_range_list_scans_nothing(self):
        store = KVStore(num_servers=1)
        table = store.create_table("t")
        for i in range(50):
            table.put(_key(i), b"v" * 40)
        table.flush()
        for spec in (ScanSpec(ranges=[]),
                     ScanSpec(ranges=[(b"b", b"b"), (b"z", b"a")])):
            assert spec.ranges == ()
            before = store.stats.snapshot()
            assert list(table.scan(spec)) == []
            assert list(table.scan_batches(spec)) == []
            delta = store.stats.snapshot().delta(before)
            assert (delta.blocks_read, delta.cache_hits,
                    delta.result_bytes) == (0, 0, 0)
        assert list(seek_spans([_key(0)], [])) == []
