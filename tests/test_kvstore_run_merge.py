"""A region scan merges runs, not entries, and reads what the entry
merge read.

``kvstore/merge.py::RunMerge`` hands out the longest slice of the
source with the smallest head that lies below every other head; the
entry-at-a-time heap merge it replaced lives on as
``tests/oracles.py::region_scan_reference`` (and, for the store loop
over it, ``table_scan_reference``).  Twin runs over one store — the
block caches restored between them — must agree on the pairs or lists
handed out, the ``IOStats`` deltas and the block-cache LRU order, for
full scans, abandoned ones and ones a deadline cancels.
"""

from hypothesis import given, settings, strategies as st

from oracles import (
    region_scan_reference,
    sstable_scan_reference,
    table_scan_reference,
)
from repro.errors import QueryTimeoutError
from repro.kvstore import KVStore
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.region import Region
from repro.kvstore.scan import ScanSpec
from repro.kvstore.wal import SyncPolicy
from repro.replication.replica import FollowerReplica
from repro.resilience import RequestContext

#: A small alphabet, so keys collide across runs and range bounds land
#: on keys, between them and past the last one.
ALPHABET = b"\x00\x01\x7f\x80\xfe\xff"
keys = st.lists(st.sampled_from(ALPHABET), min_size=1,
                max_size=3).map(bytes)
values = st.binary(max_size=24)
#: Entries are at most 27 bytes, so a run spans several blocks and a
#: cache of ``CACHE_BYTES`` holds two or three of them.
BLOCK_BYTES = 32
CACHE_BYTES = 80

#: ``fill`` writes a stretch of ``\x7f``-prefixed keys, so a scan can
#: pass several deadline checks (one per 128 merged entries).
operations = st.lists(st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("fill"), st.integers(0, 200), st.integers(1, 400),
              st.sampled_from((1, 2, 3)), st.sampled_from((b"", b"v"))),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact"))), max_size=40)


def apply(op, put, delete, other):
    """Apply one of ``operations`` through ``put``/``delete``/``other``."""
    if op[0] == "put":
        put(op[1], op[2])
    elif op[0] == "delete":
        delete(op[1])
    elif op[0] == "fill":
        _, first, count, step, value = op
        for i in range(first, first + count * step, step):
            put(b"\x7f" + i.to_bytes(2, "big"), value)
    else:
        other(op[0])


@st.composite
def range_lists(draw):
    """Sorted, disjoint half-open ranges: adjacent, with gaps, empty,
    bounded on a key and, sometimes, unbounded above."""
    points = sorted(set(draw(st.lists(keys, max_size=10))))
    ranges = []
    for start, stop in zip(points, points[1:]):
        shape = draw(st.sampled_from(("take", "take", "gap", "empty")))
        if shape == "take":
            ranges.append((start, stop))
        elif shape == "empty":
            ranges.append((start, start))
    if draw(st.booleans()):
        ranges.append((points[-1] if points else b"", None))
    return ranges


#: How a consumer stops: never, after ``n`` items, or at the deadline
#: check ``n`` (counting from 0).
stops = st.one_of(st.tuples(st.just("all"), st.just(0)),
                  st.tuples(st.just("abandon"), st.integers(0, 300)),
                  st.tuples(st.just("deadline"), st.integers(0, 3)))


class Countdown(RequestContext):
    """A request context whose budget runs out at one numbered check."""

    def __init__(self, checks: int):
        super().__init__()
        self.checks = checks

    def check(self, operation: str = "") -> None:
        self.checks -= 1
        if self.checks < 0:
            raise QueryTimeoutError(1.0, 2.0, operation)


def consume(scan, stop):
    """The items ``scan(ctx)`` hands out before ``stop``, and whether a
    deadline cancelled it; an abandoned scan is closed."""
    kind, n = stop
    ctx = Countdown(n) if kind == "deadline" else None
    items = []
    iterator = scan(ctx)
    try:
        for item in iterator:
            if kind == "abandon" and len(items) == n:
                break
            items.append(item)
    except QueryTimeoutError:
        return items, True
    finally:
        iterator.close()
    return items, False


def cache_state(caches):
    return [(list(cache._entries.items()), cache.used_bytes,
             cache.evicted_bytes) for cache in caches]


def restore(caches, state):
    for cache, (entries, used, evicted) in zip(caches, state):
        cache._entries.clear()
        cache._entries.update(entries)
        cache._used = used
        cache.evicted_bytes = evicted


def twin(stats: IOStats, caches, run, reference):
    """``run`` and ``reference`` from the same cache state: what each
    handed out, charged and left in the caches."""
    start = cache_state(caches)
    observed = []
    for scan in (reference, run):
        restore(caches, start)
        before = stats.snapshot()
        handed = scan()
        observed.append((handed, stats.snapshot().delta(before),
                         cache_state(caches)))
    assert observed[1] == observed[0]
    return observed[0][0]


class TestRegionScan:
    @settings(max_examples=200, deadline=None)
    @given(ops=operations, follower=st.none() | st.dictionaries(
        keys, st.none() | values, max_size=12), ranges=range_lists(),
        stop=stops, warm=st.booleans())
    def test_same_as_the_heap_merge(self, ops, follower, ranges, stop,
                                    warm):
        stats = IOStats()
        region = Region(b"", None, stats, flush_bytes=1 << 30,
                        block_bytes=BLOCK_BYTES)
        for op in ops:
            apply(op, region.put, lambda key: region.put(key, None),
                  lambda name: getattr(region, name)())
        replica = None
        if follower is not None:
            replica = FollowerReplica(server=1)
            for key, value in follower.items():
                replica.memstore.put(key, value)
        cache = BlockCache(CACHE_BYTES)
        if warm:
            for sstable in region.sstables:
                list(sstable_scan_reference(sstable, [(b"\x7f", None)],
                                            cache))

        def scan(merge):
            return lambda: consume(
                lambda ctx: merge(region, ranges, cache, ctx, replica),
                stop)

        twin(stats, [cache], scan(Region.scan),
             scan(region_scan_reference))


def _build_table(ops, replicated: bool, split_bytes: int):
    store = KVStore(num_servers=3, cache_bytes_per_server=CACHE_BYTES,
                    flush_bytes=200, split_bytes=split_bytes,
                    block_bytes=BLOCK_BYTES,
                    wal_policy=SyncPolicy.SYNC if replicated else None,
                    replication_factor=2 if replicated else 1,
                    read_mode="follower" if replicated else "primary")
    table = store.create_table("t")
    for op in ops:
        apply(op, table.put, table.delete,
              lambda name: getattr(table, name)())
    return store, table


def _rejects(key_bytes):
    rejected = frozenset(key_bytes)
    return lambda key: key[-1] not in rejected


class TestTableScan:
    @settings(max_examples=200, deadline=None)
    @given(ops=operations, ranges=range_lists(), stop=stops,
           limit=st.none() | st.integers(0, 30),
           rejected=st.none() | st.sets(st.sampled_from(ALPHABET),
                                        max_size=3),
           batched=st.booleans(), replicated=st.booleans())
    def test_same_as_the_store_loop_over_the_heap_merge(
            self, ops, ranges, stop, limit, rejected, batched,
            replicated):
        check_table_scan(ops, ranges, stop, limit, rejected, batched,
                         replicated)

    def test_a_filtered_chunk_cancelled_before_it_fills(self):
        # 300 keys in one region: the deadline's second check is the
        # merge's 128th entry, inside the first list, after the filter
        # has turned keys away.
        check_table_scan([("fill", 0, 300, 1, b"")], [(b"", None)],
                         ("deadline", 1), None, {0, 1, 127}, True, False,
                         split_bytes=1 << 20)


def check_table_scan(ops, ranges, stop, limit, rejected, batched,
                     replicated, split_bytes=700):
    store, table = _build_table(ops, replicated, split_bytes)
    spec = ScanSpec(ranges=ranges, limit=limit,
                    key_filter=None if rejected is None
                    else _rejects(rejected))
    api = type(table).scan_batches if batched else type(table).scan

    def scan(open_scan):
        return lambda: consume(lambda ctx: open_scan(ctx), stop)

    handed, _ = twin(
        store.stats, store._caches,
        scan(lambda ctx: api(table, spec, ctx)),
        scan(lambda ctx: table_scan_reference(table, spec, ctx,
                                              batched)))
    if batched:
        assert all(0 < len(batch) <= 256 for batch in handed)


def _loaded(rows: int, runs: int = 1):
    store = KVStore(num_servers=1, cache_bytes_per_server=0,
                    flush_bytes=1 << 30, block_bytes=256)
    table = store.create_table("t")
    for run in range(runs):
        for i in range(run, rows, runs):
            table.put(b"%06d" % i, b"v" * 20)
        table.flush()
    return store, table


class TestLimitAccountsWhatItHandsOut:
    """``limit=10`` over 1 000 keys hands out 10 pairs, 260 bytes, from
    either API, and reads no block past the last one handed out."""

    def test_both_apis_account_exactly_the_limit(self):
        for api in ("scan", "scan_batches"):
            store, table = _loaded(1000)
            before = store.stats.snapshot()
            out = list(getattr(table, api)(ScanSpec(limit=10)))
            pairs = out if api == "scan" else [p for b in out for p in b]
            delta = store.stats.snapshot().delta(before)
            (sstable,) = table.regions()[0].sstables
            assert len(pairs) == 10, api
            assert delta.result_bytes == 260, api
            # Nine 26-byte entries fill a 256-byte block: two blocks.
            assert delta.blocks_read == sstable._block_of(9) + 1 == 2

    def test_no_block_is_read_past_the_last_pair(self):
        store, table = _loaded(1000)
        (sstable,) = table.regions()[0].sstables
        for limit in (1, 9, 10, 11, 255, 256, 257, 600):
            before = store.stats.snapshot()
            batches = list(table.scan_batches(ScanSpec(limit=limit)))
            delta = store.stats.snapshot().delta(before)
            assert [len(b) for b in batches] == \
                [256] * (limit // 256) + [limit % 256] * bool(limit % 256)
            last = sstable._block_of(limit - 1)
            assert delta.blocks_read == last + 1, limit
            assert delta.result_bytes == 26 * limit


class TestOneSourceIsBlockSlices:
    def test_a_compacted_region_merges_in_block_slices(self):
        store, table = _loaded(1000)
        (region,) = table.regions()
        (sstable,) = region.sstables
        runs = [(lo, hi) for _k, _v, lo, hi, _m
                in region.run_merge([(b"", None)], None)]
        starts = sstable._block_starts
        assert runs == list(zip(starts, starts[1:] + [len(sstable)]))

    def test_interleaved_runs_merge_an_entry_at_a_time(self):
        store, table = _loaded(40, runs=4)
        (region,) = table.regions()
        runs = [keys[lo:hi] for keys, _v, lo, hi, _m
                in region.run_merge([(b"", None)], None)]
        assert [len(keys) for keys in runs] == [1] * 40
        assert [key for keys in runs for key in keys] == \
            [b"%06d" % i for i in range(40)]

    def test_send_gathers_exactly_cap_live_entries(self):
        store, table = _loaded(1000, runs=3)
        (region,) = table.regions()
        region.put(b"%06d" % 4, None)  # a tombstone is not handed out
        runs = region.run_merge([(b"", None)], None)
        gathered = [runs.send(cap) for cap in (1, 7, 300, 2)]
        assert [len(keys) for keys, *_ in gathered] == [1, 7, 300, 2]
        assert all(run[2:] == (0, len(run[0]), False) for run in gathered)
        assert [key for keys, *_ in gathered for key in keys] == \
            [b"%06d" % i for i in range(311) if i != 4]
