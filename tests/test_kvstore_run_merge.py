"""A region scan merges runs, not entries, and reads what the entry
merge read.

``kvstore/merge.py::RunMerge`` hands out the longest slice of the
source with the smallest head that lies below every other head; the
entry-at-a-time heap merge it replaced lives on as
``tests/oracles.py::region_scan_reference`` (and, for the store loop
over it, ``table_scan_reference``).  Twin runs over one store — the
block caches restored between them — must agree on the lists handed
out, the ``IOStats`` deltas and the block-cache LRU order, for full
scans, abandoned ones and ones a deadline cancels; a pair scan run to
its end must agree with the pair walk.
"""

from hypothesis import given, settings, strategies as st

from conftest import cache_state, restore
from oracles import sstable_scan_reference, table_scan_reference
from repro.errors import QueryTimeoutError
from repro.kvstore import KVStore, merge
from repro.kvstore.iostats import IOStats
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


def pair_lists(batches):
    """``scan_batches``' ``(keys, values)`` lists as lists of pairs, the
    shape the reference walk hands out."""
    for keys, values in batches:
        yield list(zip(keys, values))


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
        # One region on a one-table store; a follower read is routed to
        # a replica whose memstore need not match the primary's.
        store = KVStore(num_servers=2, cache_bytes_per_server=CACHE_BYTES,
                        flush_bytes=1 << 30, split_bytes=1 << 30,
                        block_bytes=BLOCK_BYTES)
        table = store.create_table("t")
        (region,) = table.regions()
        for op in ops:
            apply(op, region.put, lambda key: region.put(key, None),
                  lambda name: getattr(region, name)())
        if follower is not None:
            replica = FollowerReplica(server=1)
            for key, value in follower.items():
                replica.memstore.put(key, value)
            store.route_read = lambda *args: replica
        if warm:
            for sstable in region.sstables:
                list(sstable_scan_reference(sstable, [(b"\x7f", None)],
                                            store._caches[0]))
        spec = ScanSpec(ranges=ranges)

        def scan(open_scan):
            return lambda: consume(open_scan, stop)

        twin(store.stats, store._caches,
             scan(lambda ctx: pair_lists(table.scan_batches(spec, ctx))),
             scan(lambda ctx: table_scan_reference(table, spec, ctx,
                                                   batched=True)))


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
           rejected=st.none() | st.sets(st.sampled_from(ALPHABET),
                                        max_size=3),
           replicated=st.booleans())
    def test_same_as_the_store_loop_over_the_heap_merge(
            self, ops, ranges, stop, rejected, replicated):
        check_table_scan(ops, ranges, stop, rejected, replicated)

    def test_a_filtered_chunk_cancelled_before_it_fills(self):
        # 300 keys in one region: the deadline's second check is the
        # merge's 128th entry, inside the first list, after the filter
        # has turned keys away.
        check_table_scan([("fill", 0, 300, 1, b"")], [(b"", None)],
                         ("deadline", 1), {0, 1, 127}, False,
                         split_bytes=1 << 20)


def check_table_scan(ops, ranges, stop, rejected, replicated,
                     split_bytes=700):
    store, table = _build_table(ops, replicated, split_bytes)
    spec = ScanSpec(ranges=ranges, key_filter=None if rejected is None
                    else _rejects(rejected))

    def scan(open_scan):
        return lambda: consume(open_scan, stop)

    handed, _ = twin(
        store.stats, store._caches,
        scan(lambda ctx: pair_lists(table.scan_batches(spec, ctx))),
        scan(lambda ctx: table_scan_reference(table, spec, ctx,
                                              batched=True)))
    assert all(0 < len(batch) <= 256 for batch in handed)
    if stop[0] == "all":
        # Run to the end, the pairs of ``scan`` are the pair walk's.
        twin(store.stats, store._caches,
             scan(lambda ctx: table.scan(spec, ctx)),
             scan(lambda ctx: table_scan_reference(table, spec, ctx)))


def _loaded(rows: int, runs: int = 1):
    store = KVStore(num_servers=1, cache_bytes_per_server=0,
                    flush_bytes=1 << 30, block_bytes=256)
    table = store.create_table("t")
    for run in range(runs):
        for i in range(run, rows, runs):
            table.put(b"%06d" % i, b"v" * 20)
        table.flush()
    return store, table


class TestOneSourceIsBlockSlices:
    """A step of the merge hands out one source's slice: a block slice
    when one source is left, one entry where sources interleave."""

    @staticmethod
    def slices(monkeypatch):
        """The ``(lo, hi)`` of every slice of more than one entry the
        merge takes (a single entry is appended without a slice)."""
        taken = []

        def spy(keys, values, lo, hi, *rest):
            taken.append((lo, hi))
            return live_slice(keys, values, lo, hi, *rest)
        live_slice = merge._live_slice
        monkeypatch.setattr(merge, "_live_slice", spy)
        return taken

    def test_a_compacted_region_merges_in_block_slices(self, monkeypatch):
        store, table = _loaded(1000)
        (region,) = table.regions()
        (sstable,) = region.sstables
        taken = self.slices(monkeypatch)
        lists = list(region.run_merge([(b"", None)], None))
        # Block slices, also cut where a list fills.
        cuts = sorted({*sstable._block_starts, 256, 512, 768})
        slices = zip(cuts, cuts[1:] + [len(sstable)])
        assert taken == [(lo, hi) for lo, hi in slices if hi - lo > 1]
        assert [len(keys) for keys, _ in lists] == [256, 256, 256, 232]

    def test_interleaved_runs_merge_an_entry_at_a_time(self, monkeypatch):
        store, table = _loaded(40, runs=4)
        (region,) = table.regions()
        taken = self.slices(monkeypatch)
        keys, _ = next(region.run_merge([(b"", None)], None))
        assert taken == []
        assert keys == [b"%06d" % i for i in range(40)]

    def test_every_list_but_the_last_holds_256_live_entries(self):
        store, table = _loaded(1000, runs=3)
        (region,) = table.regions()
        region.put(b"%06d" % 4, None)  # a tombstone is not handed out
        # Deadline checks that never trip cut no list short.
        lists = list(region.run_merge([(b"", None)], None,
                                      ctx=Countdown(1 << 30)))
        assert [len(keys) for keys, _ in lists] == [256, 256, 256, 231]
        assert [key for keys, _ in lists for key in keys] == \
            [b"%06d" % i for i in range(1000) if i != 4]

    def test_no_merge_where_no_source_holds_a_key(self):
        store, table = _loaded(100, runs=2)
        (region,) = table.regions()
        before = store.stats.snapshot()
        assert region.run_merge([(b"000010a", b"000010b")], None) is None
        assert store.stats.snapshot().delta(before).blocks_read == 0

    def test_a_key_filter_counts_what_it_turns_away(self):
        store, table = _loaded(1000, runs=2)
        (region,) = table.regions()
        before = store.stats.snapshot()
        runs = region.run_merge([(b"", None)], None,
                                key_filter=lambda key: int(key) % 3 == 0)
        keys, _ = next(runs)
        # 256 accepted keys (every third), the 510 between them read and
        # turned away; the merge stops at the 256th.
        assert keys == [b"%06d" % i for i in range(0, 768, 3)]
        assert store.stats.snapshot().delta(before).scan_keys_rejected \
            == 510
