"""Region/table/store behaviour: routing, splits, merge semantics."""

from bisect import bisect_right
from itertools import islice

import pytest

from repro.dataframe.batch import DEFAULT_BATCH_ROWS
from repro.errors import TableExistsError, TableNotFoundError
from repro.kvstore import KVStore, ScanSpec


def small_store(**kwargs):
    defaults = dict(num_servers=3, flush_bytes=4 * 1024,
                    split_bytes=32 * 1024, block_bytes=1024)
    defaults.update(kwargs)
    return KVStore(**defaults)


class TestTableManagement:
    def test_create_get_drop(self):
        store = small_store()
        store.create_table("t")
        assert store.has_table("t")
        store.drop_table("t")
        assert not store.has_table("t")

    def test_duplicate_create_raises(self):
        store = small_store()
        store.create_table("t")
        with pytest.raises(TableExistsError):
            store.create_table("t")

    def test_missing_table_raises(self):
        store = small_store()
        with pytest.raises(TableNotFoundError):
            store.table("nope")
        with pytest.raises(TableNotFoundError):
            store.drop_table("nope")

    def test_table_names_sorted(self):
        store = small_store()
        for name in ("zeta", "alpha", "mid"):
            store.create_table(name)
        assert store.table_names() == ["alpha", "mid", "zeta"]


class TestReadWrite:
    def test_put_get_delete(self):
        table = small_store().create_table("t")
        table.put(b"k1", b"v1")
        assert table.get(b"k1") == b"v1"
        table.delete(b"k1")
        assert table.get(b"k1") is None

    def test_overwrite(self):
        table = small_store().create_table("t")
        table.put(b"k", b"old")
        table.put(b"k", b"new")
        assert table.get(b"k") == b"new"

    def test_scan_is_sorted_and_inclusive(self):
        table = small_store().create_table("t")
        import random
        keys = [f"{i:04d}".encode() for i in range(200)]
        shuffled = keys[:]
        random.Random(5).shuffle(shuffled)
        for key in shuffled:
            table.put(key, key)
        # The range is half-open: ``0059\x00`` is the first key past
        # ``0059``, so the scan includes it.
        got = [k for k, _ in table.scan(
            ScanSpec(ranges=[(b"0050", b"0059\x00")]))]
        assert got == keys[50:60]

    def test_deleted_keys_not_scanned(self):
        table = small_store().create_table("t")
        for i in range(20):
            table.put(f"{i:03d}".encode(), b"v")
        table.delete(b"010")
        table.flush()
        keys = [k for k, _ in table.scan(ScanSpec.full())]
        assert b"010" not in keys
        assert len(keys) == 19

    def test_delete_survives_flush_ordering(self):
        # Value flushed to an SSTable, tombstone in the memstore.
        table = small_store().create_table("t")
        table.put(b"k", b"v")
        table.flush()
        table.delete(b"k")
        assert table.get(b"k") is None
        assert [k for k, _ in table.scan(ScanSpec.full())] == []

    def test_update_across_runs_newest_wins(self):
        table = small_store().create_table("t")
        table.put(b"k", b"one")
        table.flush()
        table.put(b"k", b"two")
        table.flush()
        assert table.get(b"k") == b"two"
        values = [v for _, v in table.scan(ScanSpec.full())]
        assert values == [b"two"]


class TestPrefixScan:
    """A prefix scan is the range from the prefix to its successor, or
    to the end of the table when the prefix is all ``0xff``."""

    def test_prefix_includes_keys_longer_than_16_bytes_past_prefix(self):
        # Regression: the old end bound (prefix + b"\xff" * 16) silently
        # excluded keys extending more than 16 bytes past the prefix.
        table = small_store().create_table("t")
        long_key = b"p" + b"x" * 40
        table.put(long_key, b"deep")
        table.put(b"p", b"exact")
        table.put(b"p\xff" * 20, b"ff-heavy")
        got = dict(table.scan(ScanSpec(ranges=[(b"p", b"q")])))
        assert got == {long_key: b"deep", b"p": b"exact",
                       b"p\xff" * 20: b"ff-heavy"}

    def test_prefix_excludes_successor_keys(self):
        table = small_store().create_table("t")
        table.put(b"pa", b"in")
        table.put(b"q", b"out")
        table.put(b"q" + b"\x00" * 30, b"out-too")
        got = [k for k, _ in table.scan(ScanSpec(ranges=[(b"p", b"q")]))]
        assert got == [b"pa"]

    def test_all_ff_prefix_scans_to_table_end(self):
        table = small_store().create_table("t")
        table.put(b"\xff\xffz", b"v")
        table.put(b"a", b"other")
        got = [k for k, _ in table.scan(
            ScanSpec(ranges=[(b"\xff\xff", None)]))]
        assert got == [b"\xff\xffz"]

    def test_unbounded_scans_have_no_key_length_ceiling(self):
        # Regression: successor-less prefixes fell back to a finite
        # b"\xff" * 32 bound, excluding matching keys longer than 32
        # bytes.  stop=None is a true "to the end of the table".
        table = small_store().create_table("t")
        beyond = b"\xff" * 40
        table.put(beyond, b"v")
        table.put(b"a", b"other")
        for spec in (ScanSpec(ranges=[(b"\xff\xff", None)]), ScanSpec(),
                     ScanSpec.full()):
            assert dict(table.scan(spec))[beyond] == b"v"


class TestRegionSplitting:
    def test_split_occurs_under_load(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1

    def test_data_survives_splits(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.get(b"000000") == payload
        assert table.get(b"001999") == payload
        keys = [k for k, _ in table.scan(ScanSpec.full())]
        assert len(keys) == 2000
        assert keys == sorted(keys)

    def test_regions_spread_over_servers(self):
        store = small_store()
        table = store.create_table("t")
        payload = b"x" * 200
        for i in range(4000):
            table.put(f"{i:06d}".encode(), payload)
        assert len(table.servers_used()) > 1

    def test_delete_then_split_keeps_deletes(self):
        # Tombstoned keys must not resurrect when the region splits:
        # the split merges runs and drops masked values and tombstones.
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(200):
            table.put(f"{i:06d}".encode(), payload)
        deleted = [f"{i:06d}".encode() for i in range(0, 200, 7)]
        for key in deleted:
            table.delete(key)
        for i in range(200, 2000):  # grow past the split threshold
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        for key in deleted:
            assert table.get(key) is None
        keys = set(k for k, _ in table.scan(ScanSpec.full()))
        assert keys.isdisjoint(deleted)
        assert len(keys) == 2000 - len(deleted)

    def test_scan_limit_crossing_split_boundary(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        # A consumer that stops past the first region's share sees the
        # scan continue seamlessly into the next region, in key order.
        limit = len(table._regions[0].all_entries()) + 25
        got = [k for k, _ in islice(table.scan(ScanSpec.full()), limit)]
        assert got == [f"{i:06d}".encode() for i in range(limit)]

    def test_split_on_single_server_store(self):
        # All regions inevitably share the one server; splitting must
        # still work and keep routing consistent.
        table = small_store(num_servers=1).create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        assert table.servers_used() == {0}
        assert table.get(b"001234") == payload

    def test_split_aborts_on_single_giant_key(self):
        # One key overwritten past the split threshold cannot split
        # (split_key would equal start_key); the store must not loop.
        store = small_store(split_bytes=2048, flush_bytes=512)
        table = store.create_table("t")
        for _ in range(50):
            table.put(b"only-key", b"x" * 400)
        assert table.num_regions == 1
        assert table.get(b"only-key") == b"x" * 400

    def test_compaction_reclaims_tombstones(self):
        table = small_store().create_table("t")
        for i in range(100):
            table.put(f"{i:03d}".encode(), b"v" * 50)
        table.flush()
        for i in range(100):
            table.delete(f"{i:03d}".encode())
        table.flush()
        table.compact()
        assert table.count() == 0
        assert table.disk_bytes == 0


class TestIOAccounting:
    def test_scan_records_result_bytes(self):
        store = small_store()
        table = store.create_table("t")
        table.put(b"abc", b"12345")
        before = store.stats.snapshot()
        list(table.scan(ScanSpec.full()))
        delta = store.stats.snapshot().delta(before)
        assert delta.result_bytes == len(b"abc") + len(b"12345")
        assert delta.scans_started == 1

    def test_flush_charges_disk_write(self):
        store = small_store()
        table = store.create_table("t")
        table.put(b"k", b"v" * 100)
        before = store.stats.disk_bytes_written
        table.flush()
        assert store.stats.disk_bytes_written > before

    def test_cache_cleared_between_queries(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(500):
            table.put(f"{i:04d}".encode(), b"v" * 100)
        table.flush()
        spec = ScanSpec(ranges=[(b"0000", b"0100")])
        list(table.scan(spec))
        base = store.stats.disk_bytes_read
        list(table.scan(spec))  # cache hit
        cached_delta = store.stats.disk_bytes_read - base
        store.clear_caches()
        base = store.stats.disk_bytes_read
        list(table.scan(spec))  # cold again
        cold_delta = store.stats.disk_bytes_read - base
        assert cached_delta == 0
        assert cold_delta > 0


def _key(i: int) -> bytes:
    return f"{i:05d}".encode()


def _every_tenth_range(count: int, width: int = 3):
    """``count`` disjoint ranges: ``width`` keys out of every ten."""
    return [(_key(10 * i), _key(10 * i + width)) for i in range(count)]


class TestScanSpecRanges:
    def test_rejects_unsorted_and_overlapping(self):
        with pytest.raises(ValueError):
            ScanSpec(ranges=[(b"m", b"p"), (b"a", b"c")])
        with pytest.raises(ValueError):
            ScanSpec(ranges=[(b"a", b"m"), (b"l", b"p")])
        with pytest.raises(ValueError):
            ScanSpec(ranges=[(b"a", None), (b"x", b"z")])
        with pytest.raises(ValueError):
            ScanSpec(ranges=((b"a", b"c"), (b"a", b"c")))

    def test_adjacent_ranges_and_empty_ranges_are_fine(self):
        spec = ScanSpec(ranges=[(b"a", b"c"), (b"c", b"e"), (b"e", None)])
        assert spec.ranges == ((b"a", b"c"), (b"c", b"e"), (b"e", None))
        # A range that selects nothing is dropped, wherever it sits.
        spec = ScanSpec(ranges=[(b"x", b"b"), (b"c", b"c"), (b"d", b"e")])
        assert spec.ranges == ((b"d", b"e"),)
        assert ScanSpec(ranges=[]).ranges == ()

    def test_single_range_is_the_one_element_case(self):
        assert ScanSpec(ranges=[(b"a", b"c")]).ranges == ((b"a", b"c"),)
        assert ScanSpec().ranges == ScanSpec.full().ranges == \
            ((b"", None),)
        assert ScanSpec(ranges=[(b"c", b"a")]).ranges == ()
        table = small_store().create_table("t")
        table.put(b"b", b"v")
        assert list(table.scan(ScanSpec(ranges=[(b"c", b"a")]))) == []
        assert list(table.scan(ScanSpec(ranges=[]))) == []


def overlaps(region, start, stop) -> bool:
    """True when [start, stop) intersects the region's key range."""
    if region.end_key is not None and start >= region.end_key:
        return False
    return stop is None or stop > region.start_key


class TestRegionRouting:
    def linear(self, table, bounds):
        """The definition: every region some range overlaps, and for
        each the ranges that overlap it."""
        visits = []
        for region in table.regions():
            ranges = [b for b in bounds if overlaps(region, *b)]
            if ranges:
                visits.append((region, ranges))
        return visits

    def routed(self, table, bounds):
        return [(region, list(ranges))
                for region, ranges in table._regions_overlapping(bounds)]

    def test_presplit_64_matches_the_linear_definition(self):
        import random
        table = small_store().create_table("t", presplit=64)
        assert table.num_regions == 64
        rng = random.Random(64)
        for _ in range(300):
            cuts = sorted({bytes(rng.randrange(256)
                                 for _ in range(rng.randint(1, 3)))
                           for _ in range(rng.randint(2, 12))})
            gaps = list(zip(cuts, cuts[1:])) + [(cuts[-1], None)]
            bounds = ScanSpec(ranges=[
                gap for gap in gaps if rng.random() < 0.6]).ranges
            assert self.routed(table, bounds) == self.linear(table, bounds)

    def test_single_ranges_on_region_boundaries(self):
        table = small_store().create_table("t", presplit=64)
        for bounds in ([(b"", None)], [(b"\x04", b"\x08")],
                       [(b"\x03\xff", b"\x04")], [(b"\x04", b"\x04\x00")],
                       [(b"\xfc", None)], [(b"\xff\xff", None)]):
            assert self.routed(table, bounds) == self.linear(table, bounds)
        first, second, third = table.regions()[:3]
        assert (second.start_key, second.end_key) == (b"\x04", b"\x08")

        def regions(start, stop):
            return [r for r, _ in table._regions_overlapping(
                [(start, stop)])]

        assert regions(b"\x03", b"\x04\x00") == [first, second]
        assert regions(b"\x03", b"\x04") == [first]  # stops short
        assert regions(b"\x08", b"\x09") == [third]  # end is exclusive
        assert regions(b"\x05", b"\x06") == [second]

    def test_split_table_routes_like_the_linear_definition(self):
        store = small_store(split_bytes=2048, flush_bytes=512)
        table = store.create_table("t")
        for i in range(400):
            table.put(_key(i), b"v" * 40)
        assert table.num_regions > 4
        bounds = ScanSpec(ranges=_every_tenth_range(40)).ranges
        assert self.routed(table, bounds) == self.linear(table, bounds)
        # A range straddling a boundary shows up on both sides of it.
        straddled = table.regions()[1].start_key
        routed = self.routed(table, [(b"", straddled + b"\x00")])
        assert [region for region, _ in routed] == table.regions()[:2]


class TestMultiRangeScan:
    def loaded(self, rows=600, runs=3):
        """A one-region table whose rows sit in ``runs`` SSTables."""
        store = small_store(flush_bytes=1 << 30, split_bytes=1 << 30,
                            block_bytes=256)
        table = store.create_table("t")
        for run in range(runs):
            for i in range(run, rows, runs):
                table.put(_key(i), b"v" * 40)
            table.flush()
        return store, table

    def split_over_servers(self):
        """A 600-row table that has split into regions on every server."""
        store = small_store(split_bytes=4096, flush_bytes=1024)
        table = store.create_table("t")
        for i in range(600):
            table.put(_key(i), b"v" * 40)
        assert table.num_regions > 3
        return store, table

    def test_one_scan_and_one_visit_per_region(self):
        store, table = self.split_over_servers()
        reads = {r.region_id: r.reads for r in table.regions()}
        before = store.stats.snapshot()
        ranges = _every_tenth_range(60)
        rows = list(table.scan(ScanSpec(ranges=ranges)))
        delta = store.stats.snapshot().delta(before)
        assert [k for k, _ in rows] == [
            _key(10 * i + j) for i in range(60) for j in range(3)]
        assert delta.scans_started == 1
        assert delta.result_bytes == sum(len(k) + len(v) for k, v in rows)
        # Hotness counts the statement once per region it touched.
        assert all(r.reads == reads[r.region_id] + 1
                   for r in table.regions())

    def test_each_block_charged_at_most_once_per_pass(self):
        store, table = self.loaded()
        (region,) = table.regions()
        charged = []
        for sstable in region.sstables:
            original = sstable._charge_block

            def spy(block, cache, server, _sstable=sstable,
                    _original=original):
                charged.append((_sstable.sstable_id, block))
                _original(block, cache, server)
            sstable._charge_block = spy
        # 200 narrow ranges, several to a 256-byte block.
        ranges = [(_key(3 * i), _key(3 * i + 1)) for i in range(200)]
        assert len(list(table.scan(ScanSpec(ranges=ranges)))) == 200
        assert len(charged) == len(set(charged))
        assert len(charged) <= sum(s.num_blocks for s in region.sstables)

    def test_block_charging_stays_lazy_under_early_exit(self):
        store, table = self.loaded(rows=3000)
        (region,) = table.regions()
        spec = ScanSpec(ranges=_every_tenth_range(300))
        expected = [_key(10 * i + j) for i in range(300) for j in range(3)]
        first_list = expected[:DEFAULT_BATCH_ROWS]
        # The runs interleave key by key; the other two runs' heads
        # after the list are the next two keys, already pulled.
        last_pulled = expected[DEFAULT_BATCH_ROWS + 1]
        reached = sum(
            sstable._block_of(bisect_right(sstable._keys, last_pulled) - 1)
            + 1 for sstable in region.sstables)
        for open_scan in (table.scan, table.scan_batches):
            store.clear_caches()
            before = store.stats.snapshot()
            scan = open_scan(spec)
            first = next(scan)
            scan.close()
            delta = store.stats.snapshot().delta(before)
            # An abandoned scan accounted the one list it handed out
            # (a pair consumer gets the list's first pair) ...
            if open_scan == table.scan:
                assert first[0] == _key(0)
            else:
                assert first[0] == first_list
            assert delta.result_bytes == 45 * DEFAULT_BATCH_ROWS
            # ... and read no block past the merge's heads.
            assert delta.blocks_read + delta.cache_hits <= reached
            assert reached < sum(s.num_blocks for s in region.sstables) / 2

    def test_batched_scan_accounts_batches_handed_out(self):
        store, table = self.loaded(rows=3000, runs=1)
        before = store.stats.snapshot()
        scan = table.scan_batches(ScanSpec(ranges=_every_tenth_range(300)))
        batch = next(scan)
        scan.close()
        delta = store.stats.snapshot().delta(before)
        keys, values = batch
        assert keys == [
            _key(10 * i + j) for i in range(300)
            for j in range(3)][:DEFAULT_BATCH_ROWS]
        assert delta.scans_started == 1
        assert delta.result_bytes == sum(map(len, keys + values))

    def test_salted_lists_are_cut_after_the_bucket_merge(self):
        store = small_store()
        table = store.create_table("t", presplit=4, salt_buckets=4)
        keys = [_key(i) for i in range(600)]
        for key in reversed(keys):
            table.put(key, b"v")
        batches = list(table.scan_batches(ScanSpec.full()))
        assert [len(batch_keys) for batch_keys, _ in batches] == \
            [256, 256, 88]
        assert [key for batch_keys, _ in batches
                for key in batch_keys] == keys

    def test_deadline_cancels_mid_pass(self):
        from repro.errors import QueryTimeoutError
        from repro.kvstore.region import Region
        from repro.resilience import Deadline, RequestContext
        store, table = self.loaded(rows=3000, runs=1)
        (region,) = table.regions()
        deadline = Deadline(1.0)
        ctx = RequestContext(deadline=deadline)
        consumed = []
        with pytest.raises(QueryTimeoutError):
            for keys, _ in table.scan_batches(
                    ScanSpec(ranges=_every_tenth_range(300, width=8)),
                    ctx):
                consumed += keys
                deadline.charge(2.0)  # budget gone mid-pass
        # The pass was abandoned within one cancellation window of the
        # first list, many ranges short of the end, and stopped
        # charging blocks there.
        assert len(consumed) == DEFAULT_BATCH_ROWS
        (sstable,) = region.sstables
        window_end = DEFAULT_BATCH_ROWS + Region.CANCEL_CHECK_ROWS
        last = int(_every_tenth_range(300, width=8)[window_end // 8][0])
        assert store.stats.blocks_read <= sstable._block_of(last + 8) + 1
        assert store.stats.blocks_read < sstable.num_blocks / 2

    def test_partial_results_skip_a_dead_region(self):
        from repro.errors import RegionUnavailableError
        from repro.resilience import RequestContext
        store, table = self.split_over_servers()
        table.flush()
        victim = table.regions()[1]
        others = [r for r in table.regions()
                  if r.server != victim.server]
        assert others
        store.crash_server(victim.server, defer_failover=True)
        spec = ScanSpec(ranges=_every_tenth_range(60))
        with pytest.raises(RegionUnavailableError):
            list(table.scan(spec))
        ctx = RequestContext(partial_results=True)
        rows = list(table.scan(spec, ctx))
        dead = [r for r in table.regions() if r.server == victim.server]
        assert sorted(s["region_id"] for s in ctx.skipped_report) == \
            sorted(r.region_id for r in dead)
        expected = [_key(10 * i + j) for i in range(60) for j in range(3)]
        assert [k for k, _ in rows] == [
            k for k in expected
            if not any(overlaps(r, k, k + b"\x00") for r in dead)]

    def test_gray_fault_fires_once_per_region_visit(self):
        from repro.faults import FaultInjector, FaultPlan, SlowServer
        from repro.resilience import Deadline, RequestContext
        store, table = self.split_over_servers()
        slow = [r for r in table.regions() if r.server == 0]
        assert slow
        FaultInjector(FaultPlan([SlowServer(0, latency_ms=10.0)],
                                seed=0)).attach(store)
        ctx = RequestContext(deadline=Deadline(1e9))
        list(table.scan(ScanSpec(ranges=_every_tenth_range(60)), ctx))
        assert ctx.deadline.consumed_ms == pytest.approx(10.0 * len(slow))
