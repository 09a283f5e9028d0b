"""Region internals: flush/compaction, merge correctness."""

from repro.kvstore.iostats import IOStats
from repro.kvstore.region import Region


def scan(region, ranges):
    """Every live ``(key, value)`` of ``ranges``: the lists of the
    region's run merge, concatenated (no merge: none)."""
    runs = region.run_merge(ranges, None)
    return [pair for keys, values in runs or ()
            for pair in zip(keys, values)]


def make_region(**kwargs):
    defaults = dict(start_key=b"", end_key=None, stats=IOStats(),
                    flush_bytes=1024, block_bytes=256)
    defaults.update(kwargs)
    return Region(**defaults)


class TestFlushCompact:
    def test_auto_flush_on_threshold(self):
        region = make_region(flush_bytes=256)
        for i in range(50):
            region.put(f"k{i:03d}".encode(), b"v" * 20)
        assert len(region.sstables) >= 1

    def test_compaction_merges_runs(self):
        region = make_region()
        for generation in range(10):
            region.put(b"key", f"gen{generation}".encode())
            region.flush()
        region.compact()
        assert len(region.sstables) == 1
        assert region.get(b"key", None) == b"gen9"

    def test_compaction_drops_tombstones(self):
        region = make_region()
        region.put(b"a", b"1")
        region.flush()
        region.put(b"a", None)
        region.flush()
        region.compact()
        assert region.get(b"a", None) is None
        assert scan(region, [(b"", b"\xff")]) == []
        assert len(region.sstables) == 1

    def test_scan_merges_memstore_over_sstables(self):
        region = make_region()
        region.put(b"a", b"old")
        region.flush()
        region.put(b"a", b"new")       # memstore shadows the run
        region.put(b"b", b"only-mem")
        got = dict(scan(region, [(b"", b"\xff")]))
        assert got == {b"a": b"new", b"b": b"only-mem"}

    def test_scan_respects_region_bounds(self):
        region = make_region(start_key=b"c", end_key=b"f")
        for key in (b"c", b"d", b"e"):
            region.put(key, key)
        got = [k for k, _v in scan(region, [(b"", b"\xff")])]
        assert got == [b"c", b"d", b"e"]

    def test_all_entries_for_split(self):
        region = make_region()
        region.put(b"a", b"1")
        region.flush()
        region.put(b"b", b"2")
        region.put(b"a", None)  # deleted
        assert region.all_entries() == [(b"b", b"2")]


class TestScanBounds:
    def test_stop_is_exclusive(self):
        region = make_region()
        for key in (b"a", b"b", b"c"):
            region.put(key, key)
        got = [k for k, _v in scan(region, [(b"a", b"c")])]
        assert got == [b"a", b"b"]

    def test_region_end_key_caps_scan(self):
        region = make_region(start_key=b"", end_key=b"c")
        region.put(b"a", b"1")
        region.put(b"b", b"2")
        # Keys at/above the region's end key belong to the next region.
        got = [k for k, _v in scan(region, [(b"", b"\xff")])]
        assert got == [b"a", b"b"]
