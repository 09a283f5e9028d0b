"""SSTable blocks, charging, and lookups."""

from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.sstable import SSTable


def scan(sstable, ranges, cache=None):
    """The entries of ``sstable.spans``, as ``(key, value)`` pairs."""
    return [(sstable._keys[i], sstable._values[i])
            for lo, hi in sstable.spans(ranges, cache) for i in range(lo, hi)]


def make_sstable(n=100, value_size=100, block_bytes=1024, stats=None):
    stats = stats if stats is not None else IOStats()
    entries = [(f"k{i:05d}".encode(), b"v" * value_size)
               for i in range(n)]
    return SSTable(entries, stats, block_bytes), stats


def test_write_charged_once():
    sstable, stats = make_sstable()
    assert stats.disk_bytes_written == sstable.total_bytes
    assert sstable.total_bytes > 0


def test_charge_write_flag():
    stats = IOStats()
    SSTable([(b"a", b"1")], stats, charge_write=False)
    assert stats.disk_bytes_written == 0


def test_scan_returns_half_open_range():
    sstable, _ = make_sstable(50)
    got = [k for k, _v in scan(sstable, [(b"k00010", b"k00020")])]
    assert got == [f"k{i:05d}".encode() for i in range(10, 20)]


def test_scan_charges_only_touched_blocks():
    sstable, stats = make_sstable(100, value_size=100, block_bytes=1024)
    before = stats.disk_bytes_read
    scan(sstable, [(b"k00000", b"k00005")])
    delta = stats.disk_bytes_read - before
    assert 0 < delta < sstable.total_bytes


def test_full_scan_charges_everything():
    sstable, stats = make_sstable()
    before = stats.disk_bytes_read
    scan(sstable, [(b"", b"\xff" * 8)])
    assert stats.disk_bytes_read - before == sstable.total_bytes


def test_block_cache_absorbs_repeat_reads():
    sstable, stats = make_sstable()
    cache = BlockCache(10 ** 6)
    scan(sstable, [(b"k00000", b"k00005")], cache)
    disk_after_first = stats.disk_bytes_read
    scan(sstable, [(b"k00000", b"k00005")], cache)
    assert stats.disk_bytes_read == disk_after_first
    assert stats.cache_hits > 0


def test_get_found_and_missing():
    sstable, _ = make_sstable(10)
    assert sstable.get(b"k00003") == (True, b"v" * 100)
    assert sstable.get(b"k99999") == (False, None)
    assert sstable.get(b"k000035") == (False, None)  # between keys


def test_first_last_keys():
    sstable, _ = make_sstable(10)
    assert sstable.first_key == b"k00000"
    assert sstable.last_key == b"k00009"


def test_tombstones_preserved():
    stats = IOStats()
    sstable = SSTable([(b"a", None), (b"b", b"1")], stats)
    assert sstable.get(b"a") == (True, None)
