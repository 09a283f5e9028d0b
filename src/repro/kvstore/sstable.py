"""Immutable sorted runs (HFiles) with block-granular read accounting."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right

from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import IOStats
from repro.kvstore.scan import seek_spans

_SSTABLE_IDS = itertools.count()

#: Simulated HFile block size.  HBase defaults to 64 KiB; the reproduction
#: uses 8 KiB because datasets are scaled down ~100x.
DEFAULT_BLOCK_BYTES = 8 * 1024


class SSTable:
    """One immutable sorted run of ``(key, value)`` pairs.

    Entries are grouped into fixed-size blocks.  Any scan that touches a
    block charges the whole block's bytes to the I/O statistics unless the
    block is present in the block cache — exactly the cost profile of an
    HBase region server read.
    """

    def __init__(self, entries: list[tuple[bytes, bytes | None]],
                 stats: IOStats,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 charge_write: bool = True):
        self.sstable_id = next(_SSTABLE_IDS)
        self._keys = [k for k, _ in entries]
        self._values = [v for _, v in entries]
        self._stats = stats
        self._block_bytes = block_bytes
        # block i covers entries [_block_starts[i], _block_starts[i+1])
        self._block_starts: list[int] = []
        self._block_sizes: list[int] = []
        self._build_blocks()
        self.total_bytes = sum(self._block_sizes)
        if charge_write:
            stats.record_disk_write(self.total_bytes)

    def _build_blocks(self) -> None:
        current = 0
        start = 0
        for i, (key, value) in enumerate(zip(self._keys, self._values)):
            entry = len(key) + (len(value) if value is not None else 0)
            if current and current + entry > self._block_bytes:
                self._block_starts.append(start)
                self._block_sizes.append(current)
                start = i
                current = 0
            current += entry
        if current or not self._block_starts:
            self._block_starts.append(start)
            self._block_sizes.append(current)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def num_blocks(self) -> int:
        return len(self._block_sizes)

    @property
    def first_key(self) -> bytes | None:
        return self._keys[0] if self._keys else None

    @property
    def last_key(self) -> bytes | None:
        return self._keys[-1] if self._keys else None

    def _block_of(self, entry_index: int) -> int:
        return bisect_right(self._block_starts, entry_index) - 1

    def _charge_block(self, block: int, cache: BlockCache | None,
                      server: int) -> None:
        size = self._block_sizes[block]
        key = ("sst", self.sstable_id, block)
        if cache is not None and cache.contains(key):
            self._stats.record_cache_read(size)
            return
        self._stats.record_disk_read(size, server)
        if cache is not None:
            cache.admit(key, size)

    def spans(self, ranges, cache: BlockCache | None = None,
              server: int = 0):
        """Yield ``(lo, hi)``: index spans of this run's keys in
        ``ranges`` (sorted, disjoint :data:`~repro.kvstore.scan.Bounds`),
        in key order, each inside one block.

        One forward pass serves every range, seeking past ranges that
        hold no key of this run (:func:`~repro.kvstore.scan.seek_spans`),
        and cuts each span at block boundaries.  A block is charged once,
        as the pass first reaches it (even if several ranges land in
        it), just before its first span is handed out.  Charging stays
        lazy, so an early ``LIMIT`` or a cancelled consumer never pays
        for blocks the pass did not reach.
        """
        keys = self._keys
        starts = self._block_starts
        size = len(keys)
        charged = -1
        for lo, hi in seek_spans(keys, ranges):
            block = self._block_of(lo)
            while lo < hi:
                block_end = starts[block + 1] if block + 1 < len(starts) \
                    else size
                if block != charged:
                    self._charge_block(block, cache, server)
                    charged = block
                yield lo, min(hi, block_end)
                lo = block_end
                block += 1

    def get(self, key: bytes, cache: BlockCache | None = None,
            server: int = 0) -> tuple[bool, bytes | None]:
        """Point lookup; charges the containing block on access."""
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            self._charge_block(self._block_of(i), cache, server)
            return True, self._values[i]
        return False, None

    def entries(self):
        """All entries in key order without I/O charges (compaction path
        charges reads explicitly via :meth:`total_bytes`)."""
        return zip(self._keys, self._values)
